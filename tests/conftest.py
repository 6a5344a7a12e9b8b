from hypothesis import settings

# property tests draw their examples from a fixed seed, so every Tier-1
# run checks the same cases; no per-example deadline on a loaded machine
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")
