import os

# one BLAS thread unless the environment says otherwise, set before numpy
# loads; the acceptance suite's forked workers inherit it, so they do not
# oversubscribe the cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from hypothesis import settings  # noqa: E402

# property tests draw their examples from a fixed seed, so every Tier-1
# run checks the same cases; no per-example deadline on a loaded machine
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")
