"""Self-test of the benchmark: every output check must pass on the
program's real outputs and fail on a corrupted copy of them, and
BENCHMARK.json must list the workloads and metrics that run.py reports.

    python3 perfbench/selftest.py

Exits 0 when every case behaves as expected. Takes about 10 s.
"""

import sys
from contextlib import nullcontext
from dataclasses import replace

import run  # pins BLAS before numpy loads
from run import checks, np


def corrupt_cases(pkg, scenario, poses, signal, outputs):
    """(name, failure reason or None) for each corruption."""
    engine_est, base_est, bound = outputs["engine"], outputs["baseline"], outputs["bound"]

    def collapsed(estimates):
        # the K=2 collapse: estimates pulled to within centimetres of the array
        return [replace(e, position=0.05 * e.position) for e in estimates]

    def turned(estimates, degrees):
        # a turn about the MS array's own normal: rotation NMSE 2 (1 - cos)
        c, s = np.cos(np.radians(degrees)), np.sin(np.radians(degrees))
        spin = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        out = []
        for e in estimates:
            full = checks.rotation(e.attitude.roll, e.attitude.pitch, e.attitude.yaw)
            out.append(replace(e, attitude=pkg.geometry.euler_from_rotation(full @ spin)))
        return out

    lb = np.asarray(bound.lb)
    vals, vecs = np.linalg.eigh(lb)
    negative = lb - 2.0 * vals[-1] * np.outer(vecs[:, -1], vecs[:, -1])

    def accuracy(estimates, label):
        return checks.check_accuracy(checks.pose_errors(estimates, poses), label)

    return [
        ("conjugated simulator phase", checks.check_signal(np.conj(signal.samples), scenario, poses)),
        ("estimator collapsed towards the BS", checks.check_estimates(collapsed(engine_est), poses, "engine")),
        ("baseline collapsed towards the BS", checks.check_estimates(collapsed(base_est), poses, "baseline")),
        ("estimator attitude flipped by 180 deg", checks.check_estimates(turned(engine_est, 180), poses, "engine")),
        ("baseline attitude flipped by 180 deg", checks.check_estimates(turned(base_est, 180), poses, "baseline")),
        ("estimator attitude turned by 35 deg", accuracy(turned(engine_est, 35), "engine")),
        ("baseline attitude turned by 35 deg", accuracy(turned(base_est, 35), "baseline")),
        ("bound with a negative eigenvalue", checks.check_bound(replace(bound, lb=negative), 1)),
    ]


def spec_mismatches() -> list:
    """Differences between BENCHMARK.json and what run.py reports."""
    from tracing import Tracer

    spec = run.SPEC
    found = []
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        found.append("workload names differ")
    for key, reported in (
        ("end_to_end", run.end_to_end_metrics([1.0], [1.0])),
        ("per_layer", run.layer_metrics(Tracer(), 1, {}, 0.0)),
    ):
        listed = {m["name"] for m in spec[key]}
        if set(reported) != listed:
            found.append(f"{key} metrics differ: {sorted(set(reported) ^ listed)}")
    return found


def main() -> int:
    pkg = run.load_package()
    bench = run.Bench(pkg, "reference-k1", seed=0)
    poses, signal, outputs = bench.trial(0, lambda name: nullcontext())
    outputs["engine"] = pkg.engine.run(signal, bench.scenario, bench.plan)

    ok = True
    reason, errors = bench.check(poses, signal, outputs)
    clean = [reason] + [checks.check_accuracy(e, label) for label, e in errors.items()]
    for problem in clean:
        if problem:
            print(f"FAIL clean outputs rejected: {problem}")
            ok = False
    if not any(clean):
        print("ok   clean outputs pass every check")
    for name, problem in corrupt_cases(pkg, bench.scenario, poses, signal, outputs):
        if problem:
            print(f"ok   {name}: {problem}")
        else:
            print(f"FAIL {name}: no check fired")
            ok = False
    for problem in spec_mismatches():
        print(f"FAIL BENCHMARK.json: {problem}")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
