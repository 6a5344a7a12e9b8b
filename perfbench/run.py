"""Benchmark of the partitioned estimator (APPLE), the far-field baseline
and the misspecification-aware bound on the desk scene of criteria 8d/8+.

Run from the repository root:

    python3 perfbench/run.py --workload apple-k1 --seed 0 --seconds 30 --trace 0

Each workload is a fixed list of trials. Trial i is the sweep harness's
trial i of point 0 at base seed 0: one generator from
``SeedSequence([0, 0, i])`` draws the poses and then the noise, and the
program receives only those poses and the simulated signal. ``--seed``
sets the order in which a run visits the list, so every run does the same
work and fails the same operations. The list is run in whole rounds until
``--seconds`` would be overrun (at least one round), every output is
checked against computations made in `checks`, and the last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics, the tracing
overhead among them, and writes the spans to ``perfbench/out``. See
README.md in this directory.
"""

import os

# one BLAS thread, set before numpy loads: the figures then measure the
# program, not the scheduler
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 5
# trial i draws poses and noise from SeedSequence([TRIAL_SEED, POINT_INDEX, i])
# whatever --seed is: run time varies up to fivefold with the pose, and
# the estimator's attitude outliers depend on the noise, so only a fixed
# list does the same work and fails the same trials in every run
# (README.md)
TRIAL_SEED = 0
POINT_INDEX = 0
SCENE = dict(tx_power_dbm=20.0, distance_range=(1.5, 2.5), bs_n=32, ms_n=16, pattern="t5")
PARTITION = (4, 4)


@dataclass(frozen=True)
class Workload:
    num_ms: int
    trials: int
    estimator: bool  # engine.run on every trial
    references: bool  # run_baseline and compute_bound on every trial


# why each workload exists: BENCHMARK.json and README.md
WORKLOADS = {
    "apple-k1": Workload(num_ms=1, trials=24, estimator=True, references=False),
    "apple-k2": Workload(num_ms=2, trials=3, estimator=True, references=False),
    "reference-k1": Workload(num_ms=1, trials=3, estimator=False, references=True),
}

# metric names, units and bounds live in BENCHMARK.json
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in SPEC[key]}


def with_units(values: dict) -> dict:
    return {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="set up, print the wall-clock time and exit (used for setup_s)",
    )
    return parser.parse_args(argv)


def load_package():
    """Import the package from this checkout's ``src`` only."""
    if not (SRC / "nearfield_pae" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import nearfield_pae

    if not Path(nearfield_pae.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: nearfield_pae was imported from {nearfield_pae.__file__}")
    # the references import scipy.optimize on first call; a sweep pays
    # that once per process, so it belongs to set-up
    import scipy.optimize  # noqa: F401

    return nearfield_pae


def measure_setup(args) -> list:
    """Wall time from interpreter start to the point where the first trial
    would begin, in fresh interpreters."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--setup-probe",
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        spawned = time.time()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        samples.append(float(done.stdout.split()[-1]) - spawned)
    return samples


class Bench:
    """One workload's scene, its trial list, and the per-trial checks."""

    def __init__(self, pkg, name: str, seed: int):
        self.pkg = pkg
        self.workload = WORKLOADS[name]
        self.order = np.random.default_rng(seed).permutation(self.workload.trials)
        self.scenario = pkg.desk_scale_scenario(num_ms=self.workload.num_ms, **SCENE)
        self.plan = pkg.uniform_partition(self.scenario.bs, *PARTITION, self.scenario.lam)

    def trial(self, index: int, span):
        """Run trial ``index``; returns (poses, signal, outputs)."""
        pkg = self.pkg
        rng = np.random.default_rng(np.random.SeedSequence([TRIAL_SEED, POINT_INDEX, index]))
        outputs = {}
        with span("channel.draw_poses"):
            poses = pkg.channel.draw_poses(self.scenario, rng)
        with span("channel.simulate_received"):
            signal = pkg.channel.simulate_received(self.scenario, rng, poses)
        if self.workload.estimator:
            with span("engine.run"):
                outputs["engine"] = pkg.engine.run(signal, self.scenario, self.plan)
        if self.workload.references:
            with span("baseline.run_baseline"):
                outputs["baseline"] = pkg.baseline.run_baseline(signal, self.scenario)
            with span("mcrb.compute_bound"):
                outputs["bound"] = pkg.mcrb.compute_bound(poses, self.scenario, self.plan)
        return poses, signal, outputs

    def check(self, poses, signal, outputs) -> tuple:
        """(first failure reason or None, per-MS errors by estimator)."""
        reasons = [checks.check_signal(signal.samples, self.scenario, poses)]
        errors = {}
        for label in ("engine", "baseline"):
            if label in outputs:
                reasons.append(checks.check_estimates(outputs[label], poses, label))
                errors[label] = checks.pose_errors(outputs[label], poses)
        if "bound" in outputs:
            reasons.append(checks.check_bound(outputs["bound"], self.scenario.num_ms))
        return next((r for r in reasons if r), None), errors

    def round(self, tracer=None) -> dict:
        """One pass over the trial list; only the program's calls are timed,
        those of trials that raise included."""
        span = tracer.span if tracer else (lambda name: nullcontext())
        seconds, cpu_seconds, failures, errors = 0.0, 0.0, [], {}
        for index in self.order:
            index = int(index)
            if tracer:
                tracer.trial = index
            cpu_start, start = time.process_time(), time.perf_counter()
            try:
                with span("trial"):
                    poses, signal, outputs = self.trial(index, span)
            except Exception as exc:  # a raising trial is a failed operation
                failures.append(f"trial {index}: {type(exc).__name__}: {exc}")
                continue
            finally:
                seconds += time.perf_counter() - start
                cpu_seconds += time.process_time() - cpu_start
            reason, trial_errors = self.check(poses, signal, outputs)
            if reason:
                failures.append(f"trial {index}: {reason}")
                continue
            for label, errs in trial_errors.items():
                errors.setdefault(label, []).extend(errs)
        problems = [checks.check_accuracy(errs, label) for label, errs in errors.items()]
        return {
            "seconds": seconds,
            "cpu_seconds": cpu_seconds,
            "failures": failures,
            "errors": errors,
            "problems": [p for p in problems if p],
        }


def layer_metrics(tracer, traced_trials: int, errors: dict, overhead_pct: float) -> dict:
    seconds, calls = tracer.totals()
    counts = tracer.counts
    n = float(traced_trials)
    fits = calls["engine.laplace_fit"]
    pseudo = calls["mcrb.pseudotrue_fit"]

    engine_rmse, engine_nmse = checks.list_accuracy(errors.get("engine", []))
    base_rmse, base_nmse = checks.list_accuracy(errors.get("baseline", []))
    values = {
        "channel.simulate_s": seconds["channel.simulate_received"] / n,
        "aoa.estimate_s": seconds["engine.estimate_aoa_posteriors"] / n,
        "aoa.estimate_calls": calls["engine.estimate_aoa_posteriors"] / n,
        "engine.aoa_pass_s": seconds["engine.aoa_module_pass"] / n,
        "engine.fusion_s": seconds["engine.fuse_antenna_position"] / n,
        "engine.pose_messages_s": seconds["engine.update_pose_messages"] / n,
        "engine.feedback_s": seconds["engine.feedback_messages"] / n,
        "engine.feedback_calls": calls["engine.feedback_messages"] / n,
        "engine.final_map_s": seconds["engine.final_map"] / n,
        "engine.composite_evals": counts["composite_evals"] / n,
        "circular.laplace_fit_s": seconds["engine.laplace_fit"] / n,
        "circular.laplace_fit_calls": fits / n,
        "circular.ga_steps": counts["laplace_ga_steps"] / n,
        "circular.polish_steps": counts["laplace_polish_steps"] / n,
        "circular.converged_ratio": counts["laplace_converged"] / fits if fits else 0.0,
        "circular.regularized_fits": counts["laplace_regularized"] / n,
        "baseline.farfield_aoa_s": seconds["baseline.farfield_aoa"] / n,
        "baseline.farfield_aoa_calls": calls["baseline.farfield_aoa"] / n,
        "baseline.pose_fit_s": seconds["baseline.pose_from_aoas"] / n,
        "mcrb.pseudotrue_fit_s": seconds["mcrb.pseudotrue_fit"] / n,
        "mcrb.information_s": seconds["mcrb.information_matrices"] / n,
        "mcrb.lower_bound_s": seconds["mcrb.lower_bound"] / n,
        "mcrb.embedding_builds": calls["mcrb.reduced_embedding"] / n,
        "mcrb.embedding_bytes": counts["embedding_bytes"] / n,
        "mcrb.converged_ratio": counts["pseudotrue_converged"] / pseudo if pseudo else 0.0,
        "engine.position_rmse_m": engine_rmse,
        "engine.attitude_nmse": engine_nmse,
        "baseline.position_rmse_m": base_rmse,
        "baseline.attitude_nmse": base_nmse,
        "trace.overhead_pct": overhead_pct,
    }
    return with_units(values)


def end_to_end_metrics(rates: list, setup: list) -> dict:
    return with_units(
        {
            "trials_per_s": statistics.median(rates) if rates else 0.0,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    )


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    pkg = load_package()
    bench = Bench(pkg, args.workload, args.seed)
    if args.setup_probe:
        print(repr(time.time()))
        return 0
    # set-up is an end-to-end metric, so traced runs skip the probes
    setup = [] if args.trace else measure_setup(args)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    rounds, traced_rounds = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        rounds.append(bench.round())
        if tracer:
            tracer.install()
            try:
                traced_rounds.append(bench.round(tracer))
            finally:
                tracer.uninstall()
        if time.perf_counter() - start + (time.perf_counter() - began) > args.seconds:
            break

    all_rounds = rounds + traced_rounds
    attempted = bench.workload.trials * len(all_rounds)
    failed = sum(len(r["failures"]) for r in all_rounds)
    problems = sorted({p for r in all_rounds for p in r["problems"]})
    for reason in sorted({f for r in all_rounds for f in r["failures"]}) + problems:
        print(f"{args.workload} seed {args.seed}: {reason}", file=sys.stderr)

    rates = [bench.workload.trials / r["seconds"] for r in rounds if r["seconds"] > 0]
    if tracer:
        untraced = statistics.median(r["seconds"] for r in rounds)
        traced = statistics.median(r["seconds"] for r in traced_rounds)
        metrics = layer_metrics(
            tracer,
            bench.workload.trials * len(traced_rounds),
            rounds[0]["errors"],
            100.0 * (traced / untraced - 1.0),
        )
    else:
        metrics = end_to_end_metrics(rates, setup)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": environment(),
        "setup_samples_s": setup,
        "round_seconds": [r["seconds"] for r in rounds],
        "round_cpu_seconds": [r["cpu_seconds"] for r in rounds],
        "traced_round_seconds": [r["seconds"] for r in traced_rounds],
        "failures": sorted({f for r in all_rounds for f in r["failures"]}),
        "problems": problems,
        "result": result,
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer:
        tracer.write(OUT / f"trace-{stem}.json", {"workload": args.workload, "seed": args.seed})
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
