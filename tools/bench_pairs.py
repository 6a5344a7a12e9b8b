"""Paired benchmark runs of two checkouts, summarized as BENCH_<PR>.json.

    python3 tools/bench_pairs.py --base ../parent --head . --pairs 10 --pr N

Both checkouts are git clones. Runs the command of the head checkout's
BENCHMARK.json, with its ``run_seconds``, once per workload (all of
them) and side in each of ``--pairs`` pairs.
Each run executes in its own checkout, so it times that checkout's
``src/``. Pair i runs both sides back to back with ``--seed i``; the base
runs first in even pairs and the head first in odd ones, so neither side
always meets the machine warm. For every workload and end-to-end metric
the output gives each side's median and quartiles
(``statistics.quantiles(values, n=4)``), the base's spread
(q3 - q1) / median, the pairs in which the head is better, and each
side's failed/attempted operations, plus the environment and each
side's commit (``+dirty`` if its tree differs from it). Each metric also
carries the verdicts a reviewer draws from these figures (`verdicts`):
``gain`` and ``verdict`` (``unresolved``, ``worse`` or ``no worse``). It
reports; it gates nothing.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("base", "head")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, type=Path, help="checkout before the change")
    parser.add_argument("--head", required=True, type=Path, help="checkout with the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--pr", required=True, help="names the output BENCH_<PR>.json")
    parser.add_argument("--out", type=Path, help="default: BENCH_<PR>.json in the head checkout")
    return parser.parse_args(argv)


def revision(checkout: Path) -> str:
    """The checkout's short commit, with ``+dirty`` when its tree differs
    from that commit."""

    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=checkout, capture_output=True, text=True, check=True
        ).stdout.strip()

    return git("rev-parse", "--short", "HEAD") + ("+dirty" if git("status", "--porcelain") else "")


def run_once(spec: dict, checkout: Path, workload: str, seed: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=1800)
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{checkout} {workload} seed {seed}: no result (exit {done.returncode})")
    return json.loads(lines[-1])


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def verdicts(base: list, head: list, better: str, bound: float) -> dict:
    """What paired runs of one metric show, ``bound`` being the metric's
    relative bound from BENCHMARK.json:

    - ``gain``: the head is better in at least 9/10 of the pairs (ties
      count for neither side) and its median is better than the base's by
      more than the base's q3 - q1;
    - ``verdict``: ``unresolved`` when the base's (q3 - q1) / median
      exceeds the bound, unless every head run beats every base run;
      else ``worse`` when the head median is worse than the base's by
      more than the bound (relative to the base median); else
      ``no worse``.
    """
    sign = 1.0 if better == "higher" else -1.0
    b, h = quartiles(base), quartiles(head)
    wins = sum(sign * (y - x) > 0.0 for x, y in zip(base, head))
    iqr = b["q3"] - b["q1"]
    gain = wins >= 0.9 * len(head) and sign * (h["median"] - b["median"]) > iqr
    dominates = min(sign * y for y in head) > max(sign * x for x in base)
    if iqr / abs(b["median"]) > bound and not dominates:
        verdict = "unresolved"
    elif sign * (b["median"] - h["median"]) / abs(b["median"]) > bound:
        verdict = "worse"
    else:
        verdict = "no worse"
    return {"head_wins": f"{wins}/{len(head)}", "gain": bool(gain), "verdict": verdict}


def summarize(spec: dict, runs: dict) -> dict:
    """runs[workload][side] is the list of run results, pair by pair."""
    out = {}
    for workload, by_side in runs.items():
        metrics = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {
                side: [r["metrics"][name]["value"] for r in by_side[side]] for side in SIDES
            }
            entry = {key: metric[key] for key in ("unit", "better", "bound")}
            entry.update({side: quartiles(values[side]) for side in SIDES})
            entry["median_ratio"] = entry["head"]["median"] / entry["base"]["median"]
            # the base's own (q3 - q1) / median: a change smaller than this
            # is not resolved by these pairs, whatever the median ratio
            entry["base_spread"] = (
                entry["base"]["q3"] - entry["base"]["q1"]
            ) / entry["base"]["median"]
            entry.update(verdicts(values["base"], values["head"], metric["better"], metric["bound"]))
            metrics[name] = entry
        operations = {}
        for side in SIDES:
            failed = sum(r["failed"] for r in by_side[side])
            attempted = sum(r["attempted"] for r in by_side[side])
            operations[side] = {
                "failed": failed,
                "attempted": attempted,
                "share": failed / attempted if attempted else None,
                "all_correct": all(r["correct"] for r in by_side[side]),
            }
        out[workload] = {"metrics": metrics, "operations": operations}
    return out


def environment(python: str) -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    probe = "import platform, numpy, scipy; print(platform.python_version(), numpy.__version__, scipy.__version__)"
    done = subprocess.run([python, "-c", probe], capture_output=True, text=True, check=True)
    python_version, numpy_version, scipy_version = done.stdout.split()
    return {
        "python": python_version,
        "numpy": numpy_version,
        "scipy": scipy_version,
        "machine": platform.machine(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = {"base": args.base, "head": args.head}
    spec = json.loads((args.head / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    started = time.time()
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                result = run_once(spec, checkouts[side], workload, pair)
                runs[workload][side].append(result)
                print(f"pair {pair} {workload} {side}: " + json.dumps(result), flush=True)
    report = {
        "pr": args.pr,
        "base": revision(args.base),
        "head": revision(args.head),
        "command": spec["command"],
        "run_seconds": spec["run_seconds"],
        "pairs": args.pairs,
        "order": "base first in even pairs, head first in odd pairs; pair i runs --seed i",
        "wall_minutes": round((time.time() - started) / 60.0, 1),
        "environment": environment(spec["command"][0]),
        "workloads": summarize(spec, runs),
    }
    out = args.out or args.head / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, entry in report["workloads"].items():
        for name, m in entry["metrics"].items():
            print(
                f"{workload} {name}: base {m['base']['median']:.4g} "
                f"[{m['base']['q1']:.4g}, {m['base']['q3']:.4g}], head {m['head']['median']:.4g} "
                f"[{m['head']['q1']:.4g}, {m['head']['q3']:.4g}], head better in {m['head_wins']}"
                f", {m['verdict']}" + (", gain" if m["gain"] else "")
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
