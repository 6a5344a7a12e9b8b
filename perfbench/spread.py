"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --seeds 0-9 --tag a
    python3 perfbench/spread.py --seeds 0-9 --tag b --compare a

Runs every workload once per seed, one run at a time, with the command and
``run_seconds`` of BENCHMARK.json, and writes ``perfbench/out/spread-<tag>.json``.
For each metric it prints the median and the distance between the first
and third quartiles (``statistics.quantiles(values, n=4)``) as a share of
the median, next to a third of the metric's bound. With ``--compare`` it
also prints how far each median moved from the set named there, in the
metric's worse direction, as a share of that set's median.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(spec: dict, seeds: list) -> dict:
    runs = {}
    for name in (w["name"] for w in spec["workloads"]):
        runs[name] = []
        for seed in seeds:
            cmd = spec["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                raise SystemExit(f"{name} seed {seed} exited with {done.returncode}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs[name].append({"seed": seed, **result})
            print(f"{name} seed {seed}: " + json.dumps(result), flush=True)
    return runs


def summary(spec: dict, runs: dict, base: dict = None) -> list:
    lines = []
    for name, results in runs.items():
        share = {r["failed"] / r["attempted"] for r in results}
        lines.append(
            f"{name}: {len(results)} runs, all correct: {all(r['correct'] for r in results)}, "
            f"failed share(s): {sorted(share)}"
        )
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            line = (
                f"  {metric['name']:<13} median {med:.5g} {metric['unit']}, "
                f"IQR/median {(q3 - q1) / med:.4f} (bound/3 {metric['bound'] / 3:.4f})"
            )
            if base is not None:
                old = statistics.median(
                    r["metrics"][metric["name"]]["value"] for r in base[name]
                )
                worse = (med - old) / old if metric["better"] == "lower" else (old - med) / old
                line += f", worse than base by {worse:+.4f} (bound {metric['bound']})"
            lines.append(line)
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range such as 0-9")
    parser.add_argument("--tag", required=True)
    parser.add_argument("--compare", help="tag of an earlier set")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = run_set(spec, parse_seeds(args.seeds))
    OUT.mkdir(exist_ok=True)
    (OUT / f"spread-{args.tag}.json").write_text(json.dumps(runs, indent=1) + "\n")
    base = None
    if args.compare:
        base = json.loads((OUT / f"spread-{args.compare}.json").read_text())
    print("\n".join(summary(spec, runs, base)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
