"""Command-line front end.

Subcommands: ``simulate`` (emit a signal dump), ``estimate`` (message-
passing estimator on a simulated or loaded signal), ``baseline``
(far-field two-stage estimator), ``bound`` (error lower bound), and
``sweep`` (full Monte-Carlo experiment). Exit codes: 0 success, 2 config
error, 3 when a majority of trials failed numerically.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import engine
from .baseline import run_baseline
from .channel import draw_poses, load_signal, save_signal, simulate_received
from .harness import (
    ConfigError,
    estimator_from_config,
    load_config,
    run_sweep,
    scenario_from_config,
    sweep_from_config,
    write_csv,
    write_svg,
)
from .mcrb import compute_bound
from .partition import uniform_partition

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _add_common(parser):
    parser.add_argument("--config", required=True, help="path to a config file")
    parser.add_argument("--seed", type=int, default=None, help="override base seed")
    parser.add_argument("--threads", type=int, default=None, help="worker count")
    parser.add_argument("--out", default=None, help="output path")
    parser.add_argument("--svg", action="store_true", help="also emit an SVG chart")


def _load(args):
    cfg = load_config(args.config)
    scenario = scenario_from_config(cfg)
    part = cfg.get("partition", {})
    plan = uniform_partition(
        scenario.bs, part.get("mx", 4), part.get("my", 4), scenario.lam
    )
    iterations = estimator_from_config(cfg)
    seed = args.seed if args.seed is not None else cfg.get("sweep", {}).get("seed", 0)
    return cfg, scenario, plan, iterations, seed


def _pose_csv(path, rows):
    header = "estimator,ms,pos_x_m,pos_y_m,pos_z_m,roll_rad,pitch_rad,yaw_rad"
    lines = [header]
    for name, k, est in rows:
        vals = [
            est.position[0],
            est.position[1],
            est.position[2],
            est.attitude.roll,
            est.attitude.pitch,
            est.attitude.yaw,
        ]
        lines.append(",".join([name, str(k)] + [format(v, ".17g") for v in vals]))
    text = "\r\n".join(lines) + "\r\n"
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_simulate(args) -> int:
    _, scenario, _, _, seed = _load(args)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    signal = simulate_received(scenario, rng)
    out = args.out or "signal.bin"
    save_signal(out, signal, seed)
    print(f"wrote {signal.n_antennas}x{signal.n_slots} signal to {out}")
    return EXIT_OK


def _run_single(args, estimator: str) -> int:
    _, scenario, plan, iterations, seed = _load(args)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    if getattr(args, "signal", None):
        signal, _ = load_signal(args.signal)
    else:
        poses = draw_poses(scenario, rng)
        signal = simulate_received(scenario, rng, poses)
    if estimator == "partitioned":
        ests = engine.run(signal, scenario, plan, iterations)
    else:
        ests = run_baseline(signal, scenario)
    _pose_csv(args.out, [(estimator, k + 1, e) for k, e in enumerate(ests)])
    return EXIT_OK


def _cmd_bound(args) -> int:
    _, scenario, plan, _, seed = _load(args)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    poses = draw_poses(scenario, rng)
    res = compute_bound(poses, scenario, plan)
    header = "ms,position_bound_m,attitude_bound_rad"
    lines = [header]
    for k in range(scenario.num_ms):
        lines.append(
            ",".join(
                [
                    str(k + 1),
                    format(float(np.sqrt(res.position_trace[k])), ".17g"),
                    format(float(np.sqrt(res.attitude_trace[k])), ".17g"),
                ]
            )
        )
    text = "\r\n".join(lines) + "\r\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    spec = sweep_from_config(cfg, seed=args.seed, threads=args.threads)
    rows = run_sweep(spec)
    out = args.out or "sweep.csv"
    write_csv(out, rows)
    print(f"wrote {len(rows)} rows to {out}")
    if args.svg:
        svg_path = out.rsplit(".", 1)[0] + ".svg"
        write_svg(svg_path, rows)
        print(f"wrote chart to {svg_path}")
    attempted = sum(r.trials_attempted for r in rows)
    failed = sum(r.trials_failed for r in rows)
    if attempted and failed * 2 > attempted:
        print(f"{failed}/{attempted} trials failed", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nfpae",
        description="near-field position and attitude estimation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "estimate", "baseline", "bound", "sweep"):
        p = sub.add_parser(name)
        _add_common(p)
        if name in ("estimate", "baseline"):
            p.add_argument("--signal", default=None, help="signal dump to load")
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "estimate":
            return _run_single(args, "partitioned")
        if args.command == "baseline":
            return _run_single(args, "baseline")
        if args.command == "bound":
            return _cmd_bound(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
