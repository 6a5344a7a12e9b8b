"""Experiment harness: metrics, flat config files, seeded Monte-Carlo
sweeps with process parallelism, and CSV/SVG emission.

Determinism contract: every trial's randomness derives only from
``(base_seed, point_index, trial_index)``, trials are aggregated in index
order, and the CSV contains no timing data, so identical config + seed
produce byte-identical output regardless of worker count.
"""

from __future__ import annotations

import configparser
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .channel import (
    ScenarioConfig,
    dbm_to_watt,
    draw_poses,
    simulate_received,
)
from .engine import iteration_count
from .geometry import half_wavelength_ura, named_pattern, rotation_basis
from .partition import uniform_partition

CSV_HEADER = (
    "variable",
    "value",
    "estimator",
    "rmse_position_m",
    "nmse_rotation",
    "bound_position_rmse_m",
    "bound_attitude_rmse_rad",
    "trials_attempted",
    "trials_failed",
    "trials_used",
)

SWEEP_VARIABLES = ("px_dbm", "partition", "pattern", "rician_kfactor", "distance")


class ConfigError(ValueError):
    """Raised for malformed or unknown configuration content."""


def compute_metrics(estimates, truths) -> tuple:
    """(position RMSE, rotation NMSE) over a batch of trials.

    ``estimates`` and ``truths`` are per-trial lists of per-MS pose
    estimates / true poses; the position metric is the root of the mean
    summed squared position error, the rotation metric the mean summed
    Frobenius error of the 3x2 bases normalized by ||basis||_F^2 = 2.
    """
    if len(estimates) != len(truths):
        raise ValueError("estimate and truth lists must have equal length")
    sq_pos, sq_rot = [], []
    for est_list, truth_list in zip(estimates, truths):
        if len(est_list) != len(truth_list):
            raise ValueError("per-trial MS counts differ")
        p, r = trial_errors(est_list, truth_list)
        sq_pos.append(p)
        sq_rot.append(r)
    return float(np.sqrt(np.mean(sq_pos))), float(np.mean(sq_rot))


def trial_errors(estimates, truths) -> tuple:
    """Summed squared position error and normalized rotation error for one
    trial.

    With several MSs under exchangeable (non-informative) priors the
    estimator's output order carries no physical meaning, so estimates are
    paired to truths by minimum-cost assignment on position error before
    the sums are taken.
    """
    k = len(truths)
    if k > 1:
        from scipy.optimize import linear_sum_assignment

        cost = np.zeros((k, k))
        for i, truth in enumerate(truths):
            for j, est in enumerate(estimates):
                cost[i, j] = float(np.sum((est.position - truth.position) ** 2))
        rows, cols = linear_sum_assignment(cost)
        pairing = list(zip(rows, cols))
    else:
        pairing = [(0, 0)]
    sq_pos = 0.0
    sq_rot = 0.0
    for i, j in pairing:
        truth, est = truths[i], estimates[j]
        sq_pos += float(np.sum((est.position - truth.position) ** 2))
        r_true = rotation_basis(truth.attitude).matrix
        r_est = est.basis.matrix
        sq_rot += float(np.sum((r_true - r_est) ** 2)) / float(np.sum(r_true**2))
    return sq_pos, sq_rot


@dataclass(frozen=True)
class SweepSpec:
    """One experiment: a variable, its values, and how many trials per
    value."""

    variable: str
    values: tuple
    trials: int
    scenario: ScenarioConfig
    partition: tuple = (4, 4)
    iterations: int | None = None  # estimator passes; None: `engine.run`'s default
    estimators: tuple = ("partitioned",)
    with_bound: bool = False
    bound_trials: int = 8
    base_seed: int = 0
    threads: int = 0

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ConfigError(
                f"unknown sweep variable {self.variable!r}; "
                f"expected one of {SWEEP_VARIABLES}"
            )
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        iteration_count(self.iterations, self.scenario.num_ms)
        if not self.values:
            raise ConfigError("sweep needs at least one value")
        unknown = set(self.estimators) - {"partitioned", "baseline"}
        if unknown:
            raise ConfigError(f"unknown estimators: {sorted(unknown)}")


@dataclass
class MetricRow:
    variable: str
    value: str
    estimator: str
    rmse_position: float
    nmse_rotation: float
    bound_position_rmse: float
    bound_attitude_rmse: float
    trials_attempted: int
    trials_failed: int
    trials_used: int
    wall_time_s: float
    # bound trials that raised; like the wall time, not written to the CSV
    bound_trials_failed: int = 0


def apply_sweep_value(spec: SweepSpec, value) -> tuple:
    """Scenario and partition counts for one sweep point."""
    scenario = spec.scenario
    partition = spec.partition
    if spec.variable == "px_dbm":
        scenario = replace(scenario, tx_power_w=dbm_to_watt(float(value)))
    elif spec.variable == "partition":
        m = int(value)
        root = math.isqrt(m)
        if root * root != m:
            raise ConfigError(f"partition sweep values must be squares, got {m}")
        partition = (root, root)
    elif spec.variable == "pattern":
        scenario = replace(
            scenario, pattern=named_pattern(str(value), scenario.ms)
        )
    elif spec.variable == "rician_kfactor":
        scenario = replace(scenario, rician_kfactor=float(value))
    elif spec.variable == "distance":
        lo, hi = parse_range(str(value))
        scenario = replace(scenario, distance_range=(lo, hi))
    return scenario, partition


def parse_range(text: str) -> tuple:
    parts = text.replace(":", "-").split("-")
    if len(parts) != 2:
        raise ConfigError(f"range value must look like 'lo-hi', got {text!r}")
    lo, hi = float(parts[0]), float(parts[1])
    if hi < lo:
        raise ConfigError(f"empty range {text!r}")
    return lo, hi


@dataclass
class _TrialTask:
    scenario: ScenarioConfig
    partition: tuple
    iterations: int | None
    estimators: tuple
    compute_bound: bool
    base_seed: int
    point_index: int
    trial_index: int


def _run_trial(task: _TrialTask) -> dict:
    from . import engine
    from .baseline import run_baseline
    from .mcrb import compute_bound as mcrb_bound

    rng = np.random.default_rng(
        np.random.SeedSequence(
            [task.base_seed, task.point_index, task.trial_index]
        )
    )
    scenario = task.scenario
    plan = uniform_partition(scenario.bs, *task.partition, scenario.lam)
    out = {"errors": {}, "failures": {}, "bound": None}
    poses = draw_poses(scenario, rng)
    signal = simulate_received(scenario, rng, poses)
    for name in task.estimators:
        try:
            if name == "partitioned":
                ests = engine.run(signal, scenario, plan, task.iterations)
            else:
                ests = run_baseline(signal, scenario)
            out["errors"][name] = trial_errors(ests, poses)
        except Exception as exc:  # failed trials are counted, not fatal
            out["failures"][name] = f"{type(exc).__name__}: {exc}"
    if task.compute_bound:
        try:
            res = mcrb_bound(poses, scenario, plan)
            out["bound"] = (
                float(np.sum(res.position_trace)),
                float(np.sum(res.attitude_trace)),
            )
        except Exception as exc:
            out["bound_failure"] = f"{type(exc).__name__}: {exc}"
    return out


def run_sweep(spec: SweepSpec) -> list:
    """Execute the sweep and aggregate one `MetricRow` per (value,
    estimator). Failed trials are excluded from averages and counted, and
    so are bound trials that raise (`MetricRow.bound_trials_failed`).
    With more than one thread, every point runs on one process pool, so
    the workers start and import their modules once per sweep."""
    threads = spec.threads if spec.threads > 0 else (os.cpu_count() or 1)
    if threads > 1 and spec.trials > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return _sweep_rows(spec, pool.map)
    return _sweep_rows(spec, map)


def _sweep_rows(spec: SweepSpec, run_map) -> list:
    """The sweep's rows, running each point's trials through ``run_map``
    (``map`` or a pool's); ``wall_time_s`` times that call."""
    rows = []
    for point_index, value in enumerate(spec.values):
        scenario, partition = apply_sweep_value(spec, value)
        tasks = [
            _TrialTask(
                scenario=scenario,
                partition=partition,
                iterations=spec.iterations,
                estimators=spec.estimators,
                compute_bound=spec.with_bound and trial < spec.bound_trials,
                base_seed=spec.base_seed,
                point_index=point_index,
                trial_index=trial,
            )
            for trial in range(spec.trials)
        ]
        start = time.perf_counter()
        results = list(run_map(_run_trial, tasks))
        elapsed = time.perf_counter() - start
        bound_vals = [r["bound"] for r in results if r.get("bound") is not None]
        bound_failed = sum(1 for r in results if "bound_failure" in r)
        if bound_vals:
            bound_pos = float(np.sqrt(np.mean([b[0] for b in bound_vals])))
            bound_att = float(np.sqrt(np.mean([b[1] for b in bound_vals])))
        else:
            bound_pos = bound_att = float("nan")
        for name in spec.estimators:
            errs = [r["errors"][name] for r in results if name in r["errors"]]
            failed = sum(1 for r in results if name in r["failures"])
            if errs:
                rmse = float(np.sqrt(np.mean([e[0] for e in errs])))
                nmse = float(np.mean([e[1] for e in errs]))
            else:
                rmse = nmse = float("nan")
            rows.append(
                MetricRow(
                    variable=spec.variable,
                    value=str(value),
                    estimator=name,
                    rmse_position=rmse,
                    nmse_rotation=nmse,
                    bound_position_rmse=bound_pos,
                    bound_attitude_rmse=bound_att,
                    trials_attempted=spec.trials,
                    trials_failed=failed,
                    trials_used=spec.trials - failed,
                    wall_time_s=elapsed,
                    bound_trials_failed=bound_failed,
                )
            )
    return rows


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def rows_to_csv(rows) -> str:
    """RFC-4180 text: CRLF line endings, '.' decimals, 17 significant
    digits, fixed header. Timing is deliberately excluded so identical
    configs yield identical bytes."""
    lines = [",".join(CSV_HEADER)]
    for row in rows:
        lines.append(
            ",".join(
                [
                    row.variable,
                    row.value,
                    row.estimator,
                    _fmt(row.rmse_position),
                    _fmt(row.nmse_rotation),
                    _fmt(row.bound_position_rmse),
                    _fmt(row.bound_attitude_rmse),
                    str(row.trials_attempted),
                    str(row.trials_failed),
                    str(row.trials_used),
                ]
            )
        )
    return "\r\n".join(lines) + "\r\n"


def write_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(rows_to_csv(rows))


def write_svg(path, rows, metric: str = "rmse_position") -> None:
    """Minimal static line chart (log-y) of a sweep, one polyline per
    estimator plus the bound when present."""
    series = {}
    bound = []
    for row in rows:
        y = getattr(row, metric)
        series.setdefault(row.estimator, []).append((row.value, y))
        if metric == "rmse_position" and np.isfinite(row.bound_position_rmse):
            pt = (row.value, row.bound_position_rmse)
            if pt not in bound:
                bound.append(pt)
    if bound:
        series["bound"] = bound
    width, height, margin = 640, 420, 60
    xs = list(dict.fromkeys(v for pts in series.values() for v, _ in pts))
    ys = [y for pts in series.values() for _, y in pts if np.isfinite(y) and y > 0]
    if not ys:
        raise ValueError("no finite positive values to plot")
    lo, hi = math.log10(min(ys)), math.log10(max(ys))
    if hi - lo < 1e-9:
        hi = lo + 1.0

    def sx(i):
        if len(xs) == 1:
            return width / 2
        return margin + i * (width - 2 * margin) / (len(xs) - 1)

    def sy(y):
        f = (math.log10(y) - lo) / (hi - lo)
        return height - margin - f * (height - 2 * margin)

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
    ]
    for i, x in enumerate(xs):
        parts.append(
            f'<text x="{sx(i):.1f}" y="{height - margin + 18}" font-size="11" '
            f'text-anchor="middle">{x}</text>'
        )
    for name_idx, (name, pts) in enumerate(sorted(series.items())):
        color = palette[name_idx % len(palette)]
        coords = " ".join(
            f"{sx(xs.index(v)):.1f},{sy(y):.1f}"
            for v, y in pts
            if np.isfinite(y) and y > 0
        )
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 14 * name_idx + 10}" '
            f'font-size="11" fill="{color}">{name}</text>'
        )
    parts.append(f'<text x="{margin}" y="{margin - 10}" font-size="12">{metric} '
                 "(log scale)</text>")
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))


# ---------------------------------------------------------------------------
# flat config files


_SCENARIO_KEYS = {
    "frequency_ghz": float,
    "bs_nx": int,
    "bs_ny": int,
    "ms_nx": int,
    "ms_ny": int,
    "num_ms": int,
    "pattern": str,
    "tx_power_dbm": float,
    "noise_power_dbm": float,
    "rician_kfactor": float,
    "distance_min_m": float,
    "distance_max_m": float,
    "azimuth_min_rad": float,
    "azimuth_max_rad": float,
    "elevation_min_rad": float,
    "elevation_max_rad": float,
    "roll_min_rad": float,
    "roll_max_rad": float,
    "pitch_min_rad": float,
    "pitch_max_rad": float,
    "yaw_min_rad": float,
    "yaw_max_rad": float,
    "fresnel_override": bool,
}

_PARTITION_KEYS = {"mx": int, "my": int}

_ESTIMATOR_KEYS = {"iterations": str}

_SWEEP_KEYS = {
    "variable": str,
    "values": str,
    "trials": int,
    "estimators": str,
    "with_bound": bool,
    "bound_trials": int,
    "seed": int,
    "threads": int,
}

_SECTIONS = {
    "scenario": _SCENARIO_KEYS,
    "partition": _PARTITION_KEYS,
    "estimator": _ESTIMATOR_KEYS,
    "sweep": _SWEEP_KEYS,
}


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


def load_config(path) -> dict:
    """Parse and validate a flat key-value config file.

    Unknown sections or keys are rejected outright; values are converted
    to their declared types. Returns a dict of per-section dicts.
    """
    parser = configparser.ConfigParser(interpolation=None)
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    out = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(
                f"unknown config section [{section}]; "
                f"expected one of {sorted(_SECTIONS)}"
            )
        schema = _SECTIONS[section]
        values = {}
        for key, raw in parser.items(section):
            if key not in schema:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            typ = schema[key]
            try:
                if typ is bool:
                    values[key] = _parse_bool(raw)
                else:
                    values[key] = typ(raw)
            except ConfigError:
                raise
            except Exception:
                raise ConfigError(
                    f"cannot parse [{section}] {key} = {raw!r} as {typ.__name__}"
                ) from None
        out[section] = values
    return out


def scenario_from_config(cfg: dict) -> ScenarioConfig:
    sc = dict(cfg.get("scenario", {}))
    f_hz = sc.pop("frequency_ghz", 28.0) * 1e9
    bs = half_wavelength_ura(sc.pop("bs_nx", 32), sc.pop("bs_ny", 32), f_hz)
    ms = half_wavelength_ura(sc.pop("ms_nx", 16), sc.pop("ms_ny", 16), f_hz)
    kwargs = {
        "f_hz": f_hz,
        "bs": bs,
        "ms": ms,
        "num_ms": sc.pop("num_ms", 1),
        "pattern": named_pattern(sc.pop("pattern", "t5"), ms),
        "tx_power_w": dbm_to_watt(sc.pop("tx_power_dbm", 20.0)),
        "noise_power_w": dbm_to_watt(sc.pop("noise_power_dbm", -70.0)),
        "rician_kfactor": sc.pop("rician_kfactor", float("inf")),
        "fresnel_override": sc.pop("fresnel_override", False),
    }
    pairs = {
        "distance_range": ("distance_min_m", "distance_max_m", (5.0, 8.0)),
        "azimuth_range": ("azimuth_min_rad", "azimuth_max_rad", (0.0, 2 * np.pi)),
        "elevation_range": (
            "elevation_min_rad",
            "elevation_max_rad",
            (np.pi / 12, np.pi / 2),
        ),
        "roll_range": ("roll_min_rad", "roll_max_rad", (-np.pi, np.pi)),
        "pitch_range": ("pitch_min_rad", "pitch_max_rad", (-np.pi / 3, np.pi / 3)),
        "yaw_range": ("yaw_min_rad", "yaw_max_rad", (-np.pi, np.pi)),
    }
    for name, (lo_key, hi_key, default) in pairs.items():
        lo = sc.pop(lo_key, default[0])
        hi = sc.pop(hi_key, default[1])
        kwargs[name] = (lo, hi)
    if sc:
        raise ConfigError(f"unhandled scenario keys: {sorted(sc)}")
    return ScenarioConfig(**kwargs)


def estimator_from_config(cfg: dict) -> int | None:
    """The estimator's iteration count from ``[estimator] iterations``:
    None for ``auto`` or no key, else the integer (`SweepSpec` and
    `engine.run` reject one below 1)."""
    iters = cfg.get("estimator", {}).get("iterations", "auto")
    return None if iters.lower() == "auto" else int(iters)


def sweep_from_config(cfg: dict, seed=None, threads=None) -> SweepSpec:
    sw = dict(cfg.get("sweep", {}))
    part = cfg.get("partition", {})
    variable = sw.pop("variable", "px_dbm")
    values = tuple(
        v.strip() for v in sw.pop("values", "0,5,10,15,20").split(",") if v.strip()
    )
    estimators = tuple(
        e.strip() for e in sw.pop("estimators", "partitioned").split(",") if e.strip()
    )
    spec = SweepSpec(
        variable=variable,
        values=values,
        trials=sw.pop("trials", 10),
        scenario=scenario_from_config(cfg),
        partition=(part.get("mx", 4), part.get("my", 4)),
        iterations=estimator_from_config(cfg),
        estimators=estimators,
        with_bound=sw.pop("with_bound", False),
        bound_trials=sw.pop("bound_trials", 8),
        base_seed=seed if seed is not None else sw.pop("seed", 0),
        threads=threads if threads is not None else sw.pop("threads", 0),
    )
    sw.pop("seed", None)
    sw.pop("threads", None)
    if sw:
        raise ConfigError(f"unhandled sweep keys: {sorted(sw)}")
    return spec
