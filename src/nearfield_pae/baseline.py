"""Two-stage far-field benchmark.

Stage one treats the *entire* BS array as if every source were in its far
field and estimates one direction-cosine pair per source with the
estimator's own line-spectral routine (`aoa.estimate_aoa_posteriors`),
run on the whole array with flat priors: each source starts at the
periodogram peak of the running residual and is refined by joint
coordinate-ascent sweeps. Stage two fits each MS pose to its per-slot
cosine tracks by nonlinear least squares, with the attitude finalized by
an orthogonal (SVD) alignment of the reconstructed antenna points.

On genuinely planar wavefronts this recovers poses accurately. Inside the
array's near field the common-angle assumption is wrong, but the
second-order (Fresnel) phase term it ignores is even about the array
centre, so it blurs the periodogram peak more than it shifts it: on the
noiseless 32x32 desk array at 28 GHz the direction bias is about 5e-5 in
direction cosine at 5 m and 7e-4 at 1.2 m (0.1% and 1% of the 2/N
beamwidth). At 20 dBm this baseline reaches 0.160 m position RMSE at
5-8 m and 7.6 mm at 1.5-2.5 m, level with or better than the partitioned
estimator (acceptance criterion 8c).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aoa import SourcePrior, SubarraySnapshot, estimate_aoa_posteriors, match_components
from .channel import ReceivedSignal, ScenarioConfig
from .circular import VmPair, VonMises
from .engine import PoseEstimate, procrustes_pose
from .geometry import (
    UraSpec,
    canonicalize_euler,
    ray_from_cosines,
    rotation_basis,
    rotation_matrix_from_theta,
)

_NAN_COV = np.full((3, 3), np.nan)
# peak metric (the SNR summed over the array) below which a component is
# flagged low_power: on pure noise the largest periodogram peak is the
# maximum of about N unit-mean exponentials, of order ln N
LOW_POWER_METRIC = 10.0
_FLAT_PRIOR = SourcePrior(VmPair(VonMises(0.0, 0.0), VonMises(0.0, 0.0)), math.inf)


@dataclass
class FarFieldAoaEstimate:
    """One extracted plane-wave component of a whole-array snapshot."""

    cosines: np.ndarray  # (phi_x, phi_y)
    coeff: complex
    peak_metric: float
    low_power: bool


def farfield_aoa(
    y_t: np.ndarray,
    bs_spec: UraSpec,
    k_sources: int,
    noise_power: float,
) -> list:
    """Strongest ``k_sources`` plane-wave components of one snapshot.

    Runs the estimator's line-spectral routine on the whole array with
    flat priors: von Mises concentration 0 on both cosines and an
    infinite amplitude prior variance, so the profiled objective is the
    plain periodogram |g|^2 / (N sigma^2) and the coefficient is g / N.
    A component whose peak metric N |coeff|^2 / sigma^2 falls below
    `LOW_POWER_METRIC` is flagged ``low_power``.
    """
    y_mat = np.asarray(y_t).reshape(bs_spec.ny, bs_spec.nx).T
    snapshot = SubarraySnapshot(y_mat, noise_power, k_sources)
    out = []
    for post in estimate_aoa_posteriors(snapshot, [_FLAT_PRIOR] * k_sources):
        metric = bs_spec.n_antennas * abs(post.coeff_mean) ** 2 / noise_power
        out.append(
            FarFieldAoaEstimate(
                cosines=post.cosines,
                coeff=post.coeff_mean,
                peak_metric=float(metric),
                low_power=bool(metric < LOW_POWER_METRIC),
            )
        )
    return out


def pose_from_aoas(
    aoas: np.ndarray,
    q_locals: np.ndarray,
    range_init: float,
) -> tuple:
    """Fit (position, attitude) to per-slot whole-array cosines.

    Minimizes the squared cosine residuals over all slots by nonlinear
    least squares (deterministic multistart over yaw), then rebuilds the
    antenna points at the fitted ranges and replaces the attitude by the
    orthogonal-alignment solution. Returns (pose 6-vector, flags).
    """
    from scipy.optimize import least_squares

    aoas = np.asarray(aoas, dtype=float)
    q_locals = np.asarray(q_locals, dtype=float)
    t_count = aoas.shape[0]
    flags = []
    centered = q_locals - q_locals.mean(axis=0)
    if np.linalg.matrix_rank(centered, tol=1e-9) < 2:
        flags.append("collinear_pattern")

    def residuals(x):
        basis = rotation_matrix_from_theta(x[3:])
        ants = x[:3][None, :] + (basis @ q_locals.T).T
        r = np.linalg.norm(ants, axis=1)
        return (ants[:, :2] / r[:, None] - aoas).ravel()

    p0 = range_init * ray_from_cosines(aoas.mean(axis=0))
    best = None
    for roll0 in (0.0, np.pi):
        for yaw0 in (0.0, np.pi / 2, np.pi, -np.pi / 2):
            x0 = np.concatenate([p0, [roll0, 0.0, yaw0]])
            sol = least_squares(residuals, x0, method="lm", max_nfev=400)
            if best is None or sol.cost < best.cost:
                best = sol
    x = best.x
    if not best.success:
        flags.append("nls_not_converged")
    # rebuild antenna points along the measured rays at the fitted ranges,
    # then align the planar layout to them for the final attitude
    basis = rotation_matrix_from_theta(x[3:])
    fitted = x[:3][None, :] + (basis @ q_locals.T).T
    ranges = np.linalg.norm(fitted, axis=1)
    points = np.array([ray_from_cosines(aoas[t]) * ranges[t] for t in range(t_count)])
    aligned = procrustes_pose(points, q_locals)
    pose = np.concatenate([x[:3], aligned[3:]])
    return pose, flags


def run_baseline(
    signal: ReceivedSignal,
    scenario: ScenarioConfig,
    range_init: float | None = None,
) -> list:
    """Far-field two-stage estimate of every MS pose from a signal matrix.
    Raises ValueError on a non-finite sample."""
    signal.check_finite()
    k_count = scenario.num_ms
    t_count = scenario.n_slots
    q_locals = scenario.pattern.local_positions(scenario.ms, scenario.lam)
    per_slot = [
        farfield_aoa(
            signal.samples[:, t], scenario.bs, k_count, scenario.noise_power_w
        )
        for t in range(t_count)
    ]
    # label components: slot 0 ordered by amplitude, later slots matched to it
    order = sorted(range(k_count), key=lambda k: -abs(per_slot[0][k].coeff))
    tracks = np.zeros((k_count, t_count, 2))
    flags_per_k = [[] for _ in range(k_count)]
    ref_angles = np.pi * np.array([per_slot[0][j].cosines for j in order])
    for t in range(t_count):
        cand = np.pi * np.array([est.cosines for est in per_slot[t]])
        perm = match_components(ref_angles, cand)
        for k in range(k_count):
            est = per_slot[t][perm[k]]
            tracks[k, t] = est.cosines
            if est.low_power:
                flags_per_k[k].append(f"low_power_t{t}")
    r_init = range_init if range_init is not None else scenario.nominal_range
    out = []
    for k in range(k_count):
        pose, fit_flags = pose_from_aoas(tracks[k], q_locals, r_init)
        attitude = canonicalize_euler(pose[3:])
        out.append(
            PoseEstimate(
                position=pose[:3],
                attitude=attitude,
                basis=rotation_basis(attitude),
                cov_position=_NAN_COV.copy(),
                cov_attitude=_NAN_COV.copy(),
                converged="nls_not_converged" not in fit_flags,
                flags=tuple(flags_per_k[k] + fit_flags),
            )
        )
    return out
