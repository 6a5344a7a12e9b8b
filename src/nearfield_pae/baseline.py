"""Two-stage far-field benchmark.

Stage one treats the *entire* BS array as if every source were in its far
field and picks the strongest peaks of the whole-array 2-D periodogram in
direction-cosine space (sequential peak-and-cancel, each peak refined by
local ascent). Stage two fits each MS pose to its per-slot cosine tracks
by nonlinear least squares, with the attitude finalized by an orthogonal
(SVD) alignment of the reconstructed antenna points.

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

from dataclasses import dataclass

import numpy as np

from .aoa import _SteeringWorkspace, match_components
from .channel import ReceivedSignal, ScenarioConfig
from .engine import PoseEstimate, procrustes_pose
from .geometry import (
    UraSpec,
    canonicalize_euler,
    ray_from_cosines,
    rotation_basis,
    rotation_matrix_from_theta,
)

_NAN_COV = np.full((3, 3), np.nan)


@dataclass
class FarFieldAoaEstimate:
    """One extracted plane-wave component of a whole-array snapshot."""

    cosines: np.ndarray  # (phi_x, phi_y)
    coeff: complex
    residual_power: float
    peak_metric: float
    low_power: bool


def _ascend_unprior(ws: _SteeringWorkspace, resid: np.ndarray, phi0: np.ndarray):
    """Local ascent of |<steer, resid>|^2 with Newton steps."""
    zeros = np.zeros(2)
    phi = np.asarray(phi0, dtype=float).copy()
    for _ in range(60):
        g, dg, ddg = ws.projections(resid, phi)
        f = g.real**2 + g.imag**2
        grad = 2.0 * np.real(np.conj(g) * dg)
        hess = 2.0 * np.real(np.outer(np.conj(dg), dg) + np.conj(g) * ddg)
        gnorm = np.linalg.norm(grad)
        if gnorm < 1e-12 * max(1.0, f):
            break
        vals, vecs = np.linalg.eigh(0.5 * (hess + hess.T))
        if np.all(vals < 0):
            direction = vecs @ ((vecs.T @ grad) / -vals)
        else:
            direction = grad / max(gnorm, 1e-300)
        slope = float(grad @ direction)
        if slope <= 0:
            direction, slope = grad, float(grad @ grad)
        step, accepted = 1.0, False
        for _ in range(50):
            cand = phi + step * direction
            g2, _, _ = ws.projections(resid, cand)
            if g2.real**2 + g2.imag**2 >= f + 1e-4 * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        phi = cand
    return phi


def farfield_aoa(
    y_t: np.ndarray,
    bs_spec: UraSpec,
    k_sources: int,
    noise_power: float,
    pad_target: int = 1024,
    low_power_metric: float = 10.0,
) -> list:
    """Strongest ``k_sources`` plane-wave components of one snapshot.

    The coarse search runs on a zero-padded FFT grid over the cosines
    (padded to at least ``pad_target`` bins per axis, i.e. well below the
    0.001-rad class of angular resolution) and each peak is polished by
    local ascent before being cancelled from the residual.
    """
    y_mat = np.asarray(y_t).reshape(bs_spec.ny, bs_spec.nx).T
    ws = _SteeringWorkspace(bs_spec.nx, bs_spec.ny)
    pad = max(2, int(np.ceil(pad_target / min(bs_spec.nx, bs_spec.ny))))
    signs = np.outer((-1.0) ** ws.ix, (-1.0) ** ws.jy)
    resid = y_mat.copy()
    phis, coeffs, seq_power = [], [], []
    for _ in range(k_sources):
        gx, gy = pad * bs_spec.nx, pad * bs_spec.ny
        x = np.zeros((gx, gy), dtype=np.complex128)
        x[1 : bs_spec.nx + 1, 1 : bs_spec.ny + 1] = resid * signs
        spec = np.abs(np.fft.fft2(x)) ** 2
        i1, i2 = np.unravel_index(int(np.argmax(spec)), spec.shape)
        phi0 = np.array([-1.0 + 2.0 * i1 / gx, -1.0 + 2.0 * i2 / gy])
        phi = _ascend_unprior(ws, resid, phi0)
        g, _, _ = ws.projections(resid, phi)
        phis.append(phi)
        coeffs.append(g / ws.n)
        resid = resid - coeffs[-1] * ws.steering(phi)
        seq_power.append(float(np.sum(np.abs(resid) ** 2)))
    # cyclic refinement removes the sidelobe leakage between sources left
    # by the single extract-and-cancel pass
    for _ in range(2 if k_sources > 1 else 0):
        for k in range(k_sources):
            others = sum(
                coeffs[j] * ws.steering(phis[j]) for j in range(k_sources) if j != k
            )
            resid_k = y_mat - others
            phis[k] = _ascend_unprior(ws, resid_k, phis[k])
            g, _, _ = ws.projections(resid_k, phis[k])
            coeffs[k] = g / ws.n
    out = []
    for k in range(k_sources):
        others = sum(
            coeffs[j] * ws.steering(phis[j]) for j in range(k_sources) if j != k
        )
        g, _, _ = ws.projections(y_mat - others if k_sources > 1 else y_mat, phis[k])
        metric = (abs(g) ** 2) / (ws.n * noise_power)
        out.append(
            FarFieldAoaEstimate(
                cosines=phis[k],
                coeff=complex(coeffs[k]),
                residual_power=seq_power[k],
                peak_metric=float(metric),
                low_power=bool(metric < low_power_metric),
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
    """Far-field two-stage estimate of every MS pose from a signal matrix."""
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
