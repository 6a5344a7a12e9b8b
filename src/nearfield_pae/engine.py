"""Iterative message-passing estimator for multi-array position and
attitude recovery.

One iteration alternates two stages over a partitioned BS array:

1. *Angle stage*: for every (subarray, slot), convert the current Gaussian
   antenna-position messages into von Mises priors over the direction
   cosines, run the multi-source line-spectral estimator on the snapshot,
   and keep the extrinsic (data-only) part of each posterior; all of it
   on arrays, one stacked routine call per subarray shape.
2. *Fusion stage*: for every (MS, slot), fit a Gaussian to the composite
   of all subarrays' extrinsic cosine beliefs (Laplace), then solve a
   leave-one-slot-out MAP for the MS pose, linearize the rigid-body
   constraint to push pose beliefs back to antenna positions, and combine
   with leave-one-subarray-out composites to form the next iteration's
   antenna-position messages.

Every Laplace fit is a damped Newton ascent on an analytic Hessian, and
each stage solves all its problems at once (`circular.newton_fits`):
the K*T fusion fits, the K*T leave-one-slot-out pose fits and the M*K*T
leave-one-subarray-out fits, each the full composite with one
subarray's concentrations masked to zero. After the final iteration
the pose of each MS is the MAP point of the all-slots objective, the K
fits again in one stacked solve.

Stage functions return their flags as (MS index, name) pairs, and `run`
hands every MS its own flags on the returned `PoseEstimate`.

The iteration count is the estimator's one setting. Its priors are fixed
and non-informative (`SIGMA_INI`, `POSE_PRIOR`), and what depends on the
scene comes from the scenario: the nominal range seeds and guards the
position fits, and the angle stage's amplitude prior variance is the
link budget at that range (`coeff_prior_var`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .aoa import estimate_aoa_posteriors, match_components
from .channel import ReceivedSignal, ScenarioConfig
from .circular import gaussian_to_vm_stack, information_product, newton_fits, vm_extrinsic_stack

# no stage calls it; the benchmark's tracer wraps `engine.laplace_fit` by name
from .circular import laplace_fit  # noqa: F401
from .geometry import (
    EulerAngles,
    Pose,
    RotationBasis,
    canonicalize_euler,
    direction_cosine_derivatives,
    direction_cosine_hessian,
    euler_from_rotation,
    ray_from_cosines,
    rigid_antenna_chain,
    rotation_basis,
)
from .partition import PartitionPlan, subarray_groups

_KAPPA_FLOOR = 1e-12


# the initial antenna-position messages' standard deviation (m): mean
# [0, 0, 1] with this spread carries no information at any scene range
SIGMA_INI = 1e3


def iteration_count(iterations, num_ms: int) -> int:
    """The estimator's pass count: ``iterations``, or when it is None one
    pass for a single MS and five for several. Raises ValueError unless
    ``iterations`` is None or an integer >= 1."""
    if iterations is None:
        return 1 if num_ms == 1 else 5
    if not (isinstance(iterations, (int, np.integer)) and iterations >= 1):
        raise ValueError(f"iterations must be an integer >= 1, got {iterations}")
    return int(iterations)


def coeff_prior_var(scenario: ScenarioConfig) -> float:
    """The angle stage's amplitude prior variance: the squared link-budget
    amplitude sqrt(P) beta lambda / (4 pi r) at the scenario's nominal
    range r, with beta the mean antenna gain."""
    beta = float(np.mean(scenario.antenna_gains))
    amp = math.sqrt(scenario.tx_power_w) * beta * scenario.lam / (
        4.0 * math.pi * scenario.nominal_range
    )
    return max(amp * amp, 1e-300)


@dataclass
class MessageState:
    """All message parameters, indexed (subarray, MS, slot) or (MS, slot)."""

    prior_mean: np.ndarray  # (M, K, T, 3)
    prior_cov: np.ndarray  # (M, K, T, 3, 3)
    ext_chi: np.ndarray  # (M, K, T, 2)
    ext_kappa: np.ndarray  # (M, K, T, 2)
    fused_mean: np.ndarray  # (K, T, 3)
    fused_prec: np.ndarray  # (K, T, 3, 3), the capped -H of each fusion fit
    fused_ok: np.ndarray  # (K, T) bool
    pose_mean: np.ndarray  # (K, T, 6)
    pose_cov_p: np.ndarray  # (K, T, 3, 3)
    pose_cov_theta: np.ndarray  # (K, T, 3, 3)
    eta_mean: np.ndarray  # (K, T, 3)
    eta_cov: np.ndarray  # (K, T, 3, 3)
    iteration: int = 0
    have_pose: bool = False
    flags: list = field(default_factory=list)  # (MS index, name) pairs

    @property
    def shape(self) -> tuple:
        return self.prior_mean.shape[:3]


def init_messages(m_count: int, k_count: int, t_count: int) -> MessageState:
    """Initial antenna-position messages: mean [0, 0, 1], covariance
    SIGMA_INI^2 I, identically for every (subarray, MS, slot)."""
    mean = np.zeros((m_count, k_count, t_count, 3))
    mean[..., 2] = 1.0
    cov = np.zeros((m_count, k_count, t_count, 3, 3))
    cov[...] = SIGMA_INI**2 * np.eye(3)
    return MessageState(
        prior_mean=mean,
        prior_cov=cov,
        ext_chi=np.zeros((m_count, k_count, t_count, 2)),
        ext_kappa=np.zeros((m_count, k_count, t_count, 2)),
        fused_mean=np.zeros((k_count, t_count, 3)),
        fused_prec=np.tile(np.eye(3), (k_count, t_count, 1, 1)),
        fused_ok=np.zeros((k_count, t_count), dtype=bool),
        pose_mean=np.zeros((k_count, t_count, 6)),
        pose_cov_p=np.tile(np.eye(3), (k_count, t_count, 1, 1)),
        pose_cov_theta=np.tile(np.eye(3), (k_count, t_count, 1, 1)),
        eta_mean=np.zeros((k_count, t_count, 3)),
        eta_cov=np.tile(np.eye(3), (k_count, t_count, 1, 1)),
    )


# ---------------------------------------------------------------------------
# composite cosine-belief objective (the position-space likelihood message)


def composite_vm_value(
    p: np.ndarray, refs: np.ndarray, chis: np.ndarray, kappas: np.ndarray
):
    """Sum over subarrays/axes of kappa * cos(pi * phi_axis(p) - chi).

    Stacks over leading axes: points (..., 3) with ``chis`` and ``kappas``
    (..., M, 2) give values (...); one point gives a float.
    """
    diff = np.asarray(p, dtype=float)[..., None, :] - refs
    phi = diff[..., :2] / np.linalg.norm(diff, axis=-1)[..., None]
    val = np.sum(kappas * np.cos(np.pi * phi - chis), axis=(-2, -1))
    return float(val) if val.ndim == 0 else val


def composite_vm_terms(
    p: np.ndarray, refs: np.ndarray, chis: np.ndarray, kappas: np.ndarray
):
    """Value, gradient (..., 3) and Hessian (..., 3, 3) of
    `composite_vm_value`, stacked the same way.

    With w_l = kappa_l sin(pi phi_l - chi_l), the gradient is
    -pi sum w_l dphi_l and the Hessian -pi^2 sum kappa_l cos(.) dphi_l
    dphi_l^T - pi sum w_l d2phi_l; the second sum is contracted inside
    `geometry.direction_cosine_hessian`.
    """
    diff = np.asarray(p, dtype=float)[..., None, :] - refs
    phi, jac = direction_cosine_derivatives(diff)
    arg = np.pi * phi - chis
    curv = kappas * np.cos(arg)
    slope = -np.pi * kappas * np.sin(arg)
    grad = np.einsum("...ml,...mlx->...x", slope, jac)
    hess = -np.pi**2 * np.einsum("...ml,...mlx,...mly->...xy", curv, jac, jac)
    hess += direction_cosine_hessian(diff, slope)
    return np.sum(curv, axis=(-2, -1)), grad, hess


def composite_fits(refs, chis, kappas, inits):
    """Laplace fits of stacked composites in one Newton solve: problem b
    has beliefs ``chis[b]``, ``kappas[b]`` (M, 2) and starts at
    ``inits[b]``."""
    return newton_fits(
        lambda x, idx: composite_vm_value(x, refs, chis[idx], kappas[idx]),
        lambda x, idx: composite_vm_terms(x, refs, chis[idx], kappas[idx]),
        inits,
    )


def triangulate_init(
    refs: np.ndarray, chis: np.ndarray, kappas: np.ndarray, nominal_range: float
) -> np.ndarray:
    """Coarse position fix from back-projected subarray rays.

    Uses the least-squares intersection of the rays from the two most
    widely separated informative subarrays; with a single subarray the
    fix is placed at the nominal range along its ray.
    """
    strength = kappas.sum(axis=1)
    usable = np.flatnonzero(strength > _KAPPA_FLOOR)
    if usable.size == 0:
        return np.array([0.0, 0.0, nominal_range])
    dirs = ray_from_cosines(chis[usable] / np.pi)
    if usable.size == 1:
        return refs[usable[0]] + nominal_range * dirs[0]
    # most widely separated pair of reference antennas
    sub_refs = refs[usable]
    d2 = np.sum((sub_refs[:, None, :] - sub_refs[None, :, :]) ** 2, axis=2)
    a, b = np.unravel_index(int(np.argmax(d2)), d2.shape)
    mat = np.zeros((3, 3))
    rhs = np.zeros(3)
    for idx in (a, b):
        proj = np.eye(3) - np.outer(dirs[idx], dirs[idx])
        mat += proj
        rhs += proj @ sub_refs[idx]
    try:
        p = np.linalg.solve(mat + 1e-12 * np.eye(3), rhs)
    except np.linalg.LinAlgError:
        p = None
    if p is None or not np.all(np.isfinite(p)) or np.linalg.norm(p) > 100.0 * nominal_range:
        center = sub_refs[[a, b]].mean(axis=0)
        mean_dir = dirs[[a, b]].mean(axis=0)
        mean_dir /= max(np.linalg.norm(mean_dir), 1e-12)
        return center + nominal_range * mean_dir
    return p


def _stage_flags(raised: dict, shape: tuple) -> list:
    """(MS, flag) pairs of a stage whose stacked problems are indexed
    (K, T) or (M, K, T) as ``shape``: one per problem and flag name whose
    boolean array in ``raised`` is set there, tagged with the problem's
    indices."""
    flags = []
    for b, index in enumerate(np.ndindex(*shape)):
        tag = "".join(f"{axis}{i}" for axis, i in zip("mkt"[-len(shape) :], index))
        flags += [(index[-2], f"{name}_{tag}") for name, mask in raised.items() if mask[b]]
    return flags


def _flat_problems(kappas: np.ndarray) -> np.ndarray:
    """Problems (..., M, 2) whose composite carries no information."""
    return np.all(kappas <= _KAPPA_FLOOR, axis=(-2, -1))


def _diverged(means: np.ndarray, nominal_range: float) -> np.ndarray:
    """Composite fits (..., 3) that ran away (beyond 50 nominal ranges) or
    ended on or behind the BS plane (z <= 0). A flat or conflicting
    composite can let the ascent run away, and cosines see z only through
    |z|, so a start behind the plane ascends to the mirror image of a mode
    or onto the plane."""
    return (np.linalg.norm(means, axis=-1) > 50.0 * nominal_range) | (means[..., 2] <= 0.0)


def fuse_antenna_position(state: MessageState, plan: PartitionPlan, nominal_range: float):
    """Laplace-fit, for every (MS, slot), the product of all subarrays'
    cosine beliefs about that activated antenna, in one stacked solve.

    Writes ``fused_mean``, ``fused_prec`` and ``fused_ok``; a flat
    composite, or one whose fit runs away or ends on or behind the BS
    plane (z <= 0), keeps its start point with precision I / SIGMA_INI^2.
    A start comes from `triangulate_init` at ``nominal_range``, which
    also scales the runaway test. Returns (MS, flag) pairs.
    """
    m_count, k_count, t_count = state.shape
    refs = plan.reference_positions()
    chis = state.ext_chi.transpose(1, 2, 0, 3).reshape(-1, m_count, 2)
    kappas = state.ext_kappa.transpose(1, 2, 0, 3).reshape(-1, m_count, 2)
    flat = _flat_problems(kappas)
    mean = np.empty((k_count * t_count, 3))
    for b, (k, t) in enumerate(np.ndindex(k_count, t_count)):
        if flat[b]:
            mean[b] = state.prior_mean[0, k, t]
        elif state.iteration > 0 and state.fused_ok[k, t]:
            mean[b] = state.fused_mean[k, t]
        else:
            mean[b] = triangulate_init(refs, chis[b], kappas[b], nominal_range)
    prec = np.tile(np.eye(3) / SIGMA_INI**2, (k_count * t_count, 1, 1))
    ok = np.zeros(k_count * t_count, dtype=bool)
    nonconverged, regularized, diverged = (np.zeros_like(ok) for _ in range(3))
    solve = np.flatnonzero(~flat)
    if solve.size:
        fits = composite_fits(refs, chis[solve], kappas[solve], mean[solve])
        nonconverged[solve] = ~fits.converged
        regularized[solve] = fits.regularized
        # a diverged problem keeps its start with the non-informative precision
        diverged[solve] = _diverged(fits.mean, nominal_range)
        kept = ~diverged[solve]
        mean[solve[kept]] = fits.mean[kept]
        prec[solve[kept]] = fits.precision[kept]
        ok[solve[kept]] = fits.converged[kept]
    state.fused_mean[:] = mean.reshape(k_count, t_count, 3)
    state.fused_prec[:] = prec.reshape(k_count, t_count, 3, 3)
    state.fused_ok[:] = ok.reshape(k_count, t_count)
    raised = {
        "flat_composite": flat,
        "fusion_nonconverged": nonconverged,
        "fusion_regularized": regularized,
        "fusion_diverged": diverged,
    }
    return _stage_flags(raised, (k_count, t_count))


# ---------------------------------------------------------------------------
# pose objective (leave-one-out messages and the final MAP share it)


# attitude priors act on (roll, 2 pitch, yaw)
_ANGLE_MULTIPLIER = np.array([1.0, 2.0, 1.0])


@dataclass(frozen=True)
class PosePrior:
    """Gaussian position prior (zero mean) and per-axis von Mises attitude
    priors with the doubled-angle pitch convention."""

    position_std: float
    chi: np.ndarray
    kappa: np.ndarray

    def terms(self, p: np.ndarray, theta: np.ndarray):
        """Log density (B,), gradient (B, 6) and Hessian diagonal (B, 6)
        at stacked positions and attitudes (B, 3); the Hessian is
        diagonal."""
        var = self.position_std**2
        arg = _ANGLE_MULTIPLIER * theta - self.chi
        value = -0.5 * np.sum(p * p, axis=-1) / var + np.sum(self.kappa * np.cos(arg), axis=-1)
        grad = np.concatenate([-p / var, -_ANGLE_MULTIPLIER * self.kappa * np.sin(arg)], axis=-1)
        curv = -(_ANGLE_MULTIPLIER**2) * self.kappa * np.cos(arg)
        diag = np.concatenate([np.full(p.shape, -1.0 / var), curv], axis=-1)
        return value, grad, diag


# the estimator's pose prior, non-informative: zero-mean position with a
# 1e3 m spread, and attitude concentration 1e-6 about 0 on every axis
POSE_PRIOR = PosePrior(1e3, np.zeros(3), np.full(3, 1e-6))


def pose_terms(
    x: np.ndarray,
    obs_means: np.ndarray,
    obs_weights: np.ndarray,
    q_locals: np.ndarray,
    prior: PosePrior,
    order: int = 2,
):
    """The pose log posterior (B,) of stacked problems with, unless
    ``order`` is 0, its gradient (B, 6) and Hessian (B, 6, 6).

    Problem b scores the pose x[b] = (position, roll, pitch, yaw) against
    Gaussian antenna-position observations ``obs_means[b]`` (B, T, 3) with
    precisions ``obs_weights[b]`` (B, T, 3, 3) of the antennas at local
    offsets ``q_locals`` (T, 2) or (B, T, 2): -1/2 sum_t e_t^T W_t e_t with
    residuals e_t = o_t - p - R(theta) q_t, plus the priors. The Hessian
    is the Gauss-Newton term -J^T W J, the residual term through the
    basis's second derivatives, and the prior's diagonal. A zero weight
    drops an observation.
    """
    x = np.asarray(x, dtype=float)
    p, theta = x[:, :3], x[:, 3:]
    q = np.broadcast_to(q_locals, obs_means.shape[:2] + (2,))
    offsets, jac, second = rigid_antenna_chain(theta, q, order)
    e = obs_means - p[:, None, :] - offsets
    we = np.einsum("btxy,bty->btx", obs_weights, e)
    value, prior_grad, prior_diag = prior.terms(p, theta)
    value = value - 0.5 * np.sum(e * we, axis=(1, 2))
    if order == 0:
        return value
    grad = np.einsum("btxa,btx->ba", jac, we) + prior_grad
    hess = -np.einsum("btxa,btxy,btyc->bac", jac, obs_weights, jac)
    hess[:, 3:, 3:] += np.einsum("btxac,btx->bac", second, we)
    hess += np.einsum("ba,ac->bac", prior_diag, np.eye(6))
    return value, grad, hess


def pose_fits(obs_means, obs_weights, q_locals, prior: PosePrior, inits):
    """Laplace fits of stacked `pose_terms` problems in one Newton solve:
    problem b has observations ``obs_means[b]``, ``obs_weights[b]`` and
    starts at ``inits[b]``."""
    return newton_fits(
        lambda x, idx: pose_terms(x, obs_means[idx], obs_weights[idx], q_locals, prior, order=0),
        lambda x, idx: pose_terms(x, obs_means[idx], obs_weights[idx], q_locals, prior),
        inits,
    )


def procrustes_pose(obs_means: np.ndarray, q_locals: np.ndarray) -> np.ndarray:
    """Closed-form pose fit: orthogonal alignment of the planar antenna
    layout to the observed positions (unweighted)."""
    n = obs_means.shape[0]
    q3 = np.zeros((n, 3))
    q3[:, :2] = q_locals
    if n == 0:
        return np.zeros(6)
    if n == 1:
        x = np.zeros(6)
        x[:3] = obs_means[0] - q3[0]
        return x
    qc = q3 - q3.mean(axis=0)
    yc = obs_means - obs_means.mean(axis=0)
    h = qc.T @ yc
    u, _, vt = np.linalg.svd(h)
    v = vt.T
    d = np.sign(np.linalg.det(v @ u.T))
    r3 = v @ np.diag([1.0, 1.0, d]) @ u.T
    p = obs_means.mean(axis=0) - r3 @ q3.mean(axis=0)
    angles = euler_from_rotation(r3)
    return np.concatenate([p, angles.as_array()])


def update_pose_messages(state: MessageState, q_locals: np.ndarray):
    """Leave-one-slot-out MAP pose messages of every MS, in one stacked
    solve, pushed back to the antennas.

    Problem (k, t) fits MS k's pose to the fused antenna positions of its
    other slots (those fused successfully, or all others if none was),
    weighted by their fusion precisions, under `POSE_PRIOR`; its 6x6
    Laplace covariance gives the position and attitude blocks. Writes the
    pose messages and their projections `project_pose_to_antennas`;
    returns (MS, flag) pairs.
    """
    k_count, t_count = state.fused_mean.shape[:2]
    others = ~np.eye(t_count, dtype=bool)
    use = others & state.fused_ok[:, None, :]
    use = np.where(np.any(use, axis=2, keepdims=True), use, others)  # (K, T, T)
    obs = np.broadcast_to(state.fused_mean[:, None], (k_count, t_count, t_count, 3))
    obs = obs.reshape(-1, t_count, 3)
    weights = (state.fused_prec[:, None] * use[..., None, None]).reshape(-1, t_count, 3, 3)
    use = use.reshape(-1, t_count)
    if state.have_pose:
        init = state.pose_mean.reshape(-1, 6)
    else:
        init = np.array([procrustes_pose(o[u], q_locals[u]) for o, u in zip(obs, use)])
    fits = pose_fits(obs, weights, q_locals, POSE_PRIOR, init)
    state.pose_mean[:] = fits.mean.reshape(k_count, t_count, 6)
    state.pose_cov_p[:] = fits.cov[:, :3, :3].reshape(k_count, t_count, 3, 3)
    state.pose_cov_theta[:] = fits.cov[:, 3:, 3:].reshape(k_count, t_count, 3, 3)
    state.eta_mean[:], state.eta_cov[:] = project_pose_to_antennas(state, q_locals)
    vals = np.linalg.eigvalsh(fits.cov)
    raised = {
        "pose_nonconverged": ~fits.converged,
        "pose_regularized": fits.regularized,
        # an unobservable pose direction (e.g. rotation about a collinear
        # antenna pattern) survives only through the prior
        "pose_near_singular": vals[:, -1] > 1e12 * np.maximum(vals[:, 0], 1e-300),
    }
    return _stage_flags(raised, (k_count, t_count))


def project_pose_to_antennas(state: MessageState, q_locals: np.ndarray) -> tuple:
    """Push every pose message (k, t) through the rigid-body constraint to
    the antenna of slot t at local offset ``q_locals[t]`` (T, 2), by
    first-order linearization of the rotation in the attitude, in one
    chain-rule call. Returns means (K, T, 3) and symmetrized covariances
    cov_p + Q cov_theta Q^T (K, T, 3, 3), with Q = dR/dtheta q_t."""
    shape = state.pose_mean.shape[:2]
    theta = state.pose_mean[..., 3:].reshape(-1, 3)
    q = np.broadcast_to(q_locals, shape + (2,)).reshape(-1, 1, 2)
    offsets, jac, _ = rigid_antenna_chain(theta, q, order=1)
    q_mat = jac[:, 0, :, 3:].reshape(shape + (3, 3))
    cov = state.pose_cov_p + q_mat @ state.pose_cov_theta @ np.swapaxes(q_mat, -1, -2)
    mean = state.pose_mean[..., :3] + offsets.reshape(shape + (3,))
    return mean, 0.5 * (cov + np.swapaxes(cov, -1, -2))


def feedback_messages(state: MessageState, plan: PartitionPlan, nominal_range: float):
    """Next-iteration antenna-position messages of every (subarray, MS,
    slot), with all leave-one-subarray-out fits in one stacked solve.

    The message for subarray m combines, in information form, the
    pose-projected belief with the Laplace fit of the composite in which
    subarray m's concentrations are masked to zero. A flat or indefinite
    leave-one-out composite, one whose fit diverged as fusion judges it
    (runs away or ends at z <= 0), or one whose precision plus the
    pose-projected one is not definite beyond rounding, leaves the
    pose-projected belief. Writes ``prior_mean`` and ``prior_cov``;
    returns (MS, flag) pairs.
    """
    m_count, k_count, t_count = state.shape
    eta_mean = np.broadcast_to(state.eta_mean, state.prior_mean.shape)
    eta_cov = np.broadcast_to(state.eta_cov, state.prior_cov.shape)
    state.prior_mean[:] = eta_mean
    state.prior_cov[:] = eta_cov
    if m_count == 1:
        return []
    refs = plan.reference_positions()
    shape = (m_count, k_count, t_count, m_count, 2)
    chis = np.broadcast_to(state.ext_chi.transpose(1, 2, 0, 3), shape).reshape(-1, m_count, 2)
    masked = 1.0 - np.eye(m_count)[:, None, None, :, None]
    kappas = (state.ext_kappa.transpose(1, 2, 0, 3) * masked).reshape(-1, m_count, 2)
    inits = np.broadcast_to(state.fused_mean, eta_mean.shape).reshape(-1, 3)
    flat = _flat_problems(kappas)
    dropped, diverged = np.zeros_like(flat), np.zeros_like(flat)
    solve = np.flatnonzero(~flat)
    if solve.size:
        fits = composite_fits(refs, chis[solve], kappas[solve], inits[solve])
        diverged[solve] = _diverged(fits.mean, nominal_range)
        keep = np.flatnonzero(~fits.regularized & ~diverged[solve])
        eta_prec = np.linalg.inv(eta_cov.reshape(-1, 3, 3)[solve[keep]])
        # a fit precision's rounding (eps times eigenvalues up to ~1e21)
        # can swamp the pose-projected precision: a sum not definite beyond
        # a few eps of its largest eigenvalue is dropped like an indefinite fit
        vals = np.linalg.eigvalsh(eta_prec + fits.precision[keep])
        definite = vals[:, 0] > 8.0 * np.finfo(float).eps * vals[:, -1]
        keep, eta_prec = keep[definite], eta_prec[definite]
        used = solve[keep]
        dropped[np.setdiff1d(solve, used)] = True
        dropped &= ~diverged
        mean, cov, _ = information_product(
            eta_mean.reshape(-1, 3)[used], eta_prec, fits.mean[keep], fits.precision[keep]
        )
        cell = np.unravel_index(used, (m_count, k_count, t_count))
        state.prior_mean[cell] = mean
        state.prior_cov[cell] = cov
    raised = {"gamma_flat": flat, "gamma_indefinite_dropped": dropped, "gamma_diverged": diverged}
    return _stage_flags(raised, (m_count, k_count, t_count))


# ---------------------------------------------------------------------------
# angle stage


def _relabel_first_iteration(chi: np.ndarray, coeff_abs: np.ndarray, plan: PartitionPlan):
    """Permutations (M, T, K) giving MS label k to component perm[m, t, k]
    of cell (m, t), from posterior means ``chi`` (M, T, K, 2) and amplitude
    magnitudes ``coeff_abs`` (M, T, K); for priors without information.

    The subarray whose reference antenna is nearest the array center
    anchors the labels at slot 1 (descending amplitude magnitude); its
    other slots are matched to slot 1, and every other subarray to the
    anchor's labels for the same slot, by optimal assignment on circular
    distance."""
    m_count, t_count, _ = coeff_abs.shape
    anchor = int(np.argmin(np.linalg.norm(plan.reference_positions(), axis=1)))
    perm = np.empty(coeff_abs.shape, dtype=int)
    perm[anchor, 0] = np.argsort(-coeff_abs[anchor, 0], kind="stable")
    for t in range(1, t_count):
        perm[anchor, t] = match_components(chi[anchor, 0, perm[anchor, 0]], chi[anchor, t])
    for m, t in np.ndindex(m_count, t_count):
        if m != anchor:
            perm[m, t] = match_components(chi[anchor, t, perm[anchor, t]], chi[m, t])
    return perm


def aoa_module_pass(
    state: MessageState,
    signal: ReceivedSignal,
    plan: PartitionPlan,
    scenario: ScenarioConfig,
):
    """Run the line-spectral stage on every (subarray, slot) and store the
    extrinsic cosine beliefs; returns (MS, flag) pairs. The snapshots of
    all subarrays of one shape, in every slot, go to one stacked
    `estimate_aoa_posteriors` call; priors, posteriors and extrinsic
    beliefs stay arrays indexed (subarray, slot, MS). The noise power and
    the amplitude prior variance (`coeff_prior_var`) come from
    ``scenario``."""
    k_count = state.shape[1]
    refs = plan.reference_positions()
    coeff_var = coeff_prior_var(scenario)
    # (M, T, K, 2): the von Mises prior of every (subarray, slot, MS)
    prior_chi, prior_kappa = (
        a.transpose(0, 2, 1, 3)
        for a in gaussian_to_vm_stack(state.prior_mean, state.prior_cov, refs[:, None, None])
    )
    chi, kappa, fallback = (np.empty(prior_chi.shape, dtype=d) for d in (float, float, bool))
    coeff = np.empty(prior_chi.shape[:3], dtype=complex)
    for group in subarray_groups(plan):
        sub = plan.subarrays[group.members[0]]
        # signal rows (G, N, T) in raveled (i, j) order -> (G T, nx, ny) in (m, t) order
        samples = signal.samples[group.rows].transpose(0, 2, 1).reshape(-1, sub.nx, sub.ny)
        cells = (len(samples), k_count)
        post = estimate_aoa_posteriors(
            samples,
            np.full(cells[0], scenario.noise_power_w),
            prior_chi[group.members].reshape(cells + (2,)),
            prior_kappa[group.members].reshape(cells + (2,)),
            np.full(cells, coeff_var),
        )
        found = (post.chi, post.kappa, post.coeff_mean, post.curvature_fallback)
        for out, got in zip((chi, kappa, coeff, fallback), found):
            out[group.members] = got.reshape((-1,) + out.shape[1:])
    if state.iteration == 0 and k_count > 1:
        perm = _relabel_first_iteration(chi, np.abs(coeff), plan)
        chi, kappa, fallback = (
            np.take_along_axis(a, perm[..., None], 2) for a in (chi, kappa, fallback)
        )
        coeff = np.take_along_axis(coeff, perm, 2)
    ext_chi, ext_kappa = vm_extrinsic_stack(chi, kappa, prior_chi, prior_kappa)
    state.ext_chi[:] = ext_chi.transpose(0, 2, 1, 3)
    state.ext_kappa[:] = ext_kappa.transpose(0, 2, 1, 3)
    return [
        (k, f"aoa_curvature_m{m}k{k}t{t}") for m, t, k in np.argwhere(fallback.any(axis=-1))
    ]


# ---------------------------------------------------------------------------
# final output


@dataclass
class PoseEstimate:
    """Estimated pose of one MS with Laplace covariance diagnostics.

    ``flags`` holds the distinct flags raised for this MS by any stage of
    the estimator, in the order first raised.
    """

    position: np.ndarray
    attitude: EulerAngles
    basis: RotationBasis
    cov_position: np.ndarray
    cov_attitude: np.ndarray
    converged: bool = True
    flags: tuple = ()

    @property
    def pose(self) -> Pose:
        return Pose(self.position, self.attitude)


def final_map(state: MessageState, q_locals: np.ndarray) -> list:
    """All-slots MAP pose of every MS under `POSE_PRIOR`, in one stacked
    solve on `pose_terms`. MS k starts from the better, by that objective,
    of the closed-form alignment fit and its last pose message."""
    obs, weights = state.fused_mean, state.fused_prec
    starts = np.array([procrustes_pose(o, q_locals) for o in obs])[:, None]
    if state.have_pose:
        starts = np.concatenate([starts, state.pose_mean[:, :1]], axis=1)  # (K, 2, 6)
    k_count, count = starts.shape[:2]
    scores = pose_terms(
        starts.reshape(-1, 6),
        np.repeat(obs, count, axis=0),
        np.repeat(weights, count, axis=0),
        q_locals,
        POSE_PRIOR,
        order=0,
    )
    init = starts[np.arange(k_count), np.argmax(scores.reshape(k_count, count), axis=1)]
    fits = pose_fits(obs, weights, q_locals, POSE_PRIOR, init)
    out = []
    for k in range(k_count):
        fit = fits.problem(k)
        attitude = canonicalize_euler(fit.mean[3:])
        flags = []
        if not fit.converged:
            flags.append("final_map_nonconverged")
        if fit.regularized:
            flags.append("final_map_regularized")
        out.append(
            PoseEstimate(
                position=fit.mean[:3],
                attitude=attitude,
                basis=rotation_basis(attitude),
                cov_position=fit.cov[:3, :3],
                cov_attitude=fit.cov[3:, 3:],
                converged=fit.converged,
                flags=tuple(flags),
            )
        )
    return out


def run(
    signal: ReceivedSignal,
    scenario: ScenarioConfig,
    plan: PartitionPlan,
    iterations: int | None = None,
) -> list:
    """Full estimation pass: iterate angle and fusion stages, then output
    the MAP pose of every MS with the flags its stages raised.

    ``iterations`` passes run, by default one for a single MS and five for
    several (`iteration_count`). Everything else is fixed or comes from
    the scenario: the initial messages (`SIGMA_INI`) and the pose prior
    (`POSE_PRIOR`) are non-informative, the amplitude prior is the link
    budget at the nominal range (`coeff_prior_var`), and that range seeds
    and guards the position fits. Deterministic given its arguments.
    Raises ValueError on an iteration count that is not an integer >= 1,
    a plan built for another array or wavelength
    (`PartitionPlan.check_scene`), or a signal of the wrong shape or with
    a non-finite sample."""
    passes = iteration_count(iterations, scenario.num_ms)
    plan.check_scene(scenario)
    m_count = plan.n_subarrays
    k_count = scenario.num_ms
    t_count = scenario.n_slots
    if signal.samples.shape != (scenario.bs.n_antennas, t_count):
        raise ValueError(
            f"signal shape {signal.samples.shape} does not match scenario "
            f"({scenario.bs.n_antennas}, {t_count})"
        )
    signal.check_finite()
    q_locals = scenario.pattern.local_positions(scenario.ms, scenario.lam)
    r_nom = scenario.nominal_range
    state = init_messages(m_count, k_count, t_count)
    for iteration in range(passes):
        state.iteration = iteration
        state.flags += aoa_module_pass(state, signal, plan, scenario)
        state.flags += fuse_antenna_position(state, plan, r_nom)
        state.flags += update_pose_messages(state, q_locals)
        state.have_pose = True
        if iteration < passes - 1:
            state.flags += feedback_messages(state, plan, r_nom)
    estimates = final_map(state, q_locals)
    for k, est in enumerate(estimates):
        stage_flags = tuple(name for kk, name in state.flags if kk == k)
        est.flags = tuple(dict.fromkeys(stage_flags + est.flags))
    return estimates
