"""Iterative message-passing estimator for multi-array position and
attitude recovery.

One iteration alternates two stages over a partitioned BS array:

1. *Angle stage*: for every (subarray, slot), convert the current Gaussian
   antenna-position messages into von Mises priors over the direction
   cosines, run the multi-source line-spectral estimator on the snapshot,
   and keep the extrinsic (data-only) part of each posterior.
2. *Fusion stage*: for every (MS, slot), fit a Gaussian to the composite
   of all subarrays' extrinsic cosine beliefs (Laplace), then solve a
   leave-one-slot-out MAP for the MS pose, linearize the rigid-body
   constraint to push pose beliefs back to antenna positions, and combine
   with leave-one-subarray-out composites to form the next iteration's
   antenna-position messages.

Every Laplace fit is a damped Newton ascent on an analytic Hessian, and
each stage solves all its problems at once (`circular.newton_fits`): the
K*T fusion fits, the K*T leave-one-slot-out pose fits and the M*K*T
leave-one-subarray-out fits, each the full composite with one subarray's
concentrations masked to zero. After the final iteration the pose of
each MS is the MAP point of the all-slots objective.

Stage functions return their flags as (MS index, name) pairs, and `run`
hands every MS its own flags on the returned `PoseEstimate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .aoa import (
    AoaOptions,
    SourcePrior,
    SubarraySnapshot,
    estimate_aoa_posteriors,
    extrinsic_from_posterior,
    match_components,
)
from .channel import ReceivedSignal, ScenarioConfig, extract_subarray
from .circular import (
    GaOptions,
    GaussianBelief,
    gaussian_to_vm,
    information_product,
    laplace_fit,
    newton_fits,
)
from .geometry import (
    EulerAngles,
    Pose,
    RotationBasis,
    canonicalize_euler,
    direction_cosine_derivatives,
    direction_cosine_hessian,
    euler_from_rotation,
    ray_from_cosines,
    rotation_basis,
    rotation_basis_derivatives,
    rotation_basis_second_derivatives,
    rotation_matrix_from_theta,
)
from .partition import PartitionPlan

_KAPPA_FLOOR = 1e-12


@dataclass(frozen=True)
class EstimatorConfig:
    """Estimator controls.

    ``iterations = None`` resolves to one pass for a single MS and five
    for multiple MSs. ``coeff_prior_var = None`` resolves to the nominal
    link budget at ``nominal_range``. Position and attitude priors default
    to non-informative values.
    """

    iterations: int | None = None
    sigma_ini: float = 1e3
    coeff_prior_var: float | None = None
    position_prior_std: float = 1e3
    attitude_prior_chi: tuple = (0.0, 0.0, 0.0)
    attitude_prior_kappa: tuple = (1e-6, 1e-6, 1e-6)
    nominal_range: float | None = None
    # damped Newton on analytic Hessians for every Laplace fit
    ga: GaOptions = GaOptions()
    aoa: AoaOptions = AoaOptions()

    def resolve(self, scenario: ScenarioConfig) -> "EstimatorConfig":
        """Fill in scenario-dependent defaults."""
        iters = self.iterations
        if iters is None:
            iters = 1 if scenario.num_ms == 1 else 5
        r_nom = self.nominal_range
        if r_nom is None:
            r_nom = scenario.nominal_range
        var = self.coeff_prior_var
        if var is None:
            beta = float(np.mean(scenario.antenna_gains))
            amp = math.sqrt(scenario.tx_power_w) * beta * scenario.lam / (
                4.0 * math.pi * r_nom
            )
            var = max(amp * amp, 1e-300)
        return replace(
            self,
            iterations=int(iters),
            coeff_prior_var=float(var),
            nominal_range=float(r_nom),
        )


@dataclass
class MessageState:
    """All message parameters, indexed (subarray, MS, slot) or (MS, slot)."""

    prior_mean: np.ndarray  # (M, K, T, 3)
    prior_cov: np.ndarray  # (M, K, T, 3, 3)
    ext_chi: np.ndarray  # (M, K, T, 2)
    ext_kappa: np.ndarray  # (M, K, T, 2)
    coeff_mag: np.ndarray  # (M, K, T)
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


def init_messages(m_count: int, k_count: int, t_count: int, cfg: EstimatorConfig) -> MessageState:
    """Initial antenna-position messages: mean [0, 0, 1], covariance
    sigma_ini^2 I, identically for every (subarray, MS, slot)."""
    if cfg.sigma_ini <= 0:
        raise ValueError("sigma_ini must be positive")
    mean = np.zeros((m_count, k_count, t_count, 3))
    mean[..., 2] = 1.0
    cov = np.zeros((m_count, k_count, t_count, 3, 3))
    cov[...] = cfg.sigma_ini**2 * np.eye(3)
    return MessageState(
        prior_mean=mean,
        prior_cov=cov,
        ext_chi=np.zeros((m_count, k_count, t_count, 2)),
        ext_kappa=np.zeros((m_count, k_count, t_count, 2)),
        coeff_mag=np.zeros((m_count, k_count, t_count)),
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


def composite_vm_grad(
    p: np.ndarray, refs: np.ndarray, chis: np.ndarray, kappas: np.ndarray
) -> np.ndarray:
    """Analytic gradient of `composite_vm_value` w.r.t. the position."""
    return composite_vm_terms(p, refs, chis, kappas)[1]


def composite_fits(refs, chis, kappas, inits, opts: GaOptions):
    """Laplace fits of stacked composites in one Newton solve: problem b
    has beliefs ``chis[b]``, ``kappas[b]`` (M, 2) and starts at
    ``inits[b]``."""
    return newton_fits(
        lambda x, idx: composite_vm_value(x, refs, chis[idx], kappas[idx]),
        lambda x, idx: composite_vm_terms(x, refs, chis[idx], kappas[idx]),
        inits,
        opts,
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
    dirs = np.array([ray_from_cosines(chis[m] / np.pi) for m in usable])
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


def fuse_antenna_position(state: MessageState, plan: PartitionPlan, cfg: EstimatorConfig):
    """Laplace-fit, for every (MS, slot), the product of all subarrays'
    cosine beliefs about that activated antenna, in one stacked solve.

    Writes ``fused_mean``, ``fused_prec`` and ``fused_ok``; a flat or
    runaway composite keeps its start point with precision
    I / sigma_ini^2. Returns (MS, flag) pairs.
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
            mean[b] = triangulate_init(refs, chis[b], kappas[b], cfg.nominal_range)
    prec = np.tile(np.eye(3) / cfg.sigma_ini**2, (k_count * t_count, 1, 1))
    ok = np.zeros(k_count * t_count, dtype=bool)
    nonconverged, regularized, diverged = (np.zeros_like(ok) for _ in range(3))
    solve = np.flatnonzero(~flat)
    if solve.size:
        fits = composite_fits(refs, chis[solve], kappas[solve], mean[solve], cfg.ga)
        nonconverged[solve] = ~fits.converged
        regularized[solve] = fits.regularized
        # a flat or conflicting composite can let the ascent run away;
        # such a problem keeps its start with the non-informative precision
        diverged[solve] = np.linalg.norm(fits.mean, axis=1) > 50.0 * cfg.nominal_range
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


def _estimator_prior(cfg: EstimatorConfig) -> PosePrior:
    return PosePrior(
        cfg.position_prior_std,
        np.asarray(cfg.attitude_prior_chi, dtype=float),
        np.asarray(cfg.attitude_prior_kappa, dtype=float),
    )


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
    basis = np.stack([rotation_matrix_from_theta(th) for th in theta])
    e = obs_means - p[:, None, :] - np.einsum("bxc,btc->btx", basis, q)
    we = np.einsum("btxy,bty->btx", obs_weights, e)
    value, prior_grad, prior_diag = prior.terms(p, theta)
    value = value - 0.5 * np.sum(e * we, axis=(1, 2))
    if order == 0:
        return value
    # J_t = d(p + R q_t)/dx = [I, D_t], D_t[:, a] = dR/dtheta_a q_t
    dbasis = np.stack([rotation_basis_derivatives(th) for th in theta])
    d2basis = np.stack([rotation_basis_second_derivatives(th) for th in theta])
    jac = np.concatenate(
        [
            np.broadcast_to(np.eye(3), e.shape + (3,)),
            np.einsum("baxc,btc->btxa", dbasis, q),
        ],
        axis=-1,
    )
    grad = np.einsum("btxa,btx->ba", jac, we) + prior_grad
    hess = -np.einsum("btxa,btxy,btyc->bac", jac, obs_weights, jac)
    hess[:, 3:, 3:] += np.einsum("bacxk,btk,btx->bac", d2basis, q, we)
    hess += np.einsum("ba,ac->bac", prior_diag, np.eye(6))
    return value, grad, hess


def _single_pose_terms(x, obs_means, obs_weights, q_locals, prior, order=2):
    return pose_terms(
        np.asarray(x)[None], obs_means[None], obs_weights[None], q_locals, prior, order
    )


def pose_objective(
    x: np.ndarray,
    obs_means: np.ndarray,
    obs_weights: np.ndarray,
    q_locals: np.ndarray,
    prior: PosePrior,
) -> float:
    """log posterior of one (position, attitude) given Gaussian
    antenna-position observations: `pose_terms` on a single problem."""
    return float(_single_pose_terms(x, obs_means, obs_weights, q_locals, prior, 0)[0])


def pose_gradient(
    x: np.ndarray,
    obs_means: np.ndarray,
    obs_weights: np.ndarray,
    q_locals: np.ndarray,
    prior: PosePrior,
) -> np.ndarray:
    """Analytic gradient of `pose_objective`."""
    return _single_pose_terms(x, obs_means, obs_weights, q_locals, prior)[1][0]


def pose_hessian(
    x: np.ndarray,
    obs_means: np.ndarray,
    obs_weights: np.ndarray,
    q_locals: np.ndarray,
    prior: PosePrior,
) -> np.ndarray:
    """Analytic Hessian of `pose_objective`."""
    return _single_pose_terms(x, obs_means, obs_weights, q_locals, prior)[2][0]


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


def update_pose_messages(state: MessageState, q_locals: np.ndarray, cfg: EstimatorConfig):
    """Leave-one-slot-out MAP pose messages of every MS, in one stacked
    solve, pushed back to the antennas.

    Problem (k, t) fits MS k's pose to the fused antenna positions of its
    other slots (those fused successfully, or all others if none was),
    weighted by their fusion precisions; its 6x6 Laplace covariance gives
    the position and attitude blocks. Writes the pose messages and their
    projections `project_pose_to_antennas`; returns (MS, flag) pairs.
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
    prior = _estimator_prior(cfg)
    fits = newton_fits(
        lambda x, idx: pose_terms(x, obs[idx], weights[idx], q_locals, prior, order=0),
        lambda x, idx: pose_terms(x, obs[idx], weights[idx], q_locals, prior),
        init,
        cfg.ga,
    )
    state.pose_mean[:] = fits.mean.reshape(k_count, t_count, 6)
    state.pose_cov_p[:] = fits.cov[:, :3, :3].reshape(k_count, t_count, 3, 3)
    state.pose_cov_theta[:] = fits.cov[:, 3:, 3:].reshape(k_count, t_count, 3, 3)
    for k, t in np.ndindex(k_count, t_count):
        eta = project_pose_to_antennas(state, k, t, q_locals[t])
        state.eta_mean[k, t] = eta.mean
        state.eta_cov[k, t] = eta.cov
    vals = np.linalg.eigvalsh(fits.cov)
    raised = {
        "pose_nonconverged": ~fits.converged,
        "pose_regularized": fits.regularized,
        # an unobservable pose direction (e.g. rotation about a collinear
        # antenna pattern) survives only through the prior
        "pose_near_singular": vals[:, -1] > 1e12 * np.maximum(vals[:, 0], 1e-300),
    }
    return _stage_flags(raised, (k_count, t_count))


def project_pose_to_antennas(
    state: MessageState, k: int, t: int, q_local: np.ndarray
) -> GaussianBelief:
    """Push a pose belief through the rigid-body constraint via first-order
    linearization of the rotation in the attitude."""
    pose = state.pose_mean[k, t]
    basis = rotation_matrix_from_theta(pose[3:])
    mean = pose[:3] + basis @ q_local
    dbasis = rotation_basis_derivatives(pose[3:])
    q_mat = np.stack([dbasis[axis] @ q_local for axis in range(3)], axis=1)
    cov = state.pose_cov_p[k, t] + q_mat @ state.pose_cov_theta[k, t] @ q_mat.T
    return GaussianBelief(mean, 0.5 * (cov + cov.T))


def feedback_messages(state: MessageState, plan: PartitionPlan, cfg: EstimatorConfig):
    """Next-iteration antenna-position messages of every (subarray, MS,
    slot), with all leave-one-subarray-out fits in one stacked solve.

    The message for subarray m combines, in information form, the
    pose-projected belief with the Laplace fit of the composite in which
    subarray m's concentrations are masked to zero. A flat or indefinite
    leave-one-out composite leaves the pose-projected belief alone.
    Writes ``prior_mean`` and ``prior_cov``; returns (MS, flag) pairs.
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
    dropped = np.zeros_like(flat)
    solve = np.flatnonzero(~flat)
    if solve.size:
        fits = composite_fits(refs, chis[solve], kappas[solve], inits[solve], cfg.ga)
        dropped[solve] = fits.regularized
        used = solve[~fits.regularized]
        mean, cov, _ = information_product(
            eta_mean.reshape(-1, 3)[used],
            np.linalg.inv(eta_cov.reshape(-1, 3, 3)[used]),
            fits.mean[~fits.regularized],
            fits.precision[~fits.regularized],
        )
        cell = np.unravel_index(used, (m_count, k_count, t_count))
        state.prior_mean[cell] = mean
        state.prior_cov[cell] = cov
    raised = {"gamma_flat": flat, "gamma_indefinite_dropped": dropped}
    return _stage_flags(raised, (m_count, k_count, t_count))


# ---------------------------------------------------------------------------
# angle stage


def _relabel_first_iteration(posts_by_mt, plan: PartitionPlan, k_count: int):
    """Associate per-(subarray, slot) posterior components with MS labels.

    Applies only when priors carry no information: the subarray whose
    reference antenna is nearest the array center anchors the labels at
    slot 1 (descending amplitude magnitude); its other slots are matched
    to slot 1, and every other subarray is matched to the anchor's labels
    for the same slot, by optimal assignment on circular distance.
    """
    refs = plan.reference_positions()
    anchor = int(np.argmin(np.linalg.norm(refs, axis=1)))
    t_count = len(posts_by_mt[anchor])

    def chi_matrix(posts):
        return np.array([p.pair.as_arrays()[0] for p in posts])

    labeled = [[None] * t_count for _ in range(len(posts_by_mt))]
    order = sorted(
        range(k_count),
        key=lambda kk: -abs(posts_by_mt[anchor][0][kk].coeff_mean),
    )
    labeled[anchor][0] = [posts_by_mt[anchor][0][kk] for kk in order]
    for t in range(1, t_count):
        ref_chi = chi_matrix(labeled[anchor][0])
        perm = match_components(ref_chi, chi_matrix(posts_by_mt[anchor][t]))
        labeled[anchor][t] = [posts_by_mt[anchor][t][j] for j in perm]
    for m in range(len(posts_by_mt)):
        if m == anchor:
            continue
        for t in range(t_count):
            ref_chi = chi_matrix(labeled[anchor][t])
            perm = match_components(ref_chi, chi_matrix(posts_by_mt[m][t]))
            labeled[m][t] = [posts_by_mt[m][t][j] for j in perm]
    return labeled


def aoa_module_pass(
    state: MessageState,
    signal: ReceivedSignal,
    plan: PartitionPlan,
    scenario: ScenarioConfig,
    cfg: EstimatorConfig,
):
    """Run the line-spectral stage on every (subarray, slot) and store the
    extrinsic cosine beliefs; returns (MS, flag) pairs."""
    m_count, k_count, t_count = state.shape
    refs = plan.reference_positions()
    posts_by_mt = [[None] * t_count for _ in range(m_count)]
    priors_by_mt = [[None] * t_count for _ in range(m_count)]
    flags = []
    for m in range(m_count):
        for t in range(t_count):
            snapshot = SubarraySnapshot(
                extract_subarray(signal, plan, m + 1, t),
                scenario.noise_power_w,
                k_count,
            )
            priors = []
            for k in range(k_count):
                pair = gaussian_to_vm(
                    GaussianBelief(
                        state.prior_mean[m, k, t], state.prior_cov[m, k, t]
                    ),
                    refs[m],
                )
                priors.append(SourcePrior(pair, cfg.coeff_prior_var))
            posts_by_mt[m][t] = estimate_aoa_posteriors(snapshot, priors, cfg.aoa)
            priors_by_mt[m][t] = priors
    if state.iteration == 0 and k_count > 1:
        posts_by_mt = _relabel_first_iteration(posts_by_mt, plan, k_count)
    for m in range(m_count):
        for t in range(t_count):
            exts = extrinsic_from_posterior(posts_by_mt[m][t], priors_by_mt[m][t])
            for k in range(k_count):
                chi, kappa = exts[k].as_arrays()
                state.ext_chi[m, k, t] = chi
                state.ext_kappa[m, k, t] = kappa
                state.coeff_mag[m, k, t] = abs(posts_by_mt[m][t][k].coeff_mean)
                if any(posts_by_mt[m][t][k].curvature_fallback):
                    flags.append((k, f"aoa_curvature_m{m}k{k}t{t}"))
    return flags


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


def final_map(
    state: MessageState, q_locals: np.ndarray, cfg: EstimatorConfig
) -> list:
    """All-slots MAP pose per MS, seeded by the better of the closed-form
    alignment fit and the last pose message."""
    prior = _estimator_prior(cfg)
    out = []
    for k in range(state.fused_mean.shape[0]):
        obs = state.fused_mean[k]
        w = state.fused_prec[k]
        inits = [procrustes_pose(obs, q_locals)]
        if state.have_pose:
            inits.append(state.pose_mean[k, 0].copy())
        scores = [pose_objective(x, obs, w, q_locals, prior) for x in inits]
        fit = laplace_fit(
            lambda x: pose_objective(x, obs, w, q_locals, prior),
            inits[int(np.argmax(scores))],
            grad=lambda x: pose_gradient(x, obs, w, q_locals, prior),
            hess=lambda x: pose_hessian(x, obs, w, q_locals, prior),
            opts=cfg.ga,
        )
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
    cfg: EstimatorConfig | None = None,
) -> list:
    """Full estimation pass: iterate angle and fusion stages, then output
    the MAP pose of every MS with the flags its stages raised.
    Deterministic given (signal, config)."""
    cfg = (cfg or EstimatorConfig()).resolve(scenario)
    m_count = plan.n_subarrays
    k_count = scenario.num_ms
    t_count = scenario.n_slots
    if signal.samples.shape != (scenario.bs.n_antennas, t_count):
        raise ValueError(
            f"signal shape {signal.samples.shape} does not match scenario "
            f"({scenario.bs.n_antennas}, {t_count})"
        )
    q_locals = scenario.pattern.local_positions(scenario.ms, scenario.lam)
    state = init_messages(m_count, k_count, t_count, cfg)
    for iteration in range(cfg.iterations):
        state.iteration = iteration
        state.flags += aoa_module_pass(state, signal, plan, scenario, cfg)
        state.flags += fuse_antenna_position(state, plan, cfg)
        state.flags += update_pose_messages(state, q_locals, cfg)
        state.have_pose = True
        if iteration < cfg.iterations - 1:
            state.flags += feedback_messages(state, plan, cfg)
    estimates = final_map(state, q_locals, cfg)
    for k, est in enumerate(estimates):
        stage_flags = tuple(name for kk, name in state.flags if kk == k)
        est.flags = tuple(dict.fromkeys(stage_flags + est.flags))
    return estimates
