"""Estimation-error lower bound under the reduced (plane-wave-per-
subarray) signal model.

The reduced model is a misspecification of the exact spherical-wavefront
model, so the bound is built around the *pseudotrue* parameter vector:
the reduced-model parameters whose noiseless mean is closest to the exact
mean in the squared residual summed over (subarray, slot) blocks, which is
the KL divergence between the two models under white Gaussian noise up to
a 1/noise-power factor. Two generalized information matrices evaluated
there give a sandwich variance term (Fortunati, Gini, Greco & Richmond,
IEEE SPM 2017), and the pseudotrue offset contributes a bias outer
product. The leading pose block bounds the mean-square estimation error of
any estimator built on the reduced model.

The reduced mean is linear in the gains, one K-column block of steering
vectors per (subarray, slot). The pseudotrue fit eliminates each block's
gains in closed form (variable projection, Golub & Pereyra, SIAM J.
Numer. Anal. 1973) and fits the pose by Gauss-Newton steps on Kaufman's
projected Jacobian (Kaufman, BIT 1975), run by the estimator's Newton
solver `circular.newton_fits`. The information matrices use analytic
first and second derivatives of the steering phases. Both work block by
block; the program never builds the dense (N_B T, M K T) embedding
(`reduced_embedding`), which the tests' dense-mean and Fisher oracles are
built on.

Parameter packing: ``gamma = [p_1, .., p_K, theta_1, .., theta_K]`` (6K
reals), and ``gamma_FF`` appends Re/Im of every per-(subarray, MS, slot)
complex gain in (m, k, t) lexicographic order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ScenarioConfig, exact_channels, reduced_coefficients, subarray_steering
from .circular import newton_fits
from .geometry import (
    Pose,
    canonicalize_euler,
    direction_cosine_derivatives,
    direction_cosine_hessian,
    rigid_antenna_chain,
)
from .partition import PartitionPlan, SubarrayGroup, subarray_groups

# pseudotrue fit tolerances, relative to ||mu_exact|| (residual norm)
# and ||mu_exact||^2 (gradient entries), and conditioning thresholds
ZERO_RESIDUAL_TOL = 1e-10
STATIONARITY_TOL = 1e-9
CONDITION_LIMIT = 1e12
PINV_RCOND = 1e-8


def pack_poses(poses) -> np.ndarray:
    """[positions..., attitudes...] for a list of poses."""
    k = len(poses)
    gamma = np.zeros(6 * k)
    for i, pose in enumerate(poses):
        gamma[3 * i : 3 * i + 3] = pose.position
        gamma[3 * k + 3 * i : 3 * k + 3 * i + 3] = pose.attitude.as_array()
    return gamma


def unpack_poses(gamma: np.ndarray, k: int):
    """Raw (position, attitude-array) pairs; no support clamping, so the
    result is safe to use at optimizer iterates."""
    out = []
    for i in range(k):
        out.append(
            (
                gamma[3 * i : 3 * i + 3],
                gamma[3 * k + 3 * i : 3 * k + 3 * i + 3],
            )
        )
    return out


def poses_from_gamma(gamma: np.ndarray, k: int):
    return [
        Pose(p, canonicalize_euler(theta)) for p, theta in unpack_poses(gamma, k)
    ]


def exact_mean(gamma: np.ndarray, scenario: ScenarioConfig) -> np.ndarray:
    """Noiseless exact-model signal, stacked slot by slot into one vector:
    the simulator's sum over MSs of `channel.exact_channels`."""
    antennas = _antenna_derivatives(gamma, scenario, order=0)[0]
    amp = math.sqrt(scenario.tx_power_w)
    return np.sum(amp * exact_channels(scenario, antennas), axis=0).ravel()


def reduced_embedding(
    gamma: np.ndarray, scenario: ScenarioConfig, plan: PartitionPlan
) -> np.ndarray:
    """(N_B T, M K T) complex matrix whose (m, k, t) column is the reduced
    model's steering response embedded at subarray m's rows in slot t; the
    reduced mean is this matrix times the complex gain vector."""
    n_b = scenario.bs.n_antennas
    m_count = plan.n_subarrays
    k_count = scenario.num_ms
    t_count = scenario.n_slots
    antennas = _antenna_derivatives(gamma, scenario, order=0)[0]
    cols = np.zeros((n_b * t_count, m_count * k_count * t_count), dtype=np.complex128)
    for mi, sub in enumerate(plan.subarrays):
        rows = plan.subarray_row_indices(mi + 1).ravel()
        for k in range(k_count):
            diff = antennas[k] - sub.ref_position[None, :]
            r = np.linalg.norm(diff, axis=1)
            phi = diff[:, :2] / r[:, None]
            for t in range(t_count):
                col = (mi * k_count + k) * t_count + t
                cols[t * n_b + rows, col] = subarray_steering(sub.nx, sub.ny, *phi[t]).ravel()
    return cols


def gain_index(m: int, k: int, t: int, k_count: int, t_count: int) -> int:
    """Column index of the (m, k, t) complex gain (all 0-based)."""
    return (m * k_count + k) * t_count + t


def true_gain_vector(
    gamma: np.ndarray, scenario: ScenarioConfig, plan: PartitionPlan
) -> np.ndarray:
    """Complex gains implied by a pose vector via the reduced-model gain
    formula (used to complete the ground-truth extended vector)."""
    coeffs = reduced_coefficients(
        scenario, plan, poses_from_gamma(gamma, scenario.num_ms), validate=False
    )
    # gain_index is C order over (M, K, T)
    return np.array(coeffs.gains, dtype=np.complex128).reshape(-1)


def pack_extended(gamma: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.concatenate([gamma, np.column_stack([c.real, c.imag]).ravel()])


def unpack_extended(gamma_ff: np.ndarray, k_count: int):
    n_pose = 6 * k_count
    gamma = gamma_ff[:n_pose]
    tail = gamma_ff[n_pose:].reshape(-1, 2)
    return gamma, tail[:, 0] + 1j * tail[:, 1]


def _block_gain_index(group: SubarrayGroup, k_count: int, t_count: int) -> np.ndarray:
    """(G, T, K) positions of a group's gains in the gain vector."""
    m = group.members[:, None, None]
    return (m * k_count + np.arange(k_count)) * t_count + np.arange(t_count)[:, None]


def _pose_columns(k: int, k_count: int) -> np.ndarray:
    """Entries of MS k's [position, attitude] in ``gamma``."""
    return np.r_[3 * k : 3 * k + 3, 3 * k_count + 3 * k : 3 * k_count + 3 * k + 3]


def _antenna_derivatives(gamma: np.ndarray, scenario: ScenarioConfig, order: int):
    """Activated-antenna positions (K, T, 3) with, unless ``order`` is 0,
    their derivatives in the MS's own [position, attitude], both from
    `rigid_antenna_chain`: first (K, T, 3, 6) and, at ``order`` 2, second
    (K, T, 3, 6, 6), whose only nonzero block is the attitude one;
    otherwise None."""
    k_count = scenario.num_ms
    q_locals = scenario.pattern.local_positions(scenario.ms, scenario.lam)
    theta = gamma[3 * k_count :].reshape(k_count, 3)
    q = np.broadcast_to(q_locals, (k_count,) + q_locals.shape)
    offsets, first, attitude_second = rigid_antenna_chain(theta, q, order)
    antennas = gamma[: 3 * k_count].reshape(k_count, 1, 3) + offsets
    if order < 2:
        return antennas, first, None
    second = np.zeros(first.shape + (6,))
    second[..., 3:, 3:] = attitude_second
    return antennas, first, second


def _steering_blocks(antennas, first, second, group: SubarrayGroup):
    """Steering vectors of a group, (G, K, T, N), and their derivatives.

    The steering phase is pi (i phi_x + j phi_y), so da/dgamma = j dphase a
    with dphase (G, K, T, N, 6) from the cosines' Jacobian in the antenna
    position; None without first antenna derivatives. With second antenna
    derivatives, also returns d2phi (G, K, T, 2, 6, 6), the second
    derivatives of the direction cosines; else None.
    """
    diff = antennas[None] - group.refs[:, None, None, :]
    phi, dphi_dant = direction_cosine_derivatives(diff)
    steer = np.exp(1j * np.pi * (phi @ group.ramps))
    if first is None:
        return steer, None, None
    dphi = dphi_dant @ first
    dphase = np.pi * np.einsum("ln,gktla->gktna", group.ramps, dphi)
    if second is None:
        return steer, dphase, None
    hess = direction_cosine_hessian(diff)
    d2phi = np.einsum("gktlxy,ktxa,ktyb->gktlab", hess, first, first) + np.einsum(
        "gktlx,ktxab->gktlab", dphi_dant, second
    )
    return steer, dphase, d2phi


def _observed_blocks(mu: np.ndarray, group: SubarrayGroup, t_count: int) -> np.ndarray:
    """(G, T, N) blocks of a stacked mean vector."""
    return mu.reshape(t_count, -1)[:, group.rows].transpose(1, 0, 2)


def _projected_residual(gamma, mu, scenario: ScenarioConfig, groups, derivatives=True):
    """Variable projection of the reduced model onto ``mu``.

    Every (subarray, slot) block's K gains solve the K x K normal equations
    of ||y - A c||^2. Returns the squared residual sum over blocks, the
    gains in gain-vector order and, with ``derivatives``, the exact
    gradient in ``gamma`` and the Gauss-Newton matrix; else None for both.
    With D = (dA/dgamma) c, the gradient is -2 Re D^H r (the derivative
    through c drops out because r is orthogonal to range(A)), and the
    Gauss-Newton matrix is 2 Re J^H J on Kaufman's projected Jacobian
    J = -P D, P projecting each block off range(A) (Kaufman, BIT 1975).
    """
    k_count, t_count = scenario.num_ms, scenario.n_slots
    n_pose = 6 * k_count
    antennas, first, _ = _antenna_derivatives(gamma, scenario, 1 if derivatives else 0)
    # D's columns: every MS's [position, attitude] in MS order
    pose_cols = np.concatenate([_pose_columns(k, k_count) for k in range(k_count)])
    objective = 0.0
    grad = np.zeros(n_pose) if derivatives else None
    gauss_newton = np.zeros((n_pose, n_pose)) if derivatives else None
    n_subarrays = sum(len(group.members) for group in groups)
    c_all = np.zeros(n_subarrays * k_count * t_count, dtype=np.complex128)
    for group in groups:
        steer, dphase, _ = _steering_blocks(antennas, first, None, group)
        y = _observed_blocks(mu, group, t_count)
        a_mat = steer.transpose(0, 2, 3, 1)
        a_herm = np.conj(steer).transpose(0, 2, 1, 3)
        gram = a_herm @ a_mat
        c = np.linalg.solve(gram, a_herm @ y[..., None])[..., 0]
        resid = y - (a_mat @ c[..., None])[..., 0]
        objective += float(np.vdot(resid, resid).real)
        c_all[_block_gain_index(group, k_count, t_count)] = c
        if not derivatives:
            continue
        # D = j E with column (k, a) of E = c_k dphase_ka a_k, (G, T, N, 6K)
        e = c.transpose(0, 2, 1)[..., None, None] * steer[..., None] * dphase
        e = e.transpose(0, 2, 3, 1, 4).reshape(y.shape + (n_pose,))
        e_herm = np.conj(e).swapaxes(-1, -2)
        a_herm_e = a_herm @ e
        # D^H P D = E^H E - (A^H E)^H (A^H A)^-1 A^H E, per block
        projected = e_herm @ e - np.conj(a_herm_e).swapaxes(-1, -2) @ np.linalg.solve(
            gram, a_herm_e
        )
        gauss_newton[np.ix_(pose_cols, pose_cols)] += 2.0 * projected.sum(axis=(0, 1)).real
        # -2 Re D^H r = -2 Im E^H r
        grad[pose_cols] -= 2.0 * (e_herm @ resid[..., None]).sum(axis=(0, 1))[:, 0].imag
    return objective, c_all, grad, gauss_newton


@dataclass
class PseudotrueFit:
    gamma_ff: np.ndarray
    residual: float  # norm of the exact mean's residual at the fit
    converged: bool
    flags: tuple = ()


def pseudotrue_fit(
    truth: np.ndarray,
    scenario: ScenarioConfig,
    plan: PartitionPlan,
) -> PseudotrueFit:
    """Closest reduced-model parameters to the exact model at ``truth``.

    Minimizes the squared residual sum over (subarray, slot) blocks,
    sum ||y_mt - A_mt c_mt||^2, which is the KL divergence from the exact
    to the reduced model under white Gaussian noise up to a 1/noise-power
    factor. The gains are eliminated in closed form per block (variable
    projection, Golub & Pereyra 1973), and `newton_fits`, seeded at the
    truth (the model mismatch is small in every valid scene), ascends
    -||r||^2 / ||mu_exact||^2 in the pose by Gauss-Newton steps on
    Kaufman's projected Jacobian (`_projected_residual`). The fit has
    converged when every gradient entry is below STATIONARITY_TOL times
    ||mu_exact||^2, whatever the solver reports.

    Raises ValueError when ``plan`` was built for another array or
    wavelength (`PartitionPlan.check_scene`), or when a subarray has fewer
    antennas than there are MSs: its K gains per slot are then not
    identifiable.
    """
    plan.check_scene(scenario)
    k_count = scenario.num_ms
    smallest = min(sub.nx * sub.ny for sub in plan.subarrays)
    if smallest < k_count:
        raise ValueError(
            f"every subarray needs at least {k_count} antennas to identify the "
            f"gains of {k_count} MSs, but the smallest has {smallest}"
        )
    truth = np.asarray(truth, dtype=float)
    mu_exact = exact_mean(truth, scenario)
    power = float(np.vdot(mu_exact, mu_exact).real)
    groups = subarray_groups(plan)
    # the solver's derivative evaluations by point: it evaluates the truth
    # first and every point it moves to, so the fit's gains and gradient
    # come from these without another evaluation
    evaluations = {}

    def value(x, _):
        objective, *_ = _projected_residual(
            x[0], mu_exact, scenario, groups, derivatives=False
        )
        return np.array([-objective / power])

    def derivatives(x, _):
        objective, c, grad, gauss_newton = _projected_residual(
            x[0], mu_exact, scenario, groups
        )
        evaluations[x[0].tobytes()] = (objective, grad, c)
        return (
            np.array([-objective / power]),
            -grad[None] / power,
            -gauss_newton[None] / power,
        )

    def evaluated(gamma):
        if gamma.tobytes() not in evaluations:
            derivatives(gamma[None], None)
        return evaluations[gamma.tobytes()]

    fit = newton_fits(value, derivatives, truth[None])
    if evaluated(truth)[0] / power <= ZERO_RESIDUAL_TOL**2:
        gamma = truth
        flags = ("zero_residual",)
    else:
        gamma = fit.mean[0]
        flags = ()
    objective, grad, c = evaluated(gamma)
    converged = bool(np.max(np.abs(grad)) <= STATIONARITY_TOL * power)
    if not converged:
        flags += ("descent_not_converged",)
    return PseudotrueFit(
        pack_extended(gamma, c), math.sqrt(objective), converged, flags
    )


def _information_terms(
    pseudotrue: np.ndarray,
    mu_true: np.ndarray,
    scenario: ScenarioConfig,
    plan: PartitionPlan,
):
    """Re{J^H J}, Re{eps^H d2mu} and z = Re{J^H eps}, with J the Jacobian
    of the reduced mean in ``gamma_FF`` at ``pseudotrue`` and eps the
    residual of ``mu_true`` against that mean.

    Every derivative is analytic and is built on the steering blocks of
    each (subarray, slot), whose rows meet only the pose and that block's
    own gains; the gain-gain block of d2mu vanishes (the model is linear
    in the gains).
    """
    k_count, t_count = scenario.num_ms, scenario.n_slots
    n_pose = 6 * k_count
    gamma0, c0 = unpack_extended(pseudotrue, k_count)
    n = n_pose + 2 * c0.size
    gram = np.zeros((n, n))
    s2 = np.zeros((n, n))
    z = np.zeros(n)
    antennas, first, second = _antenna_derivatives(gamma0, scenario, order=2)
    for group in subarray_groups(plan):
        steer, dphase, d2phi = _steering_blocks(antennas, first, second, group)
        gidx = _block_gain_index(group, k_count, t_count)
        c = c0[gidx]
        eps = _observed_blocks(mu_true, group, t_count) - np.einsum(
            "gktn,gtk->gtn", steer, c
        )
        # block-local columns: every pose entry, then Re/Im of the block's
        # K gains
        jac = np.zeros(eps.shape + (n_pose + 2 * k_count,), dtype=np.complex128)
        s2_block = np.zeros(eps.shape[:2] + (jac.shape[-1],) * 2)
        for k in range(k_count):
            cols = _pose_columns(k, k_count)
            re_col, im_col = n_pose + 2 * k, n_pose + 2 * k + 1
            a_k, dph = steer[:, k], dphase[:, k]
            jac[..., cols] = 1j * c[..., k, None, None] * dph * a_k[..., None]
            jac[..., re_col] = a_k
            jac[..., im_col] = 1j * a_k
            # Re{eps^H c d2a}, d2a = (j pi ramp . d2phi - dphase dphase^T) a
            v = np.conj(eps) * c[..., k, None] * a_k
            curvature = np.einsum("gtl,gtlab->gtab", v @ group.ramps.T, d2phi[:, k])
            s2_block[..., cols[:, None], cols] = -np.pi * curvature.imag - np.einsum(
                "gtn,gtna,gtnb->gtab", v, dph, dph, optimize=True
            ).real
            # Re{eps^H da} against the Re and Im gain columns (a and j a)
            e = 1j * np.einsum("gtn,gtna->gta", np.conj(eps) * a_k, dph)
            s2_block[..., cols, re_col] = s2_block[..., re_col, cols] = e.real
            s2_block[..., cols, im_col] = s2_block[..., im_col, cols] = -e.imag
        blocks = gidx.shape[:2]
        gain_cols = n_pose + 2 * gidx[..., None] + np.arange(2)
        idx = np.concatenate(
            [
                np.broadcast_to(np.arange(n_pose), blocks + (n_pose,)),
                gain_cols.reshape(blocks + (2 * k_count,)),
            ],
            axis=-1,
        )
        jac_herm = np.conj(jac).swapaxes(-1, -2)
        np.add.at(gram, (idx[..., :, None], idx[..., None, :]), (jac_herm @ jac).real)
        np.add.at(s2, (idx[..., :, None], idx[..., None, :]), s2_block)
        np.add.at(z, idx, (jac_herm @ eps[..., None])[..., 0].real)
    return gram, s2, z


def information_matrices(
    pseudotrue: np.ndarray,
    truth: np.ndarray,
    scenario: ScenarioConfig,
    plan: PartitionPlan,
    noise_power_w: float,
    exact_mean_fn=None,
):
    """The two generalized information matrices of the reduced model at the
    pseudotrue point: A = (2/sigma^2) (Re{eps^H d2mu} - Re{J^H J}) and
    B = (4/sigma^2) z z^T + (2/sigma^2) Re{J^H J}, from the terms of
    `_information_terms`. ``exact_mean_fn`` is injectable for tests.
    Raises ValueError when the noise power is not positive or ``plan`` was
    built for another array or wavelength (`PartitionPlan.check_scene`).
    """
    plan.check_scene(scenario)
    if noise_power_w <= 0:
        raise ValueError("noise power must be positive")
    mu_true = (exact_mean_fn or exact_mean)(truth, scenario)
    gram, s2, z = _information_terms(pseudotrue, mu_true, scenario, plan)
    a_mat = (2.0 / noise_power_w) * (s2 - gram)
    a_mat = 0.5 * (a_mat + a_mat.T)
    b_mat = (4.0 / noise_power_w) * np.outer(z, z) + (2.0 / noise_power_w) * gram
    b_mat = 0.5 * (b_mat + b_mat.T)
    cond = _balanced_condition(a_mat)
    flags = ("ill_conditioned",) if not np.isfinite(cond) or cond > CONDITION_LIMIT else ()
    return a_mat, b_mat, flags


def _balance_scale(a_mat: np.ndarray) -> np.ndarray:
    """Diagonal equilibration factors: pose and gain entries carry very
    different physical units, so conditioning is judged (and systems are
    solved) in the balanced space."""
    diag = np.abs(np.diag(a_mat))
    floor = max(np.max(diag), 1e-300) * 1e-300
    return 1.0 / np.sqrt(np.maximum(diag, floor))


def _balanced_condition(a_mat: np.ndarray) -> float:
    s = _balance_scale(a_mat)
    return float(np.linalg.cond(a_mat * np.outer(s, s)))


@dataclass
class McrbResult:
    """Pose-block lower bound and its ingredients."""

    lb: np.ndarray  # (6K, 6K)
    pseudotrue: np.ndarray  # full extended vector
    bias_position: float
    bias_attitude: float
    position_trace: np.ndarray  # per-MS position-block traces
    attitude_trace: np.ndarray
    flags: tuple = ()

    @property
    def position_rmse_bound(self) -> float:
        return float(np.sqrt(np.sum(self.position_trace)))

    @property
    def attitude_rmse_bound(self) -> float:
        return float(np.sqrt(np.sum(self.attitude_trace)))


def lower_bound(
    a_mat: np.ndarray,
    b_mat: np.ndarray,
    pseudotrue: np.ndarray,
    truth_extended: np.ndarray,
    k_count: int,
    flags: tuple = (),
) -> McrbResult:
    """Sandwich variance term plus pseudotrue-bias outer product; the
    leading 6K block is the pose MSE bound."""
    n_pose = 6 * k_count
    delta = pseudotrue - truth_extended
    # work in the equilibrated space: A = D^-1 Ab D^-1 with D = diag(s)
    # gives A^-1 B A^-1 = D Ab^-1 Bb Ab^-1 D
    s = _balance_scale(a_mat)
    a_bal = a_mat * np.outer(s, s)
    b_bal = b_mat * np.outer(s, s)
    use_pinv = "ill_conditioned" in flags
    if use_pinv:
        a_inv = np.linalg.pinv(a_bal, rcond=PINV_RCOND)
        var_bal = a_inv @ b_bal @ a_inv
    else:
        y = np.linalg.solve(a_bal, b_bal)
        var_bal = np.linalg.solve(a_bal, y.T).T
    var_term = var_bal * np.outer(s, s)
    lb_full = var_term + np.outer(delta, delta)
    lb = lb_full[:n_pose, :n_pose]
    lb = 0.5 * (lb + lb.T)
    pos_trace = np.array(
        [np.trace(lb[3 * k : 3 * k + 3, 3 * k : 3 * k + 3]) for k in range(k_count)]
    )
    att_trace = np.array(
        [
            np.trace(
                lb[
                    3 * k_count + 3 * k : 3 * k_count + 3 * k + 3,
                    3 * k_count + 3 * k : 3 * k_count + 3 * k + 3,
                ]
            )
            for k in range(k_count)
        ]
    )
    return McrbResult(
        lb=lb,
        pseudotrue=pseudotrue,
        bias_position=float(np.linalg.norm(delta[: 3 * k_count])),
        bias_attitude=float(np.linalg.norm(delta[3 * k_count : n_pose])),
        position_trace=pos_trace,
        attitude_trace=att_trace,
        flags=flags,
    )


def compute_bound(
    poses,
    scenario: ScenarioConfig,
    plan: PartitionPlan,
    noise_power_w: float | None = None,
) -> McrbResult:
    """Convenience wrapper: pseudotrue fit, information matrices, bound.

    Raises ValueError when ``plan`` was built for another array or
    wavelength, when a subarray has fewer antennas than there are MSs
    (`pseudotrue_fit`) or when the noise power is not positive
    (`information_matrices`)."""
    truth = pack_poses(poses)
    fit = pseudotrue_fit(truth, scenario, plan)
    a_mat, b_mat, flags = information_matrices(
        fit.gamma_ff,
        truth,
        scenario,
        plan,
        noise_power_w if noise_power_w is not None else scenario.noise_power_w,
    )
    truth_ext = pack_extended(truth, true_gain_vector(truth, scenario, plan))
    return lower_bound(
        a_mat, b_mat, fit.gamma_ff, truth_ext, scenario.num_ms, flags + fit.flags
    )
