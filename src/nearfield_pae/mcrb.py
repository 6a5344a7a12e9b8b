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
gains in closed form and minimizes the remaining function of the pose with
its analytic gradient (variable projection, Golub & Pereyra, SIAM J.
Numer. Anal. 1973). The information matrices use analytic first and second
derivatives of the steering phases. Both work block by block; the dense
(N_B T, M K T) embedding serves `reduced_mean` and the analytic Fisher
oracle only.

Parameter packing: ``gamma = [p_1, .., p_K, theta_1, .., theta_K]`` (6K
reals), and ``gamma_FF`` appends Re/Im of every per-(subarray, MS, slot)
complex gain in (m, k, t) lexicographic order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ScenarioConfig, nearfield_channel_vector, reduced_coefficients
from .geometry import (
    Pose,
    bs_antenna_grid,
    canonicalize_euler,
    direction_cosine_derivatives,
    direction_cosine_hessian,
    rotation_basis_derivatives,
    rotation_basis_second_derivatives,
    rotation_matrix_from_theta,
)
from .partition import PartitionPlan

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


def _antenna_positions(gamma: np.ndarray, scenario: ScenarioConfig) -> np.ndarray:
    """(K, T, 3) activated-antenna positions implied by a pose vector."""
    k_count = scenario.num_ms
    q_locals = scenario.pattern.local_positions(scenario.ms, scenario.lam)
    out = np.zeros((k_count, len(q_locals), 3))
    for i, (p, theta) in enumerate(unpack_poses(gamma, k_count)):
        basis = rotation_matrix_from_theta(theta)
        out[i] = p[None, :] + (basis @ q_locals.T).T
    return out


def exact_mean(gamma: np.ndarray, scenario: ScenarioConfig) -> np.ndarray:
    """Noiseless exact-model signal, stacked slot by slot into one vector."""
    grid = bs_antenna_grid(scenario.bs, scenario.lam)
    n_b = scenario.bs.n_antennas
    t_count = scenario.n_slots
    amp = math.sqrt(scenario.tx_power_w)
    antennas = _antenna_positions(gamma, scenario)
    mu = np.zeros(n_b * t_count, dtype=np.complex128)
    for t in range(t_count):
        col = np.zeros(n_b, dtype=np.complex128)
        for k in range(scenario.num_ms):
            col += amp * nearfield_channel_vector(
                grid, antennas[k, t], scenario.antenna_gains[k], scenario.lam
            )
        mu[t * n_b : (t + 1) * n_b] = col
    return mu


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
    antennas = _antenna_positions(gamma, scenario)
    cols = np.zeros((n_b * t_count, m_count * k_count * t_count), dtype=np.complex128)
    for mi, sub in enumerate(plan.subarrays):
        rows = plan.subarray_row_indices(mi + 1).ravel()
        ii = np.arange(1, sub.nx + 1, dtype=float)
        jj = np.arange(1, sub.ny + 1, dtype=float)
        for k in range(k_count):
            diff = antennas[k] - sub.ref_position[None, :]
            r = np.linalg.norm(diff, axis=1)
            phi = diff[:, :2] / r[:, None]
            for t in range(t_count):
                steer = (
                    np.exp(1j * np.pi * phi[t, 0] * ii)[:, None]
                    * np.exp(1j * np.pi * phi[t, 1] * jj)[None, :]
                )
                col = (mi * k_count + k) * t_count + t
                cols[t * n_b + rows, col] = steer.ravel()
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
    m_count, k_count, t_count = coeffs.shape
    c = np.zeros(m_count * k_count * t_count, dtype=np.complex128)
    for m in range(m_count):
        for k in range(k_count):
            for t in range(t_count):
                c[gain_index(m, k, t, k_count, t_count)] = coeffs.gains[m, k, t]
    return c


def pack_extended(gamma: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.concatenate([gamma, np.column_stack([c.real, c.imag]).ravel()])


def unpack_extended(gamma_ff: np.ndarray, k_count: int):
    n_pose = 6 * k_count
    gamma = gamma_ff[:n_pose]
    tail = gamma_ff[n_pose:].reshape(-1, 2)
    return gamma, tail[:, 0] + 1j * tail[:, 1]


def reduced_mean(
    gamma_ff: np.ndarray, scenario: ScenarioConfig, plan: PartitionPlan
) -> np.ndarray:
    gamma, c = unpack_extended(gamma_ff, scenario.num_ms)
    return reduced_embedding(gamma, scenario, plan) @ c


@dataclass(frozen=True)
class _SubarrayGroup:
    """Subarrays of one shape, so that their steering blocks stack into
    one array: 0-based indices (G,), signal rows (G, N) in raveled (i, j)
    order, reference positions (G, 3) and the 1-based element indices i
    and j of every row (2, N)."""

    members: np.ndarray
    rows: np.ndarray
    refs: np.ndarray
    ramps: np.ndarray


def _subarray_groups(plan: PartitionPlan) -> list:
    by_shape = {}
    for mi, sub in enumerate(plan.subarrays):
        by_shape.setdefault((sub.nx, sub.ny), []).append(mi)
    groups = []
    for (nx, ny), members in by_shape.items():
        ii, jj = np.meshgrid(
            np.arange(1.0, nx + 1), np.arange(1.0, ny + 1), indexing="ij"
        )
        groups.append(
            _SubarrayGroup(
                members=np.array(members),
                rows=np.array(
                    [plan.subarray_row_indices(mi + 1).ravel() for mi in members]
                ),
                refs=np.array([plan.subarrays[mi].ref_position for mi in members]),
                ramps=np.stack([ii.ravel(), jj.ravel()]),
            )
        )
    return groups


def _block_gain_index(group: _SubarrayGroup, k_count: int, t_count: int) -> np.ndarray:
    """(G, T, K) positions of a group's gains in the gain vector."""
    m = group.members[:, None, None]
    return (m * k_count + np.arange(k_count)) * t_count + np.arange(t_count)[:, None]


def _pose_columns(k: int, k_count: int) -> np.ndarray:
    """Entries of MS k's [position, attitude] in ``gamma``."""
    return np.r_[3 * k : 3 * k + 3, 3 * k_count + 3 * k : 3 * k_count + 3 * k + 3]


def _antenna_derivatives(gamma: np.ndarray, scenario: ScenarioConfig, order: int):
    """Activated-antenna positions (K, T, 3) with their derivatives in the
    MS's own [position, attitude]: first (K, T, 3, 6) and, at ``order`` 2,
    second (K, T, 3, 6, 6); otherwise None."""
    k_count = scenario.num_ms
    q_locals = scenario.pattern.local_positions(scenario.ms, scenario.lam)
    first = np.zeros((k_count, len(q_locals), 3, 6))
    first[..., :3] = np.eye(3)
    second = np.zeros(first.shape + (6,)) if order == 2 else None
    for k, (_, theta) in enumerate(unpack_poses(gamma, k_count)):
        first[k, :, :, 3:] = np.einsum(
            "lxc,tc->txl", rotation_basis_derivatives(theta), q_locals
        )
        if second is not None:
            second[k, :, :, 3:, 3:] = np.einsum(
                "abxc,tc->txab", rotation_basis_second_derivatives(theta), q_locals
            )
    return _antenna_positions(gamma, scenario), first, second


def _steering_blocks(antennas, first, second, group: _SubarrayGroup):
    """Steering vectors of a group, (G, K, T, N), and their derivatives.

    The steering phase is pi (i phi_x + j phi_y), so da/dgamma = j dphase a
    with dphase (G, K, T, N, 6) from the cosines' Jacobian in the antenna
    position. With second antenna derivatives, also returns d2phi
    (G, K, T, 2, 6, 6), the second derivatives of the direction cosines;
    else None.
    """
    diff = antennas[None] - group.refs[:, None, None, :]
    phi, dphi_dant = direction_cosine_derivatives(diff)
    steer = np.exp(1j * np.pi * (phi @ group.ramps))
    dphi = dphi_dant @ first
    dphase = np.pi * np.einsum("ln,gktla->gktna", group.ramps, dphi)
    if second is None:
        return steer, dphase, None
    hess = direction_cosine_hessian(diff)
    d2phi = np.einsum("gktlxy,ktxa,ktyb->gktlab", hess, first, first) + np.einsum(
        "gktlx,ktxab->gktlab", dphi_dant, second
    )
    return steer, dphase, d2phi


def _observed_blocks(mu: np.ndarray, group: _SubarrayGroup, t_count: int) -> np.ndarray:
    """(G, T, N) blocks of a stacked mean vector."""
    return mu.reshape(t_count, -1)[:, group.rows].transpose(1, 0, 2)


def _projected_residual(gamma, mu, scenario: ScenarioConfig, groups):
    """Variable projection of the reduced model onto ``mu``.

    Every (subarray, slot) block's K gains solve the K x K normal equations
    of ||y - A c||^2. Returns the squared residual sum over blocks, its
    exact gradient in ``gamma`` (-2 Re r^H (dA/dgamma) c: the derivative
    through c drops out because r is orthogonal to range(A)) and the
    gains in gain-vector order.
    """
    k_count, t_count = scenario.num_ms, scenario.n_slots
    antennas, first, _ = _antenna_derivatives(gamma, scenario, order=1)
    objective = 0.0
    grad = np.zeros(6 * k_count)
    n_subarrays = sum(len(group.members) for group in groups)
    c_all = np.zeros(n_subarrays * k_count * t_count, dtype=np.complex128)
    for group in groups:
        steer, dphase, _ = _steering_blocks(antennas, first, None, group)
        y = _observed_blocks(mu, group, t_count)
        a_mat = steer.transpose(0, 2, 3, 1)
        a_herm = np.conj(steer).transpose(0, 2, 1, 3)
        c = np.linalg.solve(a_herm @ a_mat, a_herm @ y[..., None])[..., 0]
        resid = y - (a_mat @ c[..., None])[..., 0]
        objective += float(np.vdot(resid, resid).real)
        weights = np.conj(resid)[:, None] * c.transpose(0, 2, 1)[..., None] * steer
        # -2 Re(j w . dphase) = 2 Im(w . dphase)
        per_ms = 2.0 * np.einsum("gktn,gktna->ka", weights, dphase).imag
        for k in range(k_count):
            grad[_pose_columns(k, k_count)] += per_ms[k]
        c_all[_block_gain_index(group, k_count, t_count)] = c
    return objective, grad, c_all


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
    projection, Golub & Pereyra 1973), and BFGS, seeded at the truth (the
    model mismatch is small in every valid scene), minimizes the remaining
    pose function with its analytic gradient. The fit has converged when
    every gradient entry is below STATIONARITY_TOL times ||mu_exact||^2,
    whatever the optimizer reports about its line search.
    """
    from scipy.optimize import minimize

    truth = np.asarray(truth, dtype=float)
    mu_exact = exact_mean(truth, scenario)
    power = float(np.vdot(mu_exact, mu_exact).real)
    groups = _subarray_groups(plan)

    def scaled(gamma):
        objective, grad, _ = _projected_residual(gamma, mu_exact, scenario, groups)
        return objective / power, grad / power

    f0, _ = scaled(truth)
    if f0 <= ZERO_RESIDUAL_TOL**2:
        gamma = truth
        flags = ("zero_residual",)
    else:
        gamma = minimize(
            scaled, truth, jac=True, method="BFGS",
            options={"gtol": STATIONARITY_TOL},
        ).x
        flags = ()
    objective, grad, c = _projected_residual(gamma, mu_exact, scenario, groups)
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
    for group in _subarray_groups(plan):
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
    """
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
    """Convenience wrapper: pseudotrue fit, information matrices, bound."""
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


def reduced_fisher_analytic(
    gamma_ff: np.ndarray,
    scenario: ScenarioConfig,
    plan: PartitionPlan,
    noise_power_w: float,
) -> np.ndarray:
    """Fisher information of the reduced model with fully analytic
    derivatives (independent of the finite-difference machinery above);
    used to cross-validate the bound in the zero-misspecification case."""
    k_count = scenario.num_ms
    t_count = scenario.n_slots
    n_b = scenario.bs.n_antennas
    n_pose = 6 * k_count
    gamma, c = unpack_extended(gamma_ff, k_count)
    emb = reduced_embedding(gamma, scenario, plan)
    n_gain = emb.shape[1]
    jac = np.zeros((n_b * t_count, n_pose + 2 * n_gain), dtype=np.complex128)
    jac[:, n_pose : n_pose + 2 * n_gain : 2] = emb
    jac[:, n_pose + 1 : n_pose + 2 * n_gain : 2] = 1j * emb

    q_locals = scenario.pattern.local_positions(scenario.ms, scenario.lam)
    poses_raw = unpack_poses(gamma, k_count)
    for k, (p, theta) in enumerate(poses_raw):
        basis = rotation_matrix_from_theta(theta)
        dbasis = rotation_basis_derivatives(theta)
        for t in range(t_count):
            ant = p + basis @ q_locals[t]
            # d(antenna)/d(pose_a): identity for position, dR q for attitude
            dant = np.zeros((6, 3))
            dant[:3] = np.eye(3)
            for axis in range(3):
                dant[3 + axis] = dbasis[axis] @ q_locals[t]
            for mi, sub in enumerate(plan.subarrays):
                diff = ant - sub.ref_position
                r = float(np.linalg.norm(diff))
                u = diff / r
                phi = u[:2]
                col = gain_index(mi, k, t, k_count, t_count)
                rows = t * n_b + plan.subarray_row_indices(mi + 1).ravel()
                steer_flat = emb[rows, col]
                ii = np.arange(1, sub.nx + 1, dtype=float)
                jj = np.arange(1, sub.ny + 1, dtype=float)
                ramp_i = np.repeat(ii, sub.ny)
                ramp_j = np.tile(jj, sub.nx)
                for a in range(6):
                    dphi_x = float((np.array([1.0, 0, 0]) - phi[0] * u) @ dant[a] / r)
                    dphi_y = float((np.array([0, 1.0, 0]) - phi[1] * u) @ dant[a] / r)
                    dsteer = (
                        1j * np.pi * (ramp_i * dphi_x + ramp_j * dphi_y) * steer_flat
                    )
                    if a < 3:
                        pose_col = 3 * k + a
                    else:
                        pose_col = 3 * k_count + 3 * k + (a - 3)
                    jac[rows, pose_col] += c[col] * dsteer
    return (2.0 / noise_power_w) * np.real(np.conj(jac.T) @ jac)
