"""Test oracles: reference computations the program itself does not run.

Finite differences check the analytic derivatives, the dense-embedding
mean and Fisher matrix check the block-wise bound in `mcrb`, scalar
loops check the stacked von Mises kernels in `circular` and the flag
tagging in `engine`, and products of one attitude's elementary rotations
check `geometry.rotation_bases`.
"""

import math

import numpy as np

from nearfield_pae.channel import ScenarioConfig
from nearfield_pae.circular import (
    KAPPA_MAX,
    GaussianBelief,
    _capped_eigenpairs,
    _from_eigenpairs,
    information_product,
)
from nearfield_pae.engine import composite_vm_terms
from nearfield_pae.mcrb import gain_index, reduced_embedding, unpack_extended, unpack_poses
from nearfield_pae.partition import PartitionPlan


def elementary_rotations(roll: float, pitch: float, yaw: float, order: int = 0):
    """Rx(roll), Ry(pitch) and Rz(yaw), or their first or second
    derivatives (``order`` 1 or 2) in their own angles."""
    entries = []
    for angle in (roll, pitch, yaw):
        c, s = math.cos(angle), math.sin(angle)
        entries.append(((c, s, 1.0), (-s, c, 0.0), (-c, -s, 0.0))[order])
    (cx, sx, ex), (cy, sy, ey), (cz, sz, ez) = entries
    rx = np.array([[ex, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry = np.array([[cy, 0, sy], [0, ey, 0], [-sy, 0, cy]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, ez]])
    return rx, ry, rz


def rotation_matrix(theta) -> np.ndarray:
    """Full 3x3 rotation ``Rz(yaw) @ Ry(pitch) @ Rx(roll)`` of a
    roll/pitch/yaw triple."""
    rx, ry, rz = elementary_rotations(*(float(x) for x in theta))
    return rz @ ry @ rx


def rotation_basis_derivatives(theta) -> np.ndarray:
    """d(basis)/d(theta_l), (3, 3, 2), for l in (roll, pitch, yaw): the
    composed rotation with one elementary factor differentiated."""
    angles = tuple(float(x) for x in theta)
    rx, ry, rz = elementary_rotations(*angles)
    drx, dry, drz = elementary_rotations(*angles, order=1)
    return np.stack([(rz @ ry @ drx)[:, :2], (rz @ dry @ rx)[:, :2], (drz @ ry @ rx)[:, :2]])


def rotation_basis_second_derivatives(theta) -> np.ndarray:
    """d2(basis)/d(theta_a)d(theta_b), (3, 3, 3, 2): the composed rotation
    with the factor of each axis differentiated as often as the axis
    occurs in (a, b)."""
    angles = tuple(float(x) for x in theta)
    # by_order[n][l]: n-th derivative of the elementary rotation about axis l
    by_order = [elementary_rotations(*angles, order=n) for n in range(3)]
    out = np.zeros((3, 3, 3, 2))
    for a in range(3):
        for b in range(a, 3):
            rx, ry, rz = (by_order[(a == l) + (b == l)][l] for l in range(3))
            out[a, b] = out[b, a] = (rz @ ry @ rx)[:, :2]
    return out


def finite_diff_gradient(f, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient with per-coordinate scaled steps (a
    test oracle for the analytic gradients)."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        h = step * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def finite_diff_hessian(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central second differences of a scalar function (a test oracle for
    the analytic Hessians)."""
    x = np.asarray(x, dtype=float)
    n = x.size
    h = np.array([step * max(1.0, abs(x[i])) for i in range(n)])
    hess = np.zeros((n, n))
    f0 = f(x)
    for i in range(n):
        xp, xm = x.copy(), x.copy()
        xp[i] += h[i]
        xm[i] -= h[i]
        hess[i, i] = (f(xp) - 2.0 * f0 + f(xm)) / h[i] ** 2
        for j in range(i + 1, n):
            xpp, xpm, xmp, xmm = x.copy(), x.copy(), x.copy(), x.copy()
            xpp[[i, j]] += h[[i, j]]
            xmm[[i, j]] -= h[[i, j]]
            xpm[i] += h[i]
            xpm[j] -= h[j]
            xmp[i] -= h[i]
            xmp[j] += h[j]
            hess[i, j] = hess[j, i] = (f(xpp) - f(xpm) - f(xmp) + f(xmm)) / (
                4.0 * h[i] * h[j]
            )
    return hess


def regularize_hessian(hess: np.ndarray, floor: float = 1e-9):
    """Force symmetric matrices (..., n, n) to be negative definite by
    capping their eigenvalues at -floor. Returns (regularized matrix,
    was_modified)."""
    vals, vecs, modified = _capped_eigenpairs(hess, floor)
    return _from_eigenpairs(vals, vecs), modified


def gaussian_product(a: GaussianBelief, b: GaussianBelief) -> GaussianBelief:
    """Information-form combination of two Gaussian beliefs."""
    return GaussianBelief(*information_product(a.mean, a.information, b.mean, b.information))


def composite_vm_grad(
    p: np.ndarray, refs: np.ndarray, chis: np.ndarray, kappas: np.ndarray
) -> np.ndarray:
    """Analytic gradient of `composite_vm_value` w.r.t. the position."""
    return composite_vm_terms(p, refs, chis, kappas)[1]


def reduced_mean(
    gamma_ff: np.ndarray, scenario: ScenarioConfig, plan: PartitionPlan
) -> np.ndarray:
    gamma, c = unpack_extended(gamma_ff, scenario.num_ms)
    return reduced_embedding(gamma, scenario, plan) @ c


def reduced_fisher_analytic(
    gamma_ff: np.ndarray,
    scenario: ScenarioConfig,
    plan: PartitionPlan,
    noise_power_w: float,
) -> np.ndarray:
    """Fisher information of the reduced model, built from the dense
    embedding with its pose derivatives written out per antenna and
    subarray; independent of the block-wise analytic derivatives behind
    `mcrb.information_matrices`, which it cross-validates in the
    zero-misspecification case."""
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
        basis = rotation_matrix(theta)[:, :2]
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


def vm_normalize_scalar(chi: float, kappa: float) -> tuple:
    """One von Mises belief's mean wrapped to [-pi, pi) by
    math.remainder and its concentration clamped to KAPPA_MAX."""
    if not math.isfinite(chi):
        raise ValueError("mean direction must be finite")
    if not (math.isfinite(kappa) and kappa >= 0):
        raise ValueError("concentration must be finite and >= 0")
    chi = math.remainder(chi, 2.0 * math.pi)
    if chi >= math.pi:  # remainder returns (-pi, pi]; wrap pi down
        chi -= 2.0 * math.pi
    return chi, min(float(kappa), KAPPA_MAX)


def gaussian_to_vm_loop(mean: np.ndarray, cov: np.ndarray, ref: np.ndarray) -> tuple:
    """One position belief's von Mises pair seen from ``ref``, axis by
    axis: means and concentrations (2,)."""
    los = np.asarray(ref, dtype=float) - mean
    d = np.linalg.norm(los)
    if d < 1e-300:
        raise ValueError("belief mean coincides with the subarray reference")
    u = los / d
    comps = []
    for axis in range(2):
        e = np.zeros(3)
        e[axis] = 1.0
        phi_bar = -float(u[axis])  # cosine of (mean - ref) against the axis
        w = e - (e @ u) * u
        w_norm = np.linalg.norm(w)
        one_minus = 1.0 - phi_bar * phi_bar
        if w_norm < 1e-12 or one_minus < 1e-12:
            comps.append(vm_normalize_scalar(math.copysign(math.pi, phi_bar), KAPPA_MAX))
            continue
        v = w / w_norm
        denom = math.pi**2 * one_minus * float(v @ cov @ v)
        if denom <= 0:
            comps.append(vm_normalize_scalar(math.pi * phi_bar, KAPPA_MAX))
            continue
        comps.append(vm_normalize_scalar(math.pi * phi_bar, min(d * d / denom, KAPPA_MAX)))
    return np.array([c[0] for c in comps]), np.array([c[1] for c in comps])


def stage_flags_loop(raised: dict, shape: tuple) -> list:
    """(MS, flag) pairs of a stage's stacked problems indexed as ``shape``,
    problem by problem: one per problem and name whose mask in ``raised``
    is set there, tagged with the problem's (m, k, t) or (k, t) indices."""
    flags = []
    for b, index in enumerate(np.ndindex(*shape)):
        tag = "".join(f"{axis}{i}" for axis, i in zip("mkt"[-len(shape) :], index))
        flags += [(index[-2], f"{name}_{tag}") for name, mask in raised.items() if mask[b]]
    return flags
