"""Output checks computed apart from the program.

Every quantity the checks compare against is rebuilt here from the
scene's documented conventions: BS and MS antenna grids at half-wavelength
pitch centred on their arrays, the attitude as ``Rz(yaw) Ry(pitch)
Rx(roll)``, and the free-space coefficient lambda/(4 pi r) e^{-j 2 pi r /
lambda}. Only the scene description and the drawn poses are taken from the
package. Each check returns ``None`` when it passes and a one-line reason
when it fails.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0

# residual power of the simulator may differ from the noise power by this
# many standard deviations of a mean of N unit exponentials (1/sqrt(N))
NOISE_POWER_SIGMAS = 6.0
# an estimate farther from the truth than this share of the true range is
# a gross error (the bound is millimetres at 1.5-2.5 m)
GROSS_ERROR_RANGE_SHARE = 0.1
# an MS attitude with a larger rotation NMSE is a gross error: good
# estimates here read 2e-5 to 0.2, wrong ones 0.47 to 1.99
GROSS_ROTATION_NMSE = 0.4
# criterion 8d's absolute target for the position RMSE over a trial list
POSITION_RMSE_LIMIT_M = 0.05
# a uniformly random attitude gives a rotation NMSE of 2 on average
ROTATION_NMSE_LIMIT = 0.2
# relative tolerance for symmetry and negative eigenvalues of the bound
BOUND_SYMMETRY_TOL = 1e-9
BOUND_PSD_TOL = 1e-9


def rotation(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Full rotation ``Rz(yaw) @ Ry(pitch) @ Rx(roll)``."""
    cx, sx = math.cos(roll), math.sin(roll)
    cy, sy = math.cos(pitch), math.sin(pitch)
    cz, sz = math.cos(yaw), math.sin(yaw)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
    ry = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
    rz = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
    return rz @ ry @ rx


def _attitude_basis(attitude) -> np.ndarray:
    return rotation(attitude.roll, attitude.pitch, attitude.yaw)[:, :2]


def _centred(index, count: int, lam: float):
    return (np.asarray(index, dtype=float) - (count + 1) / 2.0) * lam / 2.0


def bs_grid(scenario) -> np.ndarray:
    """(N_B, 3) BS antenna positions, row (v-1)*nx + (u-1) for antenna (u, v)."""
    lam = SPEED_OF_LIGHT / scenario.f_hz
    nx, ny = scenario.bs.nx, scenario.bs.ny
    u = np.tile(np.arange(1, nx + 1), ny)
    v = np.repeat(np.arange(1, ny + 1), nx)
    return np.column_stack([_centred(u, nx, lam), _centred(v, ny, lam), np.zeros(nx * ny)])


def activated_positions(scenario, poses) -> np.ndarray:
    """(K, T, 3) positions of the antenna each MS activates in each slot."""
    lam = SPEED_OF_LIGHT / scenario.f_hz
    slots = np.array(scenario.pattern.slots, dtype=float)
    local = np.column_stack(
        [_centred(slots[:, 0], scenario.ms.nx, lam), _centred(slots[:, 1], scenario.ms.ny, lam)]
    )
    return np.array(
        [pose.position[None, :] + local @ _attitude_basis(pose.attitude).T for pose in poses]
    )


def noiseless_signal(scenario, poses) -> np.ndarray:
    """(N_B, T) spherical-wavefront signal of the activated antennas."""
    lam = SPEED_OF_LIGHT / scenario.f_hz
    grid = bs_grid(scenario)
    ants = activated_positions(scenario, poses)
    y = np.zeros((grid.shape[0], ants.shape[1]), dtype=np.complex128)
    for k, gain in enumerate(scenario.antenna_gains):
        r = np.linalg.norm(grid[:, None, :] - ants[k][None, :, :], axis=2)
        y += gain * lam / (4.0 * math.pi * r) * np.exp(-2j * math.pi * r / lam)
    return math.sqrt(scenario.tx_power_w) * y


def check_signal(samples: np.ndarray, scenario, poses):
    """The residual after removing the recomputed noiseless signal must
    carry the configured noise power."""
    resid = np.asarray(samples) - noiseless_signal(scenario, poses)
    ratio = float(np.mean(np.abs(resid) ** 2)) / scenario.noise_power_w
    tol = NOISE_POWER_SIGMAS / math.sqrt(resid.size)
    if not abs(ratio - 1.0) <= tol:
        return f"simulator residual power is {ratio:.4g} x noise power (tolerance {tol:.3g})"
    return None


def pose_errors(estimates, poses) -> list:
    """Per-MS (squared position error, rotation NMSE, true range) under the
    MS permutation with the least summed squared position error."""
    k = len(poses)
    if len(estimates) != k:
        raise ValueError(f"{len(estimates)} estimates for {k} mobiles")
    best = min(
        itertools.permutations(range(k)),
        key=lambda perm: sum(
            float(np.sum((estimates[j].position - poses[i].position) ** 2))
            for i, j in enumerate(perm)
        ),
    )
    out = []
    for i, j in enumerate(best):
        truth, est = poses[i], estimates[j]
        sq_pos = float(np.sum((np.asarray(est.position) - truth.position) ** 2))
        b_true = _attitude_basis(truth.attitude)
        nmse = float(np.sum((b_true - _attitude_basis(est.attitude)) ** 2)) / float(
            np.sum(b_true**2)
        )
        out.append((sq_pos, nmse, float(np.linalg.norm(truth.position))))
    return out


def check_estimates(estimates, poses, label: str):
    """No MS estimate may lie a gross distance from its truth or have a
    grossly wrong attitude."""
    for k, (sq_pos, nmse, rng) in enumerate(pose_errors(estimates, poses)):
        err = math.sqrt(sq_pos)
        if not err < GROSS_ERROR_RANGE_SHARE * rng:
            return f"{label} MS {k}: position error {err:.4g} m at range {rng:.4g} m"
        if not nmse < GROSS_ROTATION_NMSE:
            return f"{label} MS {k}: rotation NMSE {nmse:.4g}"
    return None


def list_accuracy(errors) -> tuple:
    """(position RMSE, mean rotation NMSE) of per-MS `pose_errors` entries."""
    if not errors:
        return 0.0, 0.0
    rmse = math.sqrt(sum(e[0] for e in errors) / len(errors))
    return rmse, sum(e[1] for e in errors) / len(errors)


def check_accuracy(errors, label: str):
    """List-level accuracy: ``errors`` is the per-MS output of
    `pose_errors` over every trial that passed its own checks."""
    if not errors:
        return None
    rmse, nmse = list_accuracy(errors)
    if not rmse < POSITION_RMSE_LIMIT_M:
        return f"{label} position RMSE {rmse:.4g} m over the list"
    if not nmse < ROTATION_NMSE_LIMIT:
        return f"{label} rotation NMSE {nmse:.4g} over the list"
    return None


def check_bound(bound, num_ms: int):
    """The pose bound must be finite, symmetric and PSD, its position trace
    must cover the squared pseudotrue position bias, and its position RMSE
    must lie below the 5 cm target."""
    lb = np.asarray(bound.lb, dtype=float)
    if lb.shape != (6 * num_ms, 6 * num_ms) or not np.all(np.isfinite(lb)):
        return f"bound matrix is not a finite {6 * num_ms}x{6 * num_ms} matrix"
    scale = float(np.max(np.abs(lb)))
    if not np.max(np.abs(lb - lb.T)) <= BOUND_SYMMETRY_TOL * scale:
        return "bound matrix is not symmetric"
    lowest = float(np.linalg.eigvalsh(0.5 * (lb + lb.T))[0])
    if not lowest >= -BOUND_PSD_TOL * scale:
        return f"bound matrix has eigenvalue {lowest:.4g}"
    pos_trace = sum(float(np.trace(lb[3 * k : 3 * k + 3, 3 * k : 3 * k + 3])) for k in range(num_ms))
    if not pos_trace >= (1.0 - 1e-9) * bound.bias_position**2:
        return f"position trace {pos_trace:.4g} below squared bias {bound.bias_position**2:.4g}"
    if not math.sqrt(pos_trace) < POSITION_RMSE_LIMIT_M:
        return f"bound position RMSE {math.sqrt(pos_trace):.4g} m"
    return None
