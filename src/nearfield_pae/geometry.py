"""Coordinate systems, rectangular array layouts, rotation algebra, and
field-region boundaries.

Conventions used throughout the package:

* The base-station (BS) array lies in the z = 0 plane, centered at the
  origin, with its edges aligned to the x and y axes.
* Antenna grid indices are 1-based in all public signatures, matching the
  usual array-processing convention ``(u, v) in [1, nx] x [1, ny]``.
* A mobile-station (MS) attitude is a roll/pitch/yaw triple applied as
  ``Rz(yaw) @ Ry(pitch) @ Rx(roll)``; only the first two columns of the
  composed rotation matter because MS arrays are planar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0

_EX = np.array([1.0, 0.0, 0.0])
_EY = np.array([0.0, 1.0, 0.0])
_EZ = np.array([0.0, 0.0, 1.0])


def wavelength(carrier_hz: float) -> float:
    """Free-space wavelength in meters for a carrier frequency in Hz."""
    if carrier_hz <= 0:
        raise ValueError(f"carrier frequency must be positive, got {carrier_hz}")
    return SPEED_OF_LIGHT / carrier_hz


def wrap_angle(angle):
    """Wrap angles to [-pi, pi). Works on scalars and arrays."""
    if isinstance(angle, (float, int)):
        w = math.fmod(float(angle) + math.pi, 2.0 * math.pi)
        if w < 0:
            w += 2.0 * math.pi
        return w - math.pi
    return np.mod(np.asarray(angle) + np.pi, 2.0 * np.pi) - np.pi


@dataclass(frozen=True)
class EulerAngles:
    """Roll/pitch/yaw attitude. Roll and yaw live on [-pi, pi), pitch is
    restricted to [-pi/2, pi/2] and rejected (not wrapped) outside it."""

    roll: float
    pitch: float
    yaw: float

    def __post_init__(self):
        roll, pitch, yaw = float(self.roll), float(self.pitch), float(self.yaw)
        if not (math.isfinite(roll) and math.isfinite(pitch) and math.isfinite(yaw)):
            raise ValueError("Euler angles must be finite")
        object.__setattr__(self, "roll", wrap_angle(roll))
        object.__setattr__(self, "yaw", wrap_angle(yaw))
        if not -math.pi / 2 - 1e-12 <= pitch <= math.pi / 2 + 1e-12:
            raise ValueError(f"pitch must lie in [-pi/2, pi/2], got {pitch}")
        object.__setattr__(
            self, "pitch", min(max(pitch, -math.pi / 2), math.pi / 2)
        )

    def as_array(self) -> np.ndarray:
        return np.array([self.roll, self.pitch, self.yaw])


@dataclass(frozen=True)
class Pose:
    """Position of an MS array center plus its attitude."""

    position: np.ndarray
    attitude: EulerAngles

    def __post_init__(self):
        p = np.asarray(self.position, dtype=float).reshape(3)
        if not np.all(np.isfinite(p)):
            raise ValueError("pose position must be finite")
        object.__setattr__(self, "position", p)


@dataclass(frozen=True)
class UraSpec:
    """Uniform rectangular array: ``nx`` by ``ny`` elements at fixed spacing."""

    nx: int
    ny: int
    spacing: float

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"antenna counts must be >= 1, got {self.nx}x{self.ny}")
        if self.spacing <= 0:
            raise ValueError(f"antenna spacing must be positive, got {self.spacing}")

    @property
    def n_antennas(self) -> int:
        return self.nx * self.ny

    @property
    def size_x(self) -> float:
        return (self.nx - 1) * self.spacing

    @property
    def size_y(self) -> float:
        return (self.ny - 1) * self.spacing

    @property
    def largest_dimension(self) -> float:
        """Diagonal extent of the array aperture."""
        return math.hypot(self.size_x, self.size_y)


def half_wavelength_ura(nx: int, ny: int, carrier_hz: float) -> UraSpec:
    """URA with lambda/2 element spacing at the given carrier."""
    return UraSpec(nx, ny, wavelength(carrier_hz) / 2.0)


@dataclass(frozen=True)
class TransmitPattern:
    """Ordered set of activated MS antenna indices, one per time slot.

    The same pattern is shared by every MS array; slot ``t`` activates the
    antenna at grid position ``slots[t]`` (1-based ``(q, s)``).
    """

    slots: tuple
    ms_nx: int
    ms_ny: int

    def __post_init__(self):
        slots = tuple((int(q), int(s)) for q, s in self.slots)
        if len(slots) == 0:
            raise ValueError("transmit pattern must contain at least one slot")
        for q, s in slots:
            if not (1 <= q <= self.ms_nx and 1 <= s <= self.ms_ny):
                raise ValueError(
                    f"pattern index ({q},{s}) outside grid "
                    f"[1,{self.ms_nx}]x[1,{self.ms_ny}]"
                )
        if len(set(slots)) != len(slots):
            raise ValueError("transmit pattern contains duplicate indices")
        object.__setattr__(self, "slots", slots)

    def __len__(self) -> int:
        return len(self.slots)

    def local_positions(self, spec: UraSpec, lam: float) -> np.ndarray:
        """(T, 2) array of MS-local offsets of the activated antennas."""
        if (spec.nx, spec.ny) != (self.ms_nx, self.ms_ny):
            raise ValueError("pattern was built for a different MS grid")
        return np.array(
            [ms_local_antenna_position(spec, q, s, lam) for q, s in self.slots]
        )


def pattern_five_point(spec: UraSpec) -> TransmitPattern:
    """Four corners plus the center antenna (T = 5)."""
    cx = math.ceil((spec.nx + 1) / 2)
    cy = math.ceil((spec.ny + 1) / 2)
    slots = [(1, 1), (1, spec.ny), (spec.nx, 1), (spec.nx, spec.ny), (cx, cy)]
    return TransmitPattern(tuple(slots), spec.nx, spec.ny)


def pattern_three_point(spec: UraSpec) -> TransmitPattern:
    """Two corners of one edge plus the midpoint of the opposite edge (T = 3)."""
    my = math.ceil((spec.ny - 1) / 2)
    slots = [(1, 1), (1, spec.ny), (spec.nx, my)]
    return TransmitPattern(tuple(slots), spec.nx, spec.ny)


def pattern_nine_point(spec: UraSpec) -> TransmitPattern:
    """Five-point pattern plus the four edge midpoints (T = 9)."""
    mx = math.ceil((spec.nx - 1) / 2)
    my = math.ceil((spec.ny - 1) / 2)
    extra = [(1, my), (spec.nx, my), (mx, 1), (mx, spec.ny)]
    slots = list(pattern_five_point(spec).slots) + extra
    return TransmitPattern(tuple(slots), spec.nx, spec.ny)


_NAMED_PATTERNS = {
    "t3": pattern_three_point,
    "t5": pattern_five_point,
    "t9": pattern_nine_point,
}


def named_pattern(name: str, spec: UraSpec) -> TransmitPattern:
    try:
        return _NAMED_PATTERNS[name.lower()](spec)
    except KeyError:
        raise ValueError(
            f"unknown pattern {name!r}; expected one of {sorted(_NAMED_PATTERNS)}"
        ) from None


@dataclass(frozen=True)
class RotationBasis:
    """First two columns of a 3-D rotation: the unit vectors of a rotated
    planar array's local x and y axes, as a 3x2 matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 2):
            raise ValueError(f"rotation basis must be 3x2, got {m.shape}")
        if abs(np.linalg.norm(m[:, 0]) - 1.0) > 1e-9 or abs(
            np.linalg.norm(m[:, 1]) - 1.0
        ) > 1e-9:
            raise ValueError("basis columns must be unit vectors")
        if abs(m[:, 0] @ m[:, 1]) > 1e-9:
            raise ValueError("basis columns must be orthogonal")
        object.__setattr__(self, "matrix", m)

    @property
    def ex(self) -> np.ndarray:
        return self.matrix[:, 0]

    @property
    def ey(self) -> np.ndarray:
        return self.matrix[:, 1]


def _elementary_rotations(roll: float, pitch: float, yaw: float, order: int = 0):
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


def rotation_matrix(angles: EulerAngles) -> np.ndarray:
    """Full 3x3 rotation ``Rz(yaw) @ Ry(pitch) @ Rx(roll)``."""
    rx, ry, rz = _elementary_rotations(angles.roll, angles.pitch, angles.yaw)
    return rz @ ry @ rx


def rotation_basis(angles: EulerAngles) -> RotationBasis:
    """3x2 basis mapping MS-local planar offsets into global coordinates."""
    return RotationBasis(
        rotation_matrix_from_theta((angles.roll, angles.pitch, angles.yaw))
    )


def rotation_basis_derivatives(theta: np.ndarray) -> np.ndarray:
    """Partial derivatives of the 3x2 basis w.r.t. roll, pitch, yaw.

    Parameters
    ----------
    theta : array_like, shape (3,)
        Roll, pitch, yaw in radians (no support restriction; used at
        optimizer iterates).

    Returns
    -------
    ndarray, shape (3, 3, 2)
        ``out[l]`` is d(basis)/d(theta_l) for l in (roll, pitch, yaw).
    """
    angles = float(theta[0]), float(theta[1]), float(theta[2])
    rx, ry, rz = _elementary_rotations(*angles)
    drx, dry, drz = _elementary_rotations(*angles, order=1)
    return np.stack(
        [
            (rz @ ry @ drx)[:, :2],
            (rz @ dry @ rx)[:, :2],
            (drz @ ry @ rx)[:, :2],
        ]
    )


def rotation_basis_second_derivatives(theta: np.ndarray) -> np.ndarray:
    """Second partial derivatives of the 3x2 basis w.r.t. roll, pitch, yaw.

    Returns
    -------
    ndarray, shape (3, 3, 3, 2)
        ``out[a, b]`` is d2(basis)/d(theta_a)d(theta_b); symmetric in
        (a, b).
    """
    angles = float(theta[0]), float(theta[1]), float(theta[2])
    # by_order[n][l]: n-th derivative of the elementary rotation about axis l
    by_order = [_elementary_rotations(*angles, order=n) for n in range(3)]
    out = np.zeros((3, 3, 3, 2))
    for a in range(3):
        for b in range(a, 3):
            rx, ry, rz = (by_order[(a == l) + (b == l)][l] for l in range(3))
            out[a, b] = out[b, a] = (rz @ ry @ rx)[:, :2]
    return out


def rotation_matrix_from_theta(theta) -> np.ndarray:
    """3x2 basis from an unconstrained roll/pitch/yaw triple (optimizer-hot
    path; closed-form entries of the composed rotation's first two columns)."""
    cx, sx = math.cos(theta[0]), math.sin(theta[0])
    cy, sy = math.cos(theta[1]), math.sin(theta[1])
    cz, sz = math.cos(theta[2]), math.sin(theta[2])
    return np.array(
        [
            [cz * cy, cz * sy * sx - sz * cx],
            [sz * cy, sz * sy * sx + cz * cx],
            [-sy, cy * sx],
        ]
    )


def canonicalize_euler(theta: np.ndarray) -> EulerAngles:
    """Map an arbitrary roll/pitch/yaw triple to the equivalent triple with
    pitch in [-pi/2, pi/2] and roll/yaw wrapped to [-pi, pi)."""
    roll, pitch, yaw = (float(x) for x in theta)
    pitch = float(wrap_angle(pitch))
    if abs(pitch) > np.pi / 2:
        # (roll, pitch, yaw) and (roll + pi, pi - pitch, yaw + pi) generate
        # the same rotation
        roll += np.pi
        yaw += np.pi
        pitch = np.pi - pitch if pitch > 0 else -np.pi - pitch
    return EulerAngles(roll, pitch, yaw)


def euler_from_rotation(r3: np.ndarray) -> EulerAngles:
    """Extract roll/pitch/yaw from a full 3x3 rotation matrix."""
    r3 = np.asarray(r3, dtype=float)
    sy = -r3[2, 0]
    sy = float(np.clip(sy, -1.0, 1.0))
    pitch = math.asin(sy)
    if abs(abs(sy) - 1.0) < 1e-12:
        # gimbal: roll and yaw are coupled; put everything into yaw
        roll = 0.0
        yaw = math.atan2(-r3[0, 1], r3[1, 1])
    else:
        roll = math.atan2(r3[2, 1], r3[2, 2])
        yaw = math.atan2(r3[1, 0], r3[0, 0])
    return EulerAngles(roll, pitch, yaw)


def _centered_offset(index: int, count: int, lam: float) -> float:
    return (index - (count + 1) / 2.0) * lam / 2.0


def bs_antenna_position(spec: UraSpec, u: int, v: int, lam: float) -> np.ndarray:
    """Global position of BS antenna (u, v); the array is centered at the
    origin in the z = 0 plane with lambda/2 pitch."""
    if not (1 <= u <= spec.nx and 1 <= v <= spec.ny):
        raise ValueError(
            f"BS antenna index ({u},{v}) outside grid [1,{spec.nx}]x[1,{spec.ny}]"
        )
    return np.array(
        [_centered_offset(u, spec.nx, lam), _centered_offset(v, spec.ny, lam), 0.0]
    )


def vec_index(spec: UraSpec, u: int, v: int) -> int:
    """Row index of antenna (u, v) in a column-stacked (u fastest) layout."""
    if not (1 <= u <= spec.nx and 1 <= v <= spec.ny):
        raise ValueError(
            f"antenna index ({u},{v}) outside grid [1,{spec.nx}]x[1,{spec.ny}]"
        )
    return (v - 1) * spec.nx + (u - 1)


def bs_antenna_grid(spec: UraSpec, lam: float) -> np.ndarray:
    """(n_antennas, 3) positions of every BS antenna in vec order."""
    u = np.arange(1, spec.nx + 1)
    v = np.arange(1, spec.ny + 1)
    x = (u - (spec.nx + 1) / 2.0) * lam / 2.0
    y = (v - (spec.ny + 1) / 2.0) * lam / 2.0
    xg, yg = np.meshgrid(x, y, indexing="xy")  # v along rows => u fastest when raveled
    out = np.zeros((spec.n_antennas, 3))
    out[:, 0] = xg.ravel()
    out[:, 1] = yg.ravel()
    return out


def ms_local_antenna_position(spec: UraSpec, q: int, s: int, lam: float) -> np.ndarray:
    """Offset of MS antenna (q, s) in the MS-local planar frame."""
    if not (1 <= q <= spec.nx and 1 <= s <= spec.ny):
        raise ValueError(
            f"MS antenna index ({q},{s}) outside grid [1,{spec.nx}]x[1,{spec.ny}]"
        )
    return np.array(
        [_centered_offset(q, spec.nx, lam), _centered_offset(s, spec.ny, lam)]
    )


def ms_antenna_global_position(pose: Pose, local: np.ndarray) -> np.ndarray:
    """Global position of an MS antenna given the array pose and the
    antenna's local planar offset."""
    local = np.asarray(local, dtype=float).reshape(2)
    return pose.position + rotation_basis(pose.attitude).matrix @ local


def fresnel_distance(largest_dimension: float, lam: float) -> float:
    """Inner boundary of the radiative region: cbrt(S^4 / (8 lambda))."""
    if largest_dimension < 0 or lam <= 0:
        raise ValueError("largest_dimension must be >= 0 and wavelength > 0")
    return float(np.cbrt(largest_dimension**4 / (8.0 * lam)))


def rayleigh_distance(largest_dimension: float, lam: float) -> float:
    """Near-field / far-field boundary: 2 S^2 / lambda."""
    if largest_dimension < 0 or lam <= 0:
        raise ValueError("largest_dimension must be >= 0 and wavelength > 0")
    return 2.0 * largest_dimension**2 / lam


def aoa_cosines(target: np.ndarray, reference: np.ndarray) -> tuple[float, float]:
    """Direction cosines of (target - reference) against the x and y axes.

    Returns ``(phi_x, phi_y)`` with ``phi_l = (target - reference) . e_l /
    ||target - reference||``; always satisfies phi_x^2 + phi_y^2 <= 1.
    """
    diff = np.asarray(target, dtype=float) - np.asarray(reference, dtype=float)
    r = np.linalg.norm(diff)
    if r < 1e-300:
        raise ValueError("target and reference coincide; direction undefined")
    return float(diff[0] / r), float(diff[1] / r)


def ray_from_cosines(cosines: np.ndarray) -> np.ndarray:
    """Unit direction into the front half-space (z >= 0) with the given
    x and y direction cosines; a pair outside the unit disc is first
    scaled back onto its rim."""
    sq = float(cosines @ cosines)
    if sq > 1.0:
        cosines = cosines / math.sqrt(sq)
        sq = 1.0
    return np.array([cosines[0], cosines[1], math.sqrt(max(0.0, 1.0 - sq))])


def _unit_offsets(diff: np.ndarray):
    r = np.linalg.norm(diff, axis=-1)[..., None]
    return diff / r, r


def direction_cosine_derivatives(diff: np.ndarray):
    """Direction cosines phi_l = d_l / |d| (l = x, y) of offsets ``diff``
    (..., 3), shape (..., 2), and their Jacobian in d, (..., 2, 3):
    (e_l - phi_l u) / r with u = d / r."""
    u, r = _unit_offsets(diff)
    phi = u[..., :2]
    return phi, (np.eye(3)[:2] - phi[..., :, None] * u[..., None, :]) / r[..., None]


def direction_cosine_hessian(diff: np.ndarray, weights=None) -> np.ndarray:
    """Hessians in d of the direction cosines of offsets ``diff`` (..., 3):
    (-(e_l u^T + u e_l^T) + phi_l (3 u u^T - I)) / r^2, stacked per cosine
    as (..., 2, 3, 3).

    Given ``weights`` (..., M, 2) for offsets (..., M, 3), returns instead
    the weighted sum over the M offsets and both cosines, (..., 3, 3),
    contracted without forming the per-offset Hessians.
    """
    u, r = _unit_offsets(diff)
    if weights is None:
        e_u = np.eye(3)[:2, :, None] * u[..., None, None, :]
        outer = u[..., None, :, None] * u[..., None, None, :]
        return (
            -(e_u + np.swapaxes(e_u, -1, -2))
            + u[..., :2, None, None] * (3.0 * outer - np.eye(3))
        ) / r[..., None, None] ** 2
    c = weights / r**2
    s = np.sum(c * u[..., :2], axis=-1)
    c_u = np.einsum("...ml,...my->...ly", c, u)
    lin = np.zeros(c_u.shape[:-2] + (3, 3))
    lin[..., :2, :] = c_u
    return (
        -(lin + np.swapaxes(lin, -1, -2))
        + 3.0 * np.einsum("...m,...mx,...my->...xy", s, u, u)
        - np.sum(s, axis=-1)[..., None, None] * np.eye(3)
    )
