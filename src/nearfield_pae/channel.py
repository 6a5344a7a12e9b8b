"""Received-signal generation: exact spherical-wavefront channel, its
subarray-wise plane-wave reduction, noise, and signal I/O.

The exact channel between a BS antenna at ``b`` and an MS antenna at ``p``
is ``beta * lambda / (4 pi r) * exp(-j 2 pi r / lambda)`` with ``r = ||p -
b||``. The subarray-wise reduction replaces ``r`` by its first-order
expansion about the subarray reference antenna, which factors the per-
antenna response of subarray ``m`` into a common complex gain times a
plane-wave term in the direction cosines::

    gain_{m,k,t} = x * beta * lambda/(4 pi r_m) * exp(-j 2 pi r_m / lambda)
                   * exp(-j pi (Nt_x phi_x + Nt_y phi_y))
    steer(i, j)  = exp(+j pi (i phi_x + j phi_y))

with ``(Nt_x, Nt_y)`` the reference antenna's local index.  The signs are
pinned by the requirement that gain * steer reproduce the first-order
expansion of the exact phase; a round-trip test enforces this to machine
precision.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .geometry import (
    EulerAngles,
    Pose,
    TransmitPattern,
    UraSpec,
    bs_antenna_grid,
    fresnel_distance,
    half_wavelength_ura,
    named_pattern,
    rigid_antenna_chain,
    wavelength,
)
from .partition import PartitionPlan, validate_far_field

_SIGNAL_MAGIC = b"NFPAESIG"


def dbm_to_watt(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) * 1e-3


def watt_to_dbm(watt: float) -> float:
    if watt <= 0:
        raise ValueError(f"power must be positive to express in dBm, got {watt}")
    return 10.0 * np.log10(watt / 1e-3)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to simulate one localization scene.

    Powers are stored in watts (converted once at config parse). ``poses``
    may be fixed; otherwise per-trial poses are drawn from the stated
    ranges. ``rician_kfactor = inf`` means a pure line-of-sight channel.
    """

    f_hz: float
    bs: UraSpec
    ms: UraSpec
    num_ms: int
    pattern: TransmitPattern
    tx_power_w: float
    noise_power_w: float
    antenna_gains: tuple = ()
    rician_kfactor: float = np.inf
    poses: tuple = ()
    distance_range: tuple = (5.0, 8.0)
    azimuth_range: tuple = (0.0, 2.0 * np.pi)
    elevation_range: tuple = (np.pi / 12, np.pi / 2)
    roll_range: tuple = (-np.pi, np.pi)
    pitch_range: tuple = (-np.pi / 3, np.pi / 3)
    yaw_range: tuple = (-np.pi, np.pi)
    fresnel_override: bool = False

    def __post_init__(self):
        if self.num_ms < 1:
            raise ValueError(f"need at least one MS, got {self.num_ms}")
        if self.tx_power_w < 0 or self.noise_power_w < 0:
            raise ValueError("powers must be non-negative")
        if self.rician_kfactor <= 0:
            raise ValueError("Rician K-factor must be positive (inf = pure LoS)")
        if not self.antenna_gains:
            object.__setattr__(self, "antenna_gains", (1.0,) * self.num_ms)
        if len(self.antenna_gains) != self.num_ms:
            raise ValueError("need one antenna gain per MS")

    @property
    def lam(self) -> float:
        return wavelength(self.f_hz)

    @property
    def n_slots(self) -> int:
        return len(self.pattern)

    @property
    def nominal_range(self) -> float:
        return 0.5 * (self.distance_range[0] + self.distance_range[1])


def desk_scale_scenario(
    *,
    f_hz: float = 28e9,
    bs_n: int = 32,
    ms_n: int = 16,
    num_ms: int = 1,
    pattern: str = "t5",
    tx_power_dbm: float = 20.0,
    noise_power_dbm: float = -70.0,
    rician_kfactor: float = np.inf,
    distance_range: tuple = (5.0, 8.0),
    **kwargs,
) -> ScenarioConfig:
    """Compact default scene: 32x32 BS, 16x16 MS, five-point pattern."""
    bs = half_wavelength_ura(bs_n, bs_n, f_hz)
    ms = half_wavelength_ura(ms_n, ms_n, f_hz)
    return ScenarioConfig(
        f_hz=f_hz,
        bs=bs,
        ms=ms,
        num_ms=num_ms,
        pattern=named_pattern(pattern, ms),
        tx_power_w=dbm_to_watt(tx_power_dbm),
        noise_power_w=dbm_to_watt(noise_power_dbm),
        rician_kfactor=rician_kfactor,
        distance_range=distance_range,
        **kwargs,
    )


def draw_poses(scenario: ScenarioConfig, rng: np.random.Generator) -> list:
    """Draw one pose per MS from the scenario's ranges (independent MSs).

    Distance/azimuth/elevation give the MS center in spherical form above
    the BS plane; attitude angles are uniform over their supports.
    """
    if scenario.poses:
        return list(scenario.poses)
    poses = []
    for _ in range(scenario.num_ms):
        r = rng.uniform(*scenario.distance_range)
        azi = rng.uniform(*scenario.azimuth_range)
        ele = rng.uniform(*scenario.elevation_range)
        pos = r * np.array(
            [np.cos(ele) * np.cos(azi), np.cos(ele) * np.sin(azi), np.sin(ele)]
        )
        att = EulerAngles(
            rng.uniform(*scenario.roll_range),
            rng.uniform(*scenario.pitch_range),
            rng.uniform(*scenario.yaw_range),
        )
        poses.append(Pose(pos, att))
    return poses


def _antenna_positions(poses, q_locals: np.ndarray) -> np.ndarray:
    """(K, T, 3) global positions of the antennas at local offsets
    ``q_locals`` (T, 2) on every MS, from one `rigid_antenna_chain` call."""
    theta = np.array([pose.attitude.as_array() for pose in poses])
    q = np.broadcast_to(q_locals, (len(poses),) + q_locals.shape)
    offsets = rigid_antenna_chain(theta, q, order=0)[0]
    return np.array([pose.position for pose in poses])[:, None] + offsets


def activated_antenna_positions(scenario: ScenarioConfig, poses) -> np.ndarray:
    """(K, T, 3) global positions of the activated MS antennas."""
    return _antenna_positions(poses, scenario.pattern.local_positions(scenario.ms, scenario.lam))


def all_ms_antenna_positions(scenario: ScenarioConfig, poses) -> np.ndarray:
    """(K * N_M, 3) global positions of every MS antenna (for validation):
    antenna (q, s) of MS k in row k N_M + (q - 1) n_y + (s - 1)."""
    spec = scenario.ms
    qs = np.indices((spec.nx, spec.ny)).reshape(2, -1).T + 1
    local = (qs - (np.array([spec.nx, spec.ny]) + 1) / 2.0) * scenario.lam / 2.0
    return _antenna_positions(poses, local).reshape(-1, 3)


@dataclass
class ReceivedSignal:
    """Complex baseband samples, one column per activation slot.

    Row ``(v - 1) * nx + (u - 1)`` holds BS antenna ``(u, v)`` (column-
    stacked grid, u fastest).
    """

    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.complex128)
        if s.ndim != 2:
            raise ValueError(f"samples must be a 2-D matrix, got shape {s.shape}")
        self.samples = s
        self.check_finite()

    def check_finite(self) -> None:
        """Raise ValueError if any sample is NaN or infinite. The samples
        stay writable after construction, so the estimators check again
        before they use them."""
        bad = np.argwhere(~np.isfinite(self.samples))
        if bad.size:
            row, slot = bad[0]
            raise ValueError(f"sample at row {row}, slot {slot} is not finite")

    @property
    def n_antennas(self) -> int:
        return self.samples.shape[0]

    @property
    def n_slots(self) -> int:
        return self.samples.shape[1]


def nearfield_channel_coeff(
    bs_antenna: np.ndarray, ms_antenna: np.ndarray, gain: float, lam: float
) -> complex:
    """Exact free-space channel coefficient between two points."""
    r = float(np.linalg.norm(np.asarray(ms_antenna) - np.asarray(bs_antenna)))
    if r < 1e-300:
        raise ValueError("BS and MS antenna positions coincide")
    return gain * lam / (4.0 * np.pi * r) * np.exp(-2j * np.pi * r / lam)


def nearfield_channel_vector(
    bs_grid: np.ndarray, ms_antenna: np.ndarray, gain, lam: float
) -> np.ndarray:
    """Exact channels from MS antennas (..., 3) to every BS antenna of
    ``bs_grid`` (N_B, 3), shape (..., N_B); ``gain`` broadcasts against
    them."""
    r = np.linalg.norm(bs_grid - np.asarray(ms_antenna)[..., None, :], axis=-1)
    if np.any(r < 1e-300):
        raise ValueError("an MS antenna coincides with a BS antenna")
    return gain * lam / (4.0 * np.pi * r) * np.exp(-2j * np.pi * r / lam)


def exact_channels(scenario: ScenarioConfig, antennas: np.ndarray) -> np.ndarray:
    """(K, T, N_B) exact channels from the activated antennas (K, T, 3) of
    every MS, each scaled by its MS's antenna gain."""
    grid = bs_antenna_grid(scenario.bs, scenario.lam)
    gains = np.asarray(scenario.antenna_gains, dtype=float)[:, None, None]
    return nearfield_channel_vector(grid, antennas, gains, scenario.lam)


def _complex_noise(rng: np.random.Generator, shape, power: float) -> np.ndarray:
    if power == 0.0:
        return np.zeros(shape, dtype=np.complex128)
    scale = np.sqrt(power / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def check_fresnel(scenario: ScenarioConfig, poses) -> float:
    """Smallest MS-antenna range minus the BS Fresnel distance."""
    d_f = fresnel_distance(scenario.bs.largest_dimension, scenario.lam)
    positions = all_ms_antenna_positions(scenario, poses)
    return float(np.min(np.linalg.norm(positions, axis=1)) - d_f)


def simulate_received(
    scenario: ScenarioConfig, rng: np.random.Generator, poses=None
) -> ReceivedSignal:
    """Simulate the exact spherical-wavefront received signal.

    Every activated MS antenna transmits sqrt(tx_power) in its slot; the
    BS observes the superposition over MSs plus circularly-symmetric
    complex Gaussian noise of total per-sample variance ``noise_power_w``.
    With a finite Rician K-factor each coefficient additionally receives an
    i.i.d. diffuse term of variance |LoS|^2 / K.
    """
    if poses is None:
        poses = draw_poses(scenario, rng)
    if len(poses) != scenario.num_ms:
        raise ValueError(f"expected {scenario.num_ms} poses, got {len(poses)}")
    margin = check_fresnel(scenario, poses)
    if margin < 0 and not scenario.fresnel_override:
        raise ValueError(
            f"an MS antenna is {-margin:.3g} m inside the reactive region; "
            "set fresnel_override to simulate anyway"
        )
    h = exact_channels(scenario, activated_antenna_positions(scenario, poses))
    kfactor = scenario.rician_kfactor
    if np.isfinite(kfactor):
        # slot-major: slot t, MS k draws the real then the imaginary parts
        z = rng.standard_normal((scenario.n_slots, scenario.num_ms, 2, scenario.bs.n_antennas))
        diffuse = np.sqrt(1.0 / kfactor / 2.0) * (z[:, :, 0] + 1j * z[:, :, 1])
        h = h + np.abs(h) * diffuse.swapaxes(0, 1)
    y = np.ascontiguousarray(np.sum(np.sqrt(scenario.tx_power_w) * h, axis=0).T)
    y += _complex_noise(rng, y.shape, scenario.noise_power_w)
    return ReceivedSignal(y)


@dataclass
class ReducedCoefficients:
    """Per (subarray, MS, slot) parameters of the reduced signal model:
    complex gain, direction-cosine pair, and reference distance."""

    gains: np.ndarray  # (M, K, T) complex
    cosines: np.ndarray  # (M, K, T, 2)
    distances: np.ndarray  # (M, K, T)

    @property
    def shape(self) -> tuple:
        return self.gains.shape


def subarray_steering(nx: int, ny: int, phi_x, phi_y) -> np.ndarray:
    """Plane-wave response of an (nx, ny) subarray at direction cosines
    (phi_x, phi_y); entry (i, j) is exp(+j pi (i phi_x + j phi_y)),
    1-based indices. Cosine arrays of one shape S give responses of
    shape S + (nx, ny)."""
    ax = np.exp(np.multiply.outer(1j * np.pi * np.asarray(phi_x), np.arange(1, nx + 1)))
    ay = np.exp(np.multiply.outer(1j * np.pi * np.asarray(phi_y), np.arange(1, ny + 1)))
    # einsum: numpy buffers a broadcast product, 2.5 times the result's size
    return np.einsum("...i,...j->...ij", ax, ay)


def reduced_coefficients(
    scenario: ScenarioConfig, plan: PartitionPlan, poses, validate: bool = True
) -> ReducedCoefficients:
    """Reduced-model parameters for every (subarray, MS, slot) triple.

    Raises if the far-field condition fails for any subarray unless the
    scenario's ``fresnel_override`` is set (the same flag gates both
    geometric preconditions).
    """
    lam = scenario.lam
    antennas = activated_antenna_positions(scenario, poses)
    if validate and not scenario.fresnel_override:
        report = validate_far_field(plan, antennas.reshape(-1, 3), lam)
        if not report.passed:
            raise ValueError(
                f"far-field condition fails at subarray {report.worst_subarray} "
                f"by {-report.worst_margin:.3g} m; refine the partition or set "
                "fresnel_override"
            )
    # (M, K, T) broadcast: subarray m's reference antenna to every activated antenna
    diff = antennas[None] - plan.reference_positions()[:, None, None, :]
    r = np.linalg.norm(diff, axis=-1)
    cosines = diff[..., :2] / r[..., None]
    nt_x, nt_y = np.array([sub.ref_index for sub in plan.subarrays]).T[..., None, None]
    beta = np.asarray(scenario.antenna_gains, dtype=float)[:, None]
    phase = -2j * np.pi * r / lam - 1j * np.pi * (nt_x * cosines[..., 0] + nt_y * cosines[..., 1])
    gains = np.sqrt(scenario.tx_power_w) * beta * (lam / (4.0 * np.pi * r)) * np.exp(phase)
    return ReducedCoefficients(gains, cosines, r)


def reduced_received(
    coeffs: ReducedCoefficients,
    plan: PartitionPlan,
    noise_power_w: float,
    rng: np.random.Generator | None = None,
) -> ReceivedSignal:
    """Assemble the reduced-model signal matrix from its coefficients."""
    m_count, k_count, t_count = coeffs.shape
    if m_count != plan.n_subarrays:
        raise ValueError("coefficient block count does not match the plan")
    n_b = plan.bs_spec.n_antennas
    y = np.zeros((n_b, t_count), dtype=np.complex128)
    for mi, sub in enumerate(plan.subarrays):
        phi = coeffs.cosines[mi]  # (K, T, 2)
        steer = subarray_steering(sub.nx, sub.ny, phi[..., 0], phi[..., 1])
        blocks = np.sum(coeffs.gains[mi, :, :, None, None] * steer, axis=0)  # (T, nx, ny)
        y[plan.subarray_row_indices(mi + 1)] = blocks.transpose(1, 2, 0)
    if noise_power_w > 0:
        if rng is None:
            raise ValueError("an RNG is required when noise power is positive")
        y += _complex_noise(rng, y.shape, noise_power_w)
    return ReceivedSignal(y)


def estimate_noise_power(guard_samples: np.ndarray) -> float:
    """Plug-in noise-variance estimate from signal-free guard samples."""
    guard = np.asarray(guard_samples).ravel()
    if guard.size == 0:
        raise ValueError("need at least one guard sample")
    return float(np.mean(np.abs(guard) ** 2))


def save_signal(path, signal: ReceivedSignal, seed: int = 0) -> None:
    """Write a signal matrix as little-endian interleaved float64 re/im in
    row-major order behind a 32-byte header (magic, N_B, T, seed)."""
    n_b, t = signal.samples.shape
    header = _SIGNAL_MAGIC + struct.pack("<QQQ", n_b, t, seed)
    inter = np.empty((n_b, t, 2), dtype="<f8")
    inter[..., 0] = signal.samples.real
    inter[..., 1] = signal.samples.imag
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(inter.tobytes(order="C"))


def load_signal(path) -> tuple:
    """Read a signal dump written by `save_signal`; returns (signal, seed)."""
    with open(path, "rb") as fh:
        header = fh.read(32)
        if len(header) != 32 or header[:8] != _SIGNAL_MAGIC:
            raise ValueError(f"{path}: not a signal dump (bad header)")
        n_b, t, seed = struct.unpack("<QQQ", header[8:])
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != n_b * t * 2:
        raise ValueError(
            f"{path}: expected {n_b * t * 2} float64 payload values, got {data.size}"
        )
    inter = data.reshape(n_b, t, 2)
    return ReceivedSignal(inter[..., 0] + 1j * inter[..., 1]), int(seed)
