"""Partitioning of the BS array into rectangular subarrays.

A partition plan carries, for every subarray, its reference antenna (the
ceil-half grid point), reference position, aperture size, and near/far
boundary, plus the bijection between global antenna indices ``(u, v)`` and
subarray-local indices ``(m, i, j)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import UraSpec, bs_antenna_position, rayleigh_distance, vec_index


@dataclass(frozen=True)
class SubarrayDescriptor:
    """One rectangular subarray of the BS grid.

    ``origin`` is the global (u, v) index of the subarray's (1, 1) antenna;
    ``ref_index`` is the subarray-local index of the reference antenna.
    """

    m: int
    origin: tuple
    nx: int
    ny: int
    ref_index: tuple
    ref_position: np.ndarray
    size_x: float
    size_y: float

    @property
    def n_antennas(self) -> int:
        return self.nx * self.ny

    @property
    def largest_dimension(self) -> float:
        return float(np.hypot(self.size_x, self.size_y))

    def rayleigh_distance(self, lam: float) -> float:
        return rayleigh_distance(self.largest_dimension, lam)

    def to_global(self, i: int, j: int) -> tuple:
        if not (1 <= i <= self.nx and 1 <= j <= self.ny):
            raise ValueError(
                f"subarray index ({i},{j}) outside [1,{self.nx}]x[1,{self.ny}]"
            )
        return (self.origin[0] + i - 1, self.origin[1] + j - 1)


class PartitionPlan:
    """Non-overlapping rectangular tiling of the BS grid.

    Subarrays may be built uniformly (`uniform_partition`) or supplied
    directly as descriptors; either way the tiling is validated to cover
    every antenna exactly once.
    """

    def __init__(self, bs_spec: UraSpec, lam: float, subarrays):
        self.bs_spec = bs_spec
        self.lam = float(lam)
        self.subarrays = list(subarrays)
        self._m_of = np.full((bs_spec.nx, bs_spec.ny), -1, dtype=np.int64)
        self._i_of = np.zeros((bs_spec.nx, bs_spec.ny), dtype=np.int64)
        self._j_of = np.zeros((bs_spec.nx, bs_spec.ny), dtype=np.int64)
        for sub in self.subarrays:
            u0, v0 = sub.origin
            for i in range(1, sub.nx + 1):
                for j in range(1, sub.ny + 1):
                    u, v = u0 + i - 1, v0 + j - 1
                    if not (1 <= u <= bs_spec.nx and 1 <= v <= bs_spec.ny):
                        raise ValueError(
                            f"subarray {sub.m} extends beyond the BS grid at ({u},{v})"
                        )
                    if self._m_of[u - 1, v - 1] != -1:
                        raise ValueError(
                            f"antenna ({u},{v}) covered by two subarrays "
                            f"({self._m_of[u - 1, v - 1]} and {sub.m})"
                        )
                    self._m_of[u - 1, v - 1] = sub.m
                    self._i_of[u - 1, v - 1] = i
                    self._j_of[u - 1, v - 1] = j
        if np.any(self._m_of == -1):
            n_missing = int(np.sum(self._m_of == -1))
            raise ValueError(f"{n_missing} BS antennas not covered by any subarray")
        expected_ms = set(range(1, len(self.subarrays) + 1))
        if {s.m for s in self.subarrays} != expected_ms:
            raise ValueError("subarray indices must be 1..M without gaps")
        # cache per-subarray row-index grids for fast signal (dis)assembly
        self._row_grids = []
        for sub in self.subarrays:
            grid = np.empty((sub.nx, sub.ny), dtype=np.int64)
            for i in range(1, sub.nx + 1):
                for j in range(1, sub.ny + 1):
                    u, v = sub.to_global(i, j)
                    grid[i - 1, j - 1] = vec_index(bs_spec, u, v)
            self._row_grids.append(grid)

    @property
    def n_subarrays(self) -> int:
        return len(self.subarrays)

    def check_scene(self, scenario) -> None:
        """Raise ValueError unless this plan tiles ``scenario.bs`` at the
        scenario's wavelength: the plan picks the signal's rows and places
        the subarrays, so a plan of another array or carrier gives wrong
        results without failing."""
        if self.bs_spec != scenario.bs or self.lam != scenario.lam:
            raise ValueError(
                f"partition plan of {self.bs_spec} at wavelength {self.lam} m does not "
                f"match the scenario's {scenario.bs} at {scenario.lam} m"
            )

    def to_subarray(self, u: int, v: int) -> tuple:
        """Map a global antenna index to (m, i, j)."""
        if not (1 <= u <= self.bs_spec.nx and 1 <= v <= self.bs_spec.ny):
            raise ValueError(
                f"antenna ({u},{v}) outside grid "
                f"[1,{self.bs_spec.nx}]x[1,{self.bs_spec.ny}]"
            )
        return (
            int(self._m_of[u - 1, v - 1]),
            int(self._i_of[u - 1, v - 1]),
            int(self._j_of[u - 1, v - 1]),
        )

    def to_global(self, m: int, i: int, j: int) -> tuple:
        if not (1 <= m <= self.n_subarrays):
            raise ValueError(f"subarray index {m} outside [1,{self.n_subarrays}]")
        return self.subarrays[m - 1].to_global(i, j)

    def subarray_row_indices(self, m: int) -> np.ndarray:
        """(nx, ny) grid of signal-row indices for subarray ``m``."""
        if not (1 <= m <= self.n_subarrays):
            raise ValueError(f"subarray index {m} outside [1,{self.n_subarrays}]")
        return self._row_grids[m - 1]

    def reference_positions(self) -> np.ndarray:
        """(M, 3) stack of subarray reference-antenna positions."""
        return np.array([s.ref_position for s in self.subarrays])

    def max_rayleigh_distance(self) -> float:
        return max(s.rayleigh_distance(self.lam) for s in self.subarrays)


@dataclass(frozen=True)
class SubarrayGroup:
    """Subarrays of one shape, so that their blocks stack into one array:
    0-based indices (G,), signal rows (G, N) in raveled (i, j) order,
    reference positions (G, 3) and the 1-based element indices i and j of
    every row (2, N)."""

    members: np.ndarray
    rows: np.ndarray
    refs: np.ndarray
    ramps: np.ndarray


def subarray_groups(plan: PartitionPlan) -> list:
    """The plan's subarrays grouped by shape, in order of first
    appearance; a uniform partition is one group."""
    by_shape = {}
    for mi, sub in enumerate(plan.subarrays):
        by_shape.setdefault((sub.nx, sub.ny), []).append(mi)
    return [
        SubarrayGroup(
            members=np.array(members),
            rows=np.array([plan.subarray_row_indices(mi + 1).ravel() for mi in members]),
            refs=np.array([plan.subarrays[mi].ref_position for mi in members]),
            ramps=np.indices(shape).reshape(2, -1) + 1.0,
        )
        for shape, members in by_shape.items()
    ]


def make_descriptor(
    bs_spec: UraSpec, lam: float, m: int, origin: tuple, nx: int, ny: int
) -> SubarrayDescriptor:
    """Build a descriptor with the reference antenna at the ceil-half index."""
    ref_i = -(-nx // 2)  # ceil(nx / 2)
    ref_j = -(-ny // 2)
    u_ref = origin[0] + ref_i - 1
    v_ref = origin[1] + ref_j - 1
    return SubarrayDescriptor(
        m=m,
        origin=(int(origin[0]), int(origin[1])),
        nx=int(nx),
        ny=int(ny),
        ref_index=(ref_i, ref_j),
        ref_position=bs_antenna_position(bs_spec, u_ref, v_ref, lam),
        size_x=(nx - 1) * lam / 2.0,
        size_y=(ny - 1) * lam / 2.0,
    )


def uniform_partition(spec: UraSpec, mx: int, my: int, lam: float) -> PartitionPlan:
    """Tile the BS grid into ``mx * my`` equal rectangles, numbered
    row-major by origin (x-blocks fastest)."""
    if mx < 1 or my < 1:
        raise ValueError(f"block counts must be >= 1, got {mx}x{my}")
    if spec.nx % mx != 0 or spec.ny % my != 0:
        raise ValueError(
            f"grid {spec.nx}x{spec.ny} not divisible into {mx}x{my} blocks "
            f"(remainders {spec.nx % mx} and {spec.ny % my})"
        )
    bx, by = spec.nx // mx, spec.ny // my
    subs = []
    m = 1
    for block_v in range(my):
        for block_u in range(mx):
            origin = (block_u * bx + 1, block_v * by + 1)
            subs.append(make_descriptor(spec, lam, m, origin, bx, by))
            m += 1
    return PartitionPlan(spec, lam, subs)


def index_map(plan: PartitionPlan, u: int, v: int) -> tuple:
    """Global (u, v) -> subarray (m, i, j)."""
    return plan.to_subarray(u, v)


@dataclass(frozen=True)
class FarFieldReport:
    """Diagnostic for the subarray-wise far-field condition
    ``r > D_R,m`` for every (subarray, MS antenna) pair."""

    passed: bool
    worst_subarray: int | None
    worst_antenna: int | None
    worst_margin: float
    max_rayleigh: float


def validate_far_field(plan: PartitionPlan, ms_antenna_positions, lam: float) -> FarFieldReport:
    """Check every MS antenna against every subarray's far-field boundary.

    Returns a report with the worst (most violating, or least comfortable)
    pair and the margin ``r - D_R,m`` there. An empty antenna list passes
    vacuously.
    """
    positions = np.asarray(ms_antenna_positions, dtype=float).reshape(-1, 3)
    if positions.shape[0] == 0:
        return FarFieldReport(True, None, None, np.inf, plan.max_rayleigh_distance())
    worst = (np.inf, None, None)
    for sub in plan.subarrays:
        d_r = sub.rayleigh_distance(lam)
        r = np.linalg.norm(positions - sub.ref_position, axis=1)
        margins = r - d_r
        idx = int(np.argmin(margins))
        if margins[idx] < worst[0]:
            worst = (float(margins[idx]), sub.m, idx)
    return FarFieldReport(
        passed=worst[0] > 0.0,
        worst_subarray=worst[1],
        worst_antenna=worst[2],
        worst_margin=worst[0],
        max_rayleigh=plan.max_rayleigh_distance(),
    )
