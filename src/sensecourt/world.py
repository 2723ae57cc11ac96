"""Grid world primitives: sensing regions, slot realizations, welfare accounting.

The sensing area is a rectangle of square grids indexed row-major. A slot
realization bundles everything a selection policy sees in one time slot:
per-grid data values, per-user sensing regions, per-user true sensing costs.
Coverage value counts every grid once no matter how many selected users
sense it, which is what makes the per-slot selection problem a weighted
set-cover style profit maximization rather than a plain sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable

import numpy as np

__all__ = [
    "GridMap",
    "WeightField",
    "SensingRegion",
    "SlotRealization",
    "Allocation",
    "WelfareBreakdown",
    "evaluate_allocation",
    "frozen_array",
    "thresholds_array",
    "eligible_mask",
]


def frozen_array(
    values, name: str, dtype=float, *, ndim: int = 1, nonneg: bool = False, size: int | None = None
) -> np.ndarray:
    """A read-only copy of values as dtype with ndim axes, the one way in for
    every per-user array: with size it must hold size entries, one per user;
    floats must be finite (one min and one max test them) and, with nonneg,
    no entry may be negative. Errors name the field."""
    arr = np.array(values, dtype=dtype)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be a {ndim}-D array, got shape {arr.shape}")
    if size is not None and arr.size != size:
        raise ValueError(f"{name} must hold {size} entries, one per user, got {arr.size}")
    floats = arr.dtype.kind == "f"
    if arr.size and (floats or nonneg):
        lo = np.minimum.reduce(arr, axis=None)
        if floats and not (-np.inf < lo and np.maximum.reduce(arr, axis=None) < np.inf):
            raise ValueError(f"{name} must be finite")
        if nonneg and lo < 0:
            raise ValueError(f"{name} must be non-negative")
    arr.flags.writeable = False
    return arr


def thresholds_array(values) -> np.ndarray:
    """The participation thresholds D_n as a read-only float array, each in
    [0, 1]; NaN is refused."""
    d = np.asarray(values, dtype=float)
    if d.size and not (0 <= d.min() and d.max() <= 1):  # NaN fails both
        raise ValueError("thresholds must lie in [0, 1]")
    return frozen_array(d, "thresholds")


def eligible_mask(eligible, n_users: int) -> np.ndarray:
    """The eligibility flags as a read-only bool array of n_users; None is
    everyone."""
    if eligible is None:
        eligible = np.ones(n_users, dtype=bool)
    return frozen_array(eligible, "eligible", bool, size=n_users)


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass cls holding fields, without __post_init__."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class GridMap:
    """Rectangular sensing area of width x height square grids.

    Grid index g corresponds to row g // width_grids and column
    g % width_grids; grid 0 sits in the corner at the coordinate origin.
    """

    width_grids: int
    height_grids: int
    grid_edge_m: float

    def __post_init__(self):
        if self.width_grids <= 0 or self.height_grids <= 0:
            raise ValueError("grid dimensions must be positive")
        # NaN fails both comparisons
        if not (self.grid_edge_m > 0 and max(self.width_m, self.height_m) < np.inf):
            raise ValueError("grid_edge_m must be positive and the map's extent finite")

    @property
    def n_grids(self) -> int:
        return self.width_grids * self.height_grids

    @property
    def width_m(self) -> float:
        return self.width_grids * self.grid_edge_m

    @property
    def height_m(self) -> float:
        return self.height_grids * self.grid_edge_m

    def axis_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Center x of each column and center y of each row, in meters."""
        xs = (np.arange(self.width_grids, dtype=float) + 0.5) * self.grid_edge_m
        ys = (np.arange(self.height_grids, dtype=float) + 0.5) * self.grid_edge_m
        return xs, ys

    def centers(self) -> np.ndarray:
        """(n_grids, 2) array of grid-center coordinates in meters."""
        gx, gy = np.meshgrid(*self.axis_centers())
        return np.column_stack([gx.ravel(), gy.ravel()])


@dataclass(frozen=True, eq=False)
class WeightField:
    """Per-grid data values for one slot. Non-negative and finite."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", frozen_array(self.values, "weights", nonneg=True))

    @property
    def n_grids(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class SensingRegion:
    """Set of grid indices a user can sense in one slot.

    Stored as a sorted index array plus a lazily built bit mask (one bit per
    grid), so set unions in the solvers are single big-int ORs. An empty
    region is legal: it models a user outside the sensing area.
    """

    n_grids: int
    indices: np.ndarray

    def __post_init__(self):
        if self.n_grids <= 0:
            raise ValueError("n_grids must be positive")
        raw = np.asarray(self.indices)
        if raw.dtype.kind == "f" and not np.all(np.isfinite(raw) & (np.trunc(raw) == raw)):
            raise ValueError(f"region indices must be finite integers, got {raw.ravel()}")
        idx = np.unique(raw.astype(np.int64))
        if idx.size and (idx[0] < 0 or idx[-1] >= self.n_grids):
            raise ValueError("region index out of range")
        idx.flags.writeable = False
        object.__setattr__(self, "indices", idx)

    @classmethod
    def split_sorted(
        cls, n_grids: int, grids: np.ndarray, counts: np.ndarray
    ) -> tuple["SensingRegion", ...]:
        """Cut one concatenated index array into consecutive regions.

        Region k holds the next counts[k] entries of grids, which must be in
        range and strictly increasing within each region; unsorted or
        duplicated input raises instead of being normalised. The checks run
        once over the whole array, and every region is a read-only slice of
        one private copy, so no per-region validation is repeated.
        """
        if n_grids <= 0:
            raise ValueError("n_grids must be positive")
        idx = np.array(grids, dtype=np.int64).ravel()
        counts = np.asarray(counts, dtype=np.int64).ravel().tolist()
        if min(counts, default=0) < 0 or sum(counts) != idx.size:
            raise ValueError("counts must be non-negative and sum to the number of grids")
        if idx.size and (idx.min() < 0 or idx.max() >= n_grids):
            raise ValueError("region index out of range")
        ends = list(accumulate(counts))
        # pairs straddling two regions may drop; all others must rise
        rising = idx[1:] > idx[:-1]
        rising[[end - 1 for end in ends if 0 < end < idx.size]] = True
        if not rising.all():
            raise ValueError("region indices must be strictly increasing within each region")
        idx.flags.writeable = False
        regions = []
        for start, end in zip([0] + ends, ends):
            region = object.__new__(cls)
            object.__setattr__(region, "n_grids", n_grids)
            object.__setattr__(region, "indices", idx[start:end])
            regions.append(region)
        return tuple(regions)

    @cached_property
    def mask(self) -> int:
        m = 0
        for i in self.indices.tolist():
            m |= 1 << i
        return m

    @property
    def size(self) -> int:
        return int(self.indices.size)


@dataclass(frozen=True, eq=False)
class SlotRealization:
    """One slot's network information: weights, regions, true costs."""

    weights: WeightField
    regions: tuple[SensingRegion, ...]
    true_costs: np.ndarray

    def __post_init__(self):
        regions = tuple(self.regions)
        costs = frozen_array(self.true_costs, "true_costs", nonneg=True)
        if len(regions) != costs.size:
            raise ValueError("regions and true_costs must have the same length")
        for r in regions:
            if r.n_grids != self.weights.n_grids:
                raise ValueError("region capacity does not match weight field")
        object.__setattr__(self, "regions", regions)
        object.__setattr__(self, "true_costs", costs)

    @classmethod
    def split_block(
        cls, weights: np.ndarray, regions: tuple[SensingRegion, ...], costs: np.ndarray
    ) -> tuple["SlotRealization", ...]:
        """Cut a block of B slots of n users into slot realizations.

        Slot k holds weights[k], costs[k] and regions k*n to k*n + n - 1.
        The checks of WeightField and of a slot run once over the block, and
        every slot holds read-only views of the block's arrays.
        """
        b, n = costs.shape
        if weights.shape[0] != b or len(regions) != b * n:
            raise ValueError("a block needs one weight row and n regions per cost row")
        if any(r.n_grids != weights.shape[1] for r in regions):
            raise ValueError("region capacity does not match weight field")
        for name, arr in (("weights", weights), ("costs", costs)):
            if not np.all(np.isfinite(arr)) or np.any(arr < 0):
                raise ValueError(f"{name} must be finite and non-negative")
        weights.flags.writeable = costs.flags.writeable = False
        return tuple(
            _unchecked(
                cls,
                weights=_unchecked(WeightField, values=w),
                regions=regions[k * n : k * n + n],
                true_costs=c,
            )
            for k, (w, c) in enumerate(zip(weights, costs))
        )

    @property
    def n_users(self) -> int:
        return len(self.regions)

    @property
    def n_grids(self) -> int:
        return self.weights.n_grids

    @cached_property
    def region_values(self) -> tuple[float, ...]:
        """Each user's region value alone, np.add.reduce over its grids' weights
        (the routine of ndarray.sum, so the same bits): built on first use and
        shared by every greedy solve of the slot."""
        w = self.weights.values
        return tuple(float(np.add.reduce(w[r.indices])) for r in self.regions)


@dataclass(frozen=True, eq=False)
class Allocation:
    """Boolean selection vector over users for one slot."""

    selected: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "selected", frozen_array(self.selected, "selected", bool))

    @classmethod
    def built(cls, selected: np.ndarray) -> "Allocation":
        """An allocation over a bool array of n that a solver has just built:
        made read-only and kept, without a checked one's copy and scan."""
        selected.flags.writeable = False
        return _unchecked(cls, selected=selected)

    @classmethod
    def none(cls, n_users: int) -> "Allocation":
        return cls(np.zeros(n_users, dtype=bool))

    @classmethod
    def of(cls, n_users: int, users: Iterable[int]) -> "Allocation":
        sel = np.zeros(n_users, dtype=bool)
        for u in users:
            sel[u] = True
        return cls(sel)

    @property
    def n_users(self) -> int:
        return self.selected.size

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.selected)


@dataclass(frozen=True)
class WelfareBreakdown:
    """Per-slot welfare decomposition: value minus cost."""

    value: float
    cost: float
    welfare: float


def _covered(realization: SlotRealization, alloc: Allocation) -> np.ndarray:
    """Boolean mask of the grids in the union of the selected users' regions."""
    if alloc.n_users != realization.n_users:
        raise ValueError(
            f"allocation has {alloc.n_users} users, realization has {realization.n_users}"
        )
    cov = np.zeros(realization.n_grids, dtype=bool)
    for u in alloc.indices():
        cov[realization.regions[u].indices] = True
    return cov


def evaluate_allocation(realization: SlotRealization, alloc: Allocation) -> WelfareBreakdown:
    """Value, cost, and welfare of an allocation against true costs.

    Value counts each covered grid once; cost is the plain sum of selected
    users' costs; welfare is their difference.
    """
    value = float(realization.weights.values[_covered(realization, alloc)].sum())
    cost = float(realization.true_costs[alloc.selected].sum())
    return WelfareBreakdown(value=value, cost=cost, welfare=value - cost)
