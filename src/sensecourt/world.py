"""Grid world primitives: the grid map, slot realizations, welfare accounting.

The sensing area is a rectangle of square grids indexed row-major. A slot
realization bundles everything a selection policy sees in one time slot:
per-grid data values, per-user sensing regions (each a sorted array of the
grid indices the user can sense), per-user true sensing costs.
Coverage value counts every grid once no matter how many selected users
sense it, which is what makes the per-slot selection problem a weighted
set-cover style profit maximization rather than a plain sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
import numpy as np

__all__ = [
    "GridMap",
    "WeightField",
    "SlotRealization",
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


def _region(indices, n_grids: int) -> np.ndarray:
    """A hand-given region as a read-only, sorted, distinct int64 copy of its
    indices, each in [0, n_grids); integral floats are accepted."""
    raw = np.asarray(indices)
    if raw.dtype.kind == "f" and not np.all(np.isfinite(raw) & (np.trunc(raw) == raw)):
        raise ValueError(f"region indices must be finite integers, got {raw.ravel()}")
    idx = np.sort(raw.astype(np.int64, copy=False), axis=None)
    keep = np.ones(idx.size, dtype=bool)
    np.not_equal(idx[1:], idx[:-1], out=keep[1:])
    idx = idx[keep]
    if idx.size and (idx[0] < 0 or idx[-1] >= n_grids):
        raise ValueError("region index out of range")
    idx.flags.writeable = False
    return idx


@dataclass(frozen=True, eq=False)
class SlotRealization:
    """One slot's network information: weights, regions, true costs.

    User u's sensing region, regions[u], is the set of grids u can sense in
    the slot: a read-only, sorted int64 array of distinct grid indices below
    n_grids. An empty region is legal: it models a user outside the sensing
    area. A hand-built slot's regions are checked and normalised here
    (sorted, de-duplicated, integral floats taken as integers).
    """

    weights: WeightField
    regions: tuple[np.ndarray, ...]
    true_costs: np.ndarray

    def __post_init__(self):
        regions = tuple(_region(r, self.weights.n_grids) for r in self.regions)
        costs = frozen_array(self.true_costs, "true_costs", nonneg=True)
        if len(regions) != costs.size:
            raise ValueError("regions and true_costs must have the same length")
        object.__setattr__(self, "regions", regions)
        object.__setattr__(self, "true_costs", costs)

    @classmethod
    def split_block(
        cls, weights: np.ndarray, grids: np.ndarray, counts: np.ndarray, costs: np.ndarray
    ) -> tuple["SlotRealization", ...]:
        """Cut a block of B slots of n users into slot realizations.

        Slot k holds weights[k] and costs[k]; its user u's region is the next
        counts[k, u] entries of grids, which must be in range and strictly
        increasing within each region: unsorted or repeated input raises
        instead of being normalised. The checks run once over the block, and
        every slot holds read-only views of the block's arrays and of one
        private copy of grids.
        """
        b, n = costs.shape
        idx = np.asarray(grids).ravel()
        if idx.size and idx.dtype.kind not in "iu":
            raise ValueError(f"block grids must be integers, got {idx.dtype}")
        idx = idx.astype(np.int64)  # the slots' private copy
        counts = np.asarray(counts, dtype=np.int64).ravel().tolist()
        if weights.shape[0] != b or len(counts) != b * n:
            raise ValueError("a block needs one weight row and n region counts per cost row")
        if min(counts, default=0) < 0 or sum(counts) != idx.size:
            raise ValueError("counts must be non-negative and sum to the number of grids")
        if idx.size and (idx.min() < 0 or idx.max() >= weights.shape[1]):
            raise ValueError("region index out of range")
        ends = list(accumulate(counts))
        # pairs straddling two regions may drop; all others must rise
        rising = idx[1:] > idx[:-1]
        rising[[end - 1 for end in ends if 0 < end < idx.size]] = True
        if not rising.all():
            raise ValueError("region indices must be strictly increasing within each region")
        for name, arr in (("weights", weights), ("costs", costs)):
            if not np.all(np.isfinite(arr)) or np.any(arr < 0):
                raise ValueError(f"{name} must be finite and non-negative")
        idx.flags.writeable = weights.flags.writeable = costs.flags.writeable = False
        regions = tuple(idx[start:end] for start, end in zip([0] + ends, ends))
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
        return tuple(float(np.add.reduce(w[r])) for r in self.regions)


@dataclass(frozen=True)
class WelfareBreakdown:
    """Per-slot welfare decomposition: value minus cost."""

    value: float
    cost: float
    welfare: float


def evaluate_allocation(realization: SlotRealization, selected) -> WelfareBreakdown:
    """Value, cost, and welfare of a selection, one bool flag per user,
    against true costs.

    Value counts each covered grid once; cost is the plain sum of selected
    users' costs; welfare is their difference.
    """
    selected = frozen_array(selected, "selected", bool, size=realization.n_users)
    regions = [realization.regions[u] for u in np.flatnonzero(selected).tolist()]
    covered = np.zeros(realization.n_grids, dtype=bool)
    if regions:
        covered[np.concatenate(regions)] = True
    value = float(realization.weights.values[covered].sum())
    cost = float(realization.true_costs[selected].sum())
    return WelfareBreakdown(value=value, cost=cost, welfare=value - cost)
