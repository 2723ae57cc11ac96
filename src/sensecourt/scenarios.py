"""Stochastic instance generation: mobility, regions, weight fields, costs.

Every random draw comes from a generator keyed by (seed, slot), so a slot
realization is a pure function of the configuration and the mobility state,
and replays are bit-identical. Slot indices are 1-based; stream 0 is
reserved for the initial user placement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .world import GridMap, SensingRegion, SlotRealization, WeightField

__all__ = [
    "ScenarioConfig",
    "MobilityState",
    "slot_rng",
    "initial_state",
    "generate_weight_field",
    "step_mobility",
    "build_slot_realization",
    "realization_stream",
]

WEIGHT_MODES = ("uniform_iid", "hotspot")

# distinct SeedSequence stream for the random-baseline policy inside the engine
RANDOM_POLICY_STREAM = 0x52414E44


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs of the instance distribution.

    cost_to_weight_ratio is the C/W knob: a user's cost is
    C/W * mean_weight * covered-grid-count * jitter, which keeps the ratio
    meaningful per unit of sensed area.
    """

    map: GridMap
    n_users: int
    radius_min_m: float = 400.0
    radius_max_m: float = 800.0
    weight_mode: str = "uniform_iid"
    hotspot_sigma_fraction: float = 0.25
    mean_weight: float = 0.5
    temporal_noise: bool = False
    cost_to_weight_ratio: float = 0.2
    cost_jitter: tuple[float, float] = (0.8, 1.2)
    step_max_m: float = 1000.0
    seed: int = 0

    def __post_init__(self):
        # NaN fails every comparison below, so each check also rejects it
        if self.n_users < 1:
            raise ValueError("n_users must be at least 1")
        if not 0 <= self.radius_min_m <= self.radius_max_m < math.inf:
            raise ValueError("need 0 <= radius_min_m <= radius_max_m, both finite")
        if self.weight_mode not in WEIGHT_MODES:
            raise ValueError(f"weight_mode must be one of {WEIGHT_MODES}")
        if not 0 < self.hotspot_sigma_fraction < math.inf:
            raise ValueError("hotspot_sigma_fraction must be positive and finite")
        if not 0 < 2.0 * self.mean_weight < math.inf:
            raise ValueError("mean_weight must be positive and finite")
        if not 0 <= self.cost_to_weight_ratio < math.inf:
            raise ValueError("cost_to_weight_ratio must be non-negative and finite")
        lo, hi = self.cost_jitter
        if not 0 <= lo <= hi < math.inf:
            raise ValueError("cost_jitter must satisfy 0 <= low <= high, both finite")
        if not 0 <= self.step_max_m < math.inf:
            raise ValueError("step_max_m must be non-negative and finite")
        object.__setattr__(self, "cost_jitter", (float(lo), float(hi)))
        # the largest cost any slot can draw: every grid, the top jitter
        top = self.cost_to_weight_ratio * self.mean_weight * self.map.n_grids * hi
        if not top < math.inf:
            raise ValueError("cost_to_weight_ratio * mean_weight * n_grids * jitter overflows")
        if self.weight_mode == "hotspot":
            # a narrow bump can underflow to all zeros, and its rescale to inf
            with np.errstate(all="ignore"):
                peak = _hotspot_profile(self).max() * 1.5  # top temporal noise
            if not peak < math.inf:
                raise ValueError("hotspot_sigma_fraction is too small for this map")


@dataclass(frozen=True, eq=False)
class MobilityState:
    """Continuous user positions in meters inside the map rectangle."""

    positions: np.ndarray

    def __post_init__(self):
        pos = np.array(self.positions, dtype=float, copy=True)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError("positions must have shape (n_users, 2)")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        pos.flags.writeable = False
        object.__setattr__(self, "positions", pos)


def slot_rng(config: ScenarioConfig, stream: int) -> np.random.Generator:
    """Deterministic generator for one slot (stream = slot index, 1-based)."""
    return np.random.default_rng([config.seed, stream])


def initial_state(config: ScenarioConfig) -> MobilityState:
    rng = slot_rng(config, 0)
    pos = rng.random((config.n_users, 2))
    pos[:, 0] *= config.map.width_m
    pos[:, 1] *= config.map.height_m
    return MobilityState(pos)


def generate_weight_field(
    config: ScenarioConfig, slot: int, rng: np.random.Generator
) -> WeightField:
    """Per-grid weights for one slot.

    uniform_iid: each weight is an independent Uniform(0, 2 * mean_weight)
    draw each slot. hotspot: a static Gaussian bump centered on the map,
    rescaled so the spatial mean equals mean_weight, optionally multiplied
    per slot by i.i.d. Uniform(0.5, 1.5) noise.
    """
    i = config.map.n_grids
    if config.weight_mode == "uniform_iid":
        return WeightField(rng.random(i) * (2.0 * config.mean_weight))
    profile = _hotspot_profile(config)
    if config.temporal_noise:
        profile = profile * rng.uniform(0.5, 1.5, size=i)
    return WeightField(profile)


@lru_cache(maxsize=8)
def _hotspot_profile(config: ScenarioConfig) -> np.ndarray:
    """The static bump of a hotspot config, built once per config; read-only."""
    centers = config.map.centers()
    mid = np.array([config.map.width_m / 2.0, config.map.height_m / 2.0])
    sigma = config.hotspot_sigma_fraction * config.map.width_m
    d2 = ((centers - mid) ** 2).sum(axis=1)
    profile = np.exp(-d2 / (2.0 * sigma * sigma))
    profile *= config.mean_weight / profile.mean()
    profile.flags.writeable = False
    return profile


def step_mobility(
    state: MobilityState, config: ScenarioConfig, rng: np.random.Generator
) -> MobilityState:
    """Jump each user by a uniform-in-disk displacement, reflecting at walls."""
    n = state.positions.shape[0]
    radius = config.step_max_m * np.sqrt(rng.random(n))
    angle = rng.random(n) * (2.0 * np.pi)
    pos = state.positions + np.column_stack(
        [radius * np.cos(angle), radius * np.sin(angle)]
    )
    pos[:, 0] = _reflect(pos[:, 0], config.map.width_m)
    pos[:, 1] = _reflect(pos[:, 1], config.map.height_m)
    return MobilityState(pos)


def _reflect(coords: np.ndarray, length: float) -> np.ndarray:
    folded = np.mod(coords, 2.0 * length)
    return np.where(folded > length, 2.0 * length - folded, folded)


def build_slot_realization(
    state: MobilityState, config: ScenarioConfig, slot: int, rng: np.random.Generator
) -> SlotRealization:
    """Realize one slot: weights, disk sensing regions, proportional costs.

    A grid belongs to a region iff its center lies within the user's radius,
    drawn fresh per slot from Uniform[radius_min_m, radius_max_m]. Only a
    fixed window of grids around each user is measured: the
    K = ceil(2 * radius_max_m / edge) + 2 columns from floor((x - r) / edge),
    shifted to stay inside the map, hold every column whose center can lie
    within r <= radius_max_m of the user with at least half a grid to spare
    on each side, and rows likewise. The squared distance to the center at
    (row, col) is dx2[u, col] + dy2[u, row], the same arithmetic as a test
    against every center, for all users at once.
    """
    weights = generate_weight_field(config, slot, rng)
    n = config.n_users
    grid = config.map
    radii = rng.uniform(config.radius_min_m, config.radius_max_m, size=n)
    jitter = rng.uniform(config.cost_jitter[0], config.cost_jitter[1], size=n)
    xs, ys = grid.axis_centers()  # the coordinates grid.centers() pairs up
    # the min keeps ceil finite when the radius dwarfs the map
    longest = max(grid.width_grids, grid.height_grids)
    span = min(2.0 * config.radius_max_m / grid.grid_edge_m, longest)
    reach = math.ceil(span) + 2
    cols = _window(state.positions[:, 0], radii, grid.grid_edge_m, grid.width_grids, reach)
    rows = _window(state.positions[:, 1], radii, grid.grid_edge_m, grid.height_grids, reach)
    dx2 = (xs[cols] - state.positions[:, 0:1]) ** 2
    dy2 = (ys[rows] - state.positions[:, 1:2]) ** 2
    d2 = dx2[:, None, :] + dy2[:, :, None]
    users, i, j = np.nonzero(d2 <= (radii * radii)[:, None, None])
    grids = rows[users, i] * grid.width_grids + cols[users, j]
    counts = np.bincount(users, minlength=n)
    regions = SensingRegion.split_sorted(grid.n_grids, grids, counts)
    costs = config.cost_to_weight_ratio * config.mean_weight * counts * jitter
    return SlotRealization(weights=weights, regions=regions, true_costs=costs)


def _window(
    coords: np.ndarray, radii: np.ndarray, edge: float, count: int, reach: int
) -> np.ndarray:
    """(n_users, K) indices of the K = min(reach, count) columns (or rows)
    measured for each user, starting at floor((coord - radius) / edge) and
    shifted to stay inside the map; NaN starts go to 0."""
    size = min(reach, count)
    start = np.floor((coords - radii) / edge)
    start = np.minimum(np.where(start > 0, start, 0.0), count - size)
    return start.astype(np.int64)[:, None] + np.arange(size)


def realization_stream(config: ScenarioConfig, t_slots: int) -> Iterator[SlotRealization]:
    """Yield slots 1..t_slots; mobility advances after each realized slot."""
    state = initial_state(config)
    for t in range(1, t_slots + 1):
        rng = slot_rng(config, t)
        yield build_slot_realization(state, config, t, rng)
        state = step_mobility(state, config, rng)
