"""Stochastic instance generation: mobility, regions, weight fields, costs.

Every random draw comes from the stream keyed by (seed, slot), so a slot
realization is a pure function of the configuration and the users'
positions, an (n_users, 2) array in meters, and replays are bit-identical.
Slot indices are 1-based; stream 0 is reserved for the initial user
placement. A stream is `numpy.random.default_rng([seed, slot])`'s, bit for
bit: `streams` makes its `SeedSequence` hash, its PCG64 words and its
`random` and `uniform` doubles with integer arithmetic and numpy's own
formulas, so no command imports numpy.random and the outputs do not depend
on the installed numpy.random.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .streams import Stream, block_doubles, seed_blocks, uniform
from .world import GridMap, SlotRealization

__all__ = [
    "ScenarioConfig",
    "initial_state",
    "realization_stream",
]

WEIGHT_MODES = ("uniform_iid", "hotspot")

# distinct SeedSequence stream for the random-baseline policy inside the engine
RANDOM_POLICY_STREAM = 0x52414E44

# disk-test or weight cells per block of slots, not a setting: larger blocks
# gained little time and left more freed memory behind in the allocator
_BLOCK_CELLS = 1 << 13


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
        if not self.max_cost < math.inf:
            raise ValueError("cost_to_weight_ratio * mean_weight * n_grids * jitter overflows")
        if self.weight_mode == "hotspot":
            # a narrow bump can underflow to all zeros, and its rescale to inf
            with np.errstate(all="ignore"):
                peak = _hotspot_profile(self).max() * 1.5  # top temporal noise
            if not peak < math.inf:
                raise ValueError("hotspot_sigma_fraction is too small for this map")

    @property
    def max_cost(self) -> float:
        """The largest cost any slot can draw: every grid, the top jitter."""
        return self.cost_to_weight_ratio * self.mean_weight * self.map.n_grids * self.cost_jitter[1]


def initial_state(config: ScenarioConfig) -> np.ndarray:
    """The (n_users, 2) starting positions in meters, uniform on the map."""
    pos = Stream.of(config.seed, 0).random((config.n_users, 2))
    pos[:, 0] *= config.map.width_m
    pos[:, 1] *= config.map.height_m
    return pos


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


def realization_stream(config: ScenarioConfig, t_slots: int) -> Iterator[SlotRealization]:
    """Yield slots 1..t_slots; mobility advances after each realized slot.

    uniform_iid weights are i.i.d. Uniform(0, 2 * mean_weight); hotspot
    weights are a static Gaussian bump with spatial mean mean_weight, times
    i.i.d. Uniform(0.5, 1.5) noise if temporal_noise. A region is every grid
    whose center lies within the user's radius, drawn from Uniform[
    radius_min_m, radius_max_m]; a cost is C/W * mean_weight * region size *
    jitter. Then each user jumps uniformly within step_max_m, reflecting.

    Slot t draws from stream (seed, t): weights (or noise), radii, jitter,
    step radius, step angle, all of a block's slots in one call. The walk
    advances slot by slot; windows, disk tests, counts and costs run once
    per block of about _BLOCK_CELLS cells, and only the block's slots,
    read-only views of its arrays validated once, outlive it. A user's
    window is K = ceil(2 * radius_max_m / edge) + 2 columns from
    floor((x - r) / edge), shifted into the map: every column whose center
    can lie within r, with half a grid to spare; rows likewise. dx2[col] +
    dy2[row] is the squared distance a test against every center computes.
    """
    grid = config.map
    # the min keeps ceil finite when the radius dwarfs the map
    longest = max(grid.width_grids, grid.height_grids)
    reach = math.ceil(min(2.0 * config.radius_max_m / grid.grid_edge_m, longest)) + 2
    cells = config.n_users * min(reach, grid.width_grids) * min(reach, grid.height_grids)
    block = max(1, _BLOCK_CELLS // max(cells, grid.n_grids))
    pos = initial_state(config)
    for seeds in seed_blocks((config.seed,), 1, t_slots, block):
        slots, pos = _realize_block(config, pos, seeds, reach)
        yield from slots  # the block's temporaries are gone; only its slots are held


def _realize_block(
    config: ScenarioConfig, pos: np.ndarray, seeds: np.ndarray, reach: int
) -> tuple[tuple[SlotRealization, ...], np.ndarray]:
    """The slots of the streams of the seed rows from positions pos, and
    the positions after."""
    grid = config.map
    n, size, b = config.n_users, grid.n_grids, seeds.shape[0]
    drawn = size if config.weight_mode == "uniform_iid" or config.temporal_noise else 0
    doubles = block_doubles(seeds, drawn + 4 * n)
    radii, jitter, step, angle = (doubles[:, drawn + k * n : drawn + k * n + n] for k in range(4))
    radii = uniform(config.radius_min_m, config.radius_max_m, radii)
    jitter = uniform(*config.cost_jitter, jitter)
    step = config.step_max_m * np.sqrt(step)
    angle = angle * (2.0 * np.pi)
    jump = np.stack([step * np.cos(angle), step * np.sin(angle)], axis=-1)
    walls = np.array([grid.width_m, grid.height_m])
    where, span = np.empty((b, n, 2)), 2.0 * walls
    for k in range(b):
        where[k] = pos
        pos = np.mod(pos + jump[k], span)  # reflect at the walls
        pos = np.where(pos > walls, span - pos, pos)
    if config.weight_mode == "uniform_iid":
        weights = doubles[:, :size] * (2.0 * config.mean_weight)
    elif drawn:
        weights = uniform(0.5, 1.5, doubles[:, :size]) * _hotspot_profile(config)
    else:
        weights = np.broadcast_to(_hotspot_profile(config), (b, size))
    xs, ys = grid.axis_centers()  # the coordinates grid.centers() pairs up
    cols = _window(where[..., 0], radii, grid.grid_edge_m, grid.width_grids, reach)
    rows = _window(where[..., 1], radii, grid.grid_edge_m, grid.height_grids, reach)
    dx2 = (xs[cols] - where[..., 0:1]) ** 2
    dy2 = (ys[rows] - where[..., 1:2]) ** 2
    hit = dx2[:, :, None, :] + dy2[:, :, :, None] <= (radii * radii)[:, :, None, None]
    owner, i, j = np.nonzero(hit.reshape(b * n, rows.shape[-1], cols.shape[-1]))
    grids = rows.reshape(b * n, -1)[owner, i] * grid.width_grids
    grids += cols.reshape(b * n, -1)[owner, j]
    counts = np.bincount(owner, minlength=b * n).reshape(b, n)
    costs = config.cost_to_weight_ratio * config.mean_weight * counts * jitter
    return SlotRealization.split_block(weights, grids, counts, costs), pos


def _window(
    coords: np.ndarray, radii: np.ndarray, edge: float, count: int, reach: int
) -> np.ndarray:
    """(..., K) indices of the K = min(reach, count) columns (or rows)
    measured for each user, starting at floor((coord - radius) / edge) and
    shifted to stay inside the map; NaN starts go to 0."""
    size = min(reach, count)
    start = np.floor((coords - radii) / edge)
    start = np.minimum(np.where(start > 0, start, 0.0), count - size)
    return start.astype(np.int64)[..., None] + np.arange(size)
