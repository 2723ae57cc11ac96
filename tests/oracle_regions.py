"""Slot-by-slot, user-by-user reference for realization_stream.

Builds one slot at a time, as the stream did before it built blocks of
slots: the slot's generator draws the weights (or hotspot noise), the radii
and the cost jitter, every grid center is measured against each user's
disk, and then the users take their mobility step from the same generator.
realization_stream must return the same weights, regions and costs bit for
bit. Test helper only.
"""

import numpy as np

from sensecourt.scenarios import _hotspot_profile, initial_state, slot_rng
from sensecourt.world import SensingRegion, SlotRealization, WeightField


def weight_field(config, rng) -> WeightField:
    """uniform_iid: i.i.d. Uniform(0, 2 * mean_weight) per grid; hotspot:
    the static bump, times i.i.d. Uniform(0.5, 1.5) noise if temporal."""
    i = config.map.n_grids
    if config.weight_mode == "uniform_iid":
        return WeightField(rng.random(i) * (2.0 * config.mean_weight))
    profile = _hotspot_profile(config)
    if config.temporal_noise:
        profile = profile * rng.uniform(0.5, 1.5, size=i)
    return WeightField(profile)


def build_slot_realization_loop(positions, config, rng) -> SlotRealization:
    weights = weight_field(config, rng)
    n = config.n_users
    centers = config.map.centers()
    radii = rng.uniform(config.radius_min_m, config.radius_max_m, size=n)
    jitter = rng.uniform(config.cost_jitter[0], config.cost_jitter[1], size=n)
    regions = []
    costs = np.zeros(n)
    i = config.map.n_grids
    for u in range(n):
        d2 = (centers[:, 0] - positions[u, 0]) ** 2 + (centers[:, 1] - positions[u, 1]) ** 2
        idx = np.flatnonzero(d2 <= radii[u] * radii[u])
        regions.append(SensingRegion(i, idx))
        costs[u] = (
            config.cost_to_weight_ratio
            * config.mean_weight
            * idx.size
            * jitter[u]
        )
    return SlotRealization(weights=weights, regions=tuple(regions), true_costs=costs)


def step_mobility(positions, config, rng) -> np.ndarray:
    """The (n_users, 2) positions after each user jumps by a uniform-in-disk
    displacement, reflecting at walls."""
    n = positions.shape[0]
    radius = config.step_max_m * np.sqrt(rng.random(n))
    angle = rng.random(n) * (2.0 * np.pi)
    pos = positions + np.column_stack(
        [radius * np.cos(angle), radius * np.sin(angle)]
    )
    pos[:, 0] = _reflect(pos[:, 0], config.map.width_m)
    pos[:, 1] = _reflect(pos[:, 1], config.map.height_m)
    return pos


def _reflect(coords, length):
    folded = np.mod(coords, 2.0 * length)
    return np.where(folded > length, 2.0 * length - folded, folded)


def realization_stream_loop(config, t_slots, positions=None):
    """Slots 1..t_slots from the (n_users, 2) positions (the config's initial
    positions if None)."""
    positions = initial_state(config) if positions is None else positions
    for t in range(1, t_slots + 1):
        rng = slot_rng(config, t)
        yield build_slot_realization_loop(positions, config, rng)
        positions = step_mobility(positions, config, rng)
