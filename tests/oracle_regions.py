"""Per-user disk-region builder, the reference for build_slot_realization.

Walks the users one at a time and measures every grid center against each
user's disk. Draws from the slot generator in the same order as the
vectorized builder (weights, radii, cost jitter), so both must return the
same regions, costs and weights bit for bit. Test helper only.
"""

import numpy as np

from sensecourt.scenarios import generate_weight_field
from sensecourt.world import SensingRegion, SlotRealization


def build_slot_realization_loop(state, config, slot, rng) -> SlotRealization:
    weights = generate_weight_field(config, slot, rng)
    n = config.n_users
    centers = config.map.centers()
    radii = rng.uniform(config.radius_min_m, config.radius_max_m, size=n)
    jitter = rng.uniform(config.cost_jitter[0], config.cost_jitter[1], size=n)
    regions = []
    costs = np.zeros(n)
    i = config.map.n_grids
    for u in range(n):
        d2 = (centers[:, 0] - state.positions[u, 0]) ** 2 + (
            centers[:, 1] - state.positions[u, 1]
        ) ** 2
        idx = np.flatnonzero(d2 <= radii[u] * radii[u])
        regions.append(SensingRegion(i, idx))
        costs[u] = (
            config.cost_to_weight_ratio
            * config.mean_weight
            * idx.size
            * jitter[u]
        )
    return SlotRealization(weights=weights, regions=tuple(regions), true_costs=costs)
