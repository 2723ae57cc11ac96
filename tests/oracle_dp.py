"""Exact constrained-optimum oracle via remaining-needs dynamic programming.

Independent of the joint enumerator in benchmark: the state is the vector
of selections still owed to each user (clamped at zero), swept backward
over slots. Exponential in N but linear in T, so it reaches horizons the
2^(N*T) enumeration cannot. Test helper only.
"""

import math

import numpy as np

from sensecourt.solver import subset_linear_table, subset_value_table


def constrained_optimum_dp(slots, thresholds) -> float:
    """Max average welfare over the slots subject to per-user selection
    counts >= ceil(T*D), D the thresholds."""
    n, t = len(thresholds), len(slots)
    needs = [math.ceil(t * d - 1e-12) for d in thresholds]
    users = np.arange(n)
    tables = [
        subset_value_table(slot, users) - subset_linear_table(slot.true_costs)
        for slot in slots
    ]
    shape = tuple(nd + 1 for nd in needs)
    g = np.full(shape, -np.inf)
    g[tuple(0 for _ in range(n))] = 0.0  # nothing owed after the last slot
    for k in range(t - 1, -1, -1):
        best = np.full(shape, -np.inf)
        for s in range(1 << n):
            shifted = g
            for u in range(n):
                if (s >> u) & 1 and needs[u] > 0:
                    first = [slice(None)] * n
                    first[u] = slice(0, 1)
                    rest = [slice(None)] * n
                    rest[u] = slice(0, shape[u] - 1)
                    shifted = np.concatenate(
                        [shifted[tuple(first)], shifted[tuple(rest)]], axis=u
                    )
            np.maximum(best, float(tables[k][s]) + shifted, out=best)
        g = best
    return float(g[tuple(needs)]) / t
