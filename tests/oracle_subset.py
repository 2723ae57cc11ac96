"""Reference subset coverage table: the scalar lowest-bit loop.

The vectorized `sensecourt.solver.subset_value_table` must reproduce this
loop bit for bit: same parent per subset, same grids added, same order of
additions. Test helper only.
"""

import numpy as np


def subset_value_table_loop(realization, users) -> np.ndarray:
    """Coverage value of every subset of `users`, indexed by local bit mask.

    value(s) adds, in ascending grid order, the weights of the lowest
    member's grids that value(s without its lowest member) did not cover.
    """
    m = len(users)
    size = 1 << m
    values = np.zeros(size)
    if m == 0:
        return values
    w = realization.weights.values.tolist()
    masks = [realization.regions[int(u)].mask for u in users]
    unions = [0] * size
    for s in range(1, size):
        low = s & -s
        j = low.bit_length() - 1
        parent = s ^ low
        pu = unions[parent]
        v = values[parent]
        new = masks[j] & ~pu
        while new:
            b = new & -new
            v += w[b.bit_length() - 1]
            new ^= b
        unions[s] = pu | masks[j]
        values[s] = v
    return values
