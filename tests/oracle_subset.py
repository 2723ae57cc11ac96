"""Reference subset coverage table and tie-break ranks.

The vectorized `sensecourt.solver.subset_value_table` must reproduce the
scalar lowest-bit loop here bit for bit: same parent per subset, same
grids added, same order of additions. `tiebreak_tables` derives the
tie-break rank of every subset from its popcount and reversed-bit key, a
derivation apart from `sensecourt.solver.tiebreak_order`, which must sort
the subsets the same way. Test helper only.
"""

from functools import lru_cache

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


@lru_cache(maxsize=8)
def tiebreak_tables(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(popcount, reversed-bit key, combined rank) for all 2^m local masks.

    For equal popcount, the lexicographically smaller selected-index vector
    has the larger reversed-bit key, so minimizing the combined rank
    popcount * 2^(m+1) + (2^m - 1 - revkey) realizes the tie-break order.
    """
    size = 1 << m
    ar = np.arange(size, dtype=np.int64)
    pc = np.zeros(size, dtype=np.int64)
    rev = np.zeros(size, dtype=np.int64)
    for j in range(m):
        bit = (ar >> j) & 1
        pc += bit
        rev += bit << (m - 1 - j)
    tb = pc * (1 << (m + 1)) + ((1 << m) - 1 - rev)
    return pc, rev, tb
