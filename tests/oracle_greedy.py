"""The lazy greedy and the random-order baseline as they were written before
the slot's region values were shared: every initial marginal summed afresh
from the remaining weights, through closures and heappush.

tests/test_greedy.py checks the package's solve_greedy (every
greedy-route row of allocate_many) and random_baseline_step against these
bit for bit.
"""

from __future__ import annotations

import heapq

import numpy as np

from sensecourt.solver import RegulatedInstance, SolveResult
from sensecourt.world import SlotRealization


def solve_greedy_loop(inst: RegulatedInstance) -> SolveResult:
    """Lazy marginal-gain greedy.

    Users with negative effective cost are selected unconditionally first
    (their gain is positive regardless of coverage). Remaining users are
    added by largest marginal coverage value minus charge, lowest index on
    ties, while the best gain is strictly positive. Marginal gains only
    shrink as coverage grows, so stale heap entries are safe to re-check.
    """
    real = inst.realization
    n = real.n_users
    w_rem = real.weights.values.copy()
    selected = np.zeros(n, dtype=bool)
    objective = 0.0

    def marginal(u: int) -> float:
        return float(w_rem[real.regions[u]].sum())

    def take(u: int, gain: float) -> None:
        nonlocal objective
        selected[u] = True
        objective += gain
        w_rem[real.regions[u]] = 0.0

    heap: list[tuple[float, int]] = []
    for u in np.flatnonzero(inst.eligible):
        u = int(u)
        kappa = float(inst.effective_costs[u])
        if kappa < 0:
            take(u, marginal(u) - kappa)
        else:
            heapq.heappush(heap, (-(marginal(u) - kappa), u))

    while heap:
        stale_key, u = heapq.heappop(heap)
        gain = marginal(u) - float(inst.effective_costs[u])
        if heap and (-gain, u) > heap[0]:
            heapq.heappush(heap, (-gain, u))
            continue
        if gain <= 0.0:
            break
        take(u, gain)

    return SolveResult(selected, objective, False)


def random_baseline_loop(
    realization: SlotRealization,
    eligible: np.ndarray | None,
    rng: np.random.Generator,
) -> np.ndarray:
    """Admit users in a random order, stopping at the first non-positive gain."""
    if eligible is None:
        eligible = np.ones(realization.n_users, dtype=bool)
    order = rng.permutation(np.flatnonzero(eligible))
    w_rem = realization.weights.values.copy()
    selected = np.zeros(realization.n_users, dtype=bool)
    for u in order:
        u = int(u)
        idx = realization.regions[u]
        gain = float(w_rem[idx].sum()) - float(realization.true_costs[u])
        if gain <= 0.0:
            break
        selected[u] = True
        w_rem[idx] = 0.0
    return selected
