"""Per-lane reference engine: each policy steps over the slots by itself.

This is the engine's slot loop as it was before lanes shared their solves.
Each lane builds its own RegulatedInstance and picks its solver by its own
reading of the modes: exact lanes solve alone with solve_exact_alone, the
former body of solver.solve_exact (its own value and cost tables, one
tie-break pick), the others call solve_greedy or branch_and_bound directly,
never solver.allocate_many; an auction lane rebuilds its objective for its
pivots; every lane evaluates its own allocation. run_policy must match it
bit for bit (tests/test_engine_oracle.py on the exact and auto modes,
tests/test_engine_routes.py on greedy and bnb), and allocate_many must match
solve_exact_alone row by row (tests/test_solver.py). Test helper only.

`tiebreak_pick` is the pick rule on one row, the former
solver.tiebreak_pick: it puts a mask-order objective in tie-break order by
`oracle_subset.ranked_masks` and takes the first column within TIE_TOL of
the maximum. The exact solves and each winner's pivot here take it row by
row, the pivot on the whole objective with the subsets holding the winner
at -inf, where the engine's auction calls solver.tiebreak_picks on each
winner's half of the objective.
"""

import numpy as np

from sensecourt import baselines
from sensecourt.auction import RegulationState, pivot_payment, regulation_update
from sensecourt.baselines import VpcState, vpc_update
from sensecourt.engine import apply_dropping
from sensecourt.policy_dual import DualState, dual_update
from sensecourt.policy_lyapunov import QueueState, queue_update
from sensecourt.scenarios import RANDOM_POLICY_STREAM
from sensecourt.solver import (
    TIE_TOL,
    RegulatedInstance,
    SolveResult,
    branch_and_bound,
    solve_greedy,
    subset_linear_table,
    subset_value_table,
)
from sensecourt.world import Allocation, evaluate_allocation

from oracle_subset import ranked_masks


# a regulated lane's initial state and its update(state, alloc, thresholds, eligible)
REGULATORS = {
    "dual": lambda spec, d: (DualState.initial(d.size, spec.schedule), dual_update),
    "lyapunov": lambda spec, d: (QueueState.initial(d.size, spec.phi), queue_update),
    "auction": lambda spec, d: (RegulationState.initial(d, spec.phi), regulation_update),
    "radp_vpc": lambda spec, d: (VpcState.initial(d.size, spec.alpha), vpc_update),
}


def tiebreak_pick(row: np.ndarray) -> int:
    """The local mask picked from a mask-order objective: its first column
    within TIE_TOL of the maximum once the columns are in tie-break order."""
    by_rank = ranked_masks(row.size.bit_length() - 1)
    ranked = row[by_rank]
    return int(by_rank[np.argmax(ranked >= ranked.max() - TIE_TOL)])


def objective_alone(realization, kappa, users):
    """value - charges over every subset of users, indexed by local bit mask."""
    return subset_value_table(realization, users) - subset_linear_table(kappa[users])


def solve_exact_alone(inst: RegulatedInstance) -> SolveResult:
    """The exact optimum of one instance, solved on its own."""
    users = np.flatnonzero(inst.eligible)
    objective = objective_alone(inst.realization, inst.effective_costs, users)
    mask = tiebreak_pick(objective)
    selected = np.zeros(inst.realization.n_users, dtype=bool)
    selected[users] = mask >> np.arange(users.size) & 1
    return SolveResult(Allocation(selected), float(objective[mask]), True)


def auction_slot_alone(state, realization, eligible):
    """The auction under truthful bids: its own solve, then its objective
    rebuilt for the pivots. Returns the allocation and the payments."""
    kappa = realization.true_costs - state.bonus
    alloc = solve_exact_alone(RegulatedInstance(realization, kappa, eligible)).alloc
    winners = alloc.indices()
    value_term = evaluate_allocation(realization, alloc).value
    users = np.flatnonzero(eligible)
    objective = objective_alone(realization, kappa, users)
    masks = np.arange(objective.size)
    payments = np.zeros(realization.n_users)
    for u in winners.tolist():
        others_cost = float(kappa[winners].sum() - kappa[u])
        has_u = (masks >> int(np.searchsorted(users, u))) & 1
        welfare_without = float(objective[tiebreak_pick(np.where(has_u, -np.inf, objective))])
        payments[u] = pivot_payment(value_term, others_cost, welfare_without, state.factors[u])
    return alloc, payments


def _allocate(spec, state, realization, eligible, options, rng):
    if spec.kind == "random":
        return baselines.random_baseline_step(realization, eligible, rng)
    if spec.kind == "greedy":
        return solve_greedy(RegulatedInstance(realization, realization.true_costs, eligible)).alloc
    inst = RegulatedInstance(realization, realization.true_costs - state.bonus, eligible)
    if options.mode in ("exact", "auto") and eligible.sum() <= options.exact_limit:
        return solve_exact_alone(inst).alloc
    if options.mode == "greedy":
        return solve_greedy(inst).alloc
    return branch_and_bound(inst, options.node_budget).alloc  # bnb, or auto past exact_limit


def run_lane_alone(slots, spec, thresholds, warmup, options, seed, dropping) -> dict:
    """One policy's per-slot arrays, drop events and final state, as
    TraceMetrics names them; greedy and random carry no state."""
    t_slots, n = len(slots), thresholds.size
    state, update = REGULATORS.get(spec.kind, lambda spec, d: (None, None))(spec, thresholds)
    rng = np.random.default_rng([seed, RANDOM_POLICY_STREAM])
    eligible = np.ones(n, dtype=bool)
    selections, seen = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    out = {
        "welfare_series": np.empty(t_slots),
        "alloc_prob_series": np.empty((t_slots, n)),
        "selected": np.empty((t_slots, n), dtype=bool),
        "active": np.empty((t_slots, n), dtype=bool),
        "regulation": np.empty((t_slots, n)),
        "payments_series": np.zeros((t_slots, n)) if spec.kind == "auction" else None,
        "drop_events": [],
    }
    for k, realization in enumerate(slots):
        t = k + 1
        out["regulation"][k] = np.where(eligible, 0.0 if state is None else state.bonus, 0.0)
        out["active"][k] = eligible
        if t <= warmup:
            alloc = Allocation(eligible)
        elif spec.kind == "auction":
            alloc, out["payments_series"][k] = auction_slot_alone(state, realization, eligible)
        else:
            alloc = _allocate(spec, state, realization, eligible, options, rng)
        out["welfare_series"][k] = evaluate_allocation(realization, alloc).welfare
        out["selected"][k] = alloc.selected
        seen += eligible
        selections += alloc.selected
        out["alloc_prob_series"][k] = selections / seen
        if update is not None:
            state = update(state, alloc, thresholds, eligible)
        if dropping and t > warmup:
            dropped = apply_dropping(eligible, out["alloc_prob_series"][k], thresholds)
            out["drop_events"] += [(u, t) for u in dropped.tolist()]
    out["drop_events"] = tuple(out["drop_events"])
    out["final_policy_state"] = state
    return out
