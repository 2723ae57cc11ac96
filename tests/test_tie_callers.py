"""Every caller of solver.tiebreak_picks on tie-forcing slots, against the
tie-break-ordered oracles.

tiebreak_picks reads mask-order rows and ranks only a near-tie row's tied
columns by tiebreak_key. The oracles put every row in tie-break order by
`oracle_subset.ranked_masks` and take the first column within TIE_TOL of
the maximum. Slots draw weights and costs from a few values, so subsets
tie exactly, and charges are moved by +-TIE_TOL and to the float
neighbours of those edges, so near ties inside TIE_TOL and ties exactly at
its edge occur; 0.0 and -0.0 are among the costs and charges, and maxima
of 0.0 are common. Each call that the exact allocate_many, the auction
pivots, dual_upper_bound and unconstrained_trace_welfare make is recorded
and checked: picks as masks, and the bytes of row maxima and runner-ups.
No scored row (rows plus add) holds a -0.0, which is why the zero sign of
a maximum cannot depend on the column order (see tiebreak_picks). The
callers' own results are checked against the oracles too.
"""

import contextlib
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import sensecourt.auction as auction_mod
import sensecourt.benchmark as benchmark_mod
import sensecourt.solver as solver_mod
from sensecourt.auction import RegulationState, run_auction_slot
from sensecourt.benchmark import Trace, dual_upper_bound, unconstrained_trace_welfare
from sensecourt.solver import (
    TIE_TOL,
    RegulatedInstance,
    SolveOptions,
    allocate_many,
    tiebreak_picks,
)

from oracle_dual import dual_upper_bound_dense, slotwise_optimum_loop
from oracle_engine import auction_slot_alone, solve_exact_alone
from oracle_subset import ranked_masks
from test_world import make_realization

WEIGHTS = (0.0, 0.5, 1.0, 1.5, TIE_TOL, 2.0**25)
COSTS = (0.0, -0.0, 0.5, 1.0, 1.5, TIE_TOL, 2.0**25)
FACTORS = (0.0, 0.5, 1.0, TIE_TOL)
EDGES = {
    "same": lambda c: c,
    "+tol": lambda c: c + TIE_TOL,
    "-tol": lambda c: c - TIE_TOL,
    "+tol up": lambda c: np.nextafter(c + TIE_TOL, np.inf),
    "+tol down": lambda c: np.nextafter(c + TIE_TOL, -np.inf),
    "-tol up": lambda c: np.nextafter(c - TIE_TOL, np.inf),
    "-tol down": lambda c: np.nextafter(c - TIE_TOL, -np.inf),
    "-0.0": lambda c: -0.0,
}


@st.composite
def tie_slots(draw):
    """One to three slots of n users on at most six grids, so regions
    repeat, and a region is often the union of two earlier ones: a pair of
    users then ties one user of a higher index, or another pair, when the
    costs match, as they do when every cost is 0.0. Regions, weights and
    costs come from a numpy generator seeded by the draw, which spreads
    them more evenly than drawing each one."""
    n, n_grids = draw(st.integers(3, 7) | st.integers(1, 2)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    slots = []
    for _ in range(draw(st.integers(1, 3))):
        regions = []
        for j in range(n):
            if j >= 2 and rng.random() < 0.5:
                a, b = rng.integers(0, j, 2)
                regions.append(regions[a] | regions[b])
            else:
                regions.append(set(np.flatnonzero(rng.random(n_grids) < 0.5).tolist()))
        weights = np.where(rng.random(n_grids) < 0.75, 1.0, rng.choice(WEIGHTS, n_grids))
        costs = np.where(rng.random(n) < 0.5, 0.0, rng.choice(COSTS, n))
        if rng.random() < 0.5:  # every superset ties its subsets
            costs = np.zeros(n)
        slots.append(make_realization(n_grids, regions, weights, costs))
    return slots


@contextlib.contextmanager
def recorded_picks():
    """Record each tiebreak_picks call of the three modules that make one:
    (module, the scored rows, add, the returned maxima, picks and runner-ups)."""
    calls = []

    def recorder(name):
        def recording(rows, add, which=None):
            out = tiebreak_picks(rows, add, which)
            scored = np.array(rows if which is None else rows[which])
            calls.append((name, scored, np.array(add), out))
            return out

        return recording

    modules = {"solver": solver_mod, "auction": auction_mod, "benchmark": benchmark_mod}
    with contextlib.ExitStack() as stack:
        for name, module in modules.items():
            stack.enter_context(mock.patch.object(module, "tiebreak_picks", recorder(name)))
        yield calls


def oracle_rows(scored, add):
    """Row maxima, picks as masks and runner-ups of scored + add, read in
    tie-break order: the first column within TIE_TOL of the maximum, and the
    largest column other than the first maximum."""
    by_rank = ranked_masks(scored.shape[1].bit_length() - 1)
    ranked = (scored + add)[:, by_rank]
    best = ranked.max(axis=1)
    picks = by_rank[(ranked >= (best - TIE_TOL)[:, None]).argmax(axis=1)]
    ranked[np.arange(len(ranked)), ranked.argmax(axis=1)] = -np.inf
    return best, picks, ranked.max(axis=1)


@settings(max_examples=200, deadline=None)
@given(tie_slots(), st.data())
def test_every_caller_picks_as_the_tie_ordered_oracle(slots, data):
    with recorded_picks() as calls:
        outcome = run_callers(slots, data)
    callers = {caller for caller, *_ in calls}
    assert {"solver", "benchmark"} <= callers
    assert "auction" in callers or not outcome.selected.any()
    for caller, scored, add, (best, picks, runner) in calls:
        obj = scored + add
        assert not np.any((obj == 0.0) & np.signbit(obj)), caller
        want_best, want_picks, want_runner = oracle_rows(scored, add)
        assert picks.tolist() == want_picks.tolist(), caller
        assert best.tobytes() == want_best.tobytes(), caller
        assert runner.tobytes() == want_runner.tobytes(), caller


def run_callers(slots, data):
    """Each caller on the slots, checked against its oracle; returns the
    auction outcome."""
    n = slots[0].n_users

    charges = [slots[0].true_costs]
    for _ in range(data.draw(st.integers(0, 4))):
        edges = data.draw(st.lists(st.sampled_from(sorted(EDGES)), min_size=n, max_size=n))
        charges.append(np.array([EDGES[e](c) for e, c in zip(edges, slots[0].true_costs)]))
    charges = np.array(charges)
    eligible = np.ones(n, dtype=bool)
    eligible[list(data.draw(st.sets(st.integers(0, n - 1), max_size=2)))] = False
    results, _ = allocate_many(slots[0], charges, eligible, SolveOptions("exact", n))
    for row, got in zip(charges, results):
        want = solve_exact_alone(RegulatedInstance(slots[0], row, eligible))
        assert got.selected.tobytes() == want.selected.tobytes()
        assert got.objective.hex() == want.objective.hex()

    factors = np.array(data.draw(st.lists(st.sampled_from(FACTORS), min_size=n, max_size=n)))
    if data.draw(st.booleans()):  # bids less factors all zero: every superset ties
        factors = np.abs(slots[0].true_costs)
    outcome = run_auction_slot(factors, slots[0], slots[0].true_costs, eligible, n)
    alloc, payments = auction_slot_alone(RegulationState(factors, 1.0), slots[0], eligible)
    assert outcome.selected.tobytes() == alloc.tobytes()
    assert outcome.payments.tobytes() == payments.tobytes()

    t = data.draw(st.integers(1, 12))
    pattern = data.draw(st.lists(st.integers(0, len(slots) - 1), min_size=t, max_size=t))
    levels = st.sampled_from([0.0, 0.25, 0.5, 1.0])
    thresholds = data.draw(st.lists(levels, min_size=n, max_size=n))
    picked = tuple(slots[i] for i in pattern)
    trace = Trace(picked, np.array(thresholds))
    iterations = data.draw(st.integers(1, 12))
    got = dual_upper_bound(trace, iterations)
    want = dual_upper_bound_dense(trace, picked, iterations)
    assert got.avg_welfare.hex() == want.avg_welfare.hex()
    assert got.per_user_alloc_prob.tobytes() == want.per_user_alloc_prob.tobytes()
    unc = unconstrained_trace_welfare(trace)
    avg, probs = slotwise_optimum_loop(trace.tables, n)
    assert unc.avg_welfare.hex() == avg.hex()
    assert unc.per_user_alloc_prob.tobytes() == probs.tobytes()
    return outcome
