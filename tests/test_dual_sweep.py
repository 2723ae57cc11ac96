"""The rank-ordered dual sweep against the dense oracle, bit for bit.

Weights and costs are drawn from integers, halves, tenths (whose sums round
differently in different orders), zero, TIE_TOL itself and 2^25 (where
`best - TIE_TOL` rounds back to `best`), so exact ties, near-ties inside
TIE_TOL and ties exactly at the TIE_TOL edge all occur. Trace lengths
include 1, the sweep's block height and its neighbours, two and three
blocks, and 4097 rows, so the block edges and the 4096-row groups of the
ghat sum are crossed.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sensecourt.benchmark import (
    Trace,
    dual_upper_bound,
    unconstrained_trace_welfare,
    welfare_tables,
)
from sensecourt.policy_dual import StepSchedule
from sensecourt.solver import TIE_TOL, _BLOCK_CELLS, tiebreak_order

from oracle_dual import dual_upper_bound_dense, slotwise_optimum_loop
from test_world import make_realization

WEIGHTS = (0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 1.5, 2.0, 3.0, TIE_TOL, 2.0**25)
COSTS = (0.0, 0.1, 0.2, 0.5, 1.0, 1.5, 2.0, 2.0**25)
SCHEDULES = (
    None,
    StepSchedule.harmonic(1.0),
    StepSchedule.harmonic(0.5),
    StepSchedule.constant(0.25),
    StepSchedule.constant(0.1),
)


@st.composite
def tie_traces(draw):
    """(trace, tables): a few distinct tie-heavy slots repeated over T rows."""
    n = draw(st.integers(1, 10))
    n_grids = draw(st.integers(1, 6))
    distinct = []
    for _ in range(draw(st.integers(1, 3))):
        regions = [
            draw(st.sets(st.integers(0, n_grids - 1), max_size=n_grids)) for _ in range(n)
        ]
        weights = draw(st.lists(st.sampled_from(WEIGHTS), min_size=n_grids, max_size=n_grids))
        costs = draw(st.lists(st.sampled_from(COSTS), min_size=n, max_size=n))
        distinct.append(make_realization(n_grids, regions, weights, costs))
    rows = max(1, _BLOCK_CELLS >> n)  # the sweep's block height
    lengths = [1, rows - 1, rows, rows + 1]
    if n <= 3:
        lengths.append(4097)
    if rows < 4096:  # several blocks per 4096-row group
        lengths += [2 * rows + 1, 3 * rows - 1]
    t = draw(st.sampled_from(lengths) | st.integers(1, 40))
    pattern = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(
        0, len(distinct), t
    )
    thresholds = draw(
        st.lists(
            st.sampled_from([0.0, 1.0, 0.5, 0.25])
            | st.floats(0.0, 1.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    trace = Trace(tuple(distinct[i] for i in pattern), np.array(thresholds))
    tables = welfare_tables(Trace(tuple(distinct), trace.thresholds))[pattern]
    return trace, tables


@settings(max_examples=150, deadline=None)
@given(tie_traces(), st.integers(1, 30), st.sampled_from(SCHEDULES))
def test_matches_dense_oracle(case, iterations, schedule):
    trace, tables = case
    got = dual_upper_bound(trace, iterations, schedule, tables)
    want = dual_upper_bound_dense(trace, iterations, schedule, tables)
    assert got.avg_welfare.hex() == want.avg_welfare.hex()
    assert got.per_user_alloc_prob.tobytes() == want.per_user_alloc_prob.tobytes()
    assert (got.feasible, got.kind) == (want.feasible, want.kind)

    unc = unconstrained_trace_welfare(trace, tables=tables)
    avg, probs = slotwise_optimum_loop(tables, trace.n_users)
    assert unc.avg_welfare.hex() == avg.hex()
    assert unc.per_user_alloc_prob.tobytes() == probs.tobytes()


def test_extra_memory_is_one_block():
    # 2^10 x 1,024 cells: one 4096-row group, 16 blocks of 64 rows
    n, t = 10, 1024
    rng = np.random.default_rng(3)
    slot = make_realization(4, [{u % 4} for u in range(n)], rng.random(4), rng.random(n))
    trace = Trace((slot,) * t, np.full(n, 0.5))
    tables = rng.random((t, 1 << n))
    dual_upper_bound(trace, 1, tables=tables)  # warm caches
    tracemalloc.start()
    try:
        dual_upper_bound(trace, 3, tables=tables)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = _BLOCK_CELLS * (8 + 1)  # float and boolean buffers
    assert peak < block + (1 << 18)


def test_build_and_references_peak_near_one_table():
    # 2^16 x 64 cells: a 33.6 MB table, one row per block
    n, t = 16, 64
    rng = np.random.default_rng(5)
    slots = tuple(
        make_realization(
            8,
            [set(rng.choice(8, 3, replace=False).tolist()) for _ in range(n)],
            rng.random(8),
            rng.random(n),
        )
        for _ in range(t)
    )
    trace = Trace(slots, np.full(n, 0.5))
    tiebreak_order(n)  # warm the cached order
    tracemalloc.start()
    try:
        tables = welfare_tables(trace)
        unconstrained_trace_welfare(trace, tables)
        dual_upper_bound(trace, 3, tables=tables)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * tables.nbytes
