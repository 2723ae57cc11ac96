"""The certified dual sweep against the dense oracle, bit for bit.

Weights and costs are drawn from integers, halves, tenths (whose sums round
differently in different orders), zero, TIE_TOL itself and 2^25 (where
`best - TIE_TOL` rounds back to `best`), so exact ties, near-ties inside
TIE_TOL and ties exactly at the TIE_TOL edge all occur. Trace lengths
include 1, the sweep's block height and its neighbours, two and three
blocks, and 4097 rows, so the block edges and the 4096-row groups of the
ghat sum are crossed. Long traces run hundreds of iterations, so the late
sweeps keep most rows' picks and the certificate decides which rows are
scored again. The per-user counts the sweep keeps between sweeps are checked
against a count of every row's pick. The argmax and runner-up pick routine
is checked against the full rule on every row.
"""

import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sensecourt.benchmark as benchmark_mod
from sensecourt.benchmark import Trace, dual_upper_bound, unconstrained_trace_welfare
from sensecourt.cli import load_config
from sensecourt.policy_dual import StepSchedule, dual_step
from sensecourt.scenarios import realization_stream
from sensecourt.solver import (
    TIE_TOL,
    _BLOCK_CELLS,
    subset_linear_table,
    tiebreak_order,
    tiebreak_picks,
)

from oracle_dual import dual_upper_bound_dense, slotwise_optimum_loop, tiebreak_picks_dense
from test_world import make_realization

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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
def tie_traces(draw, n_max=10, long=False):
    """A trace of a few distinct tie-heavy slots repeated over T rows;
    `long` draws T from 100 to 400."""
    n = draw(st.integers(1, n_max))
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
    t = draw(st.integers(100, 400) if long else st.sampled_from(lengths) | st.integers(1, 40))
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
    return Trace(tuple(distinct[i] for i in pattern), np.array(thresholds))


def assert_same_bound(got, want):
    assert got.avg_welfare.hex() == want.avg_welfare.hex()
    assert got.per_user_alloc_prob.tobytes() == want.per_user_alloc_prob.tobytes()


@settings(max_examples=150, deadline=None)
@given(tie_traces(), st.integers(1, 30), st.sampled_from(SCHEDULES))
def test_matches_dense_oracle(trace, iterations, schedule):
    got = dual_upper_bound(trace, iterations, schedule)
    assert_same_bound(got, dual_upper_bound_dense(trace, iterations, schedule))

    unc = unconstrained_trace_welfare(trace)
    avg, probs = slotwise_optimum_loop(trace.tables, trace.n_users)
    assert unc.avg_welfare.hex() == avg.hex()
    assert unc.per_user_alloc_prob.tobytes() == probs.tobytes()


def test_extra_memory_is_one_block():
    # 2^10 x 1,024 cells: one 4096-row group, 16 blocks of 64 rows
    n, t = 10, 1024
    rng = np.random.default_rng(3)
    slot = make_realization(4, [{u % 4} for u in range(n)], rng.random(4), rng.random(n))
    trace = Trace((slot,) * t, np.full(n, 0.5))
    dual_upper_bound(trace, 1)  # warm caches
    tracemalloc.start()
    try:
        dual_upper_bound(trace, 3)
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
    tiebreak_order(n)  # warm the cached order
    tracemalloc.start()
    try:
        trace = Trace(slots, np.full(n, 0.5))
        unconstrained_trace_welfare(trace)
        dual_upper_bound(trace, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * trace.tables.nbytes


@settings(max_examples=30, deadline=None)
@given(tie_traces(n_max=8, long=True), st.integers(100, 300), st.sampled_from(SCHEDULES))
def test_long_traces_match_dense_oracle(trace, iterations, schedule):
    got = dual_upper_bound(trace, iterations, schedule)
    assert_same_bound(got, dual_upper_bound_dense(trace, iterations, schedule))


@settings(max_examples=20, deadline=None)
@given(tie_traces(n_max=8, long=True), st.integers(100, 200), st.sampled_from(SCHEDULES))
def test_kept_counts_equal_a_full_count_every_sweep(trace, iterations, schedule):
    # each sweep's frequencies reach the step as dbar; count every pick afresh
    n, t = trace.n_users, trace.t_slots
    by_rank = tiebreak_order(n)
    steps = []

    def full_count(lam, dbar, d, eps):
        _, picks, _ = tiebreak_picks(trace.tables, subset_linear_table(lam)[by_rank])
        counts = benchmark_mod._user_counts(by_rank[picks], n)
        steps.append(dbar.tobytes() == (counts / t).tobytes())
        return dual_step(lam, dbar, d, eps)

    with mock.patch.object(benchmark_mod, "dual_step", full_count):
        dual_upper_bound(trace, iterations, schedule)
    assert len(steps) == iterations and all(steps)


GRID_SCHEDULES = (
    StepSchedule.constant(0.01),
    StepSchedule.constant(0.1),
    StepSchedule.harmonic(0.5),
)


def certificate_case(regime: str, seed: int):
    """(trace, schedule, iterations) where a weak certificate shows.

    "grid": entries on a 1/64 grid, where columns often swap places by
    about twice the drift since a row was scored; "2^25": entries a few
    ulps (2^-27, about 7.5 TIE_TOL) above 2^25 and steps of 1e-9, so each
    fl(W + add) rounds across ulps as the multipliers creep; "near": columns
    TIE_TOL / 2 apart and steps of 1e-12, so near ties persist for many
    sweeps. No coverage slot gives such entries, so the made-up table takes
    the place of the trace's own; its slots only carry N, T and the
    thresholds.
    """
    rng = np.random.default_rng([seed, len(regime)])
    n, t = int(rng.integers(2, 6)), int(rng.integers(50, 300))
    if regime == "grid":
        tables = np.round(rng.random((t, 1 << n)) * 64) / 64
        schedule = GRID_SCHEDULES[int(rng.integers(0, 3))]
    elif regime == "2^25":
        tables = 2.0**25 + np.spacing(2.0**25) * rng.integers(0, 16, (t, 1 << n))
        schedule = StepSchedule.constant(1e-9)
    else:
        tables = rng.integers(0, 3, (t, 1 << n)) + 0.5 * TIE_TOL * rng.integers(0, 3, (t, 1 << n))
        schedule = StepSchedule.constant(1e-12)
    slot = make_realization(2, [{0}] * n, [1.0, 1.0], [0.5] * n)
    trace = Trace((slot,) * t, rng.uniform(0.0, 1.0, n))
    object.__setattr__(trace, "tables", tables)
    return trace, schedule, int(rng.integers(50, 200))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["grid", "2^25", "near"]), st.integers(0, 2**32 - 1))
@example("grid", 1)  # margin > D - D_row instead of 2 (D - D_row) keeps a stale pick
@example("2^25", 2)  # a margin without slack keeps a pick that rounding moved
@example("near", 0)  # a margin without TIE_TOL keeps a near tie's first maximum
def test_certificate_edges_match_dense_oracle(regime, seed):
    trace, schedule, iterations = certificate_case(regime, seed)
    got = dual_upper_bound(trace, iterations, schedule)
    assert_same_bound(got, dual_upper_bound_dense(trace, iterations, schedule))


def test_welfare_desk_rescores_few_rows(monkeypatch):
    # the benchmark workload's trace: 800 slots, 300 iterations, harmonic steps
    cfg = load_config(str(CONFIGS / "welfare_desk.json"))
    trace = Trace(tuple(realization_stream(cfg.scenario, 800)), cfg.thresholds)
    scored = []

    def counting(rows, add, which=None):
        scored.append(len(rows) if which is None else len(which))
        return tiebreak_picks(rows, add, which)

    monkeypatch.setattr(benchmark_mod, "tiebreak_picks", counting)
    got = dual_upper_bound(trace, cfg.benchmark.iterations, cfg.benchmark.step)
    assert len(scored) == 301 and scored[0] == 800
    assert sum(scored) < 0.15 * 800 * 301
    want = dual_upper_bound_dense(trace, cfg.benchmark.iterations, cfg.benchmark.step)
    assert_same_bound(got, want)


PICK_VALUES = (
    0.0,
    -0.0,
    TIE_TOL,
    -TIE_TOL,
    0.5 * TIE_TOL,
    2.0 * TIE_TOL,
    1.0,
    1.0 - TIE_TOL,
    np.nextafter(1.0 - TIE_TOL, 0.0),
    np.nextafter(1.0 - TIE_TOL, 2.0),
    2.0**25,
    np.nextafter(2.0**25, 0.0),
    np.nextafter(2.0**25, np.inf),
    2.0**25 - TIE_TOL,
)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 10),
    st.integers(1, 150),
    st.lists(st.sampled_from(PICK_VALUES), min_size=1, max_size=4, unique_by=float.hex),
    st.sampled_from(["zero", "negative zero", "row"]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_picks_match_the_full_rule(log_width, height, palette, add_kind, take, seed):
    # a palette of a few edge values makes exact ties and TIE_TOL edges common
    rng = np.random.default_rng(seed)
    size = 1 << log_width
    rows = rng.choice(np.array(palette), (height, size))
    add = {"zero": 0.0, "negative zero": -0.0}.get(add_kind)
    if add is None:
        add = rng.choice(np.array(palette), size)
    which = rng.integers(0, height, rng.integers(0, 2 * height + 1)) if take else None

    best, picks, runner = tiebreak_picks(rows, add, which)
    scored = rows if which is None else rows[which]
    want_best, want_picks = tiebreak_picks_dense(scored, add)
    assert best.tobytes() == want_best.tobytes()
    assert picks.tolist() == want_picks.tolist()
    obj = scored + add
    for row, top, second in zip(obj, obj.argmax(axis=1), runner):
        others = np.delete(row, top)
        assert second == (others.max() if others.size else -np.inf)


@pytest.mark.parametrize(
    "row, pick",
    [
        ([-0.0, 0.0], 0),
        ([0.0, -0.0], 0),
        ([-TIE_TOL, 0.0], 0),
        ([np.nextafter(-TIE_TOL, -1.0), 0.0], 1),
        ([np.nextafter(2.0**25, 0.0), 2.0**25], 1),
        ([2.0**25 - TIE_TOL, 2.0**25], 0),  # 2^25 - TIE_TOL rounds to 2^25
    ],
)
def test_picks_at_the_edges(row, pick):
    rows = np.array([row])
    best, picks, _ = tiebreak_picks(rows, 0.0)
    want_best, want_picks = tiebreak_picks_dense(rows, 0.0)
    assert picks.tolist() == want_picks.tolist() == [pick]
    assert best.tobytes() == want_best.tobytes()
