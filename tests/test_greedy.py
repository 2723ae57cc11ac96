"""The greedy route and the random-order baseline against the loops in
tests/oracle_greedy.py, bit for bit, plus the metamorphic relations that hold
exactly on the greedy route and the sharing of each slot's region values.

Slots come from test_subset_table's colliding regions (empty, identical,
nested and disjoint; float, integer or zero weights), built by the
constructor or rebuilt as one block by split_block. Charges mix levels that
tie with free floats, and may be negative, so the negative-charge takes and
the sums recomputed after them run, as do equal gains.
"""

from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensecourt.baselines import random_baseline_step
from sensecourt.engine import PolicySpec, run_policy
from sensecourt.scenarios import ScenarioConfig, realization_stream
from sensecourt.solver import RegulatedInstance, SolveOptions, allocate_many
from sensecourt.world import GridMap, SlotRealization, WeightField

from oracle_greedy import random_baseline_loop, solve_greedy_loop
from test_subset_table import draw_slot
from test_world import as_block, make_realization

GREEDY = SolveOptions("greedy")
LEVELS = [-1.0, -0.5, 0.0, 0.5, 1.0, 2.0]


@st.composite
def greedy_cases(draw):
    """(slots, charges (L, n), eligible): one to three slots of one shape,
    from the constructor or rebuilt as a block, and up to four charge rows."""
    n_grids, n_users = draw(st.integers(1, 24)), draw(st.integers(0, 10))
    slots = [draw_slot(draw, n_grids, n_users) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        slots = list(as_block(slots))
    charge = st.one_of(
        st.sampled_from(LEVELS), st.floats(-3, 6, allow_nan=False, allow_infinity=False)
    )
    rows = draw(st.integers(1, 4))
    charges = np.array(draw(st.lists(charge, min_size=rows * n_users, max_size=rows * n_users)))
    eligible = np.array(draw(st.lists(st.booleans(), min_size=n_users, max_size=n_users)), bool)
    return slots, charges.reshape(rows, n_users), eligible


@st.composite
def negative_charge_cases(draw):
    """greedy_cases with at least one eligible user per row charged below
    zero, so every row takes at negative charge before its heap runs."""
    slots, charges, eligible = draw(greedy_cases().filter(lambda case: case[2].any()))
    users = np.flatnonzero(eligible)
    negative = st.one_of(
        st.sampled_from([c for c in LEVELS if c < 0]),
        st.floats(-3, 0, exclude_max=True, allow_nan=False),
    )
    for row in charges:
        for u in draw(st.lists(st.sampled_from(users.tolist()), min_size=1, unique=True)):
            row[u] = draw(negative)
    return slots, charges, eligible


def assert_rows_match_oracle(real, charges, eligible):
    results, objective = allocate_many(real, charges, eligible, GREEDY)
    assert objective is None and len(results) == len(charges)
    for row, got in zip(charges, results):
        want = solve_greedy_loop(RegulatedInstance(real, row, eligible))
        assert got.selected.tobytes() == want.selected.tobytes()
        assert got.objective.hex() == want.objective.hex()
        assert got.exact is False
    return results


def fixed_case(name):
    """Hand-made slots for the paths the loop must take."""
    if name == "negative_overlaps_later":
        # users 0 and 2 take at negative charge and share grid 2; users 1 and 3
        # overlap them, so every sum after the first take differs from the
        # user's region value
        regions = [{0, 1, 2}, {1, 4}, {2, 3}, {3, 4, 5}]
        charges = [[-1.0, 0.5, -0.5, 0.25]]
        weights = [1.0, 2.0, 3.0, 0.5, 1.5, 0.25]
    elif name == "equal_gains":
        # three users with one gain, then a copy of the first: lowest index wins
        regions = [{0, 1}, {2, 3}, {4, 5}, {0, 1}]
        charges = [[0.5, 0.5, 0.5, 0.5], [0.0, 0.0, 0.0, 0.0]]
        weights = [1.0] * 6
    else:  # empty regions and zero-weight grids
        regions = [set(), {0, 1}, {2}, set(), {1, 2, 3}]
        charges = [[0.0, 0.0, -0.5, -1.0, 0.0], [1.0, 0.0, 0.0, 0.0, 0.5]]
        weights = [0.0, 0.0, 1.0, 0.0]
    real = make_realization(len(weights), regions, weights)
    return real, np.array(charges)


class TestGreedyRouteMatchesOracle:
    @settings(max_examples=400, deadline=None)
    @given(greedy_cases())
    def test_each_row_equals_the_loop(self, case):
        slots, charges, eligible = case
        for real in slots:
            assert_rows_match_oracle(real, charges, eligible)

    @settings(max_examples=300, deadline=None)
    @given(negative_charge_cases())
    def test_rows_with_negative_charges_equal_the_loop(self, case):
        # later heap keys are region values, above the marginals the loop
        # sums after the negative takes: picks and objective bits still agree
        slots, charges, eligible = case
        assert (charges[:, eligible] < 0).any(axis=1).all()
        for real in slots:
            assert_rows_match_oracle(real, charges, eligible)

    @pytest.mark.parametrize("block", [False, True])
    @pytest.mark.parametrize("name", ["negative_overlaps_later", "equal_gains", "empty_and_zero"])
    def test_fixed_cases(self, name, block):
        real, charges = fixed_case(name)
        if block:
            (real,) = as_block([real])
        n = real.n_users
        everyone = np.ones(n, dtype=bool)
        partial = np.arange(n) % 2 == 1
        for eligible in (everyone, partial, ~partial):
            assert_rows_match_oracle(real, charges, eligible)

    def test_sums_after_a_negative_take_see_the_taken_grids(self):
        real, charges = fixed_case("negative_overlaps_later")
        (got,) = assert_rows_match_oracle(real, charges, np.ones(4, dtype=bool))
        # user 0: 6 + 1; user 2: grid 3 only, 0.5 + 0.5; user 3: grids 4 and
        # 5, 1.75 - 0.25; user 1: nothing left, 0 - 0.5, not taken
        assert got.selected.tolist() == [True, False, True, True]
        assert got.objective == 7.0 + 1.0 + 1.5

    def test_equal_gains_go_to_the_lowest_index(self):
        real, charges = fixed_case("equal_gains")
        results = assert_rows_match_oracle(real, charges, np.ones(4, dtype=bool))
        assert [r.selected.tolist() for r in results] == [[True, True, True, False]] * 2


class TestGreedyMetamorphic:
    """Relations the greedy route keeps bit for bit: doubling is exact in
    floating point, and a user with nothing to cover at no charge never leads."""

    @settings(max_examples=100, deadline=None)
    @given(greedy_cases())
    def test_doubling_weights_and_charges_doubles_the_objective(self, case):
        slots, charges, eligible = case
        for real in slots:
            double = SlotRealization(
                WeightField(2.0 * real.weights.values), real.regions, 2.0 * real.true_costs
            )
            once, _ = allocate_many(real, charges, eligible, GREEDY)
            twice, _ = allocate_many(double, 2.0 * charges, eligible, GREEDY)
            for a, b in zip(once, twice):
                assert a.selected.tobytes() == b.selected.tobytes()
                assert b.objective.hex() == (2.0 * a.objective).hex()

    @settings(max_examples=100, deadline=None)
    @given(greedy_cases(), st.booleans())
    def test_an_idle_user_changes_nothing(self, case, idle_eligible):
        slots, charges, eligible = case
        for real in slots:
            grown = SlotRealization(
                real.weights, real.regions + ([],), np.append(real.true_costs, 0.0)
            )
            base, _ = allocate_many(real, charges, eligible, GREEDY)
            more, _ = allocate_many(
                grown,
                np.hstack([charges, np.zeros((len(charges), 1))]),
                np.append(eligible, idle_eligible),
                GREEDY,
            )
            for a, b in zip(base, more):
                assert b.selected.tolist() == a.selected.tolist() + [False]
                assert b.objective.hex() == a.objective.hex()


class TestRandomBaselineMatchesOracle:
    @settings(max_examples=100, deadline=None)
    @given(greedy_cases(), st.integers(0, 2**32 - 1), st.booleans())
    def test_same_selection_and_same_draw(self, case, seed, everyone):
        slots, _, eligible = case
        for real in slots:
            mask = None if everyone else eligible
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = random_baseline_step(real, mask, got_rng)
            want = random_baseline_loop(real, mask, want_rng)
            assert got.tobytes() == want.tobytes()
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestRegionValuesShared:
    def test_one_build_per_slot_for_every_greedy_lane(self, monkeypatch):
        """The greedy baseline, the drift-plus-penalty rule and RADP-VPC on the
        greedy route, with users dropping so eligible sets split: each slot
        after the warmup builds its region values once."""
        built = []
        region_values = SlotRealization.__dict__["region_values"].func

        def counted(slot):
            built.append(slot)
            return region_values(slot)

        prop = cached_property(counted)
        prop.__set_name__(SlotRealization, "region_values")
        monkeypatch.setattr(SlotRealization, "region_values", prop)

        scenario = ScenarioConfig(
            map=GridMap(8, 8, 100.0), n_users=12, radius_min_m=100.0,
            radius_max_m=300.0, cost_to_weight_ratio=1.0, seed=3,
        )
        slots = list(realization_stream(scenario, 30))
        specs = [
            PolicySpec("greedy"), PolicySpec("lyapunov", phi=10),
            PolicySpec("radp_vpc", alpha=0.5), PolicySpec("random"),
        ]
        metrics = run_policy(slots, specs, np.full(12, 0.6), 5, solver=GREEDY, seed=3)
        # the three solved lanes end on different eligible sets
        assert len({m.active[-1].tobytes() for m in metrics[:3]}) > 1
        assert [id(s) for s in built] == [id(s) for s in slots[5:]]
        for slot in slots[5:]:
            assert slot.region_values is slot.__dict__["region_values"]
