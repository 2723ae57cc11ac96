from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensecourt.world import (
    Allocation,
    GridMap,
    SlotRealization,
    WeightField,
    evaluate_allocation,
)


def make_realization(n_grids, regions, weights=None, costs=None):
    w = np.ones(n_grids) if weights is None else np.asarray(weights, dtype=float)
    c = np.zeros(len(regions)) if costs is None else np.asarray(costs, dtype=float)
    return SlotRealization(WeightField(w), [sorted(r) for r in regions], c)


def as_block(slots):
    """The slots (one user and grid count) rebuilt as one block, the way
    realization_stream builds them, by split_block."""
    n_grids = slots[0].n_grids
    regions = [r for s in slots for r in s.regions]
    return SlotRealization.split_block(
        np.array([s.weights.values for s in slots]).reshape(len(slots), n_grids),
        np.concatenate([np.zeros(0, np.int64)] + regions),
        [r.size for r in regions],
        np.array([s.true_costs for s in slots]).reshape(len(slots), -1),
    )


def hand_built(*regions, n_grids=8):
    """A slot of len(regions) users on n_grids unit-weight grids, built by the
    constructor."""
    return SlotRealization(WeightField(np.ones(n_grids)), regions, np.zeros(len(regions)))


def one_block(grids, counts, n_grids=8):
    """One slot of len(counts) users on n_grids unit-weight grids, cut by
    split_block from grids."""
    (slot,) = SlotRealization.split_block(
        np.ones((1, n_grids)), grids, counts, np.zeros((1, len(counts)))
    )
    return slot


@st.composite
def small_instances(draw):
    n_grids = draw(st.integers(2, 16))
    n_users = draw(st.integers(1, 5))
    regions = [
        draw(st.sets(st.integers(0, n_grids - 1), max_size=n_grids))
        for _ in range(n_users)
    ]
    weights = draw(
        st.lists(
            st.floats(0, 10, allow_nan=False, allow_infinity=False),
            min_size=n_grids,
            max_size=n_grids,
        )
    )
    costs = draw(
        st.lists(
            st.floats(0, 10, allow_nan=False, allow_infinity=False),
            min_size=n_users,
            max_size=n_users,
        )
    )
    return make_realization(n_grids, regions, weights, costs)


class TestGridMap:
    def test_counts_and_centers(self):
        grid = GridMap(3, 2, 100.0)
        assert grid.n_grids == 6
        centers = grid.centers()
        assert centers.shape == (6, 2)
        # row-major: grid 0 bottom-left corner cell, grid 1 to its right
        assert centers[0].tolist() == [50.0, 50.0]
        assert centers[1].tolist() == [150.0, 50.0]
        assert centers[3].tolist() == [50.0, 150.0]

    @pytest.mark.parametrize(
        "w,h,e",
        [
            (0, 2, 1.0),
            (2, -1, 1.0),
            (2, 2, 0.0),
            (2, 2, -1.0),
            (2, 2, np.nan),
            (2, 2, np.inf),
            (2, 3, 1e308),  # finite edge, infinite map
        ],
    )
    def test_rejects_bad_dimensions(self, w, h, e):
        with pytest.raises(ValueError):
            GridMap(w, h, e)


class TestTypes:
    def test_weight_field_rejects_negative_and_nonfinite(self):
        with pytest.raises(ValueError):
            WeightField([1.0, -0.5])
        with pytest.raises(ValueError):
            WeightField([np.inf, 1.0])

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: hand_built([4], n_grids=4), "out of range"),
            (lambda: hand_built([1, 3, 8]), "out of range"),
            (lambda: hand_built([9, 1]), "out of range"),  # unsorted and past the end
            (lambda: hand_built([-1, 3]), "out of range"),
            (lambda: hand_built([0], [1.7, 2.2]), "finite integers"),
            (lambda: hand_built([2.0, 0.5]), "finite integers"),
            (lambda: hand_built([np.nan]), "finite integers"),
            (lambda: hand_built([1.0, np.inf]), "finite integers"),
            (lambda: one_block([1, 8], [2]), "out of range"),
            (lambda: one_block([-1, 3], [2]), "out of range"),
            (lambda: one_block([1.0, 2.5], [2]), "integers"),
            (lambda: one_block([np.nan], [1]), "integers"),
            (lambda: one_block([3, 1], [2]), "strictly increasing"),
            (lambda: one_block([1, 4, 4], [1, 2]), "strictly increasing"),  # duplicate
            (lambda: one_block([2, 5, 1, 0], [2, 2]), "strictly increasing"),  # second region
            (lambda: one_block([1, 2], [1]), "sum to the number"),  # counts too short
            (lambda: one_block([1, 2], [3, -1]), "non-negative"),
            (  # three counts for two users
                lambda: SlotRealization.split_block(
                    np.ones((1, 8)), [1, 2], [1, 1, 0], np.zeros((1, 2))
                ),
                "n region counts",
            ),
            (  # one weight row for two cost rows
                lambda: SlotRealization.split_block(np.ones((1, 8)), [], [0, 0], np.zeros((2, 1))),
                "one weight row",
            ),
        ],
    )
    def test_bad_region_refused(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()

    def test_hand_built_regions_normalised_into_private_copies(self):
        given = np.array([1, 3, 7], dtype=np.int64)
        slot = hand_built(given, [5, 1, 3], [1, 3, 3], np.array([[4, 0]]), [3.0, 1.0], [])
        given[0] = 5
        assert [r.tolist() for r in slot.regions] == [
            [1, 3, 7], [1, 3, 5], [1, 3], [0, 4], [1, 3], []
        ]
        assert given.flags.writeable
        for r in slot.regions:
            assert r.dtype == np.int64 and not r.flags.writeable

    def test_block_regions_are_read_only_disjoint_slices(self):
        grids = np.array([3, 7, 1, 2, 5, 0], dtype=np.int64)
        slots = SlotRealization.split_block(
            np.ones((2, 8)), grids, [[0, 2, 3], [0, 1, 0]], np.zeros((2, 3))
        )
        regions = [r for s in slots for r in s.regions]
        assert [r.tolist() for r in regions] == [[], [3, 7], [1, 2, 5], [], [0], []]
        grids[0] = 6  # the slots hold a private copy
        assert regions[1].tolist() == [3, 7]
        for k, a in enumerate(regions):
            assert a.dtype == np.int64 and not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0
            for b in regions[k + 1 :]:
                assert not np.shares_memory(a, b)

    def test_empty_block_input(self):
        assert [r.size for r in one_block(np.empty(0, dtype=np.int64), [0, 0]).regions] == [0, 0]
        assert [r.size for r in one_block([], [0]).regions] == [0]
        assert SlotRealization.split_block(np.ones((0, 4)), [], [], np.zeros((0, 3))) == ()

    def test_realization_validates(self):
        with pytest.raises(ValueError):
            make_realization(4, [{0}], costs=[1.0, 2.0])
        with pytest.raises(ValueError):
            make_realization(4, [{0}], costs=[-1.0])

    def test_allocation_helpers(self):
        alloc = Allocation.of(4, [1, 3])
        assert alloc.indices().tolist() == [1, 3]
        assert Allocation.none(3).indices().size == 0


class TestCoverage:
    """With unit weights, the value of an allocation counts its covered grids."""

    def test_no_user_selected_empty(self):
        real = make_realization(5, [{0, 1}, {2}])
        assert evaluate_allocation(real, Allocation.none(2)).value == 0.0

    def test_union(self):
        real = make_realization(5, [{1, 2}, {2, 3}])
        assert evaluate_allocation(real, Allocation.of(2, [0, 1])).value == 3.0

    def test_overlap_vector_from_worked_example(self):
        # 20-grid and 9-grid regions sharing 3 grids cover 26 grids together
        a = set(range(20))
        b = set(range(17, 26))
        assert len(a & b) == 3
        real = make_realization(30, [a, b])
        assert evaluate_allocation(real, Allocation.of(2, [0, 1])).value == 26.0

    def test_dimension_mismatch(self):
        real = make_realization(5, [{0}])
        with pytest.raises(ValueError):
            evaluate_allocation(real, Allocation.none(2))


class TestEvaluateAllocation:
    def test_empty_allocation(self):
        real = make_realization(5, [{0, 1}], costs=[3.0])
        wb = evaluate_allocation(real, Allocation.none(1))
        assert (wb.value, wb.cost, wb.welfare) == (0.0, 0.0, 0.0)

    def test_overlap_instance_welfare(self):
        a = set(range(20))
        b = set(range(17, 26))
        real = make_realization(30, [a, b], costs=[4.0, 4.0])
        wb = evaluate_allocation(real, Allocation.of(2, [0, 1]))
        assert wb.value == 26.0
        assert wb.cost == 8.0
        assert wb.welfare == 18.0

    def test_matches_definition_recomputation(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n_grids = int(rng.integers(3, 20))
            n_users = 5
            regions = [
                set(rng.choice(n_grids, size=rng.integers(0, n_grids), replace=False).tolist())
                for _ in range(n_users)
            ]
            weights = rng.random(n_grids) * 4
            costs = rng.random(n_users) * 3
            real = make_realization(n_grids, regions, weights, costs)
            sel = rng.random(n_users) < 0.5
            wb = evaluate_allocation(real, Allocation(sel))
            # independent recomputation straight from the definitions
            covered = set()
            for u in range(n_users):
                if sel[u]:
                    covered |= regions[u]
            value = sum(weights[g] for g in covered)
            cost = sum(costs[u] for u in range(n_users) if sel[u])
            assert wb.value == pytest.approx(value, abs=1e-12)
            assert wb.cost == pytest.approx(cost, abs=1e-12)
            assert wb.welfare == pytest.approx(value - cost, abs=1e-12)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(small_instances(), st.data())
    def test_monotone_value(self, real, data):
        n = real.n_users
        sel = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        extra = data.draw(st.integers(0, n - 1))
        base = evaluate_allocation(real, Allocation(sel)).value
        grown = sel.copy()
        grown[extra] = True
        assert evaluate_allocation(real, Allocation(grown)).value >= base - 1e-12

    @settings(max_examples=60, deadline=None)
    @given(small_instances(), st.data())
    def test_submodular_marginals(self, real, data):
        n = real.n_users
        small = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        big = small.copy()
        for u in range(n):
            if data.draw(st.booleans()):
                big[u] = True
        user = data.draw(st.integers(0, n - 1))
        small[user] = False
        big[user] = False

        def marginal(sel):
            with_u = sel.copy()
            with_u[user] = True
            return (
                evaluate_allocation(real, Allocation(with_u)).value
                - evaluate_allocation(real, Allocation(sel)).value
            )

        assert marginal(small) >= marginal(big) - 1e-9

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_disjoint_regions_add_up(self, data):
        n_grids = data.draw(st.integers(4, 16))
        n_users = data.draw(st.integers(1, 4))
        pool = list(range(n_grids))
        regions = []
        for _ in range(n_users):
            take = data.draw(st.integers(0, max(0, len(pool) - 1)))
            regions.append(set(pool[:take]))
            pool = pool[take:]
        weights = data.draw(
            st.lists(st.floats(0, 5, allow_nan=False), min_size=n_grids, max_size=n_grids)
        )
        real = make_realization(n_grids, regions, weights)
        alloc = Allocation(np.ones(n_users, dtype=bool))
        total = evaluate_allocation(real, alloc).value
        assert total == pytest.approx(
            sum(
                evaluate_allocation(real, Allocation.of(n_users, [u])).value
                for u in range(n_users)
            ),
            rel=1e-12,
            abs=1e-12,
        )

    @settings(max_examples=60, deadline=None)
    @given(small_instances(), st.data())
    def test_cost_is_linear(self, real, data):
        n = real.n_users
        sel = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        user = data.draw(st.integers(0, n - 1))
        sel[user] = False
        base = evaluate_allocation(real, Allocation(sel)).cost
        grown = sel.copy()
        grown[user] = True
        assert evaluate_allocation(real, Allocation(grown)).cost == pytest.approx(
            base + real.true_costs[user], rel=1e-12, abs=1e-12
        )


class TestRegionValues:
    @settings(max_examples=100, deadline=None)
    @given(small_instances(), st.booleans())
    def test_each_value_has_the_bits_of_its_region_sum(self, real, block):
        if block:
            (real,) = as_block([real])
        w = real.weights.values
        assert [v.hex() for v in real.region_values] == [
            float(w[r].sum()).hex() for r in real.regions
        ]

    def test_immutable_and_built_once(self):
        real = make_realization(4, [{0, 1}, set(), {1, 2, 3}], weights=[1.0, 2.0, 0.0, 0.5])
        values = real.region_values
        assert values == (3.0, 0.0, 2.5) and isinstance(values, tuple)
        with pytest.raises(TypeError):
            values[0] = 1.0
        with pytest.raises(FrozenInstanceError):
            real.region_values = (0.0, 0.0, 0.0)
        assert real.region_values is values
        assert real.__dict__["region_values"] is values
