import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sensecourt.scenarios as scenarios
from sensecourt.scenarios import (
    WEIGHT_MODES,
    ScenarioConfig,
    _hotspot_profile,
    initial_state,
    realization_stream,
    slot_rng,
)
from sensecourt.world import GridMap

from oracle_regions import realization_stream_loop, step_mobility


def config(**overrides):
    base = dict(
        map=GridMap(10, 10, 200.0),
        n_users=4,
        radius_min_m=400.0,
        radius_max_m=800.0,
        seed=123,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def stream_from(cfg, positions, t_slots=1, block_cells=None):
    """realization_stream(cfg, t_slots) as a list, the users starting at
    positions, in blocks of block_cells cells if given."""
    with mock.patch.object(scenarios, "initial_state", lambda _: np.array(positions, float)):
        if block_cells is None:
            return list(realization_stream(cfg, t_slots))
        with mock.patch.object(scenarios, "_BLOCK_CELLS", block_cells):
            return list(realization_stream(cfg, t_slots))


def weights_of(cfg, slot):
    """The weights of slot `slot` of cfg's stream."""
    return list(realization_stream(cfg, slot))[-1].weights.values


class TestConfig:
    def test_rejects_bad_radii(self):
        with pytest.raises(ValueError):
            config(radius_min_m=900.0)

    def test_rejects_zero_users(self):
        with pytest.raises(ValueError):
            config(n_users=0)

    def test_rejects_unknown_weight_mode(self):
        with pytest.raises(ValueError):
            config(weight_mode="spiky")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"step_max_m": math.nan},
            {"step_max_m": math.inf},
            {"radius_max_m": math.inf},
            {"radius_min_m": math.nan},
            {"cost_jitter": (0.5, math.inf)},
            {"cost_jitter": (math.nan, 1.0)},
            {"mean_weight": math.inf},
            {"mean_weight": 1e308},  # its uniform draws reach 2 * mean_weight
            {"cost_to_weight_ratio": math.nan},
            {"cost_to_weight_ratio": math.inf},
            {"cost_to_weight_ratio": 1e307},  # the largest cost overflows
            {"hotspot_sigma_fraction": -0.25},
            {"hotspot_sigma_fraction": math.inf},
            {"weight_mode": "hotspot", "hotspot_sigma_fraction": 0.0},
            {"weight_mode": "hotspot", "hotspot_sigma_fraction": math.nan},
            # the bump underflows to zero at every center of an even map
            {"weight_mode": "hotspot", "hotspot_sigma_fraction": 1e-6},
        ],
    )
    def test_rejects_non_finite_or_degenerate_values(self, overrides):
        with pytest.raises(ValueError):
            config(**overrides)

    def test_narrow_hotspot_on_a_center_grid_is_usable(self):
        cfg = config(
            map=GridMap(5, 5, 200.0),
            weight_mode="hotspot",
            hotspot_sigma_fraction=1e-6,
            temporal_noise=True,
        )
        for real in realization_stream(cfg, 3):
            assert np.all(np.isfinite(real.weights.values))


class TestWeights:
    def test_uniform_mean_near_target(self):
        cfg = config(map=GridMap(50, 50, 200.0), mean_weight=0.5)
        assert 0.48 <= weights_of(cfg, 1).mean() <= 0.52

    def test_hotspot_center_beats_corners(self):
        cfg = config(weight_mode="hotspot")
        grid = cfg.map
        w = weights_of(cfg, 1).reshape(grid.height_grids, grid.width_grids)
        center = w[grid.height_grids // 2, grid.width_grids // 2]
        corners = [w[0, 0], w[0, -1], w[-1, 0], w[-1, -1]]
        assert all(center > c for c in corners)

    def test_hotspot_spatial_mean_rescaled(self):
        cfg = config(weight_mode="hotspot", mean_weight=0.5)
        assert weights_of(cfg, 1).mean() == pytest.approx(0.5, rel=1e-9)

    def test_same_seed_and_slot_identical(self):
        cfg = config()
        assert np.array_equal(weights_of(cfg, 3), weights_of(cfg, 3))

    def test_long_run_mean_within_two_percent(self):
        for mode, noise in (("uniform_iid", False), ("hotspot", True)):
            cfg = config(map=GridMap(20, 20, 200.0), weight_mode=mode, temporal_noise=noise)
            total = sum(real.weights.values.mean() for real in realization_stream(cfg, 60))
            assert abs(total / 60 - cfg.mean_weight) <= 0.02 * cfg.mean_weight

    @pytest.mark.parametrize("noise", [False, True])
    def test_hotspot_stream_matches_a_profile_rebuilt_every_slot(self, noise):
        cfg = config(map=GridMap(13, 7, 150.0), weight_mode="hotspot", temporal_noise=noise)
        for t, real in enumerate(realization_stream(cfg, 12), start=1):
            profile = _hotspot_profile.__wrapped__(cfg)  # uncached, built afresh
            if noise:  # the weights are the slot generator's first draw
                profile = profile * slot_rng(cfg, t).uniform(0.5, 1.5, size=cfg.map.n_grids)
            assert real.weights.values.tobytes() == profile.tobytes()
        assert not _hotspot_profile(cfg).flags.writeable


class TestMobility:
    """The walk is the reference step_mobility's, which the stream matches
    bit for bit (TestStreamOracle); these tests pin that reference."""

    def test_initial_positions_lie_on_the_map(self):
        cfg = config(map=GridMap(7, 3, 150.0), n_users=50)
        pos = initial_state(cfg)
        assert pos.shape == (50, 2) and pos.dtype == float
        assert np.all((0.0 <= pos) & (pos <= [cfg.map.width_m, cfg.map.height_m]))

    def test_zero_step_keeps_regions_of_a_fixed_radius(self):
        cfg = config(step_max_m=0.0, radius_min_m=500.0, radius_max_m=500.0)
        slots = list(realization_stream(cfg, 40))
        for real in slots[1:]:
            for a, b in zip(real.regions, slots[0].regions):
                assert a.indices.tolist() == b.indices.tolist()

    def test_stream_users_stay_on_the_map(self):
        # a center lies within edge / sqrt(2) of every point on the map
        cfg = config(step_max_m=1500.0, radius_min_m=142.0, radius_max_m=142.0)
        for real in realization_stream(cfg, 2000):
            assert all(r.size > 0 for r in real.regions)

    def test_positions_stay_in_bounds(self):
        cfg = config(step_max_m=1500.0)
        pos = initial_state(cfg)
        rng = slot_rng(cfg, 1)
        for _ in range(2000):
            pos = step_mobility(pos, cfg, rng)
            assert np.all(pos[:, 0] >= 0)
            assert np.all(pos[:, 0] <= cfg.map.width_m)
            assert np.all(pos[:, 1] >= 0)
            assert np.all(pos[:, 1] <= cfg.map.height_m)

    def test_displacement_magnitude_bounded(self):
        # wide map so no reflection interferes with the measurement
        cfg = config(map=GridMap(100, 100, 200.0), step_max_m=700.0)
        pos = np.full((cfg.n_users, 2), 10_000.0)
        rng = slot_rng(cfg, 1)
        for _ in range(200):
            new = step_mobility(pos, cfg, rng)
            d = np.hypot(*(new - pos).T)
            assert np.all(d <= cfg.step_max_m + 1e-9)
            pos = new


class TestRealization:
    def test_disk_membership_matches_geometry(self):
        cfg = config()
        pos = initial_state(cfg)
        real = next(realization_stream(cfg, 1))
        centers = cfg.map.centers()
        # recover each user's radius from the covered set: every center in
        # the region must be within max radius, every center out of it
        # beyond min radius is impossible to check without the radius, so
        # check the disk property directly against a brute-force oracle
        rng = slot_rng(cfg, 1)
        _ = rng.random(cfg.map.n_grids)  # skip the weight draws
        radii = rng.uniform(cfg.radius_min_m, cfg.radius_max_m, size=cfg.n_users)
        for u in range(cfg.n_users):
            d = np.hypot(
                centers[:, 0] - pos[u, 0],
                centers[:, 1] - pos[u, 1],
            )
            expected = set(np.flatnonzero(d <= radii[u]).tolist())
            assert set(real.regions[u].indices.tolist()) == expected

    def test_center_disk_count_near_analytic(self):
        cfg = config(radius_min_m=400.0, radius_max_m=400.0)
        pos = np.array([[cfg.map.width_m / 2, cfg.map.height_m / 2]] * cfg.n_users)
        real = stream_from(cfg, pos)[0]
        count = real.regions[0].size
        r_over_e = 400.0 / 200.0
        assert np.pi * (r_over_e - 1) ** 2 <= count <= np.pi * (r_over_e + 1) ** 2

    def test_user_outside_reach_empty_region_zero_cost(self):
        cfg = config(radius_min_m=50.0, radius_max_m=50.0)
        pos = np.zeros((cfg.n_users, 2))  # corners are 70.7m from nearest center
        real = stream_from(cfg, pos)[0]
        assert real.regions[0].size == 0
        assert real.true_costs[0] == 0.0

    def test_zero_ratio_zero_costs(self):
        cfg = config(cost_to_weight_ratio=0.0)
        for real in realization_stream(cfg, 5):
            assert np.all(real.true_costs == 0.0)

    def test_cost_proportional_to_region_size(self):
        cfg = config(cost_jitter=(1.0, 1.0), cost_to_weight_ratio=0.3)
        for real in realization_stream(cfg, 5):
            for u in range(cfg.n_users):
                assert real.true_costs[u] == pytest.approx(
                    0.3 * cfg.mean_weight * real.regions[u].size, rel=1e-12
                )


def _nudge(x: float, ulps: int) -> float:
    """x moved |ulps| representable floats up (ulps > 0) or down."""
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, math.copysign(math.inf, ulps)))
    return x


@st.composite
def region_cases(draw):
    """A map, user positions and radii that stress the disk test's edges and
    the edges of the window of grids measured around each user, a step
    length, a stream length and a block budget in cells."""
    edge = draw(st.sampled_from([0.5, 1.0, 137.5, 200.0]))
    sides = st.one_of(st.just(1), st.integers(1, 12))  # 1-wide and 1-tall maps
    grid = GridMap(draw(sides), draw(sides), edge)
    n_users = draw(st.integers(1, 6))
    diag = math.hypot(grid.width_m, grid.height_m)
    radius = st.one_of(
        st.just(0.0),
        st.sampled_from([0.5 * edge, edge, 2.0 * edge, math.sqrt(2.0) * edge]),
        st.floats(0.0, diag),
        st.just(2.0 * diag),  # every grid of the map, from any corner
        st.floats(diag, 8.0 * diag),  # beyond the diagonal
    )
    r_lo, r_hi = sorted((draw(radius), draw(radius)))
    step = draw(st.one_of(st.just(0.0), st.just(edge), st.floats(0.0, 3.0 * diag)))
    if draw(st.booleans()):
        r_lo = r_hi  # every radius exactly r_hi, so p +- r is known exactly

    def coord(length, count):
        # a disk edge p - r or p + r on a grid line, or ulps either side
        on_line = st.tuples(
            st.integers(-2, count + 2),
            st.sampled_from([r_lo, r_hi]),
            st.sampled_from([-1.0, 1.0]),
            st.sampled_from([-2, -1, 0, 1, 2]),
        ).map(lambda a: _nudge(a[0] * edge + a[2] * a[1], a[3]))
        return draw(
            st.one_of(
                # the walls, grid centers (ties with the radius) or anywhere between
                st.sampled_from([0.0, length]),
                st.integers(0, count - 1).map(lambda k: (k + 0.5) * edge),
                st.floats(0.0, length),
                # off the map, which the stream accepts
                st.floats(-3.0 * length - 4.0 * edge, -1e-9),
                st.floats(length + 1e-9, 4.0 * length + 4.0 * edge),
                on_line,
            )
        )

    positions = [
        (coord(grid.width_m, grid.width_grids), coord(grid.height_m, grid.height_grids))
        for _ in range(n_users)
    ]
    jitter = sorted((draw(st.floats(0.0, 2.0)), draw(st.floats(0.0, 2.0))))
    cfg = ScenarioConfig(
        map=grid,
        n_users=n_users,
        radius_min_m=r_lo,
        radius_max_m=r_hi,
        weight_mode=draw(st.sampled_from(WEIGHT_MODES)),
        temporal_noise=draw(st.booleans()),
        cost_to_weight_ratio=draw(st.floats(0.0, 3.0)),
        cost_jitter=tuple(jitter),
        step_max_m=step,
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    # blocks of one slot, of a few slots, or the default: one partial block
    cells = draw(st.one_of(st.just(1), st.integers(1, 3000), st.none()))
    return cfg, np.array(positions), draw(st.integers(1, 7)), cells


def assert_same_slot(fast, ref):
    assert fast.weights.values.tobytes() == ref.weights.values.tobytes()
    assert fast.true_costs.tobytes() == ref.true_costs.tobytes()
    assert len(fast.regions) == len(ref.regions)
    for a, b in zip(fast.regions, ref.regions):
        assert a.indices.tolist() == b.indices.tolist()


class TestStreamOracle:
    """realization_stream, built a block at a time, against the reference
    that builds slot by slot and user by user."""

    @settings(max_examples=500, deadline=None)
    @given(region_cases())
    def test_matches_slot_by_slot_loop_bit_for_bit(self, case):
        cfg, positions, t_slots, cells = case
        fast = stream_from(cfg, positions, t_slots, cells)
        ref = list(realization_stream_loop(cfg, t_slots, positions))
        assert len(fast) == t_slots
        for a, b in zip(fast, ref):
            assert len(a.regions) == cfg.n_users
            assert_same_slot(a, b)

    @pytest.mark.parametrize("edge", [0.5, 137.5, 200.0])
    @pytest.mark.parametrize("shape", [(7, 5), (1, 6), (6, 1), (1, 1)])
    @pytest.mark.parametrize("radius_in_edges", [0.0, 0.5, 1.0, 2.0, 3.0, 50.0])
    def test_disk_edges_on_grid_lines(self, edge, shape, radius_in_edges):
        """Every user starts where p - r or p + r is a multiple of the edge,
        or one or two floats beside it, in both axes, on and off the map."""
        grid = GridMap(shape[0], shape[1], edge)
        r = radius_in_edges * edge

        def near_lines(count):
            return [
                _nudge(k * edge + sign * r, ulps)
                for k in range(-2, count + 3)
                for sign in (-1.0, 1.0)
                for ulps in (-2, -1, 0, 1, 2)
            ]

        xs, ys = near_lines(grid.width_grids), near_lines(grid.height_grids)
        # every x against a stride of the y values, and the transpose
        positions = np.array(
            [(x, y) for x in xs for y in ys[::7]] + [(x, y) for x in xs[::7] for y in ys]
        )
        cfg = config(map=grid, n_users=len(positions), radius_min_m=r, radius_max_m=r)
        fast = stream_from(cfg, positions, 2)
        ref = realization_stream_loop(cfg, 2, positions)
        for a, b in zip(fast, ref, strict=True):
            assert_same_slot(a, b)

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"weight_mode": "hotspot"}, {"weight_mode": "hotspot", "temporal_noise": True}],
    )
    @pytest.mark.parametrize("cells", [None, 30_000])
    def test_matches_on_desk_scale_stream(self, overrides, cells):
        # a desk slot tests 10,000 cells: one slot a block by default, and
        # with 30,000 three, so seven slots end in a partial block
        cfg = config(map=GridMap(50, 50, 200.0), n_users=100, seed=42, **overrides)
        fast = stream_from(cfg, initial_state(cfg), 7, cells)
        for a, b in zip(fast, realization_stream_loop(cfg, 7), strict=True):
            assert_same_slot(a, b)

    def test_slots_are_read_only_views_of_their_block(self):
        slots = list(realization_stream(config(), 5))
        for real in slots:
            assert not real.weights.values.flags.writeable
            assert not real.true_costs.flags.writeable
            assert all(not r.indices.flags.writeable for r in real.regions)
        assert slots[0].true_costs.base is slots[4].true_costs.base
        assert slots[0].weights.values.base is slots[4].weights.values.base

    def test_streaming_memory_does_not_grow_with_the_stream(self):
        # a block of desk slots and its buffers take about 1 MB; the trace
        # of 2,000 slots, if it were kept, about 160 MB
        cfg = config(map=GridMap(50, 50, 200.0), n_users=100, seed=42)
        list(realization_stream(cfg, 1))  # one-time set-up stays out of the peaks
        peaks = []
        for t_slots in (200, 2000):
            tracemalloc.start()
            try:
                for _ in realization_stream(cfg, t_slots):
                    pass
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * 1024 * 1024
        assert peaks[1] <= 1.25 * peaks[0]


class TestStream:
    def test_replays_are_bit_identical(self):
        cfg = config()
        a = list(realization_stream(cfg, 5))
        b = list(realization_stream(cfg, 5))
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.weights.values, rb.weights.values)
            assert np.array_equal(ra.true_costs, rb.true_costs)
            for u in range(cfg.n_users):
                assert np.array_equal(ra.regions[u].indices, rb.regions[u].indices)

    def test_different_seeds_differ(self):
        a = next(iter(realization_stream(config(seed=1), 1)))
        b = next(iter(realization_stream(config(seed=2), 1)))
        assert not np.array_equal(a.weights.values, b.weights.values)
