"""sensecourt.streams against numpy.random.default_rng, draw for draw.

The oracle is numpy's own Generator, keyed as the stream is; every draw
must be equal bit for bit, whatever the order of 32- and 64-bit draws.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensecourt.cli import _TRUTHCHECK_STREAM
from sensecourt.scenarios import RANDOM_POLICY_STREAM, ScenarioConfig, initial_state
from sensecourt.streams import Stream, block_doubles, seed_blocks
from sensecourt.world import GridMap

from oracle_regions import initial_positions, realization_stream_loop
from test_scenarios import assert_same_slot, stream_from

SEEDS = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64),  # two or three entropy words
    st.sampled_from([0, 2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1, 2**64]),
)
KEYS = st.one_of(
    st.tuples(SEEDS, st.integers(0, 2**33)),
    st.tuples(SEEDS, st.just(_TRUTHCHECK_STREAM), st.integers(1, 600)),
    st.tuples(SEEDS, st.just(RANDOM_POLICY_STREAM)),
    st.lists(st.integers(0, 2**40), min_size=1, max_size=7).map(tuple),  # past the pool
)
DRAWS = st.one_of(
    st.tuples(st.just("random"), st.integers(0, 40)),
    st.tuples(st.just("uniform"), st.integers(0, 40)),
    st.tuples(st.just("permutation"), st.integers(0, 120)),
    st.tuples(st.just("choice"), st.integers(1, 40)),
)


def draw(gen, kind: str, size: int):
    if kind == "random":
        return gen.random(size)
    if kind == "uniform":
        return gen.uniform(0.25, 7.5, size)
    values = np.arange(size, dtype=np.int64) * 3 + 1
    return gen.permutation(values) if kind == "permutation" else gen.choice(values)


@settings(max_examples=300, deadline=None)
@given(KEYS, st.lists(DRAWS, max_size=25))
def test_stream_draws_equal_default_rng(key, draws):
    ours, theirs = Stream.of(*key), np.random.default_rng(list(key))
    for kind, size in draws:
        got, want = np.asarray(draw(ours, kind, size)), np.asarray(draw(theirs, kind, size))
        assert (got.dtype, got.shape) == (want.dtype, want.shape), (kind, size)
        assert got.tobytes() == want.tobytes(), (kind, size)


def test_draws_past_a_stream_buffer_stay_equal():
    ours, theirs = Stream.of(7, 8), np.random.default_rng([7, 8])
    for size in (1000, 3, 2500, 121, 1):
        values = np.arange(size)
        assert ours.permutation(values).tobytes() == theirs.permutation(values).tobytes()
        assert ours.random(size).tobytes() == theirs.random(size).tobytes()


def test_choice_of_an_empty_array_raises():
    with pytest.raises(ValueError):
        Stream.of(1, 2).choice(np.array([], dtype=np.int64))


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.integers(0, 2**40), st.integers(1, 40), st.integers(1, 9), st.integers(0, 70))
def test_seed_blocks_give_each_stream_its_words(seed, first, count, block, words):
    rows = list(seed_blocks((seed,), first, count, block))
    assert [len(r) for r in rows[:-1]] == [block] * (len(rows) - 1)
    doubles = block_doubles(np.concatenate(rows), words)
    for k in range(count):
        want = np.random.default_rng([seed, first + k]).random(words)
        assert doubles[k].tobytes() == want.tobytes()


def test_seed_blocks_cross_a_word_boundary_of_the_stream_index():
    first = 2**32 - 3  # indices of one and of two entropy words in one chunk
    doubles = block_doubles(np.concatenate(list(seed_blocks((5,), first, 6, 4))), 3)
    for k in range(6):
        assert doubles[k].tobytes() == np.random.default_rng([5, first + k]).random(3).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    SEEDS,
    st.sampled_from([("uniform_iid", False), ("hotspot", False), ("hotspot", True)]),
    st.integers(1, 5),
    st.one_of(st.none(), st.integers(1, 400)),
)
def test_slots_equal_the_numpy_random_reference(seed, mode, t_slots, cells):
    cfg = ScenarioConfig(
        map=GridMap(9, 6, 150.0), n_users=5, weight_mode=mode[0], temporal_noise=mode[1],
        seed=seed,
    )
    assert initial_state(cfg).tobytes() == initial_positions(cfg).tobytes()
    fast = stream_from(cfg, initial_positions(cfg), t_slots, cells)
    for a, b in zip(fast, realization_stream_loop(cfg, t_slots), strict=True):
        assert_same_slot(a, b)
