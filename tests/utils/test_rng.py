"""Tests for the RNG normalisation policy."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.utils.rng import ScalarDraws, as_generator, spawn_generators


class TestAsGenerator:
    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = as_generator(42).integers(0, 1_000_000, size=8)
        b = as_generator(42).integers(0, 1_000_000, size=8)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = as_generator(1).integers(0, 1_000_000, size=8)
        b = as_generator(2).integers(0, 1_000_000, size=8)
        assert not np.array_equal(a, b)

    def test_generator_passthrough_is_identity(self):
        generator = np.random.default_rng(0)
        assert as_generator(generator) is generator

    def test_seed_sequence_accepted(self):
        sequence = np.random.SeedSequence(99)
        generator = as_generator(sequence)
        assert isinstance(generator, np.random.Generator)


class TestSpawnGenerators:
    def test_count(self):
        assert len(spawn_generators(0, 5)) == 5

    def test_zero_count(self):
        assert spawn_generators(0, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_generators(0, -1)

    def test_children_are_independent_streams(self):
        children = spawn_generators(7, 3)
        draws = [g.integers(0, 2**60) for g in children]
        assert len(set(draws)) == 3

    def test_reproducible_from_same_seed(self):
        first = [g.integers(0, 2**60) for g in spawn_generators(11, 4)]
        second = [g.integers(0, 2**60) for g in spawn_generators(11, 4)]
        assert first == second

    def test_spawning_from_generator_advances_parent(self):
        parent = np.random.default_rng(3)
        spawn_generators(parent, 2)
        # The parent stream was consumed, so further spawns differ.
        other = spawn_generators(parent, 2)
        first_draws = [g.integers(0, 2**60) for g in other]
        assert len(set(first_draws)) == 2


BIT_GENERATORS = [
    np.random.PCG64,
    np.random.PCG64DXSM,
    np.random.Philox,
    np.random.MT19937,
    np.random.SFC64,
]
EDGE_BOUNDS = [1, 2, 2**31 + 1, 2**32 - 1]


def _plain_state(rng: np.random.Generator) -> str:
    return json.dumps(rng.bit_generator.state, default=lambda a: a.tolist(), sort_keys=True)


# One draw: ``None`` is ``random()``, an integer is ``below(high)``.
_draws = st.lists(
    st.one_of(
        st.none(),
        st.sampled_from(EDGE_BOUNDS),
        st.integers(min_value=1, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=64),
    ),
    max_size=60,
)


class TestScalarDraws:
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda bg: bg.__name__)
    @given(seed=st.integers(min_value=0, max_value=2**32), draws=_draws)
    @settings(max_examples=40, deadline=None)
    def test_matches_numpy_scalar_draws(self, bit_generator, seed, draws):
        rng = np.random.Generator(bit_generator(seed))
        twin = np.random.Generator(bit_generator(seed))
        with ScalarDraws(rng) as scalar:
            for high in draws:
                if high is None:
                    assert scalar.random() == twin.random()
                else:
                    assert scalar.below(high) == twin.integers(0, high)
        assert _plain_state(rng) == _plain_state(twin)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda bg: bg.__name__)
    def test_edge_bounds_over_a_long_stream(self, bit_generator):
        rng = np.random.Generator(bit_generator(2024))
        twin = np.random.Generator(bit_generator(2024))
        with ScalarDraws(rng) as scalar:
            for step in range(4000):
                high = EDGE_BOUNDS[step % len(EDGE_BOUNDS)]
                assert scalar.below(high) == twin.integers(0, high)
                if step % 3 == 0:
                    assert scalar.random() == twin.random()
        assert _plain_state(rng) == _plain_state(twin)

    def test_high_of_one_draws_nothing(self):
        rng = np.random.default_rng(9)
        before = _plain_state(rng)
        with ScalarDraws(rng) as scalar:
            assert scalar.below(1) == 0
        assert _plain_state(rng) == before

    @pytest.mark.parametrize("high", [0, -1, 2**32, 2**40])
    def test_out_of_range_bound_is_refused(self, high):
        rng = np.random.default_rng(0)
        before = _plain_state(rng)
        with ScalarDraws(rng) as scalar, pytest.raises(ValidationError):
            scalar.below(high)
        assert _plain_state(rng) == before

    def test_holds_the_lock_inside_the_block_only(self):
        rng = np.random.default_rng(0)
        with ScalarDraws(rng):
            assert not _free_in_another_thread(rng)
        assert _free_in_another_thread(rng)

    def test_releases_the_lock_on_error(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError), ScalarDraws(rng) as scalar:
            scalar.below(0)
        assert _free_in_another_thread(rng)


def _free_in_another_thread(rng: np.random.Generator) -> bool:
    """Whether another thread can take ``rng``'s (reentrant) lock now."""
    lock = rng.bit_generator.lock
    taken = []

    def probe() -> None:
        taken.append(lock.acquire(blocking=False))
        if taken[0]:
            lock.release()

    thread = threading.Thread(target=probe)
    thread.start()
    thread.join()
    return taken[0]
