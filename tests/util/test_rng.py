"""Tests for deterministic RNG plumbing."""

import numpy as np
import pytest

from repro.util.rng import as_rng


class TestAsRng:
    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_int_seed_deterministic(self):
        assert as_rng(42).integers(1000) == as_rng(42).integers(1000)

    def test_different_seeds_differ(self):
        draws_a = as_rng(1).integers(0, 2**31, size=8)
        draws_b = as_rng(2).integers(0, 2**31, size=8)
        assert not np.array_equal(draws_a, draws_b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(7)
        assert isinstance(as_rng(seq), np.random.Generator)

    def test_invalid_type_raises(self):
        with pytest.raises(TypeError):
            as_rng("not-an-rng")

