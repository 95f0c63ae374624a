"""Duplex Fiat-Shamir challenger tests."""

import numpy as np
import pytest

from repro.field import gl64, goldilocks as gl
from repro.hashing import Challenger


class TestDeterminism:
    def test_same_transcript_same_challenges(self):
        a, b = Challenger(), Challenger()
        for c in (a, b):
            c.observe_elements([1, 2, 3, 4])
        assert a.get_challenge() == b.get_challenge()
        assert a.get_n_challenges(5) == b.get_n_challenges(5)

    def test_different_transcript_diverges(self):
        a, b = Challenger(), Challenger()
        a.observe_elements([1, 2, 3])
        b.observe_elements([1, 2, 4])
        assert a.get_challenge() != b.get_challenge()

    def test_order_matters(self):
        a, b = Challenger(), Challenger()
        a.observe_elements([1, 2])
        b.observe_elements([2, 1])
        assert a.get_challenge() != b.get_challenge()

    def test_observation_after_squeeze_changes_output(self):
        a = Challenger()
        a.observe_element(7)
        c1 = a.get_challenge()
        a.observe_element(9)
        c2 = a.get_challenge()
        b = Challenger()
        b.observe_element(7)
        b.get_challenge()
        b.observe_element(9)
        assert b.get_challenge() == c2
        assert c1 != c2


class TestOutputs:
    def test_challenges_canonical(self):
        c = Challenger()
        c.observe_elements(range(20))
        for v in c.get_n_challenges(30):
            assert 0 <= v < gl.P

    def test_ext_challenge_shape(self):
        c = Challenger()
        c.observe_element(1)
        e = c.get_ext_challenge()
        assert e.shape == (2,)

    def test_indices_in_range(self):
        c = Challenger()
        c.observe_element(5)
        for idx in c.get_indices(50, 1024):
            assert 0 <= idx < 1024

    def test_indices_power_of_two_required(self):
        c = Challenger()
        with pytest.raises(ValueError):
            c.get_indices(1, 100)

    def test_many_squeezes_distinct(self):
        c = Challenger()
        c.observe_element(1)
        vals = c.get_n_challenges(64)
        assert len(set(vals)) == 64

    def test_observe_digest_validates(self):
        c = Challenger()
        with pytest.raises(ValueError):
            c.observe_digest(np.zeros(3, dtype=np.uint64))

    def test_observe_cap(self, rng):
        cap = gl64.random((4, 4), rng)
        a, b = Challenger(), Challenger()
        a.observe_cap(cap)
        b.observe_elements(cap.reshape(-1))
        assert a.get_challenge() == b.get_challenge()


class TestClone:
    def test_clone_divergence(self):
        c = Challenger()
        c.observe_elements([1, 2, 3])
        fork = c.clone()
        fork.observe_element(4)
        c.observe_element(4)
        assert fork.get_challenge() == c.get_challenge()

    def test_clone_is_independent(self):
        c = Challenger()
        c.observe_element(1)
        fork = c.clone()
        fork.observe_element(99)
        fork.get_challenge()
        c.observe_element(2)
        d = Challenger()
        d.observe_element(1)
        d.observe_element(2)
        assert c.get_challenge() == d.get_challenge()
