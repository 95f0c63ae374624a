"""Property-based tests (hypothesis) for ``repro.sumcheck.protocol``.

Three families of invariants, each checked over randomized tables and
transcript positions:

* **degree bounds** -- every round restriction is degree <= 1 in the
  bound variable, so the two reported values (y0, y1) determine the
  whole round polynomial by linear interpolation;
* **final-evaluation check** -- the verifier's returned challenge point
  satisfies ``A~(point) == final_value`` for honest proofs, and a lying
  final value is always rejected;
* **tamper rejection** -- any perturbation of any round polynomial (or
  the claimed sum) raises :class:`SumcheckError`; the additive round
  check makes this deterministic, not merely overwhelmingly likely.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.field import gl64, goldilocks as gl
from repro.hashing import Challenger
from repro.sumcheck import (
    SumcheckError,
    fold_table,
    multilinear_eval,
    prove,
    verify,
)

elements = st.integers(min_value=0, max_value=gl.P - 1)
nonzero = st.integers(min_value=1, max_value=gl.P - 1)
log_sizes = st.integers(min_value=1, max_value=5)


def _random_table(log_n: int, seed: int) -> np.ndarray:
    return gl64.random(1 << log_n, np.random.default_rng(seed))


class TestDegreeBounds:
    @given(log_sizes, st.integers(0, 2**32 - 1), elements)
    @settings(max_examples=25, deadline=None)
    def test_round_restriction_is_linear(self, log_n, seed, t):
        """g_k(t) == y0 (1 - t) + y1 t for *any* t, not just 0/1/r.

        The prover only reports g_k(0) and g_k(1); soundness of the
        interpolation step needs the true restriction to have degree
        <= 1, which holds because the summand is multilinear.
        """
        table = _random_table(log_n, seed)
        proof = prove(table, Challenger())
        # Replay the transcript to recover the challenges.
        point = verify(proof, log_n, Challenger())
        cur = table
        for k, (y0, y1) in enumerate(proof.round_values):
            half = cur.shape[0] // 2
            assert int(gl64.sum_array(cur[:half])) == y0
            assert int(gl64.sum_array(cur[half:])) == y1
            # Direct evaluation of the restriction at an arbitrary t
            # (sum the table folded at t) matches the interpolation.
            direct = int(gl64.sum_array(fold_table(cur, t)))
            interp = gl.add(gl.mul(y0, gl.sub(1, t)), gl.mul(y1, t))
            assert direct == interp
            cur = fold_table(cur, point[k])

    @given(log_sizes, st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_round_values_sum_to_running_claim(self, log_n, seed):
        table = _random_table(log_n, seed)
        proof = prove(table, Challenger())
        point = verify(proof, log_n, Challenger())
        expected = proof.claimed_sum
        for (y0, y1), r in zip(proof.round_values, point):
            assert gl.add(y0, y1) == expected
            expected = gl.add(gl.mul(y0, gl.sub(1, r)), gl.mul(y1, r))
        assert expected == proof.final_value


class TestFinalEvaluation:
    @given(log_sizes, st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_honest_final_value_is_mle_at_point(self, log_n, seed):
        table = _random_table(log_n, seed)
        proof = prove(table, Challenger())
        point = verify(proof, log_n, Challenger())
        assert len(point) == log_n
        assert multilinear_eval(table, point) == proof.final_value

    @given(log_sizes, st.integers(0, 2**32 - 1), nonzero)
    @settings(max_examples=25, deadline=None)
    def test_lying_final_value_rejected(self, log_n, seed, delta):
        table = _random_table(log_n, seed)
        proof = prove(table, Challenger())
        proof.final_value = gl.add(proof.final_value, delta)
        with pytest.raises(SumcheckError, match="final value"):
            verify(proof, log_n, Challenger())

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_zero_table_claims_zero(self, seed):
        # The HyperPlonk zerocheck relies on this: an honest constraint
        # table is all zeros, so the claimed sum must canonicalize to 0.
        table = np.zeros(16, dtype=np.uint64)
        proof = prove(table, Challenger())
        assert gl.canonical(proof.claimed_sum) == 0
        assert gl.canonical(proof.final_value) == 0
        verify(proof, 4, Challenger())


class TestTamperRejection:
    @given(
        log_sizes,
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_round_perturbation_rejected(self, log_n, seed, data):
        table = _random_table(log_n, seed)
        proof = prove(table, Challenger())
        k = data.draw(st.integers(0, log_n - 1), label="round")
        side = data.draw(st.integers(0, 1), label="side")
        delta = data.draw(nonzero, label="delta")
        y = list(proof.round_values[k])
        y[side] = gl.add(y[side], delta)
        proof.round_values[k] = (y[0], y[1])
        # The round-k sum shifts by delta != 0 mod P while the running
        # claim is computed from the untampered prefix, so rejection is
        # deterministic (no lucky-challenge escape).
        with pytest.raises(SumcheckError):
            verify(proof, log_n, Challenger())

    @given(log_sizes, st.integers(0, 2**32 - 1), nonzero)
    @settings(max_examples=20, deadline=None)
    def test_claimed_sum_perturbation_rejected(self, log_n, seed, delta):
        table = _random_table(log_n, seed)
        proof = prove(table, Challenger())
        proof.claimed_sum = gl.add(proof.claimed_sum, delta)
        with pytest.raises(SumcheckError):
            verify(proof, log_n, Challenger())

    @given(log_sizes, st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_round_count_must_match_num_vars(self, log_n, seed):
        table = _random_table(log_n, seed)
        proof = prove(table, Challenger())
        for wrong in (log_n - 1, log_n + 1):
            if wrong < 0:
                continue
            with pytest.raises(SumcheckError, match="rounds"):
                verify(proof, wrong, Challenger())


class TestCommittedHooks:
    @given(log_sizes, st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_on_challenge_replay_folds_to_the_final_value(self, log_n, seed):
        """The ``on_challenge`` challenges, in round order, are the fold
        points of the prover's chain: folding the table by them ends at
        the proof's final value -- the contract the committed sumcheck
        (HyperPlonk-lite) builds on."""
        table = _random_table(log_n, seed)
        proof = prove(table, Challenger())
        challenges = []
        point = verify(
            proof, log_n, Challenger(),
            on_challenge=lambda k, r: challenges.append((k, r)),
        )
        assert challenges == list(enumerate(point)) and len(point) == log_n
        cur = table
        for r in point:
            cur = fold_table(cur, r)
        assert int(cur[0]) == proof.final_value
