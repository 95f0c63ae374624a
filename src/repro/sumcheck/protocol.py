"""The sum-check protocol (paper Section 8.1, Algorithm 2).

Newer hash-based protocols (Spartan, Binius, Basefold) rely on
sum-check; the paper argues UniZK's architecture generalises to it:
the per-round vector update is an element-wise kernel and the sum is a
systolic reduction.  This module implements the protocol itself --
Algorithm 2 verbatim as the prover's computation -- and a Fiat-Shamir
driven prover/verifier pair for multilinear claims.

The prover claims ``sum_{x in {0,1}^n} A~(x) = S`` where ``A~`` is the
multilinear extension of the table ``A``.  Each round sends the
restriction to the current variable (its values at 0 and 1); the
verifier checks consistency and folds with a random challenge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..field import gl64, goldilocks as gl
from ..hashing import Challenger


def fold_table(table: np.ndarray, r: int) -> np.ndarray:
    """One Algorithm-2 vector update:
    ``A[j] <- A[j] * (1 - r) + A[j + m/2] * r``."""
    half = table.shape[0] // 2
    lo = table[:half]
    hi = table[half:]
    one_minus_r = np.uint64(gl.sub(1, r))
    return gl64.add(
        gl64.mul(lo, one_minus_r), gl64.mul(hi, np.uint64(gl.canonical(r)))
    )


def multilinear_eval(table: np.ndarray, point: List[int]) -> int:
    """Evaluate the multilinear extension of ``table`` at ``point``.

    Variable 0 is the *most significant* index bit, matching the
    high/low-half split of Algorithm 2.
    """
    table = np.asarray(table, dtype=np.uint64)
    if table.shape[0] != 1 << len(point):
        raise ValueError("table size must be 2**len(point)")
    for r in point:
        table = fold_table(table, r)
    return int(table[0])


@dataclass
class SumcheckProof:
    """Transcript of the sum-check rounds (Algorithm 2's ``y[n][2]``)."""

    claimed_sum: int
    round_values: List[Tuple[int, int]]  # (y0, y1) per round
    final_value: int


def prove(table: np.ndarray, challenger: Challenger | None = None) -> SumcheckProof:
    """Run the prover; returns the proof (Algorithm 2 with Fiat-Shamir).

    Each round reports ``y0 = sum(A[:m/2])`` and ``y1 = sum(A[m/2:])``,
    then folds with the transcript challenge.
    """
    table = np.asarray(table, dtype=np.uint64).copy()
    n = table.shape[0]
    if n == 0 or n & (n - 1):
        raise ValueError("table size must be a power of two")
    challenger = challenger or Challenger()
    claimed = int(gl64.sum_array(table))
    challenger.observe_element(claimed)
    rounds = []
    while table.shape[0] > 1:
        half = table.shape[0] // 2
        y0 = int(gl64.sum_array(table[:half]))
        y1 = int(gl64.sum_array(table[half:]))
        rounds.append((y0, y1))
        challenger.observe_element(y0)
        challenger.observe_element(y1)
        r = challenger.get_challenge()
        table = fold_table(table, r)
    return SumcheckProof(
        claimed_sum=claimed, round_values=rounds, final_value=int(table[0])
    )


class SumcheckError(Exception):
    """Raised when a sum-check transcript is inconsistent."""


def verify(
    proof: SumcheckProof,
    num_vars: int,
    challenger: Challenger | None = None,
    on_challenge: Optional[Callable[[int, int], None]] = None,
) -> List[int]:
    """Verify the round consistency; returns the challenge point.

    The caller must separately check ``proof.final_value`` against an
    oracle for the multilinear extension at the returned point (e.g. a
    polynomial-commitment opening, or direct evaluation in tests).

    ``on_challenge(round_index, r)`` is called right after each round's
    challenge is squeezed, before the next round's values join the
    transcript: the committed-sumcheck verifier (HyperPlonk-lite) absorbs
    the prover's cap of each folded level there, where its prover
    absorbed it.
    """
    if len(proof.round_values) != num_vars:
        raise SumcheckError("wrong number of rounds")
    challenger = challenger or Challenger()
    challenger.observe_element(proof.claimed_sum)
    expected = proof.claimed_sum
    point: List[int] = []
    for k, (y0, y1) in enumerate(proof.round_values):
        if gl.add(y0, y1) != expected:
            raise SumcheckError("round sum does not match the running claim")
        challenger.observe_element(y0)
        challenger.observe_element(y1)
        r = challenger.get_challenge()
        point.append(r)
        if on_challenge is not None:
            on_challenge(k, r)
        # Restriction is linear in the variable: g(r) = y0 (1 - r) + y1 r.
        expected = gl.add(gl.mul(y0, gl.sub(1, r)), gl.mul(y1, r))
    if proof.final_value != expected:
        raise SumcheckError("final value does not match the last claim")
    return point
