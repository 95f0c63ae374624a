"""Mutation fuzzing: no corrupted proof may verify.

Serializes honest proofs, flips bits at deterministic pseudo-random
positions, and asserts every mutant either fails to decode or fails
verification -- a systematic sweep over the entire proof surface
(caps, openings, query paths, final polynomial, grinding witness).
"""

import numpy as np
import pytest

from repro.field import gl64
from repro.fri import FriConfig
from repro.plonk import CircuitBuilder, PlonkError, prove, setup, verify
from repro.protocols import get
from repro.stark import StarkError
from repro.stark import prove as stark_prove, verify as stark_verify
from repro.workloads import by_name

_CFG = FriConfig(rate_bits=3, cap_height=1, num_queries=5,
                 proof_of_work_bits=2, final_poly_len=4)
_SCFG = FriConfig(rate_bits=1, cap_height=1, num_queries=8,
                  proof_of_work_bits=2, final_poly_len=4)
_NUM_MUTATIONS = 24
STARK, PLONK = get("stark"), get("plonk")


@pytest.fixture(scope="module")
def plonk_target():
    b = CircuitBuilder()
    x = b.add_variable()
    pub = b.public_input()
    b.assert_equal(pub, b.mul(b.mul(x, x), x))
    data = setup(b.build(), _CFG)
    proof = prove(data, {x.index: 3, pub.index: 27})
    verify(data.verifier_data, [27], proof)  # sanity: honest proof passes
    return data, PLONK.to_bytes(proof)


@pytest.fixture(scope="module")
def stark_target():
    air, trace, publics = by_name("Fibonacci").build_air(5)
    proof = stark_prove(air, trace, publics, _SCFG)
    stark_verify(air, len(trace), publics, proof, _SCFG)
    return air, len(trace), publics, STARK.to_bytes(proof)


def _mutations(blob: bytes, count: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        pos = int(rng.integers(0, len(blob)))
        bit = 1 << int(rng.integers(0, 8))
        mutant = bytearray(blob)
        mutant[pos] ^= bit
        yield pos, bytes(mutant)


class TestPlonkMutations:
    def test_every_mutant_rejected_with_typed_error(self, plonk_target):
        # The hardening contract is strict: decode failures must be
        # ValueError and verify failures PlonkError/ValueError -- a
        # stray IndexError or ZeroDivisionError is itself a bug.
        data, blob = plonk_target
        rejected = 0
        for pos, mutant in _mutations(blob, _NUM_MUTATIONS, seed=1001):
            try:
                proof = PLONK.from_bytes(mutant)
            except ValueError:
                rejected += 1
                continue
            try:
                verify(data.verifier_data, [27], proof)
            except (PlonkError, ValueError):
                rejected += 1
                continue
            pytest.fail(f"mutant at byte {pos} verified")
        assert rejected == _NUM_MUTATIONS


class TestStarkMutations:
    def test_every_mutant_rejected_with_typed_error(self, stark_target):
        air, n, publics, blob = stark_target
        rejected = 0
        for pos, mutant in _mutations(blob, _NUM_MUTATIONS, seed=2002):
            try:
                proof = STARK.from_bytes(mutant)
            except ValueError:
                rejected += 1
                continue
            try:
                stark_verify(air, n, publics, proof, _SCFG)
            except (StarkError, ValueError):
                rejected += 1
                continue
            pytest.fail(f"mutant at byte {pos} verified")
        assert rejected == _NUM_MUTATIONS
