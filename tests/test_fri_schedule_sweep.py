"""Completeness across the FRI fold schedule, for both FRI protocols.

``FriConfig.fold_schedule`` commits one layer per three arity-2 folds,
the last layer taking what is left.  Every shape of that schedule --
no fold round at all, or a last layer of 1, 2 or 3 bits -- is drawn
here for STARK (Fibonacci) and Plonk, over degree bits 1-10, rate bits
1-3, every ``final_poly_len`` up to 16 and cap heights 0-2.  Each case
goes prove -> tagged blob -> decode -> verify on the shipped verifier
and on ``tests/reference_verifiers.py``, and a proof with one flipped
bit in one layer leaf must be rejected by both with a typed error.

Plonk's circuits have at least 4 rows and its 4-chunk quotient needs a
blowup of at least 4, so its draws start at degree bits 2, rate bits 2.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro import plonk, stark
from repro.errors import VerifierError
from repro.fri import FriConfig
from repro.plonk import CircuitBuilder
from repro.serialize import proof_from_blob, proof_to_blob
from repro.workloads import fibonacci

from .reference_verifiers import reference_plane

#: Last-layer arity bits; 0 means the schedule is empty.
TAILS = (0, 1, 2, 3)
FINAL_LENS = (1, 2, 4, 8, 16)


def _stark_case(degree_bits, cfg):
    air, trace, publics = fibonacci.build_air(degree_bits)
    proof = stark.prove(air, trace, publics, cfg)
    return proof, lambda p: stark.verify(air, p, cfg)


def _plonk_case(degree_bits, cfg):
    b = CircuitBuilder()
    x = b.add_variable()
    pub = b.public_input()
    b.assert_equal(pub, b.mul(x, x))
    data = plonk.setup(b.build(min_rows=1 << degree_bits), cfg)
    proof = plonk.prove(data, {x.index: 3, pub.index: 9})
    return proof, lambda p: plonk.verify(data.verifier_data, p)


#: protocol -> (case builder, lowest degree bits, lowest rate bits)
CASES = {"stark": (_stark_case, 1, 1), "plonk": (_plonk_case, 2, 2)}


def _degree_bits_for(tail, final_len, lowest):
    """Degree bits in ``[lowest, 10]`` whose schedule ends in ``tail``."""
    final_bits = (final_len - 1).bit_length()
    if tail == 0:
        return [d for d in range(lowest, 11) if d <= final_bits]
    return [
        d for d in range(lowest, 11)
        if d > final_bits and (d - final_bits - 1) % 3 + 1 == tail
    ]


@pytest.mark.parametrize("tail", TAILS)
@pytest.mark.parametrize("protocol", sorted(CASES))
@settings(
    max_examples=8, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)
@given(data=st.data())
def test_every_schedule_tail_proves_and_verifies(protocol, tail, data):
    build, lowest_degree, lowest_rate = CASES[protocol]
    final_len = data.draw(st.sampled_from(FINAL_LENS), "final_poly_len")
    candidates = _degree_bits_for(tail, final_len, lowest_degree)
    assume(candidates)
    degree_bits = data.draw(st.sampled_from(candidates), "degree_bits")
    cfg = FriConfig(
        rate_bits=data.draw(st.integers(lowest_rate, 3), "rate_bits"),
        cap_height=data.draw(st.integers(0, 2), "cap_height"),
        num_queries=3,
        proof_of_work_bits=1,
        final_poly_len=final_len,
    )
    schedule = cfg.fold_schedule(degree_bits)
    assert (schedule[-1] if schedule else 0) == tail

    proof, verify = build(degree_bits, cfg)
    _, proof = proof_from_blob(proof_to_blob(protocol, proof), expected_protocol=protocol)
    fri_proof = proof.fri_proof
    assert len(fri_proof.commit_caps) == len(schedule)
    for qr in fri_proof.query_rounds:
        assert [layer.coset_leaf.size for layer in qr.layers] == [2 << a for a in schedule]
    verify(proof)
    with reference_plane():
        verify(proof)

    if not schedule:
        return
    q = data.draw(st.integers(0, len(fri_proof.query_rounds) - 1), "query")
    k = data.draw(st.integers(0, len(schedule) - 1), "layer")
    leaf = fri_proof.query_rounds[q].layers[k].coset_leaf
    element = data.draw(st.integers(0, leaf.size - 1), "element")
    leaf[element] ^= np.uint64(1 << data.draw(st.integers(0, 7), "bit"))
    _, bad = proof_from_blob(proof_to_blob(protocol, proof), expected_protocol=protocol)
    with pytest.raises(VerifierError):
        verify(bad)
    with reference_plane(), pytest.raises(VerifierError):
        verify(bad)
