"""Completeness across the FRI fold schedule, for both FRI protocols.

``FriConfig.fold_schedule`` commits one layer per three arity-2 folds,
the last layer taking what is left, and ``initial_arity_bits`` may make
the first layer virtual (the batches commit its cosets).  Every shape of
that schedule -- no fold round at all, or a last layer of 1, 2 or 3
bits -- is drawn here for STARK and Plonk, over degree bits 1-10, rate
bits 1-3, every ``final_poly_len`` up to 16 and cap heights up to the
full LDE tree's depth, so on both sides of the coset tree's.  STARK
draws traces of 2-8 columns (Fibonacci column pairs) and Plonk blinding
salt on or off, so leaf widths fall on both sides of the layout rule.
Each case goes prove -> tagged blob -> decode -> verify on the shipped
verifier and on ``tests/reference_verifiers.py``, and a proof with one
flipped bit in one opened leaf -- initial or layer -- must be rejected
by both with a typed error.

Plonk's circuits have at least 4 rows and its 4-chunk quotient needs a
blowup of at least 4, so its draws start at degree bits 2, rate bits 2.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, given, settings, strategies as st

from repro import plonk, stark
from repro.errors import VerifierError
from repro.field import goldilocks as gl
from repro.fri import FriConfig, initial_arity_bits
from repro.plonk import CircuitBuilder
from repro.plonk.prover import LEAF_WIDTHS as PLONK_WIDTHS, ZK_SALT_COLUMNS
from repro.serialize import proof_from_blob, proof_to_blob
from repro.stark import Air, BoundaryConstraint
from repro.stark.prover import leaf_widths

from .reference_verifiers import reference_plane

#: Last-layer arity bits; 0 means the schedule is empty.
TAILS = (0, 1, 2, 3)
FINAL_LENS = (1, 2, 4, 8, 16)


class _FibonacciPairs(Air):
    """``pairs`` Fibonacci column pairs side by side: ``x' = y``,
    ``y' = x + y`` in each; pair ``p`` starts at ``(p, 1)``."""

    constraint_degree = 1

    def __init__(self, pairs):
        self.width = 2 * pairs

    def eval_transition(self, local, nxt, alg):
        out = []
        for x in range(0, self.width, 2):
            out.append(alg.sub(nxt[x], local[x + 1]))
            out.append(alg.sub(nxt[x + 1], alg.add(local[x], local[x + 1])))
        return out

    def boundary_constraints(self, publics):
        return [BoundaryConstraint(0, x, p) for x, p in zip(range(0, self.width, 2), publics)]


def _stark_case(degree_bits, cfg, data):
    air = _FibonacciPairs(data.draw(st.integers(1, 4), "column pairs"))
    rows = []
    state = [v for p in range(air.width // 2) for v in (p, 1)]
    for _ in range(1 << degree_bits):
        rows.append(state)
        state = [v for x, y in zip(state[::2], state[1::2]) for v in (y, gl.add(x, y))]
    trace = np.array(rows, dtype=np.uint64)
    publics = list(range(air.width // 2))
    proof = stark.prove(air, trace, publics, cfg)
    return proof, lambda p: stark.verify(air, p, cfg), leaf_widths(air), (0, 0)


def _plonk_case(degree_bits, cfg, data):
    b = CircuitBuilder()
    x = b.add_variable()
    pub = b.public_input()
    b.assert_equal(pub, b.mul(x, x))
    setup = plonk.setup(b.build(min_rows=1 << degree_bits), cfg)
    salted = data.draw(st.booleans(), "blinding")
    proof = plonk.prove(setup, {x.index: 3, pub.index: 9}, blinding_seed=1 if salted else None)
    # Salt widens the committed wires rows but not the layout rule's input.
    salt = (0, ZK_SALT_COLUMNS if salted else 0, 0, 0)
    return proof, lambda p: plonk.verify(setup.verifier_data, p), list(PLONK_WIDTHS), salt


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
    rate_bits = data.draw(st.integers(lowest_rate, 3), "rate_bits")
    cfg = FriConfig(
        rate_bits=rate_bits,
        cap_height=data.draw(st.integers(0, degree_bits + rate_bits), "cap_height"),
        num_queries=3,
        proof_of_work_bits=1,
        final_poly_len=final_len,
    )
    schedule = cfg.fold_schedule(degree_bits)
    assert (schedule[-1] if schedule else 0) == tail

    proof, verify, widths, salt = build(degree_bits, cfg, data)
    a = initial_arity_bits(cfg, degree_bits, widths)
    assert a in (0, *schedule[:1])
    event("coset leaves" if a else "row leaves")
    committed = schedule[1:] if a else schedule
    _, proof = proof_from_blob(proof_to_blob(protocol, proof), expected_protocol=protocol)
    fri_proof = proof.fri_proof
    assert len(fri_proof.commit_caps) == len(committed)
    for qr in fri_proof.query_rounds:
        assert [leaf.size for leaf in qr.initial.leaves] == [
            (w + s) << a for w, s in zip(widths, salt)
        ]
        assert [layer.coset_leaf.size for layer in qr.layers] == [2 << b for b in committed]
    verify(proof)
    with reference_plane():
        verify(proof)

    q = data.draw(st.integers(0, len(fri_proof.query_rounds) - 1), "query")
    qr = fri_proof.query_rounds[q]
    opened = [*qr.initial.leaves, *(layer.coset_leaf for layer in qr.layers)]
    leaf = opened[data.draw(st.integers(0, len(opened) - 1), "leaf")]
    element = data.draw(st.integers(0, leaf.size - 1), "element")
    leaf[element] ^= np.uint64(1 << data.draw(st.integers(0, 7), "bit"))
    _, bad = proof_from_blob(proof_to_blob(protocol, proof), expected_protocol=protocol)
    with pytest.raises(VerifierError):
        verify(bad)
    with reference_plane(), pytest.raises(VerifierError):
        verify(bad)
