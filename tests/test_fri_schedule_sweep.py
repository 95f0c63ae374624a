"""Completeness across the FRI fold schedule, for both FRI protocols.

``fri_layout`` picks a first arity ``a`` in ``0..3``: with ``a > 0``
the batches commit ``2**a``-row cosets and the first layer is virtual;
every later layer folds by 8, the last taking what is left.  Every
first arity and every shape of the schedule -- no fold round at all,
or a last layer of 1, 2 or 3 bits -- is drawn here for STARK and Plonk
(the first arity is forced on prover and both verifiers, and each
example records it with ``event``), over degree bits 1-10, rate bits
1-3, every ``final_poly_len`` up to 16 and cap heights up to the
drawn layout's tree depth, so up to the full LDE tree's under rows.
At every draw the rule's own pick must be an admissible layout.  STARK
draws traces of 2-8 columns (Fibonacci column pairs) and Plonk blinding
salt on or off, so leaf widths vary around the rule's inputs.
Each case goes prove -> tagged blob -> decode -> verify on the shipped
verifier and on ``tests/reference_verifiers.py``, and a proof with one
flipped bit in one sent value -- initial or layer -- must be rejected
by both with a typed error.  A small last layer whose every value the
queries fold from below sends an empty ``(0, 2)`` array and must verify.

Plonk's circuits have at least 4 rows and its 4-chunk quotient needs a
blowup of at least 4, so its draws start at degree bits 2, rate bits 2.
"""

from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, given, settings, strategies as st

from repro import plonk, stark
from repro.errors import VerifierError
from repro.field import goldilocks as gl
from repro.fri import FriConfig, fri_layout, verifier as fri_verifier
from repro.fri.config import FRI_ARITY_BITS
from repro.hashing import optimized
from repro.plonk import CircuitBuilder
from repro.plonk.protocol import PLONK, ZK_SALT_COLUMNS
from repro.serialize import proof_from_blob, proof_to_blob
from repro.stark import Air, BoundaryConstraint
from repro.stark import prover as stark_prover
from repro.stark.protocol import stark as stark_protocol

from . import reference_verifiers
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
    return proof, lambda p: stark.verify(air, len(trace), publics, p, cfg), stark_protocol(air).widths, (0, 0)


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
    return proof, lambda p: plonk.verify(setup.verifier_data, [9], p), list(PLONK.widths), salt


#: protocol -> (case builder, lowest degree bits, lowest rate bits)
CASES = {"stark": (_stark_case, 1, 1), "plonk": (_plonk_case, 2, 2)}


def _degree_bits_for(tail, final_len, lowest, a):
    """Degree bits in ``[lowest, 10]`` whose schedule under first arity
    ``a`` ends in ``tail`` (0: no fold at all)."""
    cfg = FriConfig(final_poly_len=final_len)
    out = []
    for d in range(lowest, 11):
        if a <= cfg.num_fold_rounds(d):
            schedule = cfg.fold_schedule(d, a)
            if (schedule[-1] if schedule else 0) == tail:
                out.append(d)
    return out


def _forced_layout(a):
    """Patches making both provers and both verifiers use first arity
    ``a``, whatever ``fri_layout`` would pick."""
    stack = ExitStack()
    for module in (stark_prover, plonk.prover, fri_verifier, reference_verifiers):
        stack.enter_context(mock.patch.object(
            module, "fri_layout", lambda cfg, bits, widths: (a, cfg.fold_schedule(bits, a))
        ))
    return stack


@pytest.mark.parametrize("tail", TAILS)
@pytest.mark.parametrize("protocol", sorted(CASES))
@settings(
    max_examples=8, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)
@given(data=st.data())
def test_every_schedule_tail_proves_and_verifies(protocol, tail, data):
    build, lowest_degree, lowest_rate = CASES[protocol]
    final_len = data.draw(st.sampled_from(FINAL_LENS), "final_poly_len")
    a = data.draw(st.integers(0, FRI_ARITY_BITS if tail else 0), "first arity bits")
    candidates = _degree_bits_for(tail, final_len, lowest_degree, a)
    assume(candidates)
    degree_bits = data.draw(st.sampled_from(candidates), "degree_bits")
    rate_bits = data.draw(st.integers(lowest_rate, 3), "rate_bits")
    cfg = FriConfig(
        rate_bits=rate_bits,
        cap_height=data.draw(st.integers(0, degree_bits + rate_bits - a), "cap_height"),
        # One more query than the scalar Poseidon crossover, so the
        # verifier's per-level Merkle batches fall on both sides of it.
        num_queries=optimized._SCALAR_ROWS + 1,
        proof_of_work_bits=1,
        final_poly_len=final_len,
    )
    schedule = cfg.fold_schedule(degree_bits, a)
    assert (schedule[-1] if schedule else 0) == tail
    event(f"first arity bits {a}")

    with _forced_layout(a):
        proof, verify, widths, salt = build(degree_bits, cfg, data)
    picked, picked_schedule = fri_layout(cfg, degree_bits, widths)
    assert cfg.cap_height <= degree_bits + rate_bits - picked or not picked
    assert picked_schedule == cfg.fold_schedule(degree_bits, picked)
    event("the rule's own layout" if picked == a else "a forced layout")
    committed = schedule[1:] if a else schedule
    _, proof = proof_from_blob(proof_to_blob(protocol, proof), expected_protocol=protocol)
    fri_proof = proof.fri_proof
    assert len(fri_proof.commit_caps) == len(committed)
    assert [op.rows.shape[1] for op in fri_proof.batch_openings] == [
        (w + s) << a for w, s in zip(widths, salt)
    ]
    # A layer sends (m, 2) values: its coset leaves less the folded slots.
    assert [op.rows.shape[1] for op in fri_proof.layer_openings] == [2] * len(committed)
    with _forced_layout(a):
        verify(proof)
        with reference_plane():
            verify(proof)

    # A layer whose every value a query folds from below sends none, so
    # the flipped bit lands in a tree that sends at least one row.
    opened = [op for op in fri_proof.tree_openings() if op.rows.shape[0]]
    rows = opened[data.draw(st.integers(0, len(opened) - 1), "tree")].rows
    leaf = rows[data.draw(st.integers(0, rows.shape[0] - 1), "leaf")]
    element = data.draw(st.integers(0, leaf.size - 1), "element")
    leaf[element] ^= np.uint64(1 << data.draw(st.integers(0, 7), "bit"))
    _, bad = proof_from_blob(proof_to_blob(protocol, proof), expected_protocol=protocol)
    with _forced_layout(a):
        with pytest.raises(VerifierError):
            verify(bad)
        with reference_plane(), pytest.raises(VerifierError):
            verify(bad)


@pytest.mark.parametrize("a", range(FRI_ARITY_BITS + 1))
@pytest.mark.parametrize("protocol", sorted(CASES))
def test_every_first_arity_proves_and_verifies(protocol, a):
    # One fixed shape per first arity, so every arity is reached on
    # every run whatever the sweep above draws.
    build = CASES[protocol][0]
    cfg = FriConfig(rate_bits=2, cap_height=1, num_queries=6, proof_of_work_bits=1, final_poly_len=1)
    with _forced_layout(a):
        proof, verify, widths, salt = build(5, cfg, _FixedDraws())
        assert len(proof.fri_proof.commit_caps) == len(cfg.fold_schedule(5, a)) - (a > 0)
        assert [op.rows.shape[1] for op in proof.fri_proof.batch_openings] == [w << a for w in widths]
        verify(proof)
        with reference_plane():
            verify(proof)


class _FixedDraws:
    """Stands in for hypothesis' ``data`` in a case builder: each draw
    returns a fixed value by its label (one column pair, no blinding)."""

    def draw(self, strategy, label=None):
        return {"column pairs": 1, "blinding": False}[label]
