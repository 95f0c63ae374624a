"""The batched verifier plane against the scalar one it replaced.

Every registered protocol's verifier runs twice on the same mutated
proof: once as shipped (``merkle.verify_paths`` + FRI checks on a query
axis) and once over ``tests/reference_verifiers.py`` (one tree's
frontier, one query at a time).  The two must agree on accept / reject and on the
exception class, for every mutator in :mod:`repro.fuzz.mutators`.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.fuzz.mutators import MUTATORS
from repro.fuzz.runner import classify_object
from repro.fuzz.targets import TYPED_REJECTIONS, target_for
from repro.protocols import get as get_protocol, names
from repro.serialize import ByteWriter, proof_from_blob, proof_to_blob
from repro.workloads import by_name

from .goldens import CONFIGS, SCALE, WORKLOADS
from .reference_verifiers import reference_plane

#: Seeds per (protocol, mutator).  Mutators with a small mutant space
#: (drop one of four layer openings, ...)
#: repeat themselves long before this; repeats are verified once.
SEEDS = 200
PROTOCOLS = names()


def _both(target, proof):
    """``(outcome, exception class)`` on the batched and scalar planes."""
    shipped = classify_object(target, proof)
    with reference_plane():
        reference = classify_object(target, proof)
    return [(outcome, type(exc)) for outcome, exc in (shipped, reference)]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_every_mutator_agrees_with_the_scalar_plane(protocol):
    target = target_for(protocol)
    assert _both(target, target.decode(target.blob)) == [("accepted", type(None))] * 2
    verified = 0
    for number, (name, mutate) in enumerate(MUTATORS.items()):
        seen = {target.blob, target.alt_blob}  # honest proofs are not mutants
        for seed in range(SEEDS):
            mutant = mutate(target, np.random.default_rng([16, number, seed]))
            if mutant is None:
                break  # the mutator does not apply to this protocol
            key = mutant.data if mutant.data is not None else pickle.dumps(mutant.proof)
            if key in seen:
                continue
            seen.add(key)
            if mutant.data is None:
                proof = mutant.proof
            else:
                try:
                    proof = target.decode(mutant.data)
                except TYPED_REJECTIONS:
                    continue  # rejected by the codec both planes share
            shipped, reference = _both(target, proof)
            assert shipped == reference, (name, seed)
            assert shipped[0] == "rejected-verify", (name, seed, shipped)
            verified += 1
    assert verified > 100


def _tamper_two(proof):
    """A bad path node in one tree and a bad row in another: whichever
    the verifier meets first, the proof falls."""
    proof = copy.deepcopy(proof)
    if hasattr(proof, "fri_proof"):
        proof.fri_proof.batch_openings[-1].nodes[0, 0] ^= np.uint64(1)
        proof.fri_proof.layer_openings[0].rows[0, 0] ^= np.uint64(1)
    else:
        proof.level_openings[-1].rows[0, 0] ^= np.uint64(1)
        proof.wires_opening.rows[0, 0] ^= np.uint64(1)
    return proof


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_two_faults_reject_with_the_typed_error(protocol):
    target = target_for(protocol)
    proof = _tamper_two(target.decode(target.blob))
    shipped, reference = _both(target, proof)
    assert shipped == reference
    outcome, error = shipped
    assert outcome == "rejected-verify"
    assert error.__name__ == {
        "stark": "StarkError", "plonk": "PlonkError", "hyperplonk": "HyperPlonkError"
    }[protocol]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_first_tree_opening_with_two_rows_swapped_is_refused(protocol):
    # A proof sends no leaf indices: the verifier binds row k to the
    # k-th index it derives from its transcript, so two opened rows
    # swapped keep every shape and must still fall, on both planes and
    # with the same typed error.
    target = target_for(protocol)
    proof = target.decode(target.blob)
    tree = (proof.fri_proof if hasattr(proof, "fri_proof") else proof).tree_openings()[0]
    assert tree.rows.shape[0] >= 2 and not np.array_equal(tree.rows[0], tree.rows[1])
    tree.rows[[0, 1]] = tree.rows[[1, 0]]
    shipped, reference = _both(target, proof)
    assert shipped == reference
    assert shipped[0] == "rejected-verify"


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_byte_flipped_in_the_tree_openings_is_refused(protocol):
    # The last tree opening ends every blob: a committed FRI layer's for
    # STARK and Plonk (its (m, 2) values), the last fold level's
    # one-column rows for HyperPlonk-lite.  Its first row word follows
    # the rows' 4-byte count (the reader knows their width), and
    # flipping that word's low bit leaves a proof the codec still
    # reads: both planes must refuse it alike.
    system = get_protocol(protocol)
    setup = system.setup(by_name(WORKLOADS[protocol]), SCALE, CONFIGS[protocol])
    proof = system.prove(setup)
    fri = hasattr(proof, "fri_proof")
    trees = (proof.fri_proof if fri else proof).tree_openings()
    last = ByteWriter()
    trees[-1].write(last, 2 if fri else 1)
    blob = bytearray(proof_to_blob(protocol, proof))
    word = len(blob) - len(last.getvalue()) + 4
    assert int.from_bytes(blob[word : word + 8], "little") == int(trees[-1].rows.flat[0])
    blob[word] ^= 0x01
    _, bad = proof_from_blob(bytes(blob), expected_protocol=protocol)

    def verdict():
        try:
            system.verify(setup, bad)
        except TYPED_REJECTIONS as exc:
            return type(exc)
        return "accepted"

    shipped = verdict()
    with reference_plane():
        reference = verdict()
    assert shipped == reference != "accepted"
