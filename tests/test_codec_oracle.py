"""The one-pass codec against the field-by-field oracle, and hostile input.

``tests/reference_codec.py`` keeps the codec ``repro.serialize`` had
before it read and wrote a blob in one pass.  Over each protocol's
golden blob (the ``tests/goldens.py`` instance) and seeded byte-level
mutants of it, the shipped and reference readers must decode equal
proofs or raise the same error, and the shipped writer must reproduce
every golden blob and envelope byte for byte.  The hostile sweep cuts
each golden blob at every byte and sets each count and shape word to
``2**32 - 1`` in turn: every case must fail with one of the codec's own
typed errors, never a ``struct``, index, overflow, NumPy or memory
error.
"""

from __future__ import annotations

import dataclasses
import hashlib
import re
from unittest import mock

import numpy as np
import pytest

from repro import protocols
from repro.fuzz.mutators import MUTATORS
from repro.fuzz.targets import FuzzTarget, target_for
from repro.serialize import (
    ProofFormatError,
    proof_from_blob,
    proof_to_blob,
    read_proof_blob,
    read_result_envelope,
    write_proof_blob,
    write_result_envelope,
)
from repro.workloads import by_name

from . import reference_codec as ref
from .goldens import CONFIGS, FRAMED, SCALE, WORKLOADS

#: Seeds drawn per mutator and protocol.
SEEDS = 25

#: The start of every message the codec raises on malformed bytes.
TYPED_MESSAGE = re.compile(
    r"(length-inflated proof bytes|truncated proof bytes|malformed |trailing bytes after"
    r"|untagged proof bytes|unsupported proof format version|unknown proof protocol tag)"
)


@pytest.fixture(scope="module", params=protocols.names())
def golden(request):
    """``(name, proof, tagged blob)`` at the goldens shape."""
    name = request.param
    system = protocols.get(name)
    setup = system.setup(by_name(WORKLOADS[name]), SCALE, CONFIGS[name])
    proof = system.prove(setup)
    return name, proof, proof_to_blob(name, proof)


def _leaves(obj, path: str = "proof"):
    """Every scalar and array of a decoded proof, with its path."""
    if dataclasses.is_dataclass(obj):
        yield path, type(obj).__name__
        for field in dataclasses.fields(obj):
            yield from _leaves(getattr(obj, field.name), f"{path}.{field.name}")
    elif isinstance(obj, (list, tuple)):
        yield path, type(obj).__name__, len(obj)
        for i, item in enumerate(obj):
            yield from _leaves(item, f"{path}[{i}]")
    elif isinstance(obj, np.ndarray):
        yield path, obj.dtype.str, obj.shape, obj.tobytes(), obj.flags.writeable
    else:
        yield path, type(obj).__name__, obj


def _outcome(decode, data: bytes) -> tuple:
    """A decode's proof leaves, or the class and message it raised."""
    try:
        protocol, proof = decode(data)
    except Exception as exc:  # noqa: BLE001 - the class is the result
        return "raised", type(exc), str(exc)
    return "decoded", protocol, list(_leaves(proof))


def _golden_target(name: str, blob: bytes) -> FuzzTarget:
    """The protocol's fuzz target with the golden blob as its honest proof."""
    return dataclasses.replace(
        target_for(name),
        blob=blob,
        decode=lambda data: proof_from_blob(data, expected_protocol=name)[1],
    )


def test_the_writer_reproduces_every_golden_blob_and_envelope(golden):
    name, proof, blob = golden
    envelope = write_result_envelope(f"{name}-proof", WORKLOADS[name], blob)
    pins = tuple(hashlib.sha256(b).hexdigest() for b in (blob, envelope))
    assert pins == FRAMED[name]
    assert ref.proof_to_blob(name, proof) == blob
    assert ref.write_result_envelope(f"{name}-proof", WORKLOADS[name], blob) == envelope
    body = protocols.get(name).to_bytes(proof)
    assert ref.BODY_CODECS[name][0](proof) == body
    assert write_proof_blob(name, body) == blob == ref.write_proof_blob(name, body)


def test_both_readers_decode_the_golden_blob_alike(golden):
    name, proof, blob = golden
    shipped = _outcome(proof_from_blob, blob)
    assert shipped == _outcome(ref.proof_from_blob, blob)
    assert shipped == ("decoded", name, list(_leaves(ref.BODY_CODECS[name][1](
        protocols.get(name).to_bytes(proof)
    ))))
    assert read_proof_blob(blob) == ref.read_proof_blob(blob)
    envelope = write_result_envelope(f"{name}-proof", WORKLOADS[name], blob)
    assert read_result_envelope(envelope) == ref.read_result_envelope(envelope)


def test_both_readers_agree_on_every_seeded_mutant(golden):
    name, _, blob = golden
    target = _golden_target(name, blob)
    compared = 0
    for mutator, mutate in MUTATORS.items():
        for seed in range(SEEDS):
            mutant = mutate(target, np.random.default_rng(seed))
            if mutant is None or mutant.data is None:
                continue
            shipped = _outcome(proof_from_blob, mutant.data)
            assert shipped == _outcome(ref.proof_from_blob, mutant.data), (name, mutator, seed)
            envelope = ref.write_result_envelope(f"{name}-proof", WORKLOADS[name], mutant.data)
            cut = envelope[: len(envelope) - seed]
            assert _outcome(_envelope_payload, cut) == _outcome(_reference_envelope_payload, cut)
            compared += 1
    assert compared >= 8 * SEEDS, compared


def _envelope_payload(data: bytes) -> tuple:
    kind, _, payload = read_result_envelope(data)
    return kind, payload


def _reference_envelope_payload(data: bytes) -> tuple:
    kind, _, payload = ref.read_result_envelope(data)
    return kind, payload


def _count_and_shape_words(name: str, body: bytes) -> list:
    """Body offset of every count word and array-header word (row
    count, and width where sent) the reference reader reads from
    ``body``."""
    words = []

    class Recording(ref.ByteReader):
        def count(self, item_bytes, what="count"):
            words.append(self._pos)
            return super().count(item_bytes, what)

        def elems(self, width=None, what="array"):
            start = self._pos
            arr = super().elems(width, what)
            words.extend(range(start, start + (8 if width is None else 4), 4))
            return arr

    with mock.patch.object(ref, "ByteReader", Recording):
        ref.BODY_CODECS[name][1](body)
    return words


def _assert_typed_refusal(data: bytes, where) -> None:
    shipped = _outcome(proof_from_blob, data)
    assert shipped[0] == "raised", where
    _, cls, message = shipped
    assert cls in (ValueError, ProofFormatError), (where, cls, message)
    assert TYPED_MESSAGE.search(message), (where, message)
    assert shipped == _outcome(ref.proof_from_blob, data), where


def test_a_blob_cut_at_any_byte_is_refused_typed(golden):
    name, _, blob = golden
    body = bytes(read_proof_blob(blob)[1])
    for cut in range(len(blob)):
        _assert_typed_refusal(blob[:cut], ("blob", name, cut))
    # Re-framed, a cut body reaches the body codec itself.
    for cut in range(len(body)):
        _assert_typed_refusal(write_proof_blob(name, body[:cut]), ("body", name, cut))


def _shape_word_count(proof) -> int:
    """The count and shape words a proof's body carries: one row count
    an array, a width for each FRI batch's rows, one count a list."""
    if hasattr(proof, "fri_proof"):
        fri = proof.fri_proof
        arrays = len(proof.caps) + 1 + len(fri.commit_caps) + 1
        openings = 3 * len(fri.batch_openings) + 2 * len(fri.layer_openings)
        return arrays + openings + 3
    return 2 + len(proof.level_caps) + 2 * len(proof.tree_openings()) + 3


def test_every_count_and_shape_word_set_to_its_maximum_is_refused_typed(golden):
    name, proof, blob = golden
    body = bytes(read_proof_blob(blob)[1])
    head = len(blob) - len(body)
    tag_length, body_length = 5, head - 4
    words = [tag_length, body_length] + [head + w for w in _count_and_shape_words(name, body)]
    assert len(words) == 2 + _shape_word_count(proof), words
    for offset in words:
        hostile = blob[:offset] + b"\xff\xff\xff\xff" + blob[offset + 4 :]
        _assert_typed_refusal(hostile, (name, offset))
