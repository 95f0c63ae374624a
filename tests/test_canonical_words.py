"""A proof has exactly one accepting encoding.

Every field word a proof carries is read modulo ``p`` somewhere -- by
the Merkle leaf hash, the transcript or the arithmetic -- so a word
``v`` rewritten as ``v + p`` (still below ``2**64`` when ``v < 2**32 -
1``) names the same proof.  Every protocol verifier must refuse it, with
its typed error, before it hashes anything.
"""

from unittest import mock

import numpy as np
import pytest

from repro import metrics, protocols
from repro.field import gl64, goldilocks as gl
from repro.fuzz.targets import TYPED_REJECTIONS
from repro.serialize import ByteReader, proof_from_blob, proof_to_blob
from repro.workloads import by_name

from .goldens import CONFIGS, SCALE, WORKLOADS
from .reference_verifiers import reference_plane

#: The largest ``v`` whose ``v + p`` still fits a 64-bit word.
SMALL = (1 << 32) - 1


@pytest.fixture(scope="module", params=protocols.names())
def golden(request):
    """``(name, system, setup, tagged blob)`` at the goldens shape."""
    name = request.param
    system = protocols.get(name)
    setup = system.setup(by_name(WORKLOADS[name]), SCALE, CONFIGS[name])
    return name, system, setup, proof_to_blob(name, system.prove(setup))


def _word_offsets(blob: bytes) -> list:
    """Blob offset of every 64-bit word the body codec reads."""
    offsets = []
    u64, elems = ByteReader.u64, ByteReader.elems

    def read_u64(self):
        offsets.append(self._pos)
        return u64(self)

    def read_elems(self, *args):
        arr = elems(self, *args)
        offsets.extend(range(self._pos - 8 * arr.size, self._pos, 8))
        return arr

    with mock.patch.object(ByteReader, "u64", read_u64), mock.patch.object(
        ByteReader, "elems", read_elems
    ):
        name, proof = proof_from_blob(blob)
    body = len(protocols.get(name).to_bytes(proof))
    return [len(blob) - body + offset for offset in offsets]


def _rewritten(blob: bytes, offset: int) -> bytes:
    value = int.from_bytes(blob[offset : offset + 8], "little")
    return blob[:offset] + (value + gl.P).to_bytes(8, "little") + blob[offset + 8 :]


def _verdict(system, setup, proof) -> tuple:
    """``(error class name, message, permutations)`` of one verify."""
    with metrics.counting() as counts:
        try:
            system.verify(setup, proof)
        except TYPED_REJECTIONS as exc:
            error = (type(exc).__name__, str(exc))
        else:
            error = ("accepted", "")
    return (*error, counts.sponge_permutations + counts.challenger_permutations)


def test_every_small_word_rewritten_as_v_plus_p_is_refused(golden):
    """Both verifier planes refuse every rewrite with the same typed
    error, and refuse it before any hashing -- but for a FRI query
    index, which is not a field word: it must equal the transcript's."""
    name, system, setup, blob = golden
    small = [
        offset
        for offset in _word_offsets(blob)
        if int.from_bytes(blob[offset : offset + 8], "little") < SMALL
    ]
    assert small, "the sweep needs at least one word below 2**32 - 1"
    for offset in small:
        _, proof = proof_from_blob(_rewritten(blob, offset), expected_protocol=name)
        shipped = _verdict(system, setup, proof)
        with reference_plane():
            reference = _verdict(system, setup, proof)
        assert shipped[0] != "accepted", (name, offset)
        assert shipped[0] == reference[0], (name, offset, shipped, reference)
        if shipped[2]:
            assert "query index" in shipped[1], (name, offset, shipped)


class TestAllCanonical:
    def test_accepts_canonical_words(self):
        assert gl64.all_canonical(np.array([0, gl.P - 1], dtype=np.uint64), [5], 7)
        assert gl64.all_canonical()
        assert gl64.all_canonical(np.zeros((0, 4), dtype=np.uint64))

    @pytest.mark.parametrize(
        "value",
        [gl.P, 2**64 - 1, -1, 2**64, None, [[1, 2], [3]], np.array([-1], dtype=np.int64)],
    )
    def test_refuses_anything_else(self, value):
        assert not gl64.all_canonical(np.arange(4, dtype=np.uint64), value)
