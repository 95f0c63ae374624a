"""Binary serialization for proofs: the protocol-agnostic half.

A compact little-endian format so proofs can actually be shipped
between a prover and verifier process: 8-byte field elements, 4-byte
counts for variable-size structures.  Every array a proof carries is a
``(k, w)`` matrix of field elements, and the wire carries only the
shape words its reader cannot know: the row count ``k`` always, the
width ``w`` only where the proof's type leaves it open (a batch's
opened leaf rows).  A cap or a node list is ``(k, 4)`` digests and an
extension array ``(k, 2)``, so those send their count alone.  Each
proof's ``size_bytes()`` is exactly the length of its body.

This module holds what every protocol shares (reader/writer, cap and
FRI codecs, blob and envelope framing) and imports
no protocol package.  A proof's *body* codec lives beside its dataclass
(:class:`repro.pcs.protocol.Proof` for every FRI protocol,
``HyperPlonkProof``); the framing functions resolve a tag to its codec
and format version through :mod:`repro.protocols`.

The codec makes one pass over the bytes.  The writer packs each array
header (count, then width if sent) with one ``struct.pack`` and joins
its chunks once; a blob's framing is one more join around the body.
The reader walks one offset through the buffer: ``struct.unpack_from``
for header words and one NumPy view at the offset plus one copy per
array, with no ``bytes`` slice per field, and a blob's body reaches its
decoder as a zero-copy view.  Every bound is checked before the read
that needs it.
"""

from __future__ import annotations

import struct
from functools import cache
from typing import List

import numpy as np

from .errors import UnknownProtocolError
from .fri.proof import FriProof
from .merkle import TreeOpening

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_TWO_U32 = struct.Struct("<II")
#: A tagged blob's magic, version byte and tag length.
_BLOB_HEAD = struct.Struct("<4sBI")
_U64_DTYPE = np.dtype(np.uint64)


class ByteWriter:
    """Append-only little-endian byte sink."""

    def __init__(self) -> None:
        self._chunks: List[bytes] = []

    def u32(self, v: int) -> None:
        """Write an unsigned 32-bit length/count."""
        self._chunks.append(_U32.pack(v))

    def u64(self, v: int) -> None:
        """Write an unsigned 64-bit value (field element, witness)."""
        self._chunks.append(_U64.pack(int(v)))

    def elems(self, arr, width: int | None = None) -> None:
        """Write a ``(k, w)`` field-element matrix: its row count, its
        width unless the reader knows it (``width``, which the matrix
        must have), then its words.  ``ValueError`` for any other shape:
        the wire has no way to carry it."""
        if type(arr) is not np.ndarray or arr.dtype is not _U64_DTYPE:
            arr = np.asarray(arr, dtype=np.uint64)
        if arr.ndim != 2 or width not in (None, arr.shape[1]):
            raise ValueError(f"cannot encode a {arr.shape} array as (k, {width or 'w'}) rows")
        head = _TWO_U32.pack(*arr.shape) if width is None else _U32.pack(arr.shape[0])
        self._chunks += (head, arr.tobytes())

    def getvalue(self) -> bytes:
        """Concatenate everything written so far."""
        return b"".join(self._chunks)


def _inflated(what: str) -> ValueError:
    return ValueError(f"length-inflated proof bytes ({what} exceeds remaining buffer)")


def _truncated() -> ValueError:
    return ValueError("truncated proof bytes")


class ByteReader:
    """Sequential reader matching :class:`ByteWriter`, from ``pos`` on.

    Every count and array length read from the wire is bounded by the
    number of bytes actually remaining in the buffer *before* any
    allocation or loop is driven by it, so truncated or length-inflated
    input always fails with a typed :class:`ValueError` instead of
    over-allocating or surfacing a raw ``struct``/NumPy error.  The
    proving service deserializes client-supplied bytes through this
    reader.  ``data`` is any bytes-like object; nothing is sliced out
    of it but the arrays' copies and :meth:`prefixed`'s views.
    """

    def __init__(self, data, pos: int = 0) -> None:
        self._data = data
        self._pos = pos
        self._end = len(data)

    def u32(self) -> int:
        """Read an unsigned 32-bit length/count."""
        pos = self._pos
        if pos + 4 > self._end:
            raise _truncated()
        self._pos = pos + 4
        return _U32.unpack_from(self._data, pos)[0]

    def u64(self) -> int:
        """Read an unsigned 64-bit value."""
        pos = self._pos
        if pos + 8 > self._end:
            raise _truncated()
        self._pos = pos + 8
        return _U64.unpack_from(self._data, pos)[0]

    def count(self, item_bytes: int, what: str = "count") -> int:
        """Read a u32 count whose items occupy ``>= item_bytes`` each.

        Rejects counts that could not possibly be satisfied by the
        remaining buffer, so a length-inflated prefix cannot drive a
        multi-gigabyte loop or allocation.
        """
        n = self.u32()
        if n * item_bytes > self._end - self._pos:
            raise _inflated(f"{what} {n}")
        return n

    def prefixed(self) -> memoryview:
        """Read a u32 length, then that many bytes as a zero-copy view."""
        n = self.u32()
        pos = self._pos
        if pos + n > self._end:
            raise _truncated()
        self._pos = pos + n
        return memoryview(self._data)[pos : pos + n]

    def elems(self, width: int | None = None, what: str = "array") -> np.ndarray:
        """Read a ``(k, w)`` matrix written by :meth:`ByteWriter.elems`
        with the same ``width``; ``what`` labels the typed errors."""
        k = self.u32()
        if width is None:
            width = self.u32()
            if not width:
                raise ValueError(f"malformed {what} (zero-width rows)")
        start = self._pos
        stop = start + 8 * k * width
        if stop > self._end:
            raise _inflated(f"{what} of {k} rows")
        self._pos = stop
        # A view at ``start`` (what ``np.frombuffer(data, count=k * width,
        # offset=start).reshape(k, width)`` gives, in one call), then a copy.
        return np.ndarray((k, width), _U64_DTYPE, self._data, start).copy()

    def done(self) -> bool:
        """Whether every byte has been consumed."""
        return self._pos == self._end


# -- FRI -----------------------------------------------------------------------


def read_cap(r: ByteReader, what: str = "Merkle cap") -> np.ndarray:
    """Read a Merkle cap: a non-empty ``(c, 4)`` digest matrix.

    The verifiers absorb caps into the Fiat-Shamir transcript and index
    them by reduced query position; an empty cap must be rejected here,
    with a typed error, before it reaches them.
    """
    cap = r.elems(4, what)
    if not cap.shape[0]:
        raise ValueError(f"malformed {what} (expected a non-empty (c, 4) array)")
    return cap


def write_fri_proof(w: ByteWriter, proof: FriProof) -> None:
    """Append a FRI proof: caps, final polynomial, grinding witness, then
    one :class:`~repro.merkle.TreeOpening` per batch (rows of any width)
    and per committed layer (its ``(m, 2)`` values)."""
    w.u32(len(proof.commit_caps))
    for cap in proof.commit_caps:
        w.elems(cap, 4)
    w.elems(proof.final_poly, 2)
    w.u64(proof.pow_witness)
    for openings, width in ((proof.batch_openings, None), (proof.layer_openings, 2)):
        w.u32(len(openings))
        for op in openings:
            op.write(w, width)


def read_fri_proof(r: ByteReader) -> FriProof:
    """Read a FRI proof (batch leaf widths are pinned by the verifier)."""
    caps = [
        read_cap(r, "FRI layer cap")
        for _ in range(r.count(8, "FRI cap count"))
    ]
    final_poly = r.elems(2, "final polynomial")
    pow_witness = r.u64()
    batch_openings = [
        TreeOpening.read(r, None, "FRI batch opening")
        for _ in range(r.count(8, "FRI batch opening count"))
    ]
    layer_openings = [
        TreeOpening.read(r, 2, "FRI layer opening")
        for _ in range(r.count(8, "FRI layer opening count"))
    ]
    return FriProof(
        commit_caps=caps,
        final_poly=final_poly,
        pow_witness=pow_witness,
        batch_openings=batch_openings,
        layer_openings=layer_openings,
    )


# -- Tagged proof blobs --------------------------------------------------------
#
# A raw proof body (``ProofSystem.to_bytes``) carries no self-description:
# feeding a Plonk body to the STARK decoder yields garbage or a confusing
# structural error.  Everything that ships a proof across a boundary
# (CLI files, service envelopes, fuzz artifacts) therefore wraps the
# body in a tagged blob -- magic, a format-version byte, the protocol
# tag, then the length-prefixed body -- so readers dispatch on the tag
# and reject untagged bytes with a clear typed error.  Digests stay
# defined over the *raw body* so the pinned golden digests are
# unaffected by the framing.  The version byte is the tagged protocol's
# ``ProofSystem.format_version``, bumped when its body codec changes
# incompatibly.

PROOF_BLOB_MAGIC = b"UZKP"


class ProofFormatError(ValueError):
    """A proof blob's framing (magic / version / protocol tag) is invalid."""


@cache
def _registry():
    """:mod:`repro.protocols`, imported once, on first use: it imports
    the proof modules, which import this one."""
    from . import protocols

    return protocols


def _system_for(protocol: str):
    """The registered backend behind a blob's protocol tag."""
    try:
        return _registry().get(protocol)
    except UnknownProtocolError:
        raise ProofFormatError(f"unknown proof protocol tag {protocol!r}") from None


def write_proof_blob(protocol: str, body: bytes) -> bytes:
    """Frame a raw proof body with its protocol tag and format version."""
    version = _system_for(protocol).format_version
    tag = protocol.encode("utf-8")
    head = _BLOB_HEAD.pack(PROOF_BLOB_MAGIC, version, len(tag))
    return b"".join((head, tag, _U32.pack(len(body)), body))


def read_proof_blob(data: bytes) -> tuple:
    """Unframe a tagged blob; returns ``(protocol, body)``, ``body`` a
    zero-copy ``memoryview`` into ``data``.

    Raises :class:`ProofFormatError` for untagged bytes, an unknown
    protocol tag, or a format version the tagged protocol's current
    codec does not speak -- before any body decoding happens.  The tag
    is resolved *first* so an unknown protocol reports as such rather
    than as a version mismatch.
    """
    if len(data) < 5 or data[:4] != PROOF_BLOB_MAGIC:
        raise ProofFormatError("untagged proof bytes (missing proof-blob magic)")
    version = data[4]
    r = ByteReader(data, 5)
    try:
        tag_raw = r.prefixed()
        body = r.prefixed()
    except ValueError as exc:
        raise ProofFormatError(f"malformed proof blob: {exc}") from exc
    if not r.done():
        raise ProofFormatError("trailing bytes after proof blob")
    try:
        protocol = str(tag_raw, "utf-8")
    except UnicodeDecodeError as exc:
        raise ProofFormatError("malformed proof blob: bad protocol tag") from exc
    expected = _system_for(protocol).format_version
    if version != expected:
        raise ProofFormatError(
            f"unsupported proof format version {version} for {protocol!r} "
            f"(expected {expected})"
        )
    return protocol, body


def proof_to_blob(protocol: str, proof) -> bytes:
    """Serialize a proof object into a tagged blob."""
    return write_proof_blob(protocol, _system_for(protocol).to_bytes(proof))


def proof_from_blob(data: bytes, expected_protocol: str | None = None) -> tuple:
    """Decode a tagged blob; returns ``(protocol, proof)``.

    With ``expected_protocol``, a well-formed blob carrying a different
    protocol's proof is rejected (still a :class:`ProofFormatError`)
    instead of being fed to the wrong decoder.
    """
    protocol, body = read_proof_blob(data)
    if expected_protocol is not None and protocol != expected_protocol:
        raise ProofFormatError(
            f"proof blob carries protocol {protocol!r}, expected {expected_protocol!r}"
        )
    return protocol, _system_for(protocol).from_bytes(body)


# -- Result envelopes ----------------------------------------------------------
#
# The proving service ships job results (proofs, simulation reports)
# between processes and over sockets.  The envelope is a tiny typed
# framing on top of the proof codecs: magic, version, a kind tag, the
# workload name, and the payload bytes, so a reader can dispatch to the
# right decoder without out-of-band context.

ENVELOPE_MAGIC = b"UZKR"
ENVELOPE_VERSION = 1

#: Payload kinds an envelope may carry besides ``<protocol>-proof``,
#: which is valid exactly when ``<protocol>`` is a registered backend.
ENVELOPE_KINDS = ("sim-report", "debug")


def _check_envelope_kind(kind: str) -> None:
    if kind in ENVELOPE_KINDS:
        return
    if not kind.endswith("-proof") or kind[: -len("-proof")] not in _registry().names():
        raise ValueError(f"unknown envelope kind {kind!r}")


def write_result_envelope(kind: str, workload: str, payload: bytes) -> bytes:
    """Frame a result payload with its kind tag and workload name."""
    _check_envelope_kind(kind)
    kind_raw, workload_raw = kind.encode("utf-8"), workload.encode("utf-8")
    return b"".join((
        ENVELOPE_MAGIC,
        _U32.pack(ENVELOPE_VERSION),
        _U32.pack(len(kind_raw)),
        kind_raw,
        _U32.pack(len(workload_raw)),
        workload_raw,
        _U32.pack(len(payload)),
        payload,
    ))


def read_result_envelope(data: bytes) -> tuple:
    """Read an envelope; returns ``(kind, workload, payload)``."""
    if len(data) < 4:
        raise _truncated()
    if data[:4] != ENVELOPE_MAGIC:
        raise ValueError("not a result envelope (bad magic)")
    r = ByteReader(data, 4)
    version = r.u32()
    if version != ENVELOPE_VERSION:
        raise ValueError(f"unsupported envelope version {version}")
    kind = str(r.prefixed(), "utf-8")
    workload = str(r.prefixed(), "utf-8")
    payload = bytes(r.prefixed())
    if not r.done():
        raise ValueError("trailing bytes after result envelope")
    _check_envelope_kind(kind)
    return kind, workload, payload
