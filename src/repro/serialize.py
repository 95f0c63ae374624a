"""Binary serialization for proofs: the protocol-agnostic half.

A compact little-endian format so proofs can actually be shipped
between a prover and verifier process: 8-byte field elements, 4-byte
length prefixes for variable-size structures.  The serialized sizes
validate the structural ``size_bytes()`` accounting used by the
Table 5 / Table 6 proof-size reproduction (the codec adds only small
length-prefix overhead).

This module holds what every protocol shares (reader/writer, cap /
FRI / openings codecs, blob and envelope framing) and imports no
protocol package.  A protocol's *body* codec lives beside its proof
dataclass (``StarkProof.to_bytes`` ...); the framing functions resolve
a tag to its codec and format version through :mod:`repro.protocols`.
"""

from __future__ import annotations

import struct
from typing import List

import numpy as np

from .errors import UnknownProtocolError
from .fri.proof import FriProof
from .fri.prover import FriOpenings
from .merkle import TreeOpening


class ByteWriter:
    """Append-only little-endian byte sink."""

    def __init__(self) -> None:
        self._chunks: List[bytes] = []

    def u32(self, v: int) -> None:
        """Write an unsigned 32-bit length/count."""
        self._chunks.append(struct.pack("<I", v))

    def u64(self, v: int) -> None:
        """Write an unsigned 64-bit value (field element, witness)."""
        self._chunks.append(struct.pack("<Q", int(v)))

    def elems(self, arr) -> None:
        """Write a field-element array with its shape header."""
        arr = np.ascontiguousarray(np.asarray(arr, dtype=np.uint64))
        self.u32(arr.size)
        self.u32(arr.ndim)
        for d in arr.shape:
            self.u32(d)
        self._chunks.append(arr.tobytes())

    def getvalue(self) -> bytes:
        """Concatenate everything written so far."""
        return b"".join(self._chunks)


#: Maximum array rank the codec will decode.  Honest proofs only ever
#: serialize 0/1/2-dimensional arrays; anything deeper is hostile.
MAX_NDIM = 4


class ByteReader:
    """Sequential reader matching :class:`ByteWriter`.

    Every count and array length read from the wire is bounded by the
    number of bytes actually remaining in the buffer *before* any
    allocation or loop is driven by it, so truncated or length-inflated
    input always fails with a typed :class:`ValueError` instead of
    over-allocating or surfacing a raw ``struct``/NumPy error.  The
    proving service deserializes client-supplied bytes through this
    reader.
    """

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise ValueError("truncated proof bytes")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def remaining(self) -> int:
        """Bytes left in the buffer (bounds hostile counts)."""
        return len(self._data) - self._pos

    def u32(self) -> int:
        """Read an unsigned 32-bit length/count."""
        return struct.unpack("<I", self._take(4))[0]

    def u64(self) -> int:
        """Read an unsigned 64-bit value."""
        return struct.unpack("<Q", self._take(8))[0]

    def count(self, item_bytes: int, what: str = "count") -> int:
        """Read a u32 count whose items occupy ``>= item_bytes`` each.

        Rejects counts that could not possibly be satisfied by the
        remaining buffer, so a length-inflated prefix cannot drive a
        multi-gigabyte loop or allocation.
        """
        n = self.u32()
        if n * item_bytes > self.remaining():
            raise ValueError(
                f"length-inflated proof bytes ({what} {n} exceeds remaining buffer)"
            )
        return n

    def elems(self) -> np.ndarray:
        """Read a field-element array written by :meth:`ByteWriter.elems`."""
        size = self.u32()
        if size * 8 > self.remaining():
            raise ValueError(
                f"length-inflated proof bytes (array of {size} elements "
                "exceeds remaining buffer)"
            )
        ndim = self.u32()
        if ndim > MAX_NDIM:
            raise ValueError(f"array rank {ndim} out of range")
        shape = tuple(self.u32() for _ in range(ndim))
        expected = 1
        for d in shape:
            expected *= d
        if expected != size:
            raise ValueError("array shape does not match element count")
        raw = self._take(size * 8)
        return np.frombuffer(raw, dtype=np.uint64).reshape(shape).copy()

    def done(self) -> bool:
        """Whether every byte has been consumed."""
        return self._pos == len(self._data)


# -- FRI -----------------------------------------------------------------------


def read_cap(r: ByteReader, what: str = "Merkle cap") -> np.ndarray:
    """Read a Merkle cap, enforcing the (c, 4) digest-row layout.

    The verifiers absorb caps into the Fiat-Shamir transcript and index
    them by reduced query position; a reshaped or empty cap must be
    rejected here, with a typed error, before it reaches them.
    """
    cap = r.elems()
    if cap.ndim != 2 or cap.shape[1] != 4 or cap.shape[0] == 0:
        raise ValueError(f"malformed {what} (expected a non-empty (c, 4) array)")
    return cap


def write_fri_proof(w: ByteWriter, proof: FriProof) -> None:
    """Append a FRI proof: caps, final polynomial, grinding witness, then
    one :class:`~repro.merkle.TreeOpening` per batch and per layer."""
    w.u32(len(proof.commit_caps))
    for cap in proof.commit_caps:
        w.elems(cap)
    w.elems(proof.final_poly)
    w.u64(proof.pow_witness)
    for openings in (proof.batch_openings, proof.layer_openings):
        w.u32(len(openings))
        for op in openings:
            op.write(w)


def read_fri_proof(r: ByteReader) -> FriProof:
    """Read a FRI proof (leaf widths are pinned by the verifier)."""
    caps = [
        read_cap(r, "FRI layer cap")
        for _ in range(r.count(8, "FRI cap count"))
    ]
    final_poly = r.elems()
    if final_poly.ndim != 2 or final_poly.shape[1] != 2:
        raise ValueError("malformed final polynomial (expected an (n, 2) array)")
    pow_witness = r.u64()
    batch_openings = [
        TreeOpening.read(r, None, "FRI batch opening")
        for _ in range(r.count(8, "FRI batch opening count"))
    ]
    layer_openings = [
        TreeOpening.read(r, None, "FRI layer opening")
        for _ in range(r.count(8, "FRI layer opening count"))
    ]
    return FriProof(
        commit_caps=caps,
        final_poly=final_poly,
        pow_witness=pow_witness,
        batch_openings=batch_openings,
        layer_openings=layer_openings,
    )


def write_openings(w: ByteWriter, op: FriOpenings) -> None:
    """Append an opening set (points, columns, values)."""
    w.u32(len(op.points))
    for point, cols, vals in zip(op.points, op.columns, op.values):
        w.elems(point)
        w.u32(len(cols))
        for b, c in cols:
            w.u32(b)
            w.u32(c)
        w.elems(np.atleast_2d(vals))


def read_openings(r: ByteReader) -> FriOpenings:
    """Read an opening set."""
    points, columns, values = [], [], []
    for _ in range(r.count(8, "opening point count")):
        point = r.elems()
        if point.size != 2:
            raise ValueError("malformed opening point (expected 2 limbs)")
        points.append(point.reshape(2))
        cols = [(r.u32(), r.u32()) for _ in range(r.count(8, "opened column count"))]
        columns.append(cols)
        vals = r.elems()
        if vals.ndim != 2 or vals.shape[1] != 2:
            raise ValueError("malformed opening values (expected an (n, 2) array)")
        values.append(vals)
    return FriOpenings(points=points, columns=columns, values=values)


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


def _system_for(protocol: str):
    """The registered backend behind a blob's protocol tag."""
    from .protocols import get

    try:
        return get(protocol)
    except UnknownProtocolError:
        raise ProofFormatError(f"unknown proof protocol tag {protocol!r}") from None


def write_proof_blob(protocol: str, body: bytes) -> bytes:
    """Frame a raw proof body with its protocol tag and format version."""
    version = _system_for(protocol).format_version
    tag = protocol.encode("utf-8")
    w = ByteWriter()
    w._chunks.append(PROOF_BLOB_MAGIC)
    w._chunks.append(bytes([version]))
    w.u32(len(tag))
    w._chunks.append(tag)
    w.u32(len(body))
    w._chunks.append(body)
    return w.getvalue()


def read_proof_blob(data: bytes) -> tuple:
    """Unframe a tagged blob; returns ``(protocol, body)``.

    Raises :class:`ProofFormatError` for untagged bytes, an unknown
    protocol tag, or a format version the tagged protocol's current
    codec does not speak -- before any body decoding happens.  The tag
    is resolved *first* so an unknown protocol reports as such rather
    than as a version mismatch.
    """
    if len(data) < 5 or data[:4] != PROOF_BLOB_MAGIC:
        raise ProofFormatError("untagged proof bytes (missing proof-blob magic)")
    version = data[4]
    r = ByteReader(data[5:])
    try:
        tag_raw = r._take(r.u32())
        body = r._take(r.u32())
        trailing = not r.done()
    except ValueError as exc:
        raise ProofFormatError(f"malformed proof blob: {exc}") from exc
    if trailing:
        raise ProofFormatError("trailing bytes after proof blob")
    try:
        protocol = tag_raw.decode("utf-8")
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
    from .protocols import names

    if not kind.endswith("-proof") or kind[: -len("-proof")] not in names():
        raise ValueError(f"unknown envelope kind {kind!r}")


def write_result_envelope(kind: str, workload: str, payload: bytes) -> bytes:
    """Frame a result payload with its kind tag and workload name."""
    _check_envelope_kind(kind)
    w = ByteWriter()
    w._chunks.append(ENVELOPE_MAGIC)
    w.u32(ENVELOPE_VERSION)
    for text in (kind, workload):
        raw = text.encode("utf-8")
        w.u32(len(raw))
        w._chunks.append(raw)
    w.u32(len(payload))
    w._chunks.append(payload)
    return w.getvalue()


def read_result_envelope(data: bytes) -> tuple:
    """Read an envelope; returns ``(kind, workload, payload)``."""
    r = ByteReader(data)
    if r._take(4) != ENVELOPE_MAGIC:
        raise ValueError("not a result envelope (bad magic)")
    version = r.u32()
    if version != ENVELOPE_VERSION:
        raise ValueError(f"unsupported envelope version {version}")
    kind = r._take(r.u32()).decode("utf-8")
    workload = r._take(r.u32()).decode("utf-8")
    payload = r._take(r.u32())
    if not r.done():
        raise ValueError("trailing bytes after result envelope")
    _check_envelope_kind(kind)
    return kind, workload, payload
