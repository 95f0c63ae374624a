"""The field-by-field proof codec, kept as the independent test oracle.

These are the bodies ``repro.serialize`` and the proof dataclasses had
before the codec moved to one pass over the buffer, brought to the
current wire: a ``ByteReader`` that slices a fresh ``bytes`` object for
every ``u32`` and every array, a ``ByteWriter`` that packs each header
word on its own, the cap / extension-array / FRI / tree-opening
readers, each protocol's body codec, and the blob and envelope framing
(which copied the blob before reading its two length words).  An array
is a ``(k, w)`` matrix sent as its row count, its width only where the
reader does not know it (a FRI batch's opened rows), then its words.
They share nothing with the shipped codec but the proof dataclasses
they build, the exception classes and the registry's format versions,
so a decode, an encode or a refusal on which the two agree is evidence
about both.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.fri.proof import FriProof
from repro.hyperplonk.proof import HyperPlonkProof
from repro.merkle import TreeOpening
from repro.pcs.protocol import Proof
from repro.protocols import get, names
from repro.serialize import ENVELOPE_MAGIC, ENVELOPE_VERSION, PROOF_BLOB_MAGIC, ProofFormatError
from repro.sumcheck import SumcheckProof


class ByteWriter:
    """Append-only little-endian byte sink."""

    def __init__(self) -> None:
        self._chunks: List[bytes] = []

    def u32(self, v: int) -> None:
        self._chunks.append(struct.pack("<I", v))

    def u64(self, v: int) -> None:
        self._chunks.append(struct.pack("<Q", int(v)))

    def elems(self, arr, width: int | None = None) -> None:
        arr = np.ascontiguousarray(np.asarray(arr, dtype=np.uint64))
        if arr.ndim != 2 or (width is not None and arr.shape[1] != width):
            raise ValueError(f"cannot encode a {arr.shape} array as (k, {width or 'w'}) rows")
        self.u32(arr.shape[0])
        if width is None:
            self.u32(arr.shape[1])
        self._chunks.append(arr.tobytes())

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)


class ByteReader:
    """Sequential reader matching :class:`ByteWriter`, one slice a read."""

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
        return len(self._data) - self._pos

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def count(self, item_bytes: int, what: str = "count") -> int:
        n = self.u32()
        if n * item_bytes > self.remaining():
            raise ValueError(
                f"length-inflated proof bytes ({what} {n} exceeds remaining buffer)"
            )
        return n

    def elems(self, width: int | None = None, what: str = "array") -> np.ndarray:
        rows = self.u32()
        if width is None:
            width = self.u32()
            if width == 0:
                raise ValueError(f"malformed {what} (zero-width rows)")
        if rows * width * 8 > self.remaining():
            raise ValueError(
                f"length-inflated proof bytes ({what} of {rows} rows exceeds remaining buffer)"
            )
        raw = self._take(rows * width * 8)
        return np.frombuffer(raw, dtype=np.uint64).reshape(rows, width).copy()

    def done(self) -> bool:
        return self._pos == len(self._data)


# -- shared pieces -------------------------------------------------------------


def read_cap(r: ByteReader, what: str) -> np.ndarray:
    cap = r.elems(4, what)
    if cap.shape[0] == 0:
        raise ValueError(f"malformed {what} (expected a non-empty (c, 4) array)")
    return cap


def read_ext_array(r: ByteReader, what: str) -> np.ndarray:
    return r.elems(2, what)


def write_opening(w: ByteWriter, op: TreeOpening, width: int | None) -> None:
    w.elems(op.rows, width)
    w.elems(op.nodes, 4)


def read_opening(r: ByteReader, width: int | None, what: str) -> TreeOpening:
    rows = r.elems(width, what)
    nodes = r.elems(4, f"{what} path nodes")
    return TreeOpening(rows=rows, nodes=nodes)


def write_fri_proof(w: ByteWriter, proof: FriProof) -> None:
    w.u32(len(proof.commit_caps))
    for cap in proof.commit_caps:
        w.elems(cap, 4)
    w.elems(proof.final_poly, 2)
    w.u64(proof.pow_witness)
    w.u32(len(proof.batch_openings))
    for op in proof.batch_openings:
        write_opening(w, op, None)
    w.u32(len(proof.layer_openings))
    for op in proof.layer_openings:
        write_opening(w, op, 2)


def read_fri_proof(r: ByteReader) -> FriProof:
    caps = [read_cap(r, "FRI layer cap") for _ in range(r.count(8, "FRI cap count"))]
    final_poly = read_ext_array(r, "final polynomial")
    pow_witness = r.u64()
    batch_openings = [
        read_opening(r, None, "FRI batch opening")
        for _ in range(r.count(8, "FRI batch opening count"))
    ]
    layer_openings = [
        read_opening(r, 2, "FRI layer opening")
        for _ in range(r.count(8, "FRI layer opening count"))
    ]
    return FriProof(
        commit_caps=caps,
        final_poly=final_poly,
        pow_witness=pow_witness,
        batch_openings=batch_openings,
        layer_openings=layer_openings,
    )


# -- protocol bodies -----------------------------------------------------------


def stark_to_bytes(proof: Proof) -> bytes:
    trace_cap, quotient_cap = proof.caps
    w = ByteWriter()
    w.elems(trace_cap, 4)
    w.elems(quotient_cap, 4)
    w.elems(proof.opened_values, 2)
    write_fri_proof(w, proof.fri_proof)
    return w.getvalue()


def stark_from_bytes(data: bytes) -> Proof:
    r = ByteReader(data)
    trace_cap = read_cap(r, "trace cap")
    quotient_cap = read_cap(r, "quotient cap")
    opened_values = read_ext_array(r, "opened values")
    fri_proof = read_fri_proof(r)
    if not r.done():
        raise ValueError("trailing bytes after STARK proof")
    return Proof(
        caps=[trace_cap, quotient_cap],
        opened_values=opened_values,
        fri_proof=fri_proof,
    )


def plonk_to_bytes(proof: Proof) -> bytes:
    wires_cap, z_cap, quotient_cap = proof.caps
    w = ByteWriter()
    w.elems(wires_cap, 4)
    w.elems(z_cap, 4)
    w.elems(quotient_cap, 4)
    w.elems(proof.opened_values, 2)
    write_fri_proof(w, proof.fri_proof)
    return w.getvalue()


def plonk_from_bytes(data: bytes) -> Proof:
    r = ByteReader(data)
    wires_cap = read_cap(r, "wires cap")
    z_cap = read_cap(r, "z cap")
    quotient_cap = read_cap(r, "quotient cap")
    opened_values = read_ext_array(r, "opened values")
    fri_proof = read_fri_proof(r)
    if not r.done():
        raise ValueError("trailing bytes after Plonk proof")
    return Proof(
        caps=[wires_cap, z_cap, quotient_cap],
        opened_values=opened_values,
        fri_proof=fri_proof,
    )


def hyperplonk_to_bytes(proof: HyperPlonkProof) -> bytes:
    w = ByteWriter()
    w.elems(proof.wires_cap, 4)
    w.elems(proof.z_cap, 4)
    sc = proof.sumcheck
    w.u64(sc.claimed_sum)
    w.u32(len(sc.round_values))
    for y0, y1 in sc.round_values:
        w.u64(y0)
        w.u64(y1)
    w.u64(sc.final_value)
    w.u32(len(proof.level_caps))
    for cap in proof.level_caps:
        w.elems(cap, 4)
    write_opening(w, proof.pre_opening, 8)
    write_opening(w, proof.wires_opening, 3)
    write_opening(w, proof.z_opening, 1)
    w.u32(len(proof.level_openings))
    for op in proof.level_openings:
        write_opening(w, op, 1)
    return w.getvalue()


def hyperplonk_from_bytes(data: bytes) -> HyperPlonkProof:
    r = ByteReader(data)
    wires_cap = read_cap(r, "wires cap")
    z_cap = read_cap(r, "Z cap")
    claimed_sum = r.u64()
    rounds = [(r.u64(), r.u64()) for _ in range(r.count(16, "sumcheck round count"))]
    final_value = r.u64()
    sumcheck = SumcheckProof(claimed_sum=claimed_sum, round_values=rounds, final_value=final_value)
    level_caps = [read_cap(r, "fold-level cap") for _ in range(r.count(8, "fold-level cap count"))]
    pre_opening = read_opening(r, 8, "preprocessed opening")
    wires_opening = read_opening(r, 3, "wires opening")
    z_opening = read_opening(r, 1, "Z opening")
    level_openings = [
        read_opening(r, 1, "fold-level opening")
        for _ in range(r.count(8, "fold-level opening count"))
    ]
    if not r.done():
        raise ValueError("trailing bytes after HyperPlonk proof")
    return HyperPlonkProof(
        wires_cap=wires_cap,
        z_cap=z_cap,
        sumcheck=sumcheck,
        level_caps=level_caps,
        pre_opening=pre_opening,
        wires_opening=wires_opening,
        z_opening=z_opening,
        level_openings=level_openings,
    )


#: ``protocol -> (to_bytes, from_bytes)``.
BODY_CODECS: Dict[str, Tuple[Callable, Callable]] = {
    "stark": (stark_to_bytes, stark_from_bytes),
    "plonk": (plonk_to_bytes, plonk_from_bytes),
    "hyperplonk": (hyperplonk_to_bytes, hyperplonk_from_bytes),
}


# -- framing -------------------------------------------------------------------


def _version_for(protocol: str) -> int:
    if protocol not in names():
        raise ProofFormatError(f"unknown proof protocol tag {protocol!r}")
    return get(protocol).format_version


def write_proof_blob(protocol: str, body: bytes) -> bytes:
    version = _version_for(protocol)
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
    expected = _version_for(protocol)
    if version != expected:
        raise ProofFormatError(
            f"unsupported proof format version {version} for {protocol!r} "
            f"(expected {expected})"
        )
    return protocol, body


def proof_to_blob(protocol: str, proof) -> bytes:
    return write_proof_blob(protocol, BODY_CODECS[protocol][0](proof))


def proof_from_blob(data: bytes, expected_protocol: str | None = None) -> tuple:
    protocol, body = read_proof_blob(data)
    if expected_protocol is not None and protocol != expected_protocol:
        raise ProofFormatError(
            f"proof blob carries protocol {protocol!r}, expected {expected_protocol!r}"
        )
    return protocol, BODY_CODECS[protocol][1](body)


def write_result_envelope(kind: str, workload: str, payload: bytes) -> bytes:
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
    if kind not in ("sim-report", "debug") and (
        not kind.endswith("-proof") or kind[: -len("-proof")] not in names()
    ):
        raise ValueError(f"unknown envelope kind {kind!r}")
    return kind, workload, payload
