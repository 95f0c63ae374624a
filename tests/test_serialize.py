"""Proof serialization: round trips, verification after transport,
corruption detection."""

import numpy as np
import pytest

from repro.field import gl64
from repro.fri import FriConfig
from repro.plonk import CircuitBuilder, prove, setup, verify
from repro.protocols import get
from repro.serialize import ByteReader, ByteWriter
from repro.stark import prove as stark_prove, verify as stark_verify
from repro.workloads import by_name

_CFG = FriConfig(rate_bits=3, cap_height=1, num_queries=5,
                 proof_of_work_bits=2, final_poly_len=4)
_SCFG = FriConfig(rate_bits=1, cap_height=1, num_queries=8,
                  proof_of_work_bits=2, final_poly_len=4)
STARK, PLONK = get("stark"), get("plonk")


@pytest.fixture(scope="module")
def plonk_setup():
    b = CircuitBuilder()
    x = b.add_variable()
    pub = b.public_input()
    b.assert_equal(pub, b.mul(x, x))
    data = setup(b.build(), _CFG)
    proof = prove(data, {x.index: 7, pub.index: 49})
    return data, proof


@pytest.fixture(scope="module")
def stark_setup():
    air, trace, publics = by_name("Fibonacci").build_air(5)
    proof = stark_prove(air, trace, publics, _SCFG)
    return air, proof


class TestPrimitives:
    def test_u64_roundtrip(self):
        w = ByteWriter()
        w.u64(2**63 + 5)
        w.u32(17)
        r = ByteReader(w.getvalue())
        assert r.u64() == 2**63 + 5
        assert r.u32() == 17
        assert r.done()

    def test_elems_roundtrip_shapes(self, rng):
        for shape in [(5,), (3, 4), (2,), (0,)]:
            arr = gl64.random(shape, rng)
            w = ByteWriter()
            w.elems(arr)
            out = ByteReader(w.getvalue()).elems()
            assert out.shape == arr.shape
            assert np.array_equal(out, arr)

    def test_truncated_raises(self):
        w = ByteWriter()
        w.u64(1)
        data = w.getvalue()[:-2]
        with pytest.raises(ValueError):
            ByteReader(data).u64()


class TestHostileLengths:
    """Length-inflated and shape-hostile input must die with ValueError."""

    def test_inflated_elems_size_rejected(self):
        w = ByteWriter()
        w.u32(2**31)  # claims ~16 GiB of elements
        w.u32(1)
        w.u32(2**31)
        with pytest.raises(ValueError, match="length-inflated"):
            ByteReader(w.getvalue()).elems()

    def test_excessive_rank_rejected(self):
        w = ByteWriter()
        w.u32(0)
        w.u32(200)  # rank 200 "array"
        with pytest.raises(ValueError, match="rank"):
            ByteReader(w.getvalue()).elems()

    def test_shape_product_mismatch_rejected(self):
        w = ByteWriter()
        w.u32(4)
        w.u32(2)
        w.u32(3)  # 3 * 3 != 4
        w.u32(3)
        w._chunks.append(b"\x00" * 32)
        with pytest.raises(ValueError, match="shape"):
            ByteReader(w.getvalue()).elems()

    def test_inflated_count_rejected(self):
        w = ByteWriter()
        w.u32(2**30)
        r = ByteReader(w.getvalue())
        with pytest.raises(ValueError, match="length-inflated"):
            r.count(8, "test count")

    def test_inflated_public_input_count_rejected(self, stark_setup):
        # Stomp the STARK public-input count (right after the two caps
        # and degree_bits) with 0xFFFFFFFF: the reader must bound it by
        # the remaining buffer instead of looping 4 billion times.
        _, proof = stark_setup
        blob = bytearray(STARK.to_bytes(proof))
        w = ByteWriter()
        w.elems(proof.trace_cap)
        w.elems(proof.quotient_cap)
        w.u32(proof.degree_bits)
        offset = len(w.getvalue())
        blob[offset : offset + 4] = b"\xff\xff\xff\xff"
        with pytest.raises(ValueError, match="length-inflated"):
            STARK.from_bytes(bytes(blob))

    def test_scalar_cap_rejected(self, plonk_setup):
        # Re-serialize with the wires cap written as a 0-d array: the
        # (c, 4) cap contract must be enforced at decode time.
        _, proof = plonk_setup
        w = ByteWriter()
        w.u32(1)
        w.u32(0)  # ndim 0: a scalar "cap"
        w._chunks.append(b"\x07" + b"\x00" * 7)
        with pytest.raises(ValueError, match="cap"):
            from repro.serialize import read_cap

            read_cap(ByteReader(w.getvalue()), "wires cap")

    def test_empty_cap_rejected(self):
        from repro.serialize import read_cap

        w = ByteWriter()
        w.elems(np.zeros((0, 4), dtype=np.uint64))
        with pytest.raises(ValueError, match="cap"):
            read_cap(ByteReader(w.getvalue()), "trace cap")

    def test_malformed_merkle_siblings_rejected(self):
        from repro.merkle import TreeOpening

        w = ByteWriter()
        w.u32(1)  # one opened index
        w.u32(5)
        w.elems(np.zeros((1, 3), dtype=np.uint64))
        w.elems(np.zeros(8, dtype=np.uint64))  # flat, not (k, 4)
        with pytest.raises(ValueError, match="path nodes must be"):
            TreeOpening.read(ByteReader(w.getvalue()), None, "FRI batch opening")


class TestPlonkRoundTrip:
    def test_roundtrip_verifies(self, plonk_setup):
        data, proof = plonk_setup
        blob = PLONK.to_bytes(proof)
        restored = PLONK.from_bytes(blob)
        verify(data.verifier_data, restored)

    def test_roundtrip_fields_equal(self, plonk_setup):
        _, proof = plonk_setup
        restored = PLONK.from_bytes(PLONK.to_bytes(proof))
        assert np.array_equal(restored.wires_cap, proof.wires_cap)
        assert restored.public_inputs == proof.public_inputs
        assert restored.fri_proof.pow_witness == proof.fri_proof.pow_witness
        assert [op.proof.indices for op in restored.fri_proof.tree_openings()] == [
            op.proof.indices for op in proof.fri_proof.tree_openings()
        ]

    def test_serialized_size_near_accounting(self, plonk_setup):
        _, proof = plonk_setup
        blob = PLONK.to_bytes(proof)
        accounted = proof.size_bytes()
        # Codec overhead is length prefixes only: within 35%.
        assert accounted <= len(blob) <= accounted * 1.35

    def test_trailing_garbage_rejected(self, plonk_setup):
        _, proof = plonk_setup
        blob = PLONK.to_bytes(proof) + b"\x00"
        with pytest.raises(ValueError):
            PLONK.from_bytes(blob)

    def test_corrupted_payload_fails_verification(self, plonk_setup):
        data, proof = plonk_setup
        blob = bytearray(PLONK.to_bytes(proof))
        blob[len(blob) // 2] ^= 0xFF
        from repro.plonk import PlonkError

        try:
            restored = PLONK.from_bytes(bytes(blob))
        except ValueError:
            return  # structural corruption detected at decode time
        with pytest.raises(PlonkError):
            verify(data.verifier_data, restored)


class TestStarkRoundTrip:
    def test_roundtrip_verifies(self, stark_setup):
        air, proof = stark_setup
        restored = STARK.from_bytes(STARK.to_bytes(proof))
        stark_verify(air, restored, _SCFG)

    def test_degree_bits_preserved(self, stark_setup):
        _, proof = stark_setup
        restored = STARK.from_bytes(STARK.to_bytes(proof))
        assert restored.degree_bits == proof.degree_bits

    def test_deterministic_bytes(self, stark_setup):
        _, proof = stark_setup
        assert STARK.to_bytes(proof) == STARK.to_bytes(proof)


class TestResultEnvelope:
    def test_roundtrip(self):
        from repro.serialize import read_result_envelope, write_result_envelope

        blob = write_result_envelope("stark-proof", "Fibonacci", b"\x01\x02\x03")
        kind, workload, payload = read_result_envelope(blob)
        assert (kind, workload, payload) == ("stark-proof", "Fibonacci", b"\x01\x02\x03")

    def test_bad_magic_rejected(self):
        from repro.serialize import read_result_envelope

        with pytest.raises(ValueError, match="magic"):
            read_result_envelope(b"NOPE" + b"\x00" * 16)

    def test_unknown_kind_rejected(self):
        from repro.serialize import write_result_envelope

        with pytest.raises(ValueError, match="kind"):
            write_result_envelope("banana", "Fibonacci", b"")

    def test_trailing_bytes_rejected(self):
        from repro.serialize import read_result_envelope, write_result_envelope

        blob = write_result_envelope("debug", "x", b"payload")
        with pytest.raises(ValueError, match="trailing"):
            read_result_envelope(blob + b"\x00")

    def test_stark_digest_stable(self, stark_setup):
        _, proof = stark_setup
        assert STARK.digest(proof) == STARK.digest(proof)
        assert len(STARK.digest(proof)) == 64


class TestTaggedProofBlob:
    """Protocol tag + format-version framing around raw proof bodies."""

    def test_roundtrip_each_protocol(self, stark_setup, plonk_setup):
        from repro.serialize import proof_from_blob, proof_to_blob

        for protocol, proof in (
            ("stark", stark_setup[1]), ("plonk", plonk_setup[1]),
        ):
            blob = proof_to_blob(protocol, proof)
            tag, decoded = proof_from_blob(blob)
            assert tag == protocol
            # Digest is defined over the raw body, so framing does not
            # perturb the pinned goldens.
            encode = get(protocol).to_bytes
            assert encode(decoded) == encode(proof)

    def test_blob_carries_magic_and_version(self, plonk_setup):
        from repro.serialize import PROOF_BLOB_MAGIC, proof_to_blob

        blob = proof_to_blob("plonk", plonk_setup[1])
        assert blob.startswith(PROOF_BLOB_MAGIC)
        assert blob[len(PROOF_BLOB_MAGIC)] == PLONK.format_version

    def test_untagged_blob_rejected(self, plonk_setup):
        from repro.serialize import ProofFormatError, proof_from_blob

        body = PLONK.to_bytes(plonk_setup[1])  # a bare body, no UZKP framing
        with pytest.raises(ProofFormatError, match="magic"):
            proof_from_blob(body)

    def test_wrong_version_rejected(self, plonk_setup):
        from repro.serialize import (
            PROOF_BLOB_MAGIC,
            ProofFormatError,
            proof_from_blob,
            proof_to_blob,
        )

        blob = bytearray(proof_to_blob("plonk", plonk_setup[1]))
        blob[len(PROOF_BLOB_MAGIC)] = 99
        with pytest.raises(ProofFormatError, match="version"):
            proof_from_blob(bytes(blob))

    def test_protocol_mismatch_rejected(self, plonk_setup):
        from repro.serialize import ProofFormatError, proof_from_blob, proof_to_blob

        blob = proof_to_blob("plonk", plonk_setup[1])
        with pytest.raises(ProofFormatError, match="plonk"):
            proof_from_blob(blob, expected_protocol="stark")

    def test_unknown_tag_rejected(self):
        from repro.serialize import ProofFormatError, proof_from_blob, write_proof_blob

        with pytest.raises(ValueError, match="protocol"):
            write_proof_blob("groth16", b"x")
        # Hand-craft a framed blob with a hostile tag.
        from repro.serialize import PROOF_BLOB_MAGIC
        import struct

        tag = b"groth16"
        blob = (
            PROOF_BLOB_MAGIC
            + bytes([1])
            + struct.pack("<I", len(tag)) + tag
            + struct.pack("<I", 1) + b"x"
        )
        with pytest.raises(ProofFormatError, match="protocol"):
            proof_from_blob(blob)

    def test_truncated_and_trailing_rejected(self, plonk_setup):
        from repro.serialize import ProofFormatError, proof_from_blob, proof_to_blob

        blob = proof_to_blob("plonk", plonk_setup[1])
        with pytest.raises(ProofFormatError):
            proof_from_blob(blob[: len(blob) // 2])
        with pytest.raises(ProofFormatError, match="trailing"):
            proof_from_blob(blob + b"\x00")

    def test_error_is_a_valueerror(self):
        from repro.serialize import ProofFormatError

        assert issubclass(ProofFormatError, ValueError)


def _as_version_1(blob: bytes) -> bytes:
    """A current blob with its format-version byte rewritten to 1."""
    from repro.serialize import PROOF_BLOB_MAGIC

    old = bytearray(blob)
    old[len(PROOF_BLOB_MAGIC)] = 1
    return bytes(old)


#: Current format versions: STARK is at 3 since its first FRI layer may
#: be virtual; Plonk's bytes did not change and it stays at 2.
CURRENT_VERSIONS = {"stark": 4, "plonk": 3}


class TestFormatVersion1:
    """Version 1 opened arity-2 pair leaves; a v1 STARK or Plonk blob is
    refused with the typed version error, never fed to the current codec."""

    @pytest.mark.parametrize("protocol", ["stark", "plonk"])
    def test_v1_blob_raises_the_version_error(self, protocol, stark_setup, plonk_setup):
        from repro.serialize import ProofFormatError, proof_from_blob, proof_to_blob

        proof = {"stark": stark_setup, "plonk": plonk_setup}[protocol][1]
        version = CURRENT_VERSIONS[protocol]
        assert get(protocol).format_version == version
        with pytest.raises(ProofFormatError, match=f"version 1 .*expected {version}"):
            proof_from_blob(_as_version_1(proof_to_blob(protocol, proof)))

    def test_v2_stark_blob_raises_the_version_error(self, stark_setup):
        # v2 STARK blobs committed FRI layer 0; v3 may carry coset leaves
        # and one layer fewer, so a v2 blob is refused, typed.
        from repro.serialize import (
            PROOF_BLOB_MAGIC,
            ProofFormatError,
            proof_from_blob,
            proof_to_blob,
        )

        blob = bytearray(proof_to_blob("stark", stark_setup[1]))
        blob[len(PROOF_BLOB_MAGIC)] = 2
        with pytest.raises(ProofFormatError, match="version 2 .*expected 4"):
            proof_from_blob(bytes(blob))

    @pytest.mark.parametrize("protocol", ["stark", "plonk"])
    def test_per_query_path_blob_raises_the_version_error(self, protocol, stark_setup, plonk_setup):
        # STARK v3 and Plonk v2 sent one Merkle path per query; the
        # current format opens each tree once, so those blobs are refused.
        from repro.serialize import PROOF_BLOB_MAGIC, ProofFormatError, proof_from_blob, proof_to_blob

        proof = {"stark": stark_setup, "plonk": plonk_setup}[protocol][1]
        version = CURRENT_VERSIONS[protocol]
        blob = bytearray(proof_to_blob(protocol, proof))
        blob[len(PROOF_BLOB_MAGIC)] = version - 1
        with pytest.raises(ProofFormatError, match=f"version {version - 1} .*expected {version}"):
            proof_from_blob(bytes(blob))

    @pytest.mark.parametrize("protocol", ["stark", "plonk"])
    def test_cli_verify_refuses_a_v1_envelope(self, protocol, tmp_path, capsys):
        from repro.cli import main
        from repro.serialize import read_result_envelope, write_result_envelope
        from repro.service import execute

        envelope = execute({"workload": "Fibonacci", "kind": protocol, "scale": 5})["envelope"]
        current = tmp_path / "current.bin"
        current.write_bytes(envelope)
        assert main(["verify", str(current), "--scale", "5"]) == 0
        assert "verified OK" in capsys.readouterr().out

        kind, workload, blob = read_result_envelope(envelope)
        old = tmp_path / "v1.bin"
        old.write_bytes(write_result_envelope(kind, workload, _as_version_1(blob)))
        assert main(["verify", str(old), "--scale", "5"]) == 2
        err = capsys.readouterr().err
        assert "ProofFormatError" in err and "version 1" in err
