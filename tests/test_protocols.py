"""Protocol-backend registry: interface conformance, typed lookup
errors, config handling, serialization round trips, and per-backend
end-to-end prove/verify (including the sumcheck-native backend's
zero-NTT guarantee)."""

import pytest

from repro.errors import UnknownProtocolError
from repro.metrics import counting
from repro.protocols import ProofSystem, ProtocolSetup, get, names
from repro.serialize import PROOF_PROTOCOLS, proof_from_blob, proof_to_blob
from repro.workloads import by_name


class TestRegistry:
    def test_canonical_names_and_order(self):
        assert names() == ("stark", "plonk", "hyperplonk")

    def test_every_name_has_a_blob_codec(self):
        for name in names():
            assert name in PROOF_PROTOCOLS

    def test_unknown_protocol_typed_error(self):
        with pytest.raises(UnknownProtocolError) as ei:
            get("groth16")
        msg = str(ei.value)
        assert "'groth16'" in msg and "hyperplonk" in msg
        # Old callers catch ValueError; the typed subclass still lands.
        assert isinstance(ei.value, ValueError)

    def test_systems_conform_to_interface(self):
        for name in names():
            system = get(name)
            assert isinstance(system, ProofSystem)
            assert system.name == name
            assert system.envelope_kind == f"{name}-proof"
            assert system.description
            cfg = system.default_config()
            assert isinstance(cfg, dict) and cfg
            assert isinstance(system.uses_ntt, bool)

    def test_hyperplonk_declares_no_ntt(self):
        assert get("hyperplonk").uses_ntt is False
        assert get("stark").uses_ntt is True
        assert get("plonk").uses_ntt is True

    def test_make_config_rejects_unknown_keys(self):
        for name in names():
            with pytest.raises(ValueError, match="unknown"):
                get(name).make_config({"bogus_knob": 1})

    def test_make_config_applies_overrides(self):
        for name in names():
            system = get(name)
            config = system.make_config({"num_queries": 3})
            assert config.num_queries == 3


class TestProveIsAbstract:
    def test_backend_must_implement_prove(self):
        class NoProve(ProofSystem):
            name = "no-prove"

            def default_config(self):  # pragma: no cover
                return {}

            def config_from(self, knobs):  # pragma: no cover
                return None

            def setup(self, workload, scale, config=None):  # pragma: no cover
                raise NotImplementedError

            def verify(self, setup, proof):  # pragma: no cover
                pass

        with pytest.raises(TypeError, match="prove"):
            NoProve()
        assert not hasattr(ProofSystem, "prove_serial")


class TestEndToEnd:
    @pytest.mark.parametrize("protocol", ["stark", "plonk", "hyperplonk"])
    def test_prove_verify_serialize_roundtrip(self, protocol):
        system = get(protocol)
        spec = by_name("Fibonacci")
        assert system.supports(spec)
        config = system.make_config({"num_queries": 4})
        psetup = system.setup(spec, 5, config)
        assert isinstance(psetup, ProtocolSetup)
        assert psetup.protocol == protocol
        assert psetup.rows & (psetup.rows - 1) == 0  # power of two
        proof = system.prove(psetup)
        system.verify(psetup, proof)
        # Raw-body codec round trip preserves the digest.
        body = system.to_bytes(proof)
        again = system.from_bytes(body)
        assert system.to_bytes(again) == body
        assert system.digest(proof) == system.digest(again)
        # Tagged-blob round trip carries the protocol tag.
        tag, decoded = proof_from_blob(proof_to_blob(protocol, proof))
        assert tag == protocol
        assert system.to_bytes(decoded) == body

    def test_stark_rejects_plonk_only_workload(self):
        # A spec without an AIR builder is unsupported by the STARK
        # backend but fine for the plonk family.
        stark = get("stark")
        for spec_name in ("ECDSA", "ImageCrop"):
            try:
                spec = by_name(spec_name)
            except KeyError:
                continue
            if spec.build_air is None:
                assert not stark.supports(spec)
                assert get("plonk").supports(spec)
                assert get("hyperplonk").supports(spec)
                return
        pytest.skip("no plonk-only workload registered")

    def test_fuzz_target_matches_protocol(self):
        for name in names():
            target = get(name).fuzz_target()
            assert target.protocol == name
            assert target.blob != target.alt_blob


class TestHyperPlonkHotPath:
    @pytest.mark.parametrize("workload", ["Fibonacci", "MVM"])
    def test_prove_runs_zero_ntts(self, workload):
        system = get("hyperplonk")
        spec = by_name(workload)
        psetup = system.setup(spec, 5, system.make_config({"num_queries": 4}))
        with counting() as c:
            proof = system.prove(psetup)
        stats = c.as_dict()
        assert stats.get("ntt_butterflies", 0) == 0
        assert stats.get("ntt_transforms", 0) == 0
        assert stats.get("sponge_permutations", 0) > 0  # Merkle work ran
        system.verify(psetup, proof)


#: Fibonacci scale 6 under each registry default config: sponge and
#: challenger permutations around ``verify`` alone.  Same values as
#: ``VERIFY_GOLDEN`` in benchmarks/check_perf_counters.py, recorded at
#: commit 12996fa when every authentication path was still walked alone.
VERIFY_GOLDENS = {
    "stark": {"sponge_permutations": 260, "challenger_permutations": 13},
    "plonk": {"sponge_permutations": 280, "challenger_permutations": 16},
    "hyperplonk": {"sponge_permutations": 64, "challenger_permutations": 13},
}


class TestVerifierCounters:
    @pytest.mark.parametrize("protocol", sorted(VERIFY_GOLDENS))
    def test_verify_hashes_what_it_always_hashed(self, protocol):
        # Batching path checks by level changes how many states one
        # Poseidon call carries, never how many states there are.
        system = get(protocol)
        psetup = system.setup(by_name("Fibonacci"), 6, system.make_config({}))
        proof = system.prove(psetup)
        with counting() as c:
            assert system.verify(psetup, proof) is None
        got = c.as_dict()
        assert {k: got[k] for k in VERIFY_GOLDENS[protocol]} == VERIFY_GOLDENS[protocol]
