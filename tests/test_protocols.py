"""Protocol-backend registry: interface conformance, typed lookup
errors, config handling, serialization round trips, and per-backend
end-to-end prove/verify (including the sumcheck-native backend's
zero-NTT guarantee).  The registry is also the *only* description of a
protocol: a backend registered under a fresh name must frame, ship,
verify and fuzz with no other module touched."""

import hashlib
from dataclasses import replace

import pytest

from repro.errors import UnknownProtocolError
from repro.field.goldilocks import P
from repro.fuzz import FuzzTarget, target_for
from repro.hyperplonk import HyperPlonkError
from repro.plonk import PlonkError
from repro.metrics import counting
from repro.protocols import ProofSystem, ProtocolSetup, StarkSystem, get, names, registry
from repro.serialize import (
    ProofFormatError,
    proof_from_blob,
    proof_to_blob,
    read_result_envelope,
    write_result_envelope,
)
from repro.service import JobSpec, ProvingService, execute, validate_spec, verify_result
from repro.stark import StarkError
from repro.workloads import by_name

from .goldens import FRAMED, SCALE, VERIFY_COUNTERS, WORKLOADS


class TestRegistry:
    def test_canonical_names_and_order(self):
        assert names() == ("stark", "plonk", "hyperplonk")

    def test_every_name_has_a_blob_codec(self):
        for name in names():
            system = get(name)
            assert type(system).to_bytes is not ProofSystem.to_bytes
            assert type(system).from_bytes is not ProofSystem.from_bytes
            assert 1 <= system.format_version <= 255  # one version byte

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
            blob = write_result_envelope(f"{name}-proof", "w", b"")
            assert read_result_envelope(blob) == (f"{name}-proof", "w", b"")
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


#: Knob values the shared config path once let through: wrong types
#: died in a worker, zero/negative query counts "proved" and verified a
#: proof with no query rounds at all.
BAD_KNOBS = [
    ("num_queries", "7"),
    ("num_queries", 2.5),
    ("num_queries", True),
    ("num_queries", 0),
    ("num_queries", -3),
    ("cap_height", -1),
    ("cap_height", 1.0),
]


@pytest.mark.parametrize("knob,value", BAD_KNOBS, ids=lambda v: repr(v))
@pytest.mark.parametrize("protocol", names())
class TestBadKnobValues:
    def test_rejected_at_make_config(self, protocol, knob, value):
        with pytest.raises(ValueError, match=knob):
            get(protocol).make_config({knob: value})

    def test_rejected_at_submit_before_any_worker(self, protocol, knob, value):
        spec = {"workload": "Fibonacci", "kind": protocol, "scale": 5, "config": {knob: value}}
        with pytest.raises(ValueError, match=knob):
            validate_spec(JobSpec.from_dict(spec))
        svc = ProvingService(workers=1)  # never started: no worker exists
        with pytest.raises(ValueError, match=knob):
            svc.submit(spec)
        assert svc.totals["submitted"] == 0 and svc.stats()["queue_depth"] == 0
        # ... and neither half of the executor runs such a spec directly.
        with pytest.raises(ValueError, match=knob):
            execute(spec)
        with pytest.raises(ValueError, match=knob):
            verify_result(spec, write_result_envelope(f"{protocol}-proof", "Fibonacci", b""))


def test_plonk_refuses_a_blowup_below_its_quotient_chunks():
    # Three quotient chunks need blowup >= 4: refused at the config, not
    # deep inside a prove's LDE kernel.
    message = r"constraint degree too high for the blowup factor \(need 3 chunks, blowup 2\)"
    with pytest.raises(ValueError, match=message):
        get("plonk").make_config({"rate_bits": 1})
    svc = ProvingService(workers=1)  # never started: no worker exists
    spec = {"workload": "Fibonacci", "kind": "plonk", "scale": 8, "config": {"rate_bits": 1}}
    with pytest.raises(ValueError, match=message):
        svc.submit(spec)
    assert svc.totals["submitted"] == 0
    assert get("plonk").make_config({"rate_bits": 2}).rate_bits == 2


@pytest.mark.parametrize("protocol", names())
def test_config_objects_check_their_own_ranges(protocol):
    # Direct callers of FriConfig / HyperPlonkConfig get the range
    # checks too, not just make_config callers.
    config_type = type(get(protocol).make_config())
    for bad in ({"num_queries": 0}, {"num_queries": -3}, {"cap_height": -1}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            config_type(**bad)


@pytest.mark.parametrize("protocol", names())
def test_cap_taller_than_the_tree_never_reaches_an_index_error(protocol):
    system = get(protocol)
    config = system.make_config({"cap_height": 40, "num_queries": 2})
    try:
        psetup = system.setup(by_name("Fibonacci"), 5, config)
    except ValueError as exc:
        assert "cap_height" in str(exc)
    else:  # clamped per tree instead
        system.verify(psetup, system.prove(psetup))


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

    @pytest.mark.parametrize(
        "protocol, error",
        [("stark", StarkError), ("plonk", PlonkError), ("hyperplonk", HyperPlonkError)],
    )
    def test_a_proof_of_another_instance_is_refused(self, protocol, error):
        # A verifier takes n from its own instance, never from the proof:
        # a proof at scale 6 is refused at scale 12, in process after a
        # blob round trip and by the service's client-side check.
        system, spec = get(protocol), by_name("Fibonacci")
        config = system.make_config()
        proof = system.prove(system.setup(spec, 6, config))
        _, decoded = proof_from_blob(proof_to_blob(protocol, proof), expected_protocol=protocol)
        with pytest.raises(error):
            system.verify(system.setup(spec, 12, config), decoded)
        job = {"workload": "Fibonacci", "kind": protocol, "scale": 6}
        envelope = execute(job)["envelope"]
        with pytest.raises(error):
            verify_result({**job, "scale": 12}, envelope)

    @pytest.mark.parametrize(
        "protocol, error",
        [("stark", StarkError), ("plonk", PlonkError), ("hyperplonk", HyperPlonkError)],
    )
    def test_a_non_canonical_statement_word_is_refused(self, protocol, error):
        # A statement word ``v + p`` would read as ``v`` to the
        # transcript and the arithmetic alike; it is refused, typed, as
        # is one past 64 bits.
        system = get(protocol)
        psetup = system.setup(by_name("Fibonacci"), 6, system.make_config())
        proof = system.prove(psetup)
        first, *rest = psetup.publics
        for word in (first + P, 1 << 64):
            with pytest.raises(error, match="public input"):
                system.verify(replace(psetup, publics=(word, *rest)), proof)

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


class ToySystem(StarkSystem):
    """The STARK backend under a name no other module has heard of."""

    name = "toy"
    description = "registry-sufficiency probe"


class TestRegistryIsSufficient:
    """A fourth backend is one class plus ``register()``."""

    @pytest.fixture
    def toy(self, monkeypatch):
        monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
        return registry.register(ToySystem())

    def test_fresh_name_flows_through_every_consumer(self, toy):
        assert names()[-1] == "toy"
        psetup = toy.setup(by_name("Fibonacci"), 5, toy.make_config({"num_queries": 4}))
        proof = toy.prove(psetup)
        body = toy.to_bytes(proof)
        assert toy.digest(proof) == hashlib.sha256(body).hexdigest()
        # Same proof as the backend it renames, framed under its own tag.
        assert body == get("stark").to_bytes(proof)
        blob = proof_to_blob("toy", proof)
        assert blob != proof_to_blob("stark", proof)
        tag, decoded = proof_from_blob(blob, expected_protocol="toy")
        assert tag == "toy" and toy.to_bytes(decoded) == body
        # Service job kind, envelope kind, client-side verification.
        spec = {"workload": "Fibonacci", "kind": "toy", "scale": 5, "config": {"num_queries": 4}}
        validate_spec(JobSpec.from_dict(spec))
        envelope = execute(spec)["envelope"]
        kind, workload, payload = read_result_envelope(envelope)
        assert (kind, workload, payload) == ("toy-proof", "Fibonacci", blob)
        assert verify_result(spec, envelope) is True
        # Fuzz target.
        assert isinstance(target_for("toy"), FuzzTarget)

    def test_name_is_unknown_again_once_unregistered(self, toy, monkeypatch):
        proof_blob = get("stark").fuzz_target().blob
        monkeypatch.undo()
        assert "toy" not in names()
        with pytest.raises(ProofFormatError, match="unknown proof protocol tag"):
            proof_to_blob("toy", object())
        with pytest.raises(ValueError, match="unknown envelope kind"):
            write_result_envelope("toy-proof", "Fibonacci", proof_blob)
        with pytest.raises(ValueError, match="job kind"):
            JobSpec("Fibonacci", kind="toy")
        with pytest.raises(UnknownProtocolError):
            target_for("toy")


@pytest.mark.parametrize("protocol", sorted(FRAMED))
def test_framed_bytes_are_what_they_always_were(protocol):
    system = get(protocol)
    psetup = system.setup(by_name(WORKLOADS[protocol]), SCALE, system.make_config())
    blob = proof_to_blob(protocol, system.prove(psetup))
    envelope = execute({"workload": WORKLOADS[protocol], "kind": protocol, "scale": SCALE})["envelope"]
    assert read_result_envelope(envelope)[2] == blob
    got = tuple(hashlib.sha256(b).hexdigest() for b in (blob, envelope))
    assert got == FRAMED[protocol]


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


class TestVerifierCounters:
    @pytest.mark.parametrize("protocol", sorted(VERIFY_COUNTERS))
    def test_verify_hashes_what_it_always_hashed(self, protocol):
        # Batching path checks by level changes how many states one
        # Poseidon call carries, never how many states there are.
        system = get(protocol)
        psetup = system.setup(by_name(WORKLOADS[protocol]), SCALE, system.make_config({}))
        proof = system.prove(psetup)
        with counting() as c:
            assert system.verify(psetup, proof) is None
        got = c.as_dict()
        want = VERIFY_COUNTERS[protocol]
        assert {k: got[k] for k in want} == want
