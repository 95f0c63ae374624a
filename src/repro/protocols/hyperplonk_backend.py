"""HyperPlonk-lite backend: the sumcheck-native prover in the registry."""

from __future__ import annotations

from typing import Dict, Mapping

from ..hyperplonk import (
    HyperPlonkConfig,
    HyperPlonkProof,
    prove as hp_prove,
    setup as hp_setup,
    verify as hp_verify,
)
from .base import ProofSystem, ProtocolSetup
from .transcript import CapBinding, TranscriptSpec


class HyperPlonkSystem(ProofSystem):
    """Sumcheck-native prover over the multilinear PCS -- zero NTTs."""

    name = "hyperplonk"
    caveat = (
        "UNSOUND against a cheating prover: the committed sumcheck spot-checks "
        "plain fold tables, so one altered entry goes unseen (ROADMAP item 12)"
    )
    description = f"sumcheck-native zerocheck over a multilinear PCS (no NTT); {caveat}"
    #: 2: batched per-tree multiproof openings replaced v1's per-query paths.
    format_version = 2
    to_bytes = staticmethod(HyperPlonkProof.to_bytes)
    from_bytes = staticmethod(HyperPlonkProof.from_bytes)
    uses_ntt = False

    def default_config(self) -> Dict[str, int]:
        return dict(cap_height=1, num_queries=16)

    def config_from(self, knobs: Mapping[str, int]) -> HyperPlonkConfig:
        return HyperPlonkConfig(**dict(knobs))

    def setup(self, workload, scale: int, config: HyperPlonkConfig) -> ProtocolSetup:
        circuit, inputs, _ = workload.build_circuit(scale)
        data = hp_setup(circuit, config)
        return ProtocolSetup(
            protocol=self.name,
            workload=workload.name,
            scale=scale,
            config=config,
            data=(data, inputs),
            rows=circuit.n,
        )

    def prove(self, setup: ProtocolSetup, pool=None, challenger=None):
        data, inputs = setup.data
        return hp_prove(data, inputs, challenger=challenger, pool=pool)

    def verify(self, setup: ProtocolSetup, proof, challenger=None) -> None:
        data, _ = setup.data
        hp_verify(data.verifier_data, proof, challenger=challenger)

    def fuzz_target(self):
        from ..fuzz.targets import hyperplonk_target

        return hyperplonk_target()

    # -- transcript conformance ------------------------------------------

    def transcript_spec(self) -> TranscriptSpec:
        return TranscriptSpec(
            workload="Fibonacci",
            scales=(4, 8),
            config_overrides=dict(num_queries=2),
            setup_caps=1,  # preprocessed (circuit-digest) cap, then publics
        )

    def cap_bindings(self, setup: ProtocolSetup, proof):
        # Base-challenge ordinals with v = log2(rows): beta #0, gamma
        # #1, alpha #2, tau #3..v+2, sumcheck round-k challenge at
        # #v+3+k.  level_caps[k] is committed right after round k's
        # challenge and must be bound before round k+1's.
        data, _ = setup.data
        v = data.circuit.log_n
        bindings = [
            CapBinding("preprocessed_cap", data.preprocessed.cap, 0),
            CapBinding("wires_cap", proof.wires_cap, 0),
            CapBinding("z_cap", proof.z_cap, 2),
        ]
        for k, cap in enumerate(proof.level_caps):
            bindings.append(CapBinding(f"level_caps[{k}]", cap, v + 4 + k))
        return bindings
