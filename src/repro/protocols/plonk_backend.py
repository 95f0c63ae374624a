"""Plonk backend: :mod:`repro.plonk` behind the registry interface."""

from __future__ import annotations

from typing import Dict, Mapping

from ..fri import FriConfig
from ..plonk import PlonkProof, prove as plonk_prove, prover as plonk_prover, verify as plonk_verify
from .base import ProofSystem, ProtocolSetup, circuit_instance, instance
from .transcript import CapBinding, TranscriptSpec


class PlonkSystem(ProofSystem):
    """Plonky2-style circuits: gate + copy constraints over FRI."""

    name = "plonk"
    description = "Plonky2-style gates + permutation argument over FRI"
    #: 5: the proof sends opened values only, no opening points, column
    #: lists or leaf indices (the verifier derives them);
    #: 4: the batches may commit 2- or 4-row cosets (``fri.fri_layout``);
    #: 3: each FRI tree is opened once, as a shared-path multiproof;
    #: 2: FRI layers open arity-8 coset leaves, not v1's arity-2 pairs.
    format_version = 5
    to_bytes = staticmethod(PlonkProof.to_bytes)
    from_bytes = staticmethod(PlonkProof.from_bytes)
    uses_ntt = True

    def default_config(self) -> Dict[str, int]:
        return dict(
            rate_bits=3,
            cap_height=1,
            num_queries=8,
            proof_of_work_bits=4,
            final_poly_len=4,
        )

    def config_from(self, knobs: Mapping[str, int]) -> FriConfig:
        return FriConfig(**dict(knobs))

    def setup(self, workload, scale: int, config: FriConfig) -> ProtocolSetup:
        circuit, inputs = circuit_instance(workload, scale)
        config.check_cap_fits(circuit.log_n)
        layout = plonk_prover.preprocessed_layout(circuit, config)
        data = instance(
            (self.name, workload, scale, config.rate_bits, layout),
            lambda: plonk_prover.preprocess(circuit, config.rate_bits, layout),
        )
        data = plonk_prover.bind(data, config)
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
        return plonk_prove(data, inputs, challenger=challenger, pool=pool)

    def verify(self, setup: ProtocolSetup, proof, challenger=None) -> None:
        data, _ = setup.data
        plonk_verify(data.verifier_data, proof, challenger=challenger)

    def fuzz_target(self):
        from ..fuzz.targets import plonk_target

        return plonk_target()

    # -- transcript conformance ------------------------------------------

    def transcript_spec(self) -> TranscriptSpec:
        return TranscriptSpec(
            workload="Fibonacci",
            scales=(4, 8),
            config_overrides=dict(num_queries=2, proof_of_work_bits=1),
            setup_caps=1,  # preprocessed (circuit-digest) cap, then publics
        )

    def cap_bindings(self, setup: ProtocolSetup, proof):
        # Base-challenge ordinals: beta #0, gamma #1, alpha (ext) #2-3,
        # zeta (ext) #4-5, FRI alpha #6-7, a virtual first layer's beta
        # #8-9, then committed layer k's beta at #8+2k, or #10+2k after it.
        data, _ = setup.data
        first = 10 if data.preprocessed.coset_bits else 8
        bindings = [
            CapBinding("preprocessed_cap", data.preprocessed.cap, 0),
            CapBinding("wires_cap", proof.wires_cap, 0),
            CapBinding("z_cap", proof.z_cap, 2),
            CapBinding("quotient_cap", proof.quotient_cap, 4),
        ]
        for k, cap in enumerate(proof.fri_proof.commit_caps):
            bindings.append(CapBinding(f"fri.commit_caps[{k}]", cap, first + 2 * k))
        return bindings
