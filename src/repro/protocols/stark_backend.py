"""STARK backend: :mod:`repro.stark` behind the registry interface."""

from __future__ import annotations

from typing import Dict, Mapping

from ..field import gl64
from ..fri import FriConfig, initial_arity_bits
from ..stark import StarkProof, prove as stark_prove, verify as stark_verify
from ..stark.prover import leaf_widths
from .base import ProofSystem, ProtocolSetup, instance
from .transcript import CapBinding, TranscriptSpec


def _air_instance(workload, scale: int):
    """``workload.build_air(scale)`` with a read-only trace and publics."""
    air, trace, publics = workload.build_air(scale)
    gl64.freeze(trace)
    return air, trace, tuple(publics)


class StarkSystem(ProofSystem):
    """Starky-style AIR proofs over the univariate FRI PCS."""

    name = "stark"
    description = "AIR transition constraints, LDE + batch FRI opening"
    #: 4: each FRI tree is opened once, as a shared-path multiproof;
    #: 3: FRI's first layer may be virtual (the batches commit its
    #: cosets); 2: FRI layers open arity-8 coset leaves, not v1's pairs.
    format_version = 4
    to_bytes = staticmethod(StarkProof.to_bytes)
    from_bytes = staticmethod(StarkProof.from_bytes)
    uses_ntt = True

    def default_config(self) -> Dict[str, int]:
        return dict(
            rate_bits=1,
            cap_height=1,
            num_queries=10,
            proof_of_work_bits=3,
            final_poly_len=4,
        )

    def config_from(self, knobs: Mapping[str, int]) -> FriConfig:
        return FriConfig(**dict(knobs))

    def supports(self, workload) -> bool:
        return workload.build_air is not None

    def setup(self, workload, scale: int, config: FriConfig) -> ProtocolSetup:
        if workload.build_air is None:
            raise ValueError(f"workload {workload.name!r} has no AET builder")
        air, trace, publics = instance(("air", workload, scale), lambda: _air_instance(workload, scale))
        config.check_cap_fits(int(trace.shape[0]).bit_length() - 1)
        return ProtocolSetup(
            protocol=self.name,
            workload=workload.name,
            scale=scale,
            config=config,
            data=(air, trace, publics),
            rows=int(trace.shape[0]),
        )

    def prove(self, setup: ProtocolSetup, pool=None, challenger=None):
        air, trace, publics = setup.data
        return stark_prove(air, trace, publics, setup.config, challenger, pool=pool)

    def verify(self, setup: ProtocolSetup, proof, challenger=None) -> None:
        air, _, _ = setup.data
        stark_verify(air, proof, setup.config, challenger=challenger)

    def fuzz_target(self):
        from ..fuzz.targets import stark_target

        return stark_target()

    # -- transcript conformance ------------------------------------------

    def transcript_spec(self) -> TranscriptSpec:
        # scale is log2(rows) for AIR builders; queries/grinding shrunk
        # because conformance is structural, not statistical.  At 2^7
        # rows a layer cap follows the virtual first layer.
        return TranscriptSpec(
            workload="Fibonacci",
            scales=(3, 7),
            config_overrides=dict(num_queries=2, proof_of_work_bits=1),
            setup_caps=0,
        )

    def cap_bindings(self, setup: ProtocolSetup, proof):
        # Base-challenge ordinals: alpha (ext) draws #0-1, zeta (ext)
        # #2-3, FRI alpha #4-5, a virtual first layer's beta #6-7, then
        # committed layer k's beta (ext) at #6+2k, or #8+2k after it.
        air = setup.data[0]
        degree_bits = setup.rows.bit_length() - 1
        first = 8 if initial_arity_bits(setup.config, degree_bits, leaf_widths(air)) else 6
        bindings = [
            CapBinding("trace_cap", proof.trace_cap, 0),
            CapBinding("quotient_cap", proof.quotient_cap, 2),
        ]
        for k, cap in enumerate(proof.fri_proof.commit_caps):
            bindings.append(CapBinding(f"fri.commit_caps[{k}]", cap, first + 2 * k))
        return bindings
