"""STARK backend: :mod:`repro.stark` behind the registry interface."""

from __future__ import annotations

from typing import Dict, Mapping

from ..field import gl64
from ..fri import FriConfig
from ..stark import prove as stark_prove, verify as stark_verify
from ..stark.protocol import STARK, stark
from .base import FriSystem, ProtocolSetup, instance


def _air_instance(workload, scale: int):
    """``workload.build_air(scale)`` with a read-only trace and publics."""
    air, trace, publics = workload.build_air(scale)
    gl64.freeze(trace)
    return air, trace, tuple(publics)


class StarkSystem(FriSystem):
    """Starky-style AIR proofs over the univariate FRI PCS."""

    name = "stark"
    description = "AIR transition constraints, LDE + batch FRI opening"
    #: 9: nor any value its verifier folds (FRI layers leave out each
    #: query's folded slot), nor a shape word its reader knows;
    #: 8: nor its public inputs (the statement is the instance's);
    #: 7: the proof does not send the trace length (the verifier takes
    #: it from its instance);
    #: 6: the proof sends opened values only, no opening points, column
    #: lists or leaf indices (the verifier derives them);
    #: 5: the batches may commit 2- or 4-row cosets (``fri.fri_layout``);
    #: 4: each FRI tree is opened once, as a shared-path multiproof;
    #: 3: FRI's first layer may be virtual (the batches commit its
    #: cosets); 2: FRI layers open arity-8 coset leaves, not v1's pairs.
    format_version = 9
    protocol = STARK

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
            data=(air, trace),
            publics=publics,
            rows=int(trace.shape[0]),
        )

    def prove(self, setup: ProtocolSetup, pool=None, challenger=None):
        air, trace = setup.data
        return stark_prove(air, trace, setup.publics, setup.config, challenger, pool=pool)

    def verify(self, setup: ProtocolSetup, proof, challenger=None) -> None:
        air, _ = setup.data
        stark_verify(air, setup.rows, setup.publics, proof, setup.config, challenger=challenger)

    def fuzz_target(self):
        from ..fuzz.targets import stark_target

        return stark_target()

    # -- transcript conformance ------------------------------------------

    #: At 2^7 rows a layer cap follows the virtual first layer.
    analyzed_scales = (3, 7)

    def transcript(self, setup: ProtocolSetup):
        return stark(setup.data[0]), ()
