"""Plonk backend: :mod:`repro.plonk` behind the registry interface."""

from __future__ import annotations

from typing import Dict, Mapping

from ..fri import FriConfig
from ..plonk import prove as plonk_prove, prover as plonk_prover, verify as plonk_verify
from ..pcs import FriPCS
from ..plonk.protocol import CONSTRAINT_DEGREE, PLONK
from .base import FriSystem, ProtocolSetup, circuit_instance, instance


class PlonkSystem(FriSystem):
    """Plonky2-style circuits: gate + copy constraints over FRI."""

    name = "plonk"
    description = "Plonky2-style gates + permutation argument over FRI"
    #: 8: FRI layers leave out each query's folded slot, and arrays send
    #: no shape word their reader knows;
    #: 7: the quotient commits 3 chunks a limb, not 4;
    #: 6: the proof sends no public inputs (the statement is the instance's);
    #: 5: the proof sends opened values only, no opening points, column
    #: lists or leaf indices (the verifier derives them);
    #: 4: the batches may commit 2- or 4-row cosets (``fri.fri_layout``);
    #: 3: each FRI tree is opened once, as a shared-path multiproof;
    #: 2: FRI layers open arity-8 coset leaves, not v1's arity-2 pairs.
    format_version = 8
    protocol = PLONK

    def default_config(self) -> Dict[str, int]:
        return dict(
            rate_bits=3,
            cap_height=1,
            num_queries=8,
            proof_of_work_bits=4,
            # 16, not 4: two fewer arity-2 folds let ``fri_layout`` take
            # 4-row coset leaves at 2^9 and 2^12 rows, a quarter fewer
            # tree permutations for under 1 % more expected bytes.
            final_poly_len=16,
        )

    def config_from(self, knobs: Mapping[str, int]) -> FriConfig:
        config = FriConfig(**dict(knobs))
        config.check_quotient_fits(FriPCS.quotient_shape(CONSTRAINT_DEGREE)[0])
        return config

    def setup(self, workload, scale: int, config: FriConfig) -> ProtocolSetup:
        circuit, inputs, publics = circuit_instance(workload, scale)
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
            publics=publics,
            rows=circuit.n,
        )

    def prove(self, setup: ProtocolSetup, pool=None, challenger=None):
        data, inputs = setup.data
        return plonk_prove(data, inputs, challenger=challenger, pool=pool)

    def verify(self, setup: ProtocolSetup, proof, challenger=None) -> None:
        data, _ = setup.data
        plonk_verify(data.verifier_data, setup.publics, proof, challenger=challenger)

    def fuzz_target(self):
        from ..fuzz.targets import plonk_target

        return plonk_target()

    # -- transcript conformance ------------------------------------------

    #: At 2^5 rows a layer cap follows the virtual first layer.
    analyzed_scales = (4, 8, 16)

    def transcript(self, setup: ProtocolSetup):
        return PLONK, (setup.data[0].preprocessed.cap,)
