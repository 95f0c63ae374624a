"""Workload tests: every application builds, proves, and verifies."""

import numpy as np
import pytest

from repro.field import goldilocks as gl
from repro.fri import FriConfig
from repro.plonk import prove, setup, verify
from repro.stark import prove as stark_prove, verify as stark_verify
from repro.workloads import (
    PAPER_WORKLOADS,
    PIPEZK_WORKLOADS,
    STARKY_WORKLOADS,
    by_name,
)
from repro.workloads.aes128 import encrypt_reference
from repro.workloads.factorial import factorial_mod_p
from repro.workloads.fibonacci import fibonacci_mod_p
from repro.workloads.sha256 import hash_reference

_CFG = FriConfig(rate_bits=3, cap_height=1, num_queries=5,
                 proof_of_work_bits=2, final_poly_len=4)
_SCFG = FriConfig(rate_bits=1, cap_height=1, num_queries=8,
                  proof_of_work_bits=2, final_poly_len=4)
_SCALES = {"Factorial": 20, "Fibonacci": 20, "ECDSA": 8, "SHA-256": 2,
           "Image Crop": 3, "MVM": 4, "AES-128": 1}


class TestRegistry:
    def test_six_paper_workloads(self):
        assert len(PAPER_WORKLOADS) == 6
        assert [s.name for s in PAPER_WORKLOADS] == [
            "Factorial", "Fibonacci", "ECDSA", "SHA-256", "Image Crop", "MVM",
        ]

    def test_starky_subset(self):
        assert [s.name for s in STARKY_WORKLOADS] == ["Factorial", "Fibonacci", "SHA-256"]

    def test_pipezk_subset(self):
        assert [s.name for s in PIPEZK_WORKLOADS] == ["SHA-256", "AES-128"]

    def test_by_name(self):
        assert by_name("MVM").plonk.width == 400
        with pytest.raises(KeyError):
            by_name("nope")

    def test_paper_scale_parameters(self):
        assert by_name("Factorial").plonk.degree_bits == 20
        assert by_name("Factorial").plonk.width == 135
        assert by_name("MVM").plonk.width == 400  # "circuit width as high as 400"

    def test_repro_notes_present(self):
        for spec in PAPER_WORKLOADS:
            assert "Paper:" in spec.repro_note and "Ours:" in spec.repro_note


class TestReferenceFunctions:
    def test_factorial(self):
        assert factorial_mod_p(5) == 120
        assert factorial_mod_p(30) == __import__("math").factorial(30) % gl.P

    def test_fibonacci(self):
        assert [fibonacci_mod_p(k) for k in range(7)] == [0, 1, 1, 2, 3, 5, 8]

    def test_hash_reference_deterministic(self):
        msg = [1, 2, 3, 4, 5, 6, 7, 8]
        assert hash_reference(msg) == hash_reference(msg)
        assert hash_reference(msg) != hash_reference(msg[:4])

    def test_aes_reference_key_sensitivity(self):
        block = [1, 2, 3, 4]
        c1 = encrypt_reference(block, [5, 6, 7, 8])
        c2 = encrypt_reference(block, [5, 6, 7, 9])
        assert c1 != c2


@pytest.mark.parametrize("spec", PAPER_WORKLOADS, ids=lambda s: s.name)
class TestFunctionalCircuits:
    def test_witness_satisfies_gates(self, spec):
        circuit, inputs, publics = spec.build_circuit(_SCALES[spec.name])
        w = circuit.generate_witness(inputs)
        assert circuit.check_gates(w, publics)

    def test_prove_and_verify(self, spec):
        circuit, inputs, publics = spec.build_circuit(_SCALES[spec.name])
        data = setup(circuit, _CFG)
        proof = prove(data, inputs)
        verify(data.verifier_data, publics, proof)

    def test_wrong_witness_breaks_gates(self, spec):
        circuit, inputs, publics = spec.build_circuit(_SCALES[spec.name])
        bad = dict(inputs)
        some_var = next(iter(bad))
        bad[some_var] = (bad[some_var] + 1) % gl.P
        w = circuit.generate_witness(bad)
        assert not circuit.check_gates(w, publics)


class TestStarkWorkloads:
    @pytest.mark.parametrize(
        "name", ["Factorial", "Fibonacci", "MVM"], ids=str
    )
    def test_air_end_to_end(self, name):
        spec = by_name(name)
        air, trace, publics = spec.build_air(5)
        assert air.check_trace(trace, publics)
        proof = stark_prove(air, trace, publics, _SCFG)
        stark_verify(air, len(trace), publics, proof, _SCFG)

    def test_factorial_air_result(self):
        spec = by_name("Factorial")
        air, trace, publics = spec.build_air(4)
        # trace row i holds (i+1, (i+1)!)
        assert publics[1] == factorial_mod_p(16)

    def test_fibonacci_air_matches_reference(self):
        spec = by_name("Fibonacci")
        air, trace, publics = spec.build_air(4)
        # trace starts at F_0=0? (0,1)... first column follows fibonacci
        assert publics[1] == int(trace[15, 0])


class TestAes:
    def test_aes_circuit(self):
        spec = by_name("AES-128")
        circuit, inputs, publics = spec.build_circuit(1)
        w = circuit.generate_witness(inputs)
        assert circuit.check_gates(w, publics)
        data = setup(circuit, _CFG)
        verify(data.verifier_data, publics, prove(data, inputs))

    def test_aes_two_blocks(self):
        spec = by_name("AES-128")
        circuit, inputs, publics = spec.build_circuit(2)
        w = circuit.generate_witness(inputs)
        assert circuit.check_gates(w, publics)
