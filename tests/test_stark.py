"""End-to-end STARK tests over several AIRs, with fault injection."""

import copy

import numpy as np
import pytest

from repro.field import goldilocks as gl
from repro.stark import Air, BoundaryConstraint, ExtAlgebra, StarkError, prove, verify
from repro.workloads.factorial import FactorialAir, build_air as build_factorial
from repro.workloads.fibonacci import FibonacciAir, build_air as build_fibonacci
from repro.workloads.mvm import MvmAir, build_air as build_mvm


class TestAirInterface:
    def test_check_trace_accepts_valid(self):
        air, trace, publics = build_fibonacci(5)
        assert air.check_trace(trace, publics)

    def test_check_trace_rejects_bad_transition(self):
        air, trace, publics = build_fibonacci(5)
        bad = trace.copy()
        bad[7, 0] = np.uint64(123)
        assert not air.check_trace(bad, publics)

    def test_check_trace_rejects_bad_boundary(self):
        air, trace, publics = build_fibonacci(5)
        assert not air.check_trace(trace, [publics[0], publics[1] + 1])

    def test_num_transition_constraints(self):
        def count(air):
            alg = ExtAlgebra()
            dummy = [alg.constant(0)] * air.width
            consts = [alg.constant(0)] * air.constant_columns(4).shape[0]
            return len(air.eval_transition_with_constants(dummy, dummy, consts, alg))

        assert count(FibonacciAir()) == 2
        assert count(MvmAir()) == 1

    def test_base_class_raises(self):
        with pytest.raises(NotImplementedError):
            Air().eval_transition([], [], None)


@pytest.mark.parametrize(
    "builder", [build_fibonacci, build_factorial, build_mvm],
    ids=["fibonacci", "factorial", "mvm"],
)
class TestEndToEnd:
    def test_prove_verify(self, builder, stark_test_config):
        air, trace, publics = builder(5)
        proof = prove(air, trace, publics, stark_test_config)
        verify(air, proof, stark_test_config)

    def test_bad_trace_rejected(self, builder, stark_test_config):
        air, trace, publics = builder(5)
        bad = trace.copy()
        bad[3, -1] = np.uint64(int(bad[3, -1]) ^ 1)
        with pytest.raises(StarkError):
            verify(air, prove(air, bad, publics, stark_test_config), stark_test_config)

    def test_wrong_public_rejected(self, builder, stark_test_config):
        air, trace, publics = builder(5)
        bad_publics = [publics[0], (publics[1] + 1) % gl.P]
        with pytest.raises(StarkError):
            verify(
                air,
                prove(air, trace, bad_publics, stark_test_config),
                stark_test_config,
            )


class TestFaultInjection:
    @pytest.fixture(scope="class")
    def proof_setup(self, ):
        from repro.fri import FriConfig

        cfg = FriConfig(rate_bits=1, cap_height=1, num_queries=10,
                        proof_of_work_bits=3, final_poly_len=4)
        air, trace, publics = build_fibonacci(6)
        return air, prove(air, trace, publics, cfg), cfg

    def test_honest(self, proof_setup):
        air, proof, cfg = proof_setup
        verify(air, proof, cfg)

    def test_tampered_trace_cap(self, proof_setup):
        air, proof, cfg = proof_setup
        p = copy.deepcopy(proof)
        p.trace_cap = p.trace_cap.copy()
        p.trace_cap[0, 0] ^= np.uint64(1)
        with pytest.raises(StarkError):
            verify(air, p, cfg)

    def test_tampered_quotient_cap(self, proof_setup):
        air, proof, cfg = proof_setup
        p = copy.deepcopy(proof)
        p.quotient_cap = p.quotient_cap.copy()
        p.quotient_cap[0, 0] ^= np.uint64(1)
        with pytest.raises(StarkError):
            verify(air, p, cfg)

    def test_tampered_opening(self, proof_setup):
        air, proof, cfg = proof_setup
        p = copy.deepcopy(proof)
        p.openings.values[0] = p.openings.values[0].copy()
        p.openings.values[0][0, 0] ^= np.uint64(1)
        with pytest.raises(StarkError):
            verify(air, p, cfg)

    def test_tampered_publics(self, proof_setup):
        air, proof, cfg = proof_setup
        p = copy.deepcopy(proof)
        p.public_inputs = list(p.public_inputs)
        p.public_inputs[1] = (p.public_inputs[1] + 1) % gl.P
        with pytest.raises(StarkError):
            verify(air, p, cfg)

    def test_wrong_degree_claim(self, proof_setup):
        air, proof, cfg = proof_setup
        p = copy.deepcopy(proof)
        p.degree_bits -= 1
        with pytest.raises(StarkError):
            verify(air, p, cfg)


class TestValidation:
    def test_non_power_of_two_trace(self, stark_test_config):
        air, trace, publics = build_fibonacci(4)
        with pytest.raises(ValueError):
            prove(air, trace[:10], publics, stark_test_config)

    def test_wrong_width(self, stark_test_config):
        air, trace, publics = build_fibonacci(4)
        with pytest.raises(ValueError):
            prove(air, trace[:, :1], publics, stark_test_config)

    def test_degree_too_high_for_blowup(self, stark_test_config):
        class CubicAir(Air):
            width = 1
            constraint_degree = 4

            def eval_transition(self, local, nxt, alg):
                x3 = alg.mul(alg.mul(local[0], local[0]), local[0])
                return [alg.sub(nxt[0], alg.mul(x3, local[0]))]

        trace = np.ones((16, 1), dtype=np.uint64)
        with pytest.raises(ValueError):
            prove(CubicAir(), trace, [], stark_test_config)

    def test_degree2_air_with_blowup2(self, stark_test_config):
        # MVM has a degree-2 transition: needs 1 chunk, allowed at blowup 2.
        air, trace, publics = build_mvm(4)
        proof = prove(air, trace, publics, stark_test_config)
        verify(air, proof, stark_test_config)


class TestStarkyVsPlonkyProofSize:
    def test_blowup2_proof_larger_than_blowup8(self):
        """Starky's tradeoff: cheaper proving, bigger proofs (Section 2.2)."""
        from repro.fri import FriConfig

        # 2^8 rows: at 2^6, 24 queries reach nearly all 16 coset leaves
        # of each blowup-2 tree, and a tree opened everywhere needs no
        # path nodes, so the shared-path openings hide the tradeoff.
        air, trace, publics = build_fibonacci(8)
        small_cfg = FriConfig(rate_bits=1, cap_height=1, num_queries=24,
                              proof_of_work_bits=3, final_poly_len=4)
        big_cfg = FriConfig(rate_bits=3, cap_height=1, num_queries=8,
                            proof_of_work_bits=3, final_poly_len=4)
        p_small = prove(air, trace, publics, small_cfg)
        p_big = prove(air, trace, publics, big_cfg)
        # Equal conjectured security (27 bits); the blowup-2 proof is larger.
        assert small_cfg.conjectured_security_bits() == big_cfg.conjectured_security_bits()
        assert p_small.size_bytes() > p_big.size_bytes()
