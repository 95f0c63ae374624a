"""End-to-end STARK tests over several AIRs, with fault injection."""

import copy

import numpy as np
import pytest

from repro.field import goldilocks as gl
from repro.protocols import get as get_protocol
from repro.serialize import proof_from_blob, proof_to_blob
from repro.field.algebra import ExtAlgebra
from repro.stark import Air, BoundaryConstraint, StarkError, prove, verify
from repro.workloads.factorial import FactorialAir, build_air as build_factorial
from repro.workloads import by_name
from repro.workloads.fibonacci import FibonacciAir, build_air as build_fibonacci, fibonacci_mod_p
from repro.workloads.mvm import MvmAir, build_air as build_mvm

from .goldens import DIGESTS, SCALE, WORKLOADS


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
        verify(air, len(trace), publics, proof, stark_test_config)

    def test_bad_trace_rejected(self, builder, stark_test_config):
        air, trace, publics = builder(5)
        bad, mid = trace.copy(), len(trace) // 2
        bad[mid, -1] = np.uint64(int(bad[mid, -1]) ^ 1)
        with pytest.raises(StarkError, match="constraint identity fails at zeta"):
            verify(air, len(bad), publics, prove(air, bad, publics, stark_test_config), stark_test_config)

    def test_wrong_public_rejected(self, builder, stark_test_config):
        air, trace, publics = builder(5)
        bad_publics = [publics[0], (publics[1] + 1) % gl.P]
        with pytest.raises(StarkError, match="constraint identity fails at zeta"):
            verify(
                air,
                len(trace),
                bad_publics,
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
        return air, len(trace), publics, prove(air, trace, publics, cfg), cfg

    def test_honest(self, proof_setup):
        air, n, publics, proof, cfg = proof_setup
        verify(air, n, publics, proof, cfg)

    def test_tampered_trace_cap(self, proof_setup):
        air, n, publics, proof, cfg = proof_setup
        p = copy.deepcopy(proof)
        p.caps[0][0, 0] ^= np.uint64(1)
        with pytest.raises(StarkError):
            verify(air, n, publics, p, cfg)

    def test_tampered_quotient_cap(self, proof_setup):
        air, n, publics, proof, cfg = proof_setup
        p = copy.deepcopy(proof)
        p.caps[1][0, 0] ^= np.uint64(1)
        with pytest.raises(StarkError):
            verify(air, n, publics, p, cfg)

    def test_tampered_opening(self, proof_setup):
        air, n, publics, proof, cfg = proof_setup
        p = copy.deepcopy(proof)
        p.opened_values[0, 0] ^= np.uint64(1)
        with pytest.raises(StarkError):
            verify(air, n, publics, p, cfg)

    def test_tampered_publics(self, proof_setup):
        air, n, publics, proof, cfg = proof_setup
        with pytest.raises(StarkError):
            verify(air, n, [publics[0], (publics[1] + 1) % gl.P], proof, cfg)

    def test_wrong_degree_claim(self, proof_setup):
        # The verifier takes n from its instance: the proof of an n-row
        # trace is refused at n / 2 and at 2n.
        air, n, publics, proof, cfg = proof_setup
        for wrong in (n // 2, 2 * n):
            with pytest.raises(StarkError):
                verify(air, wrong, publics, proof, cfg)


class TestStatement:
    """The statement is the verifier's: its instance's public values."""

    def test_a_proof_of_another_statement_is_refused(self):
        # The prover is handed the instance's trace and the statement
        # "row 10 holds F_10", true of that trace, where the instance
        # states "row 63 holds F_63"; after a blob round trip the
        # instance's verifier refuses it.
        system = get_protocol("stark")
        setup = system.setup(by_name("Fibonacci"), 6, system.make_config())
        air, trace = setup.data[:2]
        proof = prove(air, trace, [10, fibonacci_mod_p(10)], setup.config)
        _, decoded = proof_from_blob(proof_to_blob("stark", proof), expected_protocol="stark")
        with pytest.raises(StarkError):
            system.verify(setup, decoded)

    @pytest.mark.parametrize("word", [63 + gl.P, 1 << 64, -1], ids=["63+p", "2^64", "-1"])
    def test_prover_refuses_a_non_canonical_statement(self, word, stark_test_config):
        # ``63 + p`` would be absorbed raw and read as row 63, and a word
        # past 64 bits would die in the transcript: both are refused
        # before any work, as is a negative one.
        air, trace, publics = build_fibonacci(6)
        with pytest.raises(ValueError, match="public input is not a canonical"):
            prove(air, trace, [word, publics[1]], stark_test_config)


class TestValidation:
    def test_non_canonical_trace_word_refused(self):
        # A cell ``F + p`` reads as ``F`` to every kernel: reduced, it
        # would prove the honest trace under a second encoding.  The
        # honest trace keeps its digest.
        system = get_protocol("stark")
        setup = system.setup(by_name(WORKLOADS["stark"]), SCALE, system.make_config())
        air, trace = setup.data[:2]
        publics = setup.publics
        bad = np.array(trace)
        bad[3, 0] += np.uint64(gl.P)
        with pytest.raises(ValueError, match="trace word is not a canonical field element"):
            prove(air, bad, publics, setup.config)
        assert system.digest(prove(air, trace, publics, setup.config)) == DIGESTS["stark"]

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
        verify(air, len(trace), publics, proof, stark_test_config)


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
