"""Poseidon AIR and constant-column STARK machinery tests."""

import numpy as np
import pytest

from repro.field import gl64, goldilocks as gl
from repro.fri import FriConfig
from repro.hashing import permute
from repro.stark import PoseidonAir, StarkError, prove, verify
from repro.stark.poseidon_air import BLOCK_ROWS, generate_trace, public_values

_CFG = FriConfig(rate_bits=3, cap_height=1, num_queries=6,
                 proof_of_work_bits=2, final_poly_len=4)


@pytest.fixture(scope="module")
def one_perm():
    rng = np.random.default_rng(21)
    state = [int(x) for x in gl64.random(12, rng)]
    air = PoseidonAir(num_perms=1)
    return air, generate_trace(state, 1), public_values(state, 1), state


class TestTrace:
    def test_block_geometry(self, one_perm):
        _, trace, _, _ = one_perm
        assert trace.shape == (BLOCK_ROWS, 24)

    def test_output_row_equals_permutation(self, one_perm):
        _, trace, _, state = one_perm
        expect = permute(np.array(state, dtype=np.uint64))
        assert [int(v) for v in trace[-1, :12]] == [int(v) for v in expect]

    def test_chained_trace_matches_iterated_permute(self):
        rng = np.random.default_rng(22)
        state = [int(x) for x in gl64.random(12, rng)]
        trace = generate_trace(state, 4)
        cur = np.array(state, dtype=np.uint64)
        for k in range(4):
            cur = permute(cur)
            assert [int(v) for v in trace[(k + 1) * BLOCK_ROWS - 1, :12]] == [
                int(v) for v in cur
            ]

    def test_check_trace(self, one_perm):
        air, trace, publics, _ = one_perm
        assert air.check_trace(trace, publics)

    def test_check_trace_rejects_bad_state(self, one_perm):
        air, trace, publics, _ = one_perm
        bad = trace.copy()
        bad[7, 3] ^= np.uint64(1)
        assert not air.check_trace(bad, publics)

    def test_check_trace_rejects_bad_aux(self, one_perm):
        air, trace, publics, _ = one_perm
        bad = trace.copy()
        bad[2, 15] ^= np.uint64(1)
        assert not air.check_trace(bad, publics)

    def test_chain_break_rejected(self):
        rng = np.random.default_rng(23)
        state = [int(x) for x in gl64.random(12, rng)]
        air = PoseidonAir(num_perms=2)
        trace = generate_trace(state, 2)
        publics = public_values(state, 2)
        bad = trace.copy()
        # Break the copy constraint between block 0's output and block 1's
        # input by changing the second block's input rows consistently
        # would be hard; simply corrupt block 1's first state cell.
        bad[BLOCK_ROWS, 0] ^= np.uint64(1)
        assert not air.check_trace(bad, publics)


class TestConstantColumns:
    def test_shape(self, one_perm):
        air, _, _, _ = one_perm
        cols = air.constant_columns(BLOCK_ROWS)
        assert cols.shape == (40, BLOCK_ROWS)

    def test_selectors_partition_rounds(self, one_perm):
        air, _, _, _ = one_perm
        cols = air.constant_columns(BLOCK_ROWS)
        sel_full, sel_pre, sel_partial = cols[0], cols[1], cols[2]
        for r in range(BLOCK_ROWS - 1):
            assert int(sel_full[r]) + int(sel_pre[r]) + int(sel_partial[r]) == 1
        # the output row has no round selector
        assert int(sel_full[-1]) == int(sel_pre[-1]) == int(sel_partial[-1]) == 0

    def test_wrong_length_rejected(self, one_perm):
        air, _, _, _ = one_perm
        with pytest.raises(ValueError):
            air.constant_columns(64)

    def test_num_perms_validation(self):
        with pytest.raises(ValueError):
            PoseidonAir(num_perms=3)
        with pytest.raises(ValueError):
            PoseidonAir(num_perms=0)


class TestEndToEnd:
    def test_prove_verify_one_perm(self, one_perm):
        air, trace, publics, _ = one_perm
        proof = prove(air, trace, publics, _CFG)
        verify(air, len(trace), publics, proof, _CFG)

    def test_prove_verify_chained(self):
        rng = np.random.default_rng(24)
        state = [int(x) for x in gl64.random(12, rng)]
        air = PoseidonAir(num_perms=2)
        trace = generate_trace(state, 2)
        publics = public_values(state, 2)
        proof = prove(air, trace, publics, _CFG)
        verify(air, len(trace), publics, proof, _CFG)

    def test_wrong_output_claim_rejected(self, one_perm):
        air, trace, publics, _ = one_perm
        bad_publics = list(publics)
        bad_publics[12] = (bad_publics[12] + 1) % gl.P
        with pytest.raises(StarkError):
            verify(air, len(trace), bad_publics, prove(air, trace, bad_publics, _CFG), _CFG)

    def test_tampered_trace_rejected(self, one_perm):
        air, trace, publics, _ = one_perm
        bad = trace.copy()
        bad[10, 12] ^= np.uint64(1)
        with pytest.raises(StarkError):
            verify(air, len(bad), publics, prove(air, bad, publics, _CFG), _CFG)

    def test_publics_validation(self, one_perm):
        air, trace, publics, _ = one_perm
        with pytest.raises(ValueError):
            prove(air, trace, publics[:20], _CFG)


class TestSha256Air:
    def test_constant_columns_drive_rounds(self):
        from repro.workloads import by_name

        spec = by_name("SHA-256")
        air, trace, publics = spec.build_air(5)
        assert air.check_trace(trace, publics)
        bad = trace.copy()
        bad[3, 0] ^= np.uint64(1)
        assert not air.check_trace(bad, publics)

    def test_prove_verify(self):
        from repro.workloads import by_name

        spec = by_name("SHA-256")
        air, trace, publics = spec.build_air(6)
        cfg = FriConfig(rate_bits=1, cap_height=1, num_queries=10,
                        proof_of_work_bits=2, final_poly_len=4)
        proof = prove(air, trace, publics, cfg)
        verify(air, len(trace), publics, proof, cfg)

    def test_wrong_digest_rejected(self):
        from repro.workloads import by_name

        spec = by_name("SHA-256")
        air, trace, publics = spec.build_air(5)
        cfg = FriConfig(rate_bits=1, cap_height=1, num_queries=10,
                        proof_of_work_bits=2, final_poly_len=4)
        bad = [publics[0], (publics[1] + 1) % gl.P]
        with pytest.raises(StarkError):
            verify(air, len(trace), bad, prove(air, trace, bad, cfg), cfg)
