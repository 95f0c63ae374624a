"""FRI commitment scheme: honest proofs verify, every fault is caught."""

import copy

import numpy as np
import pytest

from repro.field import extension as ext, gl64, goldilocks as gl
from repro.fri import (
    PLONKY2_CONFIG,
    STARKY_CONFIG,
    TEST_CONFIG,
    FriConfig,
    FriError,
    FriOpenings,
    PolynomialBatch,
    fold_values,
    fri_prove,
    fri_verify,
    grind,
    open_batches,
)
from repro import protocols
from repro.fri import config as fri_config
from repro.fri.config import FRI_ARITY_BITS
from repro.fri.prover import check_pow, combine_rows, lde_points
from repro.hashing import Challenger
from repro.workloads import fibonacci

from .goldens import ARITY2_DIGESTS, CONFIGS, SCALE
from .reference_oracles import Polynomial, commit_coeffs


def _mk_batches(rng, cfg, n=64, widths=(4, 2)):
    return [
        commit_coeffs(gl64.random((w, n), rng), cfg.rate_bits, cfg.cap_height)
        for w in widths
    ]


def _mk_openings(batches, n):
    zeta = ext.make(0x1234567890AB, 0x0FEDCBA98765)
    omega = gl.primitive_root_of_unity(n.bit_length() - 1)
    zeta_next = ext.scalar_mul(zeta, np.uint64(omega))
    columns = [
        [(0, i) for i in range(batches[0].coeffs.shape[0])]
        + [(1, i) for i in range(batches[1].coeffs.shape[0])],
        [(1, 0)],
    ]
    return open_batches(batches, [zeta, zeta_next], columns)


def _prove(batches, openings, cfg):
    ch = Challenger()
    for b in batches:
        ch.observe_cap(b.cap)
    return fri_prove(batches, openings, ch, cfg)


def _verify(batches, openings, proof, cfg, n):
    ch = Challenger()
    for b in batches:
        ch.observe_cap(b.cap)
    fri_verify([b.cap for b in batches], openings, proof, ch, cfg, n)


class TestPolynomialBatch:
    def test_values_match_coset_evaluation(self, rng, fri_test_config):
        cfg = fri_test_config
        coeffs = gl64.random((2, 16), rng)
        b = commit_coeffs(coeffs, cfg.rate_bits, cfg.cap_height)
        p = Polynomial(coeffs[1])
        g = gl.coset_shift()
        w = gl.primitive_root_of_unity(4 + cfg.rate_bits)
        assert int(b.values[5, 1]) == p.eval(gl.mul(g, gl.pow_mod(w, 5)))

    def test_from_values_roundtrip(self, rng, fri_test_config):
        cfg = fri_test_config
        from repro.ntt import ntt

        coeffs = gl64.random((3, 16), rng)
        vals = ntt(coeffs)
        b1 = PolynomialBatch.from_values(vals, cfg.rate_bits, cfg.cap_height)
        b2 = commit_coeffs(coeffs, cfg.rate_bits, cfg.cap_height)
        assert np.array_equal(b1.cap, b2.cap)

    def test_eval_at_ext(self, rng, fri_test_config):
        cfg = fri_test_config
        coeffs = gl64.random((2, 16), rng)
        b = commit_coeffs(coeffs, cfg.rate_bits, cfg.cap_height)
        pt = ext.make(3, 4)
        out = open_batches([b], [pt], [[(0, 0), (0, 1)]]).values[0]
        for i in range(2):
            assert np.array_equal(out[i], ext.eval_poly_base(coeffs[i], pt).reshape(2))


class TestFolding:
    def test_fold_halves_degree(self, rng):
        # Build values of a degree-<8 polynomial over a size-32 coset,
        # fold once, and check the result interpolates to degree < 4.
        coeffs = gl64.random(8, rng)
        from repro.ntt import coset_intt_ext, lde_coeffs

        values = ext.from_base(lde_coeffs(coeffs, 2))
        beta = ext.make(123, 456)
        folded = fold_values(values, beta, gl.coset_shift(), 5)
        assert folded.shape == (16, 2)
        shift2 = gl.mul(gl.coset_shift(), gl.coset_shift())
        folded_coeffs = coset_intt_ext(folded, shift2)
        assert not folded_coeffs[4:].any()

    def test_fold_formula(self, rng):
        # f'(x^2) = f_e(x^2) + beta * f_o(x^2)
        coeffs = gl64.random(8, rng)
        even = coeffs[0::2]
        odd = coeffs[1::2]
        from repro.ntt import lde_coeffs

        values = ext.from_base(lde_coeffs(coeffs, 1))
        beta = ext.make(7, 9)
        folded = fold_values(values, beta, gl.coset_shift(), 4)
        # Evaluate expected at y = (g w^i)^2
        pe, po = Polynomial(even), Polynomial(odd)
        w16 = gl.primitive_root_of_unity(4)
        for i in (0, 3):
            x = gl.mul(gl.coset_shift(), gl.pow_mod(w16, i))
            y = gl.mul(x, x)
            expect = ext.add(
                ext.from_base(np.uint64(pe.eval(y))),
                ext.scalar_mul(beta, np.uint64(po.eval(y))),
            )
            assert np.array_equal(folded[i], expect.reshape(2))

    @pytest.mark.parametrize("arity_bits", [1, 2, 3])
    def test_repeated_folds_are_the_coset_fold_at_beta(self, rng, arity_bits):
        # f(X) = sum_r X^r f_r(X^k) with k = 2**a: folding a times with
        # beta, beta^2, beta^4, ... gives sum_r beta^r f_r(y) at
        # y = x^k -- the arity-k fold one committed layer stands for.
        from repro.ntt import lde_coeffs

        k = 1 << arity_bits
        coeffs = gl64.random(64, rng)
        values = ext.from_base(lde_coeffs(coeffs, 2))  # 256 points
        beta = ext.make(0x1234, 0x5678)
        shift, log_n, b = gl.coset_shift(), 8, beta
        for _ in range(arity_bits):
            values = fold_values(values, b, shift, log_n)
            b, shift, log_n = ext.square(b), gl.mul(shift, shift), log_n - 1
        parts = [Polynomial(coeffs[r::k]) for r in range(k)]
        w = gl.primitive_root_of_unity(8)
        for i in (0, 5, values.shape[0] - 1):
            y = gl.pow_mod(gl.mul(gl.coset_shift(), gl.pow_mod(w, i)), k)
            want, beta_r = ext.zero(), ext.one()
            for part in parts:
                want = ext.add(want, ext.scalar_mul(beta_r, np.uint64(part.eval(y))))
                beta_r = ext.mul(beta_r, beta)
            assert np.array_equal(values[i], want.reshape(2))


class TestFoldSchedule:
    @pytest.mark.parametrize("final_len", [1, 2, 4, 8, 16])
    def test_schedule_covers_every_fold_in_layers_of_at_most_8(self, final_len):
        cfg = FriConfig(rate_bits=1, final_poly_len=final_len)
        for degree_bits in range(0, 24):
            schedule = cfg.fold_schedule(degree_bits)
            assert sum(schedule) == cfg.num_fold_rounds(degree_bits)
            assert all(bits == FRI_ARITY_BITS for bits in schedule[:-1])
            assert all(1 <= bits <= FRI_ARITY_BITS for bits in schedule)

    def test_proof_opens_one_coset_leaf_per_committed_layer(self, rng, fri_test_config):
        cfg = fri_test_config
        n = 64  # 6 - 2 = 4 folds: one arity-8 layer, one arity-2 tail
        batches = _mk_batches(rng, cfg, n)
        proof = _prove(batches, _mk_openings(batches, n), cfg)
        assert cfg.fold_schedule(6) == (3, 1)
        assert len(proof.commit_caps) == 2
        for qr in proof.query_rounds:
            assert [layer.coset_leaf.shape for layer in qr.layers] == [(16,), (4,)]

    @pytest.mark.parametrize("name", sorted(ARITY2_DIGESTS))
    def test_arity_2_schedule_reproduces_the_pair_leaf_proofs(self, name, monkeypatch):
        monkeypatch.setattr(fri_config, "FRI_ARITY_BITS", 1)
        system = protocols.get(name)
        setup = system.setup(fibonacci.SPEC, SCALE, CONFIGS[name])
        proof = system.prove(setup)
        assert system.digest(proof) == ARITY2_DIGESTS[name]
        system.verify(setup, proof)

    def test_security_is_what_it_was_at_arity_2(self):
        # The arity enters no config and no security figure.
        assert PLONKY2_CONFIG.conjectured_security_bits() == 100
        assert STARKY_CONFIG.conjectured_security_bits() == 100
        assert TEST_CONFIG.conjectured_security_bits() == 28


class TestGrinding:
    def test_grind_satisfies_check(self):
        ch = Challenger()
        ch.observe_element(42)
        witness = grind(ch, 4)
        assert check_pow(ch, witness, 4)

    def test_wrong_witness_fails_whp(self):
        ch = Challenger()
        ch.observe_element(42)
        witness = grind(ch, 8)
        assert not check_pow(ch, witness + 1, 8) or not check_pow(ch, witness + 2, 8)

    def test_zero_bits_always_passes(self):
        ch = Challenger()
        assert check_pow(ch, 0, 0)


class TestEndToEnd:
    def test_honest_proof_verifies(self, rng, fri_test_config):
        cfg = fri_test_config
        n = 64
        batches = _mk_batches(rng, cfg, n)
        openings = _mk_openings(batches, n)
        proof = _prove(batches, openings, cfg)
        _verify(batches, openings, proof, cfg, n)

    def test_single_batch_single_point(self, rng, fri_test_config):
        cfg = fri_test_config
        n = 32
        b = commit_coeffs(gl64.random((1, n), rng), cfg.rate_bits, cfg.cap_height)
        openings = open_batches([b], [ext.make(5, 6)], [[(0, 0)]])
        ch = Challenger()
        ch.observe_cap(b.cap)
        proof = fri_prove([b], openings, ch, cfg)
        vh = Challenger()
        vh.observe_cap(b.cap)
        fri_verify([b.cap], openings, proof, vh, cfg, n)

    def test_proof_size_positive_and_structured(self, rng, fri_test_config):
        cfg = fri_test_config
        n = 64
        batches = _mk_batches(rng, cfg, n)
        openings = _mk_openings(batches, n)
        proof = _prove(batches, openings, cfg)
        assert proof.size_bytes() > 1000
        assert len(proof.query_rounds) == cfg.num_queries


class TestFaultInjection:
    @pytest.fixture
    def setup(self, rng, fri_test_config):
        cfg = fri_test_config
        n = 64
        batches = _mk_batches(rng, cfg, n)
        openings = _mk_openings(batches, n)
        proof = _prove(batches, openings, cfg)
        return batches, openings, proof, cfg, n

    def test_wrong_claimed_value(self, setup):
        batches, openings, proof, cfg, n = setup
        bad = FriOpenings(
            points=openings.points,
            columns=openings.columns,
            values=[v.copy() for v in openings.values],
        )
        bad.values[0][1, 0] ^= np.uint64(1)
        with pytest.raises(FriError):
            _verify(batches, bad, proof, cfg, n)

    def test_tampered_final_poly(self, setup):
        batches, openings, proof, cfg, n = setup
        p2 = copy.deepcopy(proof)
        p2.final_poly = p2.final_poly.copy()
        p2.final_poly[0, 0] ^= np.uint64(1)
        with pytest.raises(FriError):
            _verify(batches, openings, p2, cfg, n)

    def test_oversized_final_poly(self, setup):
        batches, openings, proof, cfg, n = setup
        p2 = copy.deepcopy(proof)
        p2.final_poly = np.concatenate([p2.final_poly, p2.final_poly])
        with pytest.raises(FriError):
            _verify(batches, openings, p2, cfg, n)

    def test_tampered_layer_cap(self, setup):
        batches, openings, proof, cfg, n = setup
        p2 = copy.deepcopy(proof)
        p2.commit_caps[0] = p2.commit_caps[0].copy()
        p2.commit_caps[0][0, 0] ^= np.uint64(1)
        with pytest.raises(FriError):
            _verify(batches, openings, p2, cfg, n)

    def test_tampered_initial_leaf(self, setup):
        batches, openings, proof, cfg, n = setup
        p2 = copy.deepcopy(proof)
        leaf = p2.query_rounds[0].initial.leaves[0].copy()
        leaf[0] ^= np.uint64(1)
        p2.query_rounds[0].initial.leaves[0] = leaf
        with pytest.raises(FriError):
            _verify(batches, openings, p2, cfg, n)

    def test_tampered_coset_leaf(self, setup):
        # Every slot of a layer's coset leaf, queried or not, is bound
        # by its Merkle path.
        batches, openings, proof, cfg, n = setup
        width = proof.query_rounds[0].layers[0].coset_leaf.size
        for slot in range(width):
            p2 = copy.deepcopy(proof)
            p2.query_rounds[0].layers[0].coset_leaf[slot] ^= np.uint64(1)
            with pytest.raises(FriError):
                _verify(batches, openings, p2, cfg, n)

    def test_bad_pow_witness(self, setup):
        batches, openings, proof, cfg, n = setup
        p2 = copy.deepcopy(proof)
        p2.pow_witness += 1
        with pytest.raises(FriError):
            _verify(batches, openings, p2, cfg, n)

    def test_dropped_query_round(self, setup):
        batches, openings, proof, cfg, n = setup
        p2 = copy.deepcopy(proof)
        p2.query_rounds = p2.query_rounds[:-1]
        with pytest.raises(FriError):
            _verify(batches, openings, p2, cfg, n)

    def test_wrong_degree_bound_claim(self, setup):
        batches, openings, proof, cfg, n = setup
        with pytest.raises(FriError):
            _verify(batches, openings, proof, cfg, n // 2)

    def test_high_degree_cheater_rejected(self, rng, fri_test_config):
        # Commit a degree-(2n) polynomial but claim degree bound n: the
        # fold consistency / final-poly checks must fail.
        cfg = fri_test_config
        n = 32
        # Honest commit at degree 2n.
        big = commit_coeffs(
            gl64.random((1, 2 * n), rng), cfg.rate_bits, cfg.cap_height
        )
        zeta = ext.make(11, 22)
        openings = open_batches([big], [zeta], [[(0, 0)]])
        ch = Challenger()
        ch.observe_cap(big.cap)
        proof = fri_prove([big], openings, ch, cfg)  # honest for 2n
        vh = Challenger()
        vh.observe_cap(big.cap)
        with pytest.raises(FriError):
            fri_verify([big.cap], openings, proof, vh, cfg, n)  # claim n


class TestCombine:
    def test_combined_values_are_low_degree(self, rng, fri_test_config):
        # The combined quotient must itself be a polynomial of degree < n:
        # interpolate the LDE values and check high coefficients vanish.
        cfg = fri_test_config
        n = 32
        batches = _mk_batches(rng, cfg, n, widths=(3,))
        openings = _mk_openings_single(batches, n)
        alpha = ext.make(5, 7)
        combined = _combine(batches, openings, alpha)
        from repro.ntt import coset_intt_ext

        coeffs = coset_intt_ext(combined)
        assert not coeffs[n:].any()

    def test_wrong_opening_makes_high_degree(self, rng, fri_test_config):
        cfg = fri_test_config
        n = 32
        batches = _mk_batches(rng, cfg, n, widths=(3,))
        openings = _mk_openings_single(batches, n)
        openings.values[0][0, 0] ^= np.uint64(1)
        combined = _combine(batches, openings, ext.make(5, 7))
        from repro.ntt import coset_intt_ext

        coeffs = coset_intt_ext(combined)
        assert coeffs[n:].any()


def _combine(batches, openings, alpha):
    """The combined quotient over each batch's whole LDE domain."""
    values = [b.values for b in batches]
    log_lde = values[0].shape[0].bit_length() - 1
    return combine_rows(values, lde_points(log_lde), openings, alpha)


def _mk_openings_single(batches, n):
    zeta = ext.make(0xAAAA, 0xBBBB)
    columns = [[(0, i) for i in range(batches[0].coeffs.shape[0])]]
    return open_batches(batches, [zeta], columns)
