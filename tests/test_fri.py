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
from repro.fri import config as fri_config, verifier as fri_verifier
from repro.fri.config import FRI_ARITY_BITS, initial_arity_bits
from repro.fri.prover import check_pow, combine_rows, lde_points
from repro.hashing import Challenger
from repro.plonk import prover as plonk_prover
from repro.plonk.prover import LEAF_WIDTHS as PLONK_WIDTHS
from repro.stark import prover as stark_prover
from repro.workloads import by_name, fibonacci

from .goldens import ARITY2_DIGESTS, CONFIGS, ROW_LAYOUT_DIGESTS, SCALE
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


def _force_row_leaves(monkeypatch):
    """Make every prover and verifier commit one LDE row a leaf, and so
    commit FRI layer 0, whatever ``initial_arity_bits`` would pick."""
    for module in (stark_prover, plonk_prover, fri_verifier):
        monkeypatch.setattr(module, "initial_arity_bits", lambda *args: 0)


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
        _force_row_leaves(monkeypatch)
        system = protocols.get(name)
        setup = system.setup(fibonacci.SPEC, SCALE, CONFIGS[name])
        proof = system.prove(setup)
        assert system.digest(proof) == ARITY2_DIGESTS[name]
        system.verify(setup, proof)

    @pytest.mark.parametrize("name", sorted(ROW_LAYOUT_DIGESTS))
    def test_row_leaves_reproduce_the_committed_layer_0_proof(self, name, monkeypatch):
        # The virtual first layer extends the old prover: forced back to
        # row leaves, the proof is byte for byte the one that committed
        # FRI layer 0.
        _force_row_leaves(monkeypatch)
        system = protocols.get(name)
        setup = system.setup(fibonacci.SPEC, SCALE, CONFIGS[name])
        proof = system.prove(setup)
        assert system.digest(proof) == ROW_LAYOUT_DIGESTS[name]
        system.verify(setup, proof)

    def test_security_is_what_it_was_at_arity_2(self):
        # The arity enters no config and no security figure.
        assert PLONKY2_CONFIG.conjectured_security_bits() == 100
        assert STARKY_CONFIG.conjectured_security_bits() == 100
        assert TEST_CONFIG.conjectured_security_bits() == 28


def _force_coset_leaves(monkeypatch):
    """Make every prover and verifier commit the first layer's cosets
    whenever the coset tree holds the cap, whatever the size says."""

    def first_fold(config, degree_bits, widths):
        schedule = config.fold_schedule(degree_bits)
        fits = schedule and config.cap_height <= degree_bits + config.rate_bits - schedule[0]
        return schedule[0] if fits else 0

    for module in (stark_prover, plonk_prover, fri_verifier):
        monkeypatch.setattr(module, "initial_arity_bits", first_fold)


class TestInitialArityBits:
    @pytest.mark.parametrize("degree_bits", [6, 8, 10, 12])
    def test_stark_fibonacci_commits_the_first_fold(self, degree_bits):
        cfg = CONFIGS["stark"]
        assert initial_arity_bits(cfg, degree_bits, [2, 2]) == cfg.fold_schedule(degree_bits)[0]

    @pytest.mark.parametrize(
        "workload, scale", [("Fibonacci", SCALE), ("MVM", 6), ("MVM", 11), ("Fibonacci", 64)]
    )
    def test_plonk_keeps_row_leaves_at_every_bench_shape(self, workload, scale):
        log_n = by_name(workload).build_circuit(scale)[0].log_n
        for extra_queries in range(4):
            for cap_height in (1, 2, 3):
                cfg = FriConfig(**{
                    **protocols.get("plonk").default_config(),
                    "num_queries": 8 + extra_queries,
                    "cap_height": cap_height,
                })
                assert initial_arity_bits(cfg, log_n, PLONK_WIDTHS) == 0

    def test_coset_tree_must_hold_the_cap(self):
        # degree 6, blowup 2, first fold by 8: the coset trees are 4 deep.
        fits = FriConfig(rate_bits=1, cap_height=4, num_queries=4, final_poly_len=1)
        assert initial_arity_bits(fits, 6, [2, 2]) == 3
        tall = FriConfig(rate_bits=1, cap_height=5, num_queries=4, final_poly_len=1)
        assert initial_arity_bits(tall, 6, [2, 2]) == 0
        assert initial_arity_bits(FriConfig(final_poly_len=64), 6, [2, 2]) == 0  # no fold

    @pytest.mark.parametrize(
        "protocol, scale, rate_bits, cap_height, num_queries, final_poly_len",
        [
            ("stark", 4, 1, 0, 3, 1),  # cosets: one fold by 8
            ("stark", 6, 2, 1, 5, 2),  # cosets: one fold by 8, then by 4
            ("stark", 5, 1, 4, 4, 1),  # rows: the 3-deep coset tree cannot hold cap 4
            ("plonk", 4, 3, 1, 8, 4),  # cosets: 8 rows, one fold by 2
            ("plonk", 6, 3, 1, 8, 1),  # rows: 20 columns outweigh a layer-0 path
            ("plonk", 6, 2, 0, 3, 1),  # rows
        ],
    )
    def test_cosets_are_chosen_exactly_when_the_proof_shrinks(
        self, monkeypatch, protocol, scale, rate_bits, cap_height, num_queries, final_poly_len
    ):
        cfg = FriConfig(
            rate_bits=rate_bits, cap_height=cap_height, num_queries=num_queries,
            proof_of_work_bits=1, final_poly_len=final_poly_len,
        )
        system = protocols.get(protocol)
        setup = system.setup(fibonacci.SPEC, scale, cfg)
        chosen = system.prove(setup)
        log_n = setup.rows.bit_length() - 1
        widths = stark_prover.leaf_widths(setup.data[0]) if protocol == "stark" else PLONK_WIDTHS
        picked = initial_arity_bits(cfg, log_n, widths)
        sizes = {}
        for layout, force in (("rows", _force_row_leaves), ("cosets", _force_coset_leaves)):
            with monkeypatch.context() as patch:
                force(patch)
                forced_setup = system.setup(fibonacci.SPEC, scale, cfg)
                proof = system.prove(forced_setup)
                system.verify(forced_setup, proof)
                sizes[layout] = proof.fri_proof.size_bytes()
                if (layout == "cosets") == bool(picked):
                    assert system.digest(proof) == system.digest(chosen)
        assert bool(picked) == (sizes["cosets"] < sizes["rows"])


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
