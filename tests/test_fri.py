"""FRI commitment scheme: honest proofs verify, every fault is caught."""

import copy
import itertools
from fractions import Fraction

import numpy as np
import pytest

from repro.context import RUN, Counters, scoped
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
from repro.fri import config as fri_config, prover as fri_prover, verifier as fri_verifier
from repro.fri.config import (
    FRI_ARITY_BITS,
    expected_opening_bytes,
    expected_proof_bytes,
    fri_layout,
)
from repro.fri.prover import check_pow, combine_rows, lde_points
from repro.hashing import Challenger
from repro.merkle import MerkleTree, open_tree
from repro.plonk import prover as plonk_prover
from repro.plonk.prover import LEAF_WIDTHS as PLONK_WIDTHS
from repro.stark import prover as stark_prover
from repro.serialize import proof_to_blob
from repro.workloads import by_name, fibonacci

from .goldens import ARITY2_DIGESTS, CONFIGS, LAYOUTS, ROW_LAYOUT_DIGESTS, SCALE
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


def _force_layout(monkeypatch, coset_bits, modules=(stark_prover, plonk_prover, fri_verifier)):
    """Make every prover and verifier commit ``2**coset_bits``-row coset
    leaves under the matching schedule, whatever ``fri_layout`` would
    pick; 0 commits one LDE row a leaf, and so FRI layer 0."""

    def forced(config, degree_bits, widths):
        return coset_bits, config.fold_schedule(degree_bits, coset_bits)

    for module in modules:
        monkeypatch.setattr(module, "fri_layout", forced)


def _force_row_leaves(monkeypatch):
    """:func:`_force_layout` at 0: the layout the row-leaf pins hold."""
    _force_layout(monkeypatch, 0)


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
            rounds = cfg.num_fold_rounds(degree_bits)
            for a in range(min(FRI_ARITY_BITS, rounds) + 1):
                schedule = cfg.fold_schedule(degree_bits, a)
                committed = schedule[1:] if a else schedule
                assert sum(schedule) == rounds
                assert not a or schedule[0] == a
                assert all(bits == FRI_ARITY_BITS for bits in committed[:-1])
                assert all(1 <= bits <= FRI_ARITY_BITS for bits in schedule)
            with pytest.raises(ValueError):
                cfg.fold_schedule(degree_bits, min(FRI_ARITY_BITS, rounds) + 1)

    def test_proof_opens_one_coset_leaf_per_committed_layer(self, rng, fri_test_config):
        cfg = fri_test_config
        n = 64  # 6 - 2 = 4 folds: one arity-8 layer, one arity-2 tail
        batches = _mk_batches(rng, cfg, n)
        proof = _prove(batches, _mk_openings(batches, n), cfg)
        assert cfg.fold_schedule(6) == (3, 1)
        assert len(proof.commit_caps) == 2
        assert [op.rows.shape[1] for op in proof.layer_openings] == [16, 4]

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


def _first_arities(cfg, degree_bits):
    """Every first arity ``fri_layout`` may pick: ``0 .. 3`` folds at
    most, and a coset tree that still holds the cap."""
    top = min(FRI_ARITY_BITS, cfg.num_fold_rounds(degree_bits))
    return [
        a for a in range(top + 1)
        if not a or cfg.cap_height <= degree_bits + cfg.rate_bits - a
    ]


def _widths(protocol, setup):
    return stark_prover.leaf_widths(setup.data[0]) if protocol == "stark" else PLONK_WIDTHS


class TestInitialArityBits:
    @pytest.mark.parametrize("degree_bits", [6, 8, 10, 12])
    def test_stark_fibonacci_commits_the_first_fold(self, degree_bits):
        # The batches commit the first fold's cosets at every shape; it
        # is a fold by 4 at 2^6 rows and by 8 from 2^8 up.
        cfg = CONFIGS["stark"]
        a = 2 if degree_bits == 6 else 3
        assert fri_layout(cfg, degree_bits, [2, 2]) == (a, cfg.fold_schedule(degree_bits, a))

    @pytest.mark.parametrize(
        "protocol, workload, scale",
        [
            ("stark", "Fibonacci", 8),
            ("stark", "Fibonacci", 10),
            ("stark", "Fibonacci", 12),
            ("plonk", "MVM", 6),
            ("plonk", "MVM", 11),
            ("plonk", "Fibonacci", 64),
        ],
    )
    def test_chosen_layout_gives_the_smallest_blob(self, monkeypatch, protocol, workload, scale):
        # The benchmark and service shapes under the registry defaults:
        # of every first arity, the one the rule picks proves the
        # smallest blob, and it is the blob the unforced prover sends.
        system = protocols.get(protocol)
        setup = system.setup(by_name(workload), scale, system.make_config())
        chosen = proof_to_blob(protocol, system.prove(setup))
        log_n = setup.rows.bit_length() - 1
        picked, _ = fri_layout(setup.config, log_n, _widths(protocol, setup))
        sizes = {}
        for a in _first_arities(setup.config, log_n):
            with monkeypatch.context() as patch:
                _force_layout(patch, a)
                forced = system.setup(by_name(workload), scale, setup.config)
                blob = proof_to_blob(protocol, system.prove(forced))
                sizes[a] = len(blob)
                if a == picked:
                    assert blob == chosen
        assert min(sizes, key=sizes.get) == picked, sizes

    @pytest.mark.parametrize("protocol", sorted(LAYOUTS))
    def test_golden_instances_take_the_pinned_layout(self, protocol):
        system = protocols.get(protocol)
        setup = system.setup(fibonacci.SPEC, SCALE, CONFIGS[protocol])
        log_n = setup.rows.bit_length() - 1
        a, schedule = LAYOUTS[protocol]
        assert fri_layout(CONFIGS[protocol], log_n, _widths(protocol, setup)) == LAYOUTS[protocol]
        proof = system.prove(setup)
        assert len(proof.fri_proof.commit_caps) == len(schedule) - (a > 0)

    def test_coset_tree_must_hold_the_cap(self):
        # degree 6, blowup 2: the 2**a-row coset trees are 7 - a deep.
        # Each cap height leaves the admissible arities, and the rule
        # picks the one of smallest expected proof among them.
        for cap_height in range(8):
            cfg = FriConfig(rate_bits=1, cap_height=cap_height, num_queries=4, final_poly_len=1)
            a, schedule = fri_layout(cfg, 6, [2, 2])
            fits = [b for b in range(4) if not b or cap_height <= 7 - b]
            assert a in fits and schedule == cfg.fold_schedule(6, a)
            assert a == min(fits, key=lambda b: expected_proof_bytes(cfg, 6, [2, 2], b))
        assert fri_layout(FriConfig(rate_bits=1, cap_height=7, final_poly_len=1), 6, [2, 2])[0] == 0
        assert fri_layout(FriConfig(final_poly_len=64), 6, [2, 2]) == (0, ())  # no fold

    @pytest.mark.parametrize(
        "protocol, scale, rate_bits, cap_height, num_queries, final_poly_len",
        [
            ("stark", 4, 1, 0, 3, 1),  # 4-row cosets: one fold by 4, one by 2
            ("stark", 6, 2, 1, 5, 2),  # 4-row cosets: one fold by 4, one by 8
            ("stark", 5, 1, 4, 4, 1),  # 4-row cosets: the 8-row tree cannot hold cap 4
            ("plonk", 4, 3, 1, 8, 4),  # 2-row cosets: the only fold is by 2
            ("plonk", 6, 3, 1, 8, 1),  # 2-row cosets: 20 columns outweigh wider leaves
            ("plonk", 6, 2, 0, 3, 1),  # 2-row cosets
        ],
    )
    def test_cosets_are_chosen_exactly_when_the_proof_shrinks(
        self, monkeypatch, protocol, scale, rate_bits, cap_height, num_queries, final_poly_len
    ):
        # Every first arity proves and verifies; the rule picks the one
        # whose proof is smallest on average over 16 transcripts (the
        # rule prices an expectation over the query positions, and one
        # transcript is one draw of them), and the unforced prover
        # sends exactly that layout's proof.
        cfg = FriConfig(
            rate_bits=rate_bits, cap_height=cap_height, num_queries=num_queries,
            proof_of_work_bits=1, final_poly_len=final_poly_len,
        )
        system = protocols.get(protocol)
        setup = system.setup(fibonacci.SPEC, scale, cfg)
        chosen = system.prove(setup)
        log_n = setup.rows.bit_length() - 1
        picked, _ = fri_layout(cfg, log_n, _widths(protocol, setup))

        def seeded(k):
            challenger = Challenger()
            challenger.observe_element(k)
            return challenger

        mean = {}
        for a in _first_arities(cfg, log_n):
            with monkeypatch.context() as patch:
                _force_layout(patch, a)
                forced = system.setup(fibonacci.SPEC, scale, cfg)
                proof = system.prove(forced)
                system.verify(forced, proof)
                if a == picked:
                    assert system.digest(proof) == system.digest(chosen)
                sizes = [
                    system.prove(forced, challenger=seeded(k)).fri_proof.size_bytes()
                    for k in range(16)
                ]
                mean[a] = sum(sizes) / len(sizes)
        assert min(mean, key=mean.get) == picked, mean


class TestExpectedProofBytes:
    @pytest.mark.parametrize("queries", [1, 2, 3])
    @pytest.mark.parametrize("log_leaves", [0, 1, 2, 3, 4])
    def test_closed_form_is_the_mean_over_every_query_tuple(self, queries, log_leaves):
        # Every ``queries``-tuple of leaf indices equally likely: the
        # mean size of the tree's shared-path opening is exactly the
        # closed form, for every cap height the tree holds.
        leaves, width = 1 << log_leaves, 3
        tree = MerkleTree(gl64.random((leaves, width), np.random.default_rng(1)))
        for cap_height in range(log_leaves + 1):
            capped = tree.capped(cap_height)
            total = sum(
                open_tree(capped, draw).size_bytes()
                for draw in itertools.product(range(leaves), repeat=queries)
            )
            want = expected_opening_bytes(leaves, width, cap_height, queries)
            assert Fraction(total, leaves**queries) == want

    def test_proof_price_sums_trees_and_layer_caps(self):
        # Plonk MVM 11 under the registry defaults, rows: four batch
        # trees of 4096 leaves, then layers of 512, 64 and 32 coset
        # leaves, each with a two-digest cap.
        cfg = CONFIGS["plonk"]
        trees = [(4096, w, 1) for w in PLONK_WIDTHS]
        trees += [(512, 16, 1), (64, 16, 1), (32, 4, 1)]
        want = 3 * 2 * 32 + sum(
            expected_opening_bytes(m, w, cap, cfg.num_queries) for m, w, cap in trees
        )
        assert expected_proof_bytes(cfg, 9, PLONK_WIDTHS, 0) == want


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
        p2.batch_openings[0].rows[0, 0] ^= np.uint64(1)
        with pytest.raises(FriError):
            _verify(batches, openings, p2, cfg, n)

    def test_tampered_coset_leaf(self, setup):
        # Every slot of a layer's coset leaf, queried or not, is bound
        # by its Merkle path.
        batches, openings, proof, cfg, n = setup
        width = proof.layer_openings[0].rows.shape[1]
        for slot in range(width):
            p2 = copy.deepcopy(proof)
            p2.layer_openings[0].rows[0, slot] ^= np.uint64(1)
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
        # Every tree stops opening its last queried leaf.
        for op in p2.tree_openings():
            op.rows = op.rows[:-1]
        with pytest.raises(FriError, match="initial opening has wrong shape"):
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


# ---------------------------------------------------------------------------
# The one-step fold, the GEMM combine and the batched grind, each against
# the code path it replaced.
# ---------------------------------------------------------------------------

#: Output rows from 1 to 2**14: both sides of the size rule, and of the
#: combine's row blocks.
ROWS = sorted({1 << k for k in range(15)} | {ext._SHORT_ELEMS + 1, fri_prover._COMBINE_ROWS + 1})


def _fold_chain(values, beta, shift, log_n, arity_bits):
    """The arity-2 chain the one-step fold replaced."""
    for _ in range(arity_bits):
        half = values.shape[0] // 2
        weights = fri_prover.fold_weights(log_n, int(shift))
        values = fri_prover.fold_pairs(values[:half], values[half:], weights, beta)
        beta, shift, log_n = ext.square(beta), gl.mul(shift, shift), log_n - 1
    return values


@pytest.mark.parametrize("arity_bits", [1, 2, 3])
def test_one_step_fold_is_the_fold_pairs_chain(arity_bits, rng):
    for rows in (r for r in ROWS if r & (r - 1) == 0):
        log_n = rows.bit_length() - 1 + arity_bits
        shift = gl.pow_mod(gl.coset_shift(), 1 << int(rng.integers(0, 3)))
        values = gl64.random((1 << log_n, 2), rng)
        beta = gl64.random(2, rng)
        got = fold_values(values, beta, shift, log_n, arity_bits)
        assert np.array_equal(got, _fold_chain(values, beta, shift, log_n, arity_bits)), rows


def test_fold_tables_scale_each_coset_by_its_point(rng):
    """``x_i**-k / 2**a`` for the coset's first point ``x_i``."""
    log_n, bits, shift = 7, 3, gl.coset_shift()
    _, scale = fri_prover.fold_tables(log_n, shift, bits)
    xs = lde_points(log_n, shift)
    for i in rng.integers(0, 1 << (log_n - bits), size=5).tolist():
        for k in range(1 << bits):
            want = gl.mul(gl.inverse(1 << bits), gl.pow_mod(gl.inverse(int(xs[i])), k))
            assert int(scale[i, 0, k]) == want


@pytest.mark.parametrize("points", [1, 2, 3])
def test_gemm_combine_is_the_per_point_combine(points, rng):
    """The GEMM combine against the per-point ladder and inversion, on
    batches of 1 to 240 columns (three 112-column groups) with repeated
    and unopened columns."""
    widths = (1, 5, 240)
    columns = [
        [(b, int(c)) for b in range(len(widths)) for c in rng.integers(0, widths[b], size=4)]
        + [(2, 200), (2, 200)]
        for _ in range(points)
    ]
    for rows in ROWS:
        xs = lde_points(15)[rng.integers(0, 1 << 15, size=rows)]
        batch_rows = [gl64.random((rows, w), rng) for w in widths]
        openings = FriOpenings(
            [gl64.random(2, rng) for _ in range(points)],
            columns,
            [gl64.random((len(c), 2), rng) for c in columns],
        )
        alpha = gl64.random(2, rng)
        want = fri_prover._combine_short(batch_rows, xs, openings, alpha)
        assert np.array_equal(combine_rows(batch_rows, xs, openings, alpha), want), rows


def test_gemm_combine_refuses_a_point_on_the_domain(rng):
    rows = 2 * ext._SHORT_ELEMS
    xs = lde_points(10)[:rows]
    openings = FriOpenings([ext.from_base(xs[7])], [[(0, 0)]], [gl64.random((1, 2), rng)])
    with pytest.raises(ZeroDivisionError):
        combine_rows([gl64.random((rows, 1), rng)], xs, openings, gl64.random(2, rng))


def _grind_scalar(challenger, pow_bits):
    """The one-candidate-at-a-time search the batched grind replaced."""
    threshold = 1 << (64 - pow_bits)
    witness = 0
    while True:
        fork = challenger.clone()
        fork.observe_element(witness)
        if fork.get_challenge() < threshold:
            return witness
        witness += 1


@pytest.mark.parametrize("pow_bits", range(13))
def test_batched_grind_finds_the_scalar_witness(pow_bits, rng):
    """Same least witness, same counted permutations, on transcripts
    with every pending-input length and a fresh squeeze buffer."""
    for pending in rng.choice(8, size=2, replace=False).tolist():
        challenger = Challenger()
        challenger.observe_elements(gl64.random(8 + pending, rng))
        if pending == 0:
            challenger.get_challenge()  # an output buffer to discard
        counts = []
        for search in (_grind_scalar, grind):
            with scoped("counters", Counters()):
                witness = search(challenger, pow_bits)
                counts.append(RUN.counters.challenger_permutations)
            if search is grind:
                assert witness == want and check_pow(challenger, witness, pow_bits)
            want = witness
        assert counts[0] == counts[1] == want + 1
