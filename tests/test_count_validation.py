"""Cross-validation: the cost models' operation counts versus the
operations the functional provers actually execute.

This is the reproduction's analogue of the paper validating its
simulator against RTL: the compiler frontend predicts permutation and
butterfly counts from protocol structure; the instrumented functional
stack reports what really ran.  At matched parameters they must agree.
"""

import numpy as np
import pytest

from repro.field import gl64
from repro.fri import FriConfig, fri_layout
from repro.merkle import MerkleTree, merkle_permutation_count
from repro.metrics import counting
from repro.ntt import intt, lde, ntt
from repro.plonk import CircuitBuilder, prove, setup
from repro.plonk.protocol import PLONK
from repro.stark import prove as stark_prove
from repro.workloads import by_name


def _fri_layer_perms(cfg, degree_bits, n_lde, virtual_bits=0):
    """Sponge permutations of the FRI layer trees: one per committed
    layer of ``fold_schedule``, ``n >> a`` coset leaves of ``2 << a``
    elements over a layer of ``n`` values.  A virtual first layer of
    ``virtual_bits`` (the batches hold its cosets) builds no tree."""
    schedule = cfg.fold_schedule(degree_bits, virtual_bits)
    if virtual_bits:
        schedule, n_lde = schedule[1:], n_lde >> virtual_bits
    total = 0
    for bits in schedule:
        leaves = n_lde >> bits
        total += merkle_permutation_count(
            leaves, 2 << bits, min(cfg.cap_height, leaves.bit_length() - 1)
        )
        n_lde = leaves
    return total


class TestPrimitiveCounts:
    def test_merkle_count_exact(self, rng):
        for leaves, width, cap in [(16, 135, 0), (64, 10, 2), (32, 4, 0)]:
            with counting() as c:
                MerkleTree(gl64.random((leaves, width), rng), cap_height=cap)
                assert c.sponge_permutations == merkle_permutation_count(
                    leaves, width, cap
                )

    def test_ntt_butterfly_count_exact(self, rng):
        with counting() as c:
            ntt(gl64.random((5, 256), rng))
            assert c.ntt_butterflies == 5 * 128 * 8
            assert c.ntt_transforms == 5

    def test_intt_counts_like_ntt(self, rng):
        with counting() as c:
            intt(gl64.random(64, rng))
            assert c.ntt_butterflies == 32 * 6

    def test_lde_counts_both_transforms(self, rng):
        with counting() as c:
            lde(gl64.random(64, rng), 3)
            # iNTT at 64 plus coset NTT at 512.
            assert c.ntt_butterflies == 32 * 6 + 256 * 9

    def test_challenger_separate_counter(self):
        from repro.hashing import Challenger

        with counting() as c:
            ch = Challenger()
            ch.observe_elements(range(20))
            ch.get_n_challenges(3)
            assert c.challenger_permutations >= 3
            assert c.sponge_permutations == 0


class TestPlonkProverCounts:
    """The functional Plonk prover versus a mirror structural prediction."""

    @pytest.fixture(scope="class")
    def run(self):
        b = CircuitBuilder()
        x = b.add_variable()
        acc = x
        for _ in range(40):
            acc = b.mul(acc, acc)
        pub = b.public_input()
        b.assert_equal(pub, acc)
        circuit = b.build()
        cfg = FriConfig(rate_bits=3, cap_height=1, num_queries=4,
                        proof_of_work_bits=2, final_poly_len=4)
        data = setup(circuit, cfg)
        from repro.field import goldilocks as gl

        inputs = {x.index: 3, pub.index: gl.pow_mod(3, 1 << 40)}
        with counting() as c:
            prove(data, inputs)
            counts = (
                c.sponge_permutations,
                c.challenger_permutations,
                c.ntt_butterflies,
            )
        return circuit, cfg, counts

    def _predicted_tree_perms(self, circuit, cfg):
        n_lde = circuit.n << cfg.rate_bits
        cap = cfg.cap_height
        a, _ = fri_layout(cfg, circuit.log_n, PLONK.widths)
        total = 0
        # wires (3 cols), z (1 col), quotient (6 cols), each leaf the
        # coset of 2**a rows the layout picks.
        for width in (3, 1, 6):
            total += merkle_permutation_count(n_lde >> a, width << a, cap)
        return total + _fri_layer_perms(cfg, circuit.log_n, n_lde, a)

    def test_sponge_permutations_exact(self, run):
        circuit, cfg, (sponge, _, _) = run
        assert sponge == self._predicted_tree_perms(circuit, cfg)

    def test_ntt_butterflies_exact(self, run):
        circuit, cfg, (_, _, butterflies) = run
        n, log_n = circuit.n, circuit.log_n
        lde_bits = log_n + cfg.rate_bits
        n_lde = n << cfg.rate_bits
        small = n // 2 * log_n  # one size-n transform
        big = n_lde // 2 * lde_bits  # one size-n_lde transform
        # One transform on the quotient's 4n-point coset (3 chunks).
        quotient = 2 * n * (log_n + 2)

        predicted = 0
        predicted += 3 * (small + big)  # wires: iNTT + coset NTT per column
        predicted += small + quotient  # public-input polynomial, on the quotient's coset
        predicted += small + big  # Z column
        predicted += 2 * quotient  # quotient: coset iNTT of both extension limbs
        predicted += 6 * big  # 6 chunk commitments (coeffs -> coset NTT)
        # FRI final polynomial: coset iNTT of 2 limbs at the residual size.
        num_rounds = cfg.num_fold_rounds(log_n)
        final_size = n_lde >> num_rounds
        predicted += 2 * (final_size // 2) * (final_size.bit_length() - 1)
        assert butterflies == predicted

    def test_challenger_bounded(self, run):
        _, cfg, (_, challenger, _) = run
        # Transcript + grinding: small but non-zero.
        assert 4 <= challenger <= 64 + (1 << (cfg.proof_of_work_bits + 4))


class TestStarkProverCounts:
    def test_trace_tree_perms(self):
        spec = by_name("Fibonacci")
        air, trace, publics = spec.build_air(6)
        cfg = FriConfig(rate_bits=1, cap_height=1, num_queries=4,
                        proof_of_work_bits=2, final_poly_len=4)
        n_lde = trace.shape[0] << cfg.rate_bits
        a, _ = fri_layout(cfg, 6, [2, 2])
        assert a == 2  # the batches commit 4-row cosets; FRI layer 0 is virtual
        with counting() as c:
            stark_prove(air, trace, publics, cfg)
            # trace tree, quotient tree (1 chunk x2): 2 columns a row
            predicted = 2 * merkle_permutation_count(n_lde >> a, 2 << a, 1)
            predicted += _fri_layer_perms(cfg, 6, n_lde, a)
            assert c.sponge_permutations == predicted

    def test_graph_merkle_prediction_matches_functional(self, monkeypatch):
        """The compiler frontend's Merkle accounting, instantiated at the
        functional prover's exact parameters, predicts the same leaf-tree
        permutations the prover executes.  The frontend models Plonky2,
        whose batches commit one row a leaf, so the prover is held to
        that layout here (``fri_layout`` would pick 2-row cosets)."""
        from repro.compiler import PlonkParams, trace_plonky2
        from repro.plonk import prover as plonk_prover

        monkeypatch.setattr(
            plonk_prover, "fri_layout", lambda cfg, bits, widths: (0, cfg.fold_schedule(bits))
        )

        b = CircuitBuilder()
        x = b.add_variable()
        acc = x
        for _ in range(40):
            acc = b.mul(acc, acc)
        circuit = b.build()
        cfg = FriConfig(rate_bits=3, cap_height=0, num_queries=4,
                        proof_of_work_bits=2, final_poly_len=4)
        data = setup(circuit, cfg)
        inputs = {x.index: 3}
        with counting() as c:
            prove(data, inputs)
            measured = c.sponge_permutations

        params = PlonkParams(
            name="mirror", degree_bits=circuit.log_n, width=3, rate_bits=3,
            num_challenges=1, zs_width=1, quotient_width=6, salt_width=0,
            num_queries=4, pow_bits=2,
        )
        graph = trace_plonky2(params)
        predicted = 0
        for node in graph.nodes:
            if node.kind == "merkle":
                predicted += merkle_permutation_count(
                    int(node.params["leaves"]), int(node.params["width"])
                )
        # Both fold by 8 per committed layer, but the graph commits
        # layers down to 64 values where the prover stops at its
        # final_poly_len: the non-FRI trees agree exactly, the whole
        # within 5% (1.4% at this shape).
        assert abs(predicted - measured) / measured < 0.05
