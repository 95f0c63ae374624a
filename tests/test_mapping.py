"""Kernel mapping tests: emulators against references, cycle models
against the paper's utilisation targets (Table 4)."""

import numpy as np
import pytest

from repro.field import gl64
from repro.hw import DEFAULT_CONFIG as HW
from repro.mapping import (
    KernelCost,
    MdcPipeline,
    chip_perm_throughput,
    elementwise_cost,
    emulate_full_round_matches,
    emulate_partial_products_3step,
    emulate_partial_rounds_match,
    emulate_pipeline_matches_reference,
    emulate_subtree_construction,
    emulate_sumcheck_round,
    gate_access_efficiency,
    gate_eval_cost,
    lde_cost,
    merkle_cost,
    ntt_cost,
    ntt_dims,
    partial_products_cost,
    plan_subtrees,
    poseidon_cost,
    sumcheck_cost,
)
from repro.merkle import MerkleTree
from repro.sumcheck import fold_table

from .reference_oracles import partial_products_reference


class TestKernelCost:
    def test_elapsed_is_max(self):
        k = KernelCost("k", "ntt", compute_cycles=100, mem_bytes=1000 * 1000,
                       mem_efficiency=1.0, mult_ops=10)
        assert k.elapsed_cycles(HW) == pytest.approx(1000.0)  # memory bound
        assert k.is_memory_bound(HW)

    def test_compute_bound(self):
        k = KernelCost("k", "hash", compute_cycles=5000, mem_bytes=1000,
                       mem_efficiency=1.0, mult_ops=10)
        assert k.elapsed_cycles(HW) == 5000
        assert not k.is_memory_bound(HW)

    def test_utilizations_bounded(self):
        k = KernelCost("k", "poly", compute_cycles=10, mem_bytes=100,
                       mem_efficiency=0.5, mult_ops=1e12)
        assert 0 <= k.memory_utilization(HW) <= 1
        assert 0 <= k.vsa_utilization(HW) <= 1

    def test_zero_memory_kernel(self):
        k = KernelCost("k", "poly", compute_cycles=50, mem_bytes=0,
                       mem_efficiency=1.0, mult_ops=10)
        assert k.memory_cycles(HW) == 0.0
        assert k.elapsed_cycles(HW) == 50

    def test_memory_util_equals_efficiency_when_bound(self):
        k = KernelCost("k", "ntt", compute_cycles=1, mem_bytes=1e9,
                       mem_efficiency=0.55, mult_ops=1)
        assert k.memory_utilization(HW) == pytest.approx(0.55, abs=1e-6)


class TestNttMapping:
    @pytest.mark.parametrize("n", [4, 8, 32, 128])
    def test_mdc_pipeline_matches_ntt_nr(self, n, rng):
        assert emulate_pipeline_matches_reference(gl64.random(n, rng))

    def test_mdc_throughput(self, rng):
        pipe = MdcPipeline(32)
        _, cycles = pipe.run(gl64.random(32, rng))
        assert cycles == 16 + 6  # n/2 beats + log n + 1 fill

    def test_register_bound(self):
        assert MdcPipeline(32).required_registers_per_pe() == 16

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            MdcPipeline(12)
        with pytest.raises(ValueError):
            MdcPipeline(1)

    def test_dims(self):
        assert ntt_dims(20, HW) == [5, 5, 5, 5]
        assert ntt_dims(23, HW) == [5, 5, 5, 5, 3]

    def test_paper_table4_ntt_utilisation(self):
        # NTT: memory-bound, ~50% bandwidth, ~4-5% VSA (paper Table 4).
        k = ntt_cost(20, 135, HW)
        assert k.is_memory_bound(HW)
        assert 0.45 <= k.memory_utilization(HW) <= 0.6
        assert 0.03 <= k.vsa_utilization(HW) <= 0.07

    def test_lde_cost_sums_parts(self):
        l = lde_cost(16, 3, 10, HW)
        i = ntt_cost(16, 10, HW)
        n = ntt_cost(19, 10, HW)
        assert l.mem_bytes == pytest.approx(i.mem_bytes + n.mem_bytes)

    def test_small_scratchpad_doubles_passes(self):
        small = HW.scaled(scratchpad_mb=2.0)
        k_big = ntt_cost(20, 135, HW)
        k_small = ntt_cost(20, 135, small)
        assert k_small.mem_bytes == pytest.approx(2 * k_big.mem_bytes)


class TestIndexMajorLayout:
    """Section 5.1 "Data layouts": batched NTTs through the transpose
    buffer on index-major data."""

    def test_matches_column_ntts(self, rng):
        from repro.mapping.ntt_mapping import batched_ntt_index_major
        from repro.ntt import ntt

        m = gl64.random((64, 16), rng)
        out, blocks = batched_ntt_index_major(m, HW)
        ref = np.ascontiguousarray(ntt(np.ascontiguousarray(m.T)).T)
        assert np.array_equal(out, ref)
        # Every b x b block crosses the buffer twice (in and out).
        assert blocks == 2 * (64 // 16) * (16 // 16)

    def test_dim_validation(self, rng):
        from repro.mapping.ntt_mapping import batched_ntt_index_major

        with pytest.raises(ValueError):
            batched_ntt_index_major(gl64.random((64, 10), rng), HW)

    def test_wide_batch(self, rng):
        from repro.mapping.ntt_mapping import batched_ntt_index_major
        from repro.ntt import ntt

        m = gl64.random((32, 32), rng)
        out, _ = batched_ntt_index_major(m, HW)
        assert np.array_equal(out, np.ascontiguousarray(ntt(np.ascontiguousarray(m.T)).T))


class TestPoseidonMapping:
    def test_full_round_emulator(self, rng):
        s = gl64.random((4, 12), rng)
        for r in (0, 3, 4, 7):
            assert emulate_full_round_matches(s, r)

    def test_partial_round_emulator(self, rng):
        assert emulate_partial_rounds_match(gl64.random(12, rng))

    def test_chip_throughput(self):
        # 4608 PEs / 2472 PE-cycles per permutation.
        assert chip_perm_throughput(HW) == pytest.approx(4608 / 2472)

    def test_hash_is_compute_bound(self):
        k = poseidon_cost(1e6, HW, input_bytes=1e6 * 64)
        assert not k.is_memory_bound(HW)
        assert k.vsa_utilization(HW) > 0.85  # paper: 95-97%


class TestMerkleMapping:
    def test_subtree_equals_monolithic(self, rng):
        leaves = gl64.random((32, 7), rng)
        root = emulate_subtree_construction(leaves, 8)
        assert np.array_equal(root, MerkleTree(leaves).cap[0])

    def test_subtree_invalid_split(self, rng):
        with pytest.raises(ValueError):
            emulate_subtree_construction(gl64.random((32, 7), rng), 5)

    def test_plan_fits_scratchpad(self):
        plan = plan_subtrees(1 << 23, 135, HW)
        leaf_bytes = 135 * 8
        assert plan.subtree_leaves * leaf_bytes <= HW.scratchpad_bytes // 2 * 1.2
        assert plan.subtree_leaves * plan.num_subtrees == 1 << 23

    def test_merkle_cost_utilisation(self):
        k = merkle_cost(1 << 23, 135, HW)
        assert k.vsa_utilization(HW) > 0.85
        assert 0.05 <= k.memory_utilization(HW) <= 0.3  # paper: ~20%

    def test_merkle_scales_with_vsas(self):
        k = merkle_cost(1 << 20, 135, HW)
        k2 = merkle_cost(1 << 20, 135, HW.scaled(num_vsas=64))
        assert k2.elapsed_cycles(HW.scaled(num_vsas=64)) < k.elapsed_cycles(HW)


class TestPolyMapping:
    def test_partial_products_3step(self, rng):
        for n in (32, 64, 256):
            h = gl64.random(n, rng)
            assert np.array_equal(
                emulate_partial_products_3step(h), partial_products_reference(h)
            )

    def test_partial_products_bad_size(self, rng):
        with pytest.raises(ValueError):
            emulate_partial_products_3step(gl64.random(33, rng))

    def test_gate_efficiency_monotone_in_width(self):
        assert gate_access_efficiency(2) < gate_access_efficiency(135)
        assert gate_access_efficiency(135) < gate_access_efficiency(400)

    def test_gate_eval_matches_table4_poly(self):
        k = gate_eval_cost(1 << 23, 1350, 135, HW)
        assert 0.1 <= k.memory_utilization(HW) <= 0.25

    def test_elementwise_tiling_reuse(self):
        k = elementwise_cost(1 << 20, 50, 10, HW)
        naive_bytes = 50 * (1 << 20) * 24
        assert k.mem_bytes < naive_bytes / 3

    def test_elementwise_spill_with_tiny_scratchpad(self):
        tiny = HW.scaled(scratchpad_mb=0.05)
        k_big = elementwise_cost(1 << 20, 10, 200, HW)
        k_small = elementwise_cost(1 << 20, 10, 200, tiny)
        assert k_small.mem_bytes > k_big.mem_bytes

    def test_partial_products_cost_positive(self):
        k = partial_products_cost(1 << 20, 135, HW)
        assert k.elapsed_cycles(HW) > 0


class TestSumcheckMapping:
    def test_round_emulation_matches(self, rng):
        table = gl64.random(64, rng)
        y0, y1, folded = emulate_sumcheck_round(table, 777)
        assert np.array_equal(folded, fold_table(table, 777))
        total = int(gl64.sum_array(table))
        from repro.field import goldilocks as gl

        assert gl.add(y0, y1) == total

    def test_cost_scales_with_size(self):
        small = sumcheck_cost(10, HW)
        big = sumcheck_cost(20, HW)
        assert big.elapsed_cycles(HW) > small.elapsed_cycles(HW)

    def test_small_tables_stay_on_chip(self):
        k = sumcheck_cost(10, HW)
        assert k.mem_bytes == 0.0
