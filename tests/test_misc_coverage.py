"""Coverage for remaining public paths: sim.sweep, model edge cases."""

import numpy as np
import pytest

from repro.baselines import CpuModel
from repro.compiler import PlonkParams
from repro.compiler.graph import KernelNode
from repro.hw import DEFAULT_CONFIG
from repro.sim import sweep


class TestSweepHelper:
    def test_sweep_runs_all_points(self):
        params = PlonkParams(name="s", degree_bits=12, width=40)
        points = [DEFAULT_CONFIG, DEFAULT_CONFIG.scaled(num_vsas=64)]
        reports = sweep(params, points)
        assert len(reports) == 2
        assert reports[1].total_cycles <= reports[0].total_cycles


class TestCpuModelEdges:
    def test_unknown_kind_raises(self):
        node = KernelNode(name="x", kind="hash_misc", params={"perms": 1})
        node.kind = "bogus"  # forged after construction-time validation
        with pytest.raises(ValueError):
            CpuModel().node_seconds(node)

    def test_transform_without_bytes_defaults_to_zero(self):
        node = KernelNode(name="x", kind="transform", params={})
        kind, secs = CpuModel().node_seconds(node)
        assert kind == "transform" and secs == 0.0

    def test_single_thread_equals_no_scaling(self):
        from repro.compiler import trace_plonky2

        params = PlonkParams(name="s", degree_bits=12, width=40)
        graph = trace_plonky2(params)
        st = CpuModel(threads=1)
        # _speedup must be exactly 1 for every kind at threads=1.
        for kind in ("merkle", "ntt", "poly", "transform", "other_hash"):
            assert st._speedup(kind) == 1.0

    def test_report_fraction_of_missing_kind(self):
        from repro.baselines.cpu import CpuReport

        rep = CpuReport(workload="x", threads=1, seconds_by_kind={"ntt": 1.0})
        assert rep.fraction("merkle") == 0.0
        assert rep.fraction("ntt") == 1.0


class TestHwConfigEdges:
    def test_ntt_tile(self):
        assert 1 << DEFAULT_CONFIG.ntt_tile_log2 == 32  # the MDC pipeline tile

    def test_scratchpad_bytes(self):
        assert DEFAULT_CONFIG.scratchpad_bytes == 8 << 20

    def test_scaled_preserves_frozen_original(self):
        scaled = DEFAULT_CONFIG.scaled(num_vsas=1)
        assert DEFAULT_CONFIG.num_vsas == 32
        assert scaled.num_vsas == 1


class TestWorkloadSpecSurface:
    def test_all_specs_have_builders(self):
        from repro.workloads import PAPER_WORKLOADS

        for spec in PAPER_WORKLOADS:
            assert callable(spec.build_circuit)
            assert spec.plonk.degree_bits >= 16

    def test_starky_specs_have_airs(self):
        from repro.workloads import STARKY_WORKLOADS

        for spec in STARKY_WORKLOADS:
            assert spec.stark is not None
            assert spec.build_air is not None
