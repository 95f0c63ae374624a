"""Hardware model tests: config, DRAM, scratchpad tiling, VSA,
area/power."""

import numpy as np
import pytest

from repro.field import gl64
from repro.hw import (
    DEFAULT_CONFIG,
    DramModel,
    HwConfig,
    Vsa,
    VsaSpec,
    chip_budget,
    measured_efficiencies,
    tile_plan,
)
from repro.hw.memory import random_chunks, sequential_stream, strided_stream


class TestConfig:
    def test_defaults_match_paper(self):
        c = DEFAULT_CONFIG
        assert c.num_vsas == 32
        assert c.pes_per_vsa == 144
        assert c.total_pes == 4608
        assert c.scratchpad_mb == 8.0
        assert c.bytes_per_cycle == pytest.approx(1000.0)

    def test_scaled(self):
        c = DEFAULT_CONFIG.scaled(num_vsas=64)
        assert c.num_vsas == 64 and c.scratchpad_mb == 8.0

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            HwConfig(num_vsas=0)
        with pytest.raises(ValueError):
            HwConfig(mem_bandwidth_gbps=-1)

    def test_cycles_to_seconds(self):
        assert DEFAULT_CONFIG.cycles_to_seconds(1e9) == pytest.approx(1.0)

    def test_ntt_pipelines(self):
        assert DEFAULT_CONFIG.ntt_pipelines == 32 * 12


class TestDram:
    def test_sequential_beats_strided(self):
        m = DramModel()
        seq = m.efficiency(sequential_stream(1 << 19))
        stri = m.efficiency(strided_stream(1 << 19, 4096))
        assert seq > 0.8
        assert stri < 0.2
        assert seq > stri

    def test_wider_chunks_more_efficient(self):
        m = DramModel()
        narrow = m.efficiency(random_chunks(1500, 16, 1 << 26))
        wide = m.efficiency(random_chunks(1500, 3200, 1 << 26))
        assert wide > narrow

    def test_efficiency_bounded(self):
        effs = measured_efficiencies()
        assert all(0 < v <= 1 for v in effs.values())

    def test_empty_stream(self):
        assert DramModel().efficiency([]) == 1.0

    def test_service_monotone_in_length(self):
        m = DramModel()
        s1 = m.service(sequential_stream(1 << 14))
        s2 = m.service(sequential_stream(1 << 16))
        assert s2 > s1


class TestScratchpad:
    def test_tile_plan_reuse(self):
        plan = tile_plan(1 << 20, 10, 40, 8 << 20)
        assert plan.reuse_factor > 5
        assert plan.tile_elems * plan.num_tiles >= 1 << 20

    def test_tile_plan_shrinks_with_operands(self):
        few = tile_plan(1 << 20, 4, 10, 8 << 20)
        many = tile_plan(1 << 20, 100, 10, 8 << 20)
        assert many.tile_elems < few.tile_elems


class TestVsa:
    def test_vector_mode(self, rng):
        v = Vsa()
        a, b = gl64.random(1000, rng), gl64.random(1000, rng)
        res = v.vector_mode(lambda ops: gl64.add(ops[0], ops[1]), [a, b], ops_per_element=1)
        assert np.array_equal(res.values, gl64.add(a, b))
        assert res.cycles == -(-1000 // 144)

    def test_vector_mode_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            Vsa().vector_mode(lambda o: o[0], [gl64.random(5, rng), gl64.random(6, rng)])

    def test_spec_reverse_columns(self):
        spec = VsaSpec()
        assert 1 in spec.reverse_link_cols
        assert 0 not in spec.reverse_link_cols
        assert spec.num_pes == 144


class TestAreaPower:
    def test_default_matches_table2(self):
        b = chip_budget(DEFAULT_CONFIG)
        assert b.total_area_mm2 == pytest.approx(57.8, abs=0.05)
        assert b.total_power_w == pytest.approx(96.4, abs=0.05)

    def test_component_values(self):
        rows = {name: (a, p) for name, a, p in chip_budget().as_rows()}
        assert rows["32 VSAs"][0] == pytest.approx(21.3, abs=0.01)
        assert rows["8 MB scratchpad"][1] == pytest.approx(1.0, abs=0.01)

    def test_vsa_scaling(self):
        double = chip_budget(DEFAULT_CONFIG.scaled(num_vsas=64))
        rows = {name: (a, p) for name, a, p in double.as_rows()}
        assert rows["64 VSAs"][0] == pytest.approx(42.6, abs=0.01)

    def test_bandwidth_adds_phys(self):
        big = chip_budget(DEFAULT_CONFIG.scaled(mem_bandwidth_gbps=2000.0))
        names = [c.name for c in big.components]
        assert "4 HBM PHYs" in names

    def test_scratchpad_scaling(self):
        half = chip_budget(DEFAULT_CONFIG.scaled(scratchpad_mb=4.0))
        rows = {name: (a, p) for name, a, p in half.as_rows()}
        assert rows["4 MB scratchpad"][0] == pytest.approx(2.5, abs=0.01)
