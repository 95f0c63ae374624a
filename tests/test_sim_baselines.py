"""Simulator and baseline model tests: totals, shapes, monotonicity."""

import pytest

from repro.baselines import (
    CpuModel,
    GpuModel,
    Groth16CpuModel,
    Groth16Workload,
    PipeZkModel,
    SHA256_CONSTRAINTS,
)
from repro.compiler import (
    PlonkParams,
    StarkParams,
    trace_plonky2,
    trace_recursive_plonky2,
    trace_starky,
)
from repro.hw import DEFAULT_CONFIG as HW
from repro.sim import simulate_graph, simulate_plonky2, simulate_starky

FACTORIAL = PlonkParams(name="Factorial", degree_bits=20, width=135)
SMALL = PlonkParams(name="small", degree_bits=12, width=50)


class TestSimulator:
    def test_report_totals_consistent(self):
        rep = simulate_plonky2(SMALL)
        assert rep.total_cycles == pytest.approx(
            sum(rep.cycles_by_kind().values()), rel=1e-9
        )
        assert rep.total_seconds == pytest.approx(
            HW.cycles_to_seconds(rep.total_cycles)
        )

    def test_fractions_sum_to_one(self):
        fracs = simulate_plonky2(SMALL).fraction_by_kind()
        assert sum(fracs.values()) == pytest.approx(1.0)

    def test_utilizations_in_range(self):
        util = simulate_plonky2(FACTORIAL).utilization_by_kind()
        for kind, u in util.items():
            assert 0 <= u["memory"] <= 1
            assert 0 <= u["vsa"] <= 1

    def test_paper_utilisation_shape(self):
        """Table 4's qualitative claims."""
        util = simulate_plonky2(FACTORIAL).utilization_by_kind()
        assert util["ntt"]["memory"] > util["ntt"]["vsa"]  # NTT memory-bound
        assert util["hash"]["vsa"] > 0.85  # hash compute-bound
        assert util["poly"]["vsa"] < 0.1  # poly underutilises both

    def test_poly_dominates_after_acceleration(self):
        """Figure 8's headline: poly ops become the bottleneck."""
        fracs = simulate_plonky2(FACTORIAL).fraction_by_kind()
        assert fracs["poly"] == max(fracs.values())

    def test_more_bandwidth_never_slower(self):
        fast_hw = HW.scaled(mem_bandwidth_gbps=2000.0)
        assert (
            simulate_plonky2(FACTORIAL, fast_hw).total_cycles
            <= simulate_plonky2(FACTORIAL, HW).total_cycles
        )

    def test_more_vsas_never_slower(self):
        big = HW.scaled(num_vsas=64)
        assert (
            simulate_plonky2(FACTORIAL, big).total_cycles
            <= simulate_plonky2(FACTORIAL, HW).total_cycles
        )

    def test_larger_workload_longer(self):
        small = simulate_plonky2(PlonkParams(name="s", degree_bits=14, width=135))
        big = simulate_plonky2(PlonkParams(name="b", degree_bits=16, width=135))
        assert big.total_cycles > 2 * small.total_cycles

    def test_starky_cheaper_than_plonky2(self):
        """Section 7.4: Starky base proving is much cheaper."""
        p = simulate_plonky2(PlonkParams(name="x", degree_bits=16, width=100))
        s = simulate_starky(StarkParams(name="x", degree_bits=16, width=100))
        assert s.total_cycles < p.total_cycles / 3

    def test_starky_plonky2_stages(self):
        base = simulate_starky(StarkParams(name="x", degree_bits=14, width=64))
        recursive = simulate_graph(trace_recursive_plonky2())
        assert base.total_seconds > 0
        assert recursive.total_seconds > 0

    def test_cycles_by_stage(self):
        stages = {k.stage for k in simulate_plonky2(SMALL).kernels}
        assert "wires_commitment" in stages
        assert "prove_openings" in stages

    def test_summary_lines(self):
        lines = simulate_plonky2(SMALL).summary_lines()
        assert any("poly" in l for l in lines)


class TestCpuModel:
    def test_single_thread_table1_shape(self):
        """Merkle ~60%, NTT ~20%, poly ~14%, transform small."""
        rep = CpuModel(threads=1).run(trace_plonky2(FACTORIAL))
        assert 0.55 <= rep.fraction("merkle") <= 0.70
        assert 0.15 <= rep.fraction("ntt") <= 0.25
        assert 0.10 <= rep.fraction("poly") <= 0.25
        assert rep.fraction("transform") <= 0.06

    def test_single_thread_factorial_total(self):
        rep = CpuModel(threads=1).run(trace_plonky2(FACTORIAL))
        assert 500 <= rep.total_seconds <= 650  # paper: 580 s

    def test_multithread_speedup(self):
        g = trace_plonky2(FACTORIAL)
        st = CpuModel(threads=1).run(g).total_seconds
        mt = CpuModel(threads=80).run(g).total_seconds
        assert 8 <= st / mt <= 13  # paper measured ~10x

    def test_threads_never_slow_down(self):
        g = trace_plonky2(SMALL)
        t1 = CpuModel(threads=1).run(g).total_seconds
        t80 = CpuModel(threads=80).run(g).total_seconds
        assert t80 < t1


class TestGpuModel:
    def test_gpu_between_cpu_and_unizk(self):
        g = trace_plonky2(FACTORIAL)
        cpu = CpuModel().run(g).total_seconds
        gpu = GpuModel().run(g).total_seconds
        uni = simulate_plonky2(FACTORIAL).total_seconds
        assert uni < gpu < cpu

    def test_gpu_speedup_range(self):
        """Paper: GPU speedups between 1.2x and 4.6x."""
        from repro.workloads import PAPER_WORKLOADS

        cpu, gpu = CpuModel(), GpuModel()
        for spec in PAPER_WORKLOADS:
            g = trace_plonky2(spec.plonk)
            ratio = cpu.run(g).total_seconds / gpu.run(g).total_seconds
            assert 1.0 <= ratio <= 7.0

    def test_wide_circuits_fall_back(self):
        """MVM-style width exceeds the GPU kernels: host-bound."""
        wide = PlonkParams(name="wide", degree_bits=14, width=400)
        narrow = PlonkParams(name="narrow", degree_bits=14, width=135)
        cpu, gpu = CpuModel(), GpuModel()
        wide_ratio = cpu.run(trace_plonky2(wide)).total_seconds / gpu.run(
            trace_plonky2(wide)
        ).total_seconds
        narrow_ratio = cpu.run(trace_plonky2(narrow)).total_seconds / gpu.run(
            trace_plonky2(narrow)
        ).total_seconds
        assert wide_ratio < narrow_ratio


class TestUniZkSpeedups:
    def test_table3_speedup_band(self):
        """UniZK speedup over CPU: paper 61-147x, average ~97x."""
        from repro.workloads import PAPER_WORKLOADS

        cpu = CpuModel()
        speedups = []
        for spec in PAPER_WORKLOADS:
            g = trace_plonky2(spec.plonk)
            speedups.append(
                cpu.run(g).total_seconds / simulate_plonky2(spec.plonk).total_seconds
            )
        avg = sum(speedups) / len(speedups)
        assert 60 <= avg <= 150
        assert all(50 <= s <= 200 for s in speedups)


class TestPipeZk:
    def test_groth16_cpu_calibration(self):
        m = Groth16CpuModel()
        sha = Groth16Workload("SHA-256", SHA256_CONSTRAINTS)
        assert 1.0 <= m.prove_seconds(sha) <= 2.2  # paper: 1.5 s

    def test_pipezk_speedup(self):
        cpu, asic = Groth16CpuModel(), PipeZkModel()
        sha = Groth16Workload("SHA-256", SHA256_CONSTRAINTS)
        speedup = cpu.prove_seconds(sha) / asic.prove_seconds(sha)
        assert 10 <= speedup <= 20  # paper: 15x

    def test_asic_fraction(self):
        asic = PipeZkModel()
        sha = Groth16Workload("SHA-256", SHA256_CONSTRAINTS)
        frac = asic.asic_seconds(sha) / asic.prove_seconds(sha)
        assert 0.15 <= frac <= 0.4  # paper: ASIC is ~1/4 to 1/3

    def test_throughput(self):
        asic = PipeZkModel()
        sha = Groth16Workload("SHA-256", SHA256_CONSTRAINTS)
        assert 5 <= asic.blocks_per_second(sha) <= 20  # paper: 10 blocks/s
