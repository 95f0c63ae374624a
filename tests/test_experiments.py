"""Integration tests: every table and figure regenerates with the
paper's shape (acceptance criteria from DESIGN.md)."""

import pytest

from repro.experiments import (
    fig8,
    fig9,
    fig10,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    table6_throughput,
)
from repro.experiments import ablations
from repro.experiments.figures import format_fig8, format_fig9, format_fig10
from repro.experiments.paper_data import PAPER_TABLE3
from repro.experiments.proof_size import plonk_proof_size, stark_proof_size
from repro.experiments.runner import run_all
from repro.experiments.tables import (
    format_table1,
    format_table2,
    format_table3,
    format_table4,
    format_table5,
    format_table6,
)
from repro.mapping import NTT_MEM_EFFICIENCY


@pytest.fixture(scope="module")
def t1():
    return table1()


@pytest.fixture(scope="module")
def t3():
    return table3()


@pytest.fixture(scope="module")
def t4():
    return table4()


@pytest.fixture(scope="module")
def t5():
    return table5()


class TestTable1:
    def test_six_rows(self, t1):
        assert len(t1) == 6

    def test_merkle_dominates(self, t1):
        for r in t1:
            assert r["merkle"] == max(r["merkle"], r["ntt"], r["poly"], r["transform"])
            assert 0.50 <= r["merkle"] <= 0.75

    def test_fractions_sum_to_one(self, t1):
        for r in t1:
            total = r["poly"] + r["ntt"] + r["merkle"] + r["other_hash"] + r["transform"]
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_absolute_times_near_paper(self, t1):
        from repro.experiments.paper_data import PAPER_TABLE1

        for r in t1:
            paper = PAPER_TABLE1[r["app"]]["time_s"]
            assert 0.55 * paper <= r["time_s"] <= 1.5 * paper

    def test_formatting(self, t1):
        out = format_table1(t1)
        assert "Factorial" in out and "paper" in out


class TestTable2:
    def test_matches_paper_exactly(self):
        rows = {r["component"]: r for r in table2()}
        assert rows["Total"]["area_mm2"] == pytest.approx(57.8, abs=0.05)
        assert rows["Total"]["power_w"] == pytest.approx(96.4, abs=0.05)
        assert format_table2(table2())


class TestTable3:
    def test_ordering(self, t3):
        for r in t3:
            assert r["unizk_s"] < r["gpu_s"] < r["cpu_s"]

    def test_average_speedup(self, t3):
        avg = sum(r["unizk_speedup"] for r in t3) / len(t3)
        assert 70 <= avg <= 130  # paper: 97x

    def test_gpu_speedups(self, t3):
        for r in t3:
            assert 1.0 <= r["gpu_speedup"] <= 7.0  # paper: 1.2-4.6x

    def test_cpu_times_near_paper(self, t3):
        for r in t3:
            paper = PAPER_TABLE3[r["app"]]["cpu_s"]
            assert 0.6 * paper <= r["cpu_s"] <= 1.5 * paper

    def test_unizk_times_near_paper(self, t3):
        for r in t3:
            paper = PAPER_TABLE3[r["app"]]["unizk_s"]
            assert 0.4 * paper <= r["unizk_s"] <= 2.0 * paper

    def test_formatting(self, t3):
        assert "average" in format_table3(t3)


class TestTable4:
    def test_shape(self, t4):
        for r in t4:
            assert 0.4 <= r["ntt_mem"] <= 0.65  # paper: 47-56%
            assert 0.02 <= r["ntt_vsa"] <= 0.08  # paper: 4.3-5.0%
            assert r["hash_vsa"] >= 0.85  # paper: 95-97%
            assert r["poly_vsa"] <= 0.15
            assert r["poly_mem"] <= 0.45

    def test_mvm_poly_mem_highest(self, t4):
        mvm = next(r for r in t4 if r["app"] == "MVM")
        others = [r["poly_mem"] for r in t4 if r["app"] != "MVM"]
        assert mvm["poly_mem"] >= max(others)  # width-400 effect

    def test_formatting(self, t4):
        assert "MVM" in format_table4(t4)


class TestTable5:
    def test_rows(self, t5):
        assert len(t5) == 6
        assert {r["stage"] for r in t5} == {"Base", "Recursive"}

    def test_recursion_fixed_cost(self, t5):
        rec = [r for r in t5 if r["stage"] == "Recursive"]
        assert len({round(r["unizk_ms"], 3) for r in rec}) == 1

    def test_speedups_band(self, t5):
        for r in t5:
            assert 50 <= r["speedup"] <= 300

    def test_proof_sizes_near_paper(self, t5):
        from repro.experiments.paper_data import PAPER_TABLE5

        for r in t5:
            paper_kb = PAPER_TABLE5[(r["app"], r["stage"])]["size_kb"]
            assert 0.5 * paper_kb <= r["size_kb"] <= 1.6 * paper_kb

    def test_base_much_faster_than_full_plonky2(self, t5):
        # Starky base for Factorial (42ms paper) vs Plonky2-only (828ms).
        base = next(r for r in t5 if r["app"] == "Factorial" and r["stage"] == "Base")
        assert base["unizk_ms"] < 100

    def test_formatting(self, t5):
        assert "Recursive" in format_table5(t5)


class TestTable6:
    def test_shape(self):
        rows = table6()
        for r in rows:
            # UniZK's speedup over its CPU baseline is much higher than
            # PipeZK's over its own (paper: "10.6x higher").
            assert r["unizk_speedup"] > 4 * r["pipezk_speedup"]
            assert r["pipezk_ms"] > r["unizk_ms"]
        assert format_table6(rows)

    def test_throughput_ratio(self):
        thr = table6_throughput()
        # Paper: 840x; our model lands in the same order of magnitude.
        assert 300 <= thr["throughput_ratio"] <= 1500
        assert thr["pipezk_blocks_per_s"] < 20


class TestFigures:
    def test_fig8_poly_dominates(self):
        for r in fig8():
            assert r["poly"] == max(r["poly"], r["ntt"], r["hash"])
        assert format_fig8(fig8())

    def test_fig9_hash_fastest_poly_slowest(self):
        for r in fig9():
            assert r["hash"] > r["ntt"] > r["poly"] * 0.9
            assert r["poly"] >= 15  # paper: 20-92x
        assert format_fig9(fig9())

    def test_fig9_mvm_poly_boost(self):
        rows = {r["app"]: r for r in fig9()}
        others = [v["poly"] for k, v in rows.items() if k != "MVM"]
        assert rows["MVM"]["poly"] > max(others)  # Section 7.1's observation

    def test_fig10_sensitivities(self):
        sweeps = fig10()
        # Bandwidth: NTT and poly scale, hash flat.
        bw = {r["scale"]: r for r in sweeps["bandwidth"]}
        assert bw[0.25]["ntt"] == pytest.approx(0.25, rel=0.05)
        assert bw[4.0]["hash"] == pytest.approx(1.0, rel=0.05)
        # VSAs: hash scales, ntt/poly flat.
        vs = {r["scale"]: r for r in sweeps["vsas"]}
        assert vs[4.0]["hash"] == pytest.approx(4.0, rel=0.05)
        assert vs[0.25]["ntt"] == pytest.approx(1.0, rel=0.05)
        # Scratchpad: ntt/poly degrade when shrunk, hash flat.
        sp = {r["scale"]: r for r in sweeps["scratchpad"]}
        assert sp[0.25]["ntt"] < 0.9
        assert sp[0.25]["poly"] < 0.9
        assert sp[0.25]["hash"] == pytest.approx(1.0, rel=0.05)
        assert format_fig10(sweeps)


class TestProofSizes:
    def test_plonk_size_positive(self):
        from repro.compiler.frontend import RECURSION_PARAMS

        assert 50_000 <= plonk_proof_size(RECURSION_PARAMS) <= 400_000

    def test_stark_size_scales_with_width(self):
        from repro.compiler import StarkParams

        narrow = StarkParams(name="n", degree_bits=16, width=50)
        wide = StarkParams(name="w", degree_bits=16, width=500)
        assert stark_proof_size(wide) > stark_proof_size(narrow)

    def test_stark_size_scales_with_queries(self):
        from repro.compiler import StarkParams
        from dataclasses import replace

        base = StarkParams(name="b", degree_bits=16, width=100)
        more = replace(base, num_queries=base.num_queries * 2)
        assert stark_proof_size(more) > 1.5 * stark_proof_size(base)


def _size_model_cases():
    from repro.compiler import trace_plonky2, trace_recursive_plonky2, trace_starky
    from repro.compiler.frontend import RECURSION_PARAMS
    from repro.workloads import PAPER_WORKLOADS, STARKY_WORKLOADS

    cases = [(s.plonk, trace_plonky2(s.plonk)) for s in PAPER_WORKLOADS]
    cases += [(s.stark, trace_starky(s.stark)) for s in STARKY_WORKLOADS]
    cases.append((RECURSION_PARAMS, trace_recursive_plonky2()))
    return cases


@pytest.mark.parametrize(
    "params, graph", _size_model_cases(), ids=lambda v: getattr(v, "name", None)
)
def test_size_model_prices_the_graphs_fri_layers(params, graph):
    """The proof-size model prices one Merkle cap and one coset opening
    per ``fri.layer*.merkle`` node of the graph that proves the shape."""
    from repro.compiler.frontend import FRI_FINAL_POLY_LEN
    from repro.experiments import proof_size as ps

    layer_trees = [
        n for n in graph.nodes if n.name.startswith("fri.layer") and n.name.endswith(".merkle")
    ]
    lde_bits = params.degree_bits + params.rate_bits
    arity_bits = params.fri_arity_bits
    cap = (1 << ps.CAP_HEIGHT) * ps.DIGEST
    final_poly_and_pow = FRI_FINAL_POLY_LEN * 2 * ps.ELEM + ps.ELEM
    priced_caps = (ps._fri_common_bytes(lde_bits, arity_bits, 0) - final_poly_and_pow) / cap
    assert priced_caps == len(layer_trees)
    coset = (1 << arity_bits) * 2 * ps.ELEM
    expected_openings = sum(
        coset + max(0, int(n.params["leaves"]).bit_length() - 1 - ps.CAP_HEIGHT) * ps.DIGEST
        for n in layer_trees
    )
    assert ps._fri_query_bytes(lde_bits, arity_bits, []) == expected_openings


class TestAblations:
    def test_section3_amdahl_and_equal_area(self):
        rows = ablations.section3()
        assert len(rows) == 6
        for r in rows:
            assert r["top2_speedup"] < 7.0  # the paper's Amdahl claim
            assert r["dedicated_s"] > r["unified_s"]  # unified wins at equal area
        assert "top-2-only" in ablations.format_section3(rows)

    def test_dram_calibration_brackets_the_model_constants(self):
        effs = ablations.dram_calibration()
        assert effs["sequential"] > 0.8
        assert effs["strided"] < 0.2
        # The NTT constant sits between an interleaved read/write pass
        # and a pure sequential stream.
        assert effs["ntt_read_write"] <= NTT_MEM_EFFICIENCY <= effs["sequential"]
        # Width-dependent chunk efficiency reproduces Table 4's poly column.
        assert 0.10 <= effs["gate_w135"] <= 0.22
        assert 0.17 <= effs["gate_w400"] <= 0.30
        assert ablations.format_dram_calibration(effs)

    def test_ntt_tiles_and_fusion(self):
        sweep = ablations.ntt_mapping_sweep()
        times = [r["ms"] for r in sweep["tiles"]]
        assert times == sorted(times, reverse=True)  # bigger tiles never slower
        big, small = sweep["fusion"]
        assert small["passes"] == 2 * big["passes"]  # < 4 MB breaks the fusion
        assert ablations.format_ntt_mapping_sweep(sweep)

    def test_poseidon_occupancy(self):
        occ = ablations.poseidon_occupancy()
        sparse, dense = occ["schemes"]
        assert sparse["occupancy"] > 0.85  # paper: 95-97%
        assert sparse["pe_cycles"] < dense["pe_cycles"]
        assert occ["perms_per_cycle"] == pytest.approx(4608 / 2472)
        assert ablations.format_poseidon_occupancy(occ)


def test_report_sections_in_order():
    report = run_all()
    headers = [
        "Table 1:", "Table 2:", "Table 3:", "Table 4:", "Table 5:", "Table 6:",
        "Figure 8:", "Figure 9:", "Figure 10:", "Section 3:",
        "DRAM efficiency calibration", "NTT mapping:", "Poseidon on the PE grid:",
        "Pareto frontier:",
    ]
    positions = [report.index(h) for h in headers]
    assert positions == sorted(positions)
