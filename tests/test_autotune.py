"""Mapping autotuner: enumeration, search, CLI.

Covers the closed compiler loop -- candidate enumeration and the search
are pure functions, the sanitizer gate keeps unsafe microcode out of
the simulator, and the winners reach the compiler only as an argument.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.autotune import node_key, tune_graph, tune_workload
from repro.autotune.space import FAMILIES, candidate_spaces
from repro.compiler.frontend import PlonkParams, trace_plonky2
from repro.hw import DEFAULT_CONFIG, HwConfig
from repro.mapping.params import DEFAULT_MAPPING
from repro.sim import simulate_graph
from repro.workloads import PAPER_WORKLOADS

#: Small-but-representative workload: exercises every kernel family
#: without paper-scale search times.
SMALL = PlonkParams(name="tiny", degree_bits=10, width=24, rate_bits=3)


# -- candidate enumeration ----------------------------------------------------


def test_spaces_cover_all_families_default_first():
    spaces = candidate_spaces()
    assert tuple(s.family for s in spaces) == FAMILIES
    for space in spaces:
        assert len(space) >= 2
        assert space.candidates[0].params == DEFAULT_MAPPING or space.family == "poseidon"
        labels = [c.label for c in space.candidates]
        assert len(labels) == len(set(labels)), "duplicate candidate labels"
    # Poseidon's first candidate is the shipped default scheme.
    poseidon = {s.family: s for s in spaces}["poseidon"]
    assert poseidon.candidates[0].label == "poseidon:sparse-12x3"


def test_enumeration_is_deterministic():
    first = [
        (c.family, c.label, c.params.to_dict())
        for s in candidate_spaces()
        for c in s.candidates
    ]
    second = [
        (c.family, c.label, c.params.to_dict())
        for s in candidate_spaces()
        for c in s.candidates
    ]
    assert first == second


# -- search -------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_graph():
    return trace_plonky2(SMALL)


@pytest.fixture(scope="module")
def small_report(small_graph):
    return tune_graph(small_graph, DEFAULT_CONFIG)


def test_search_is_a_pure_function(small_graph, small_report):
    assert tune_graph(small_graph, DEFAULT_CONFIG).to_dict() == small_report.to_dict()


def test_search_default_scored_first_and_never_beaten_by_rejects(small_report):
    assert small_report.shapes, "no tunable shapes found"
    for shape in small_report.shapes:
        # The family's default candidate is always scored first, the
        # others in enumeration order.
        space = next(s for s in candidate_spaces() if s.family == shape.family)
        labels = [c.label for c in space.candidates]
        assert shape.tried[0] == labels[0]
        assert shape.tried == [label for label in labels if label in shape.tried]
        assert shape.best_cycles <= shape.default_cycles
        rejected = {r["label"] for r in shape.rejected}
        # Rejected candidates are never scored, never win.
        assert rejected.isdisjoint(shape.tried)
        assert shape.winner not in rejected


def test_sanitizer_rejects_ii1_poseidon_before_simulation(small_report):
    poseidon = [s for s in small_report.shapes if s.family == "poseidon"]
    assert poseidon, "workload has no Poseidon shapes"
    for shape in poseidon:
        sanitizer = [r for r in shape.rejected if r["stage"] == "sanitizer"]
        assert any(r["label"] == "poseidon:sparse-12x3-ii1" for r in sanitizer)
        for r in sanitizer:
            assert r["reasons"], "sanitizer rejection must carry findings"
            assert r["label"] not in shape.tried


def test_search_winners_are_valid_mappings(small_report):
    for shape in small_report.shapes:
        assert shape.winner_params.invalid_reasons(DEFAULT_CONFIG) == []


def test_mapping_for_returns_each_shape_winner(small_graph, small_report):
    winners = {s.key: s.winner_params for s in small_report.shapes}
    untunable = set()
    for node in small_graph.topological_order():
        key = node_key(node)
        if key is None:
            untunable.add(node.kind)
            assert small_report.mapping_for(node) is DEFAULT_MAPPING
        else:
            assert small_report.mapping_for(node) is winners[key]
    assert untunable == {"poly_gate", "poly_pp", "transform", "query_io"}


def test_tuned_total_is_the_simulated_graph_under_the_winners(small_graph, small_report):
    tuned = simulate_graph(small_graph, mapping=small_report.mapping_for)
    assert tuned.total_cycles == small_report.tuned_total_cycles
    assert simulate_graph(small_graph).total_cycles == small_report.default_total_cycles


def test_tune_workload_matches_tune_graph(small_report):
    report = tune_workload(SMALL, DEFAULT_CONFIG)
    assert report.workload == f"plonky2/{SMALL.name}"
    assert report.to_dict() == small_report.to_dict()
    payload = report.to_dict()
    assert payload["num_shapes"] == len(report.shapes)
    json.dumps(payload)  # must be JSON-serialisable as-is


#: Default -> tuned Mcycles on the default chip, per paper workload
#: (EXPERIMENTS.md "Mapping autotuner": four improve, none regresses).
#: Cycles are pinned, winner labels are not: tied candidates resolve to
#: the earlier one.
PAPER_TOTALS = {
    "Factorial": (584.322, 532.832),
    "Fibonacci": (33.335, 33.335),
    "ECDSA": (78.714, 78.714),
    "SHA-256": (645.738, 587.902),
    "Image Crop": (332.645, 303.117),
    "MVM": (350.740, 317.674),
}


@pytest.mark.parametrize("spec", PAPER_WORKLOADS, ids=lambda s: s.name)
def test_paper_workload_default_vs_tuned(spec):
    report = tune_workload(spec.plonk, DEFAULT_CONFIG)
    got = (report.default_total_cycles / 1e6, report.tuned_total_cycles / 1e6)
    assert tuple(round(x, 3) for x in got) == PAPER_TOTALS[spec.name]
    assert report.tuned_total_cycles <= report.default_total_cycles
    for shape in report.shapes:
        assert shape.winner_params.invalid_reasons(DEFAULT_CONFIG) == []
        assert shape.winner not in {r["label"] for r in shape.rejected}
        assert shape.best_cycles <= shape.default_cycles


# -- hardware-config validation -----------------------------------------------


@pytest.mark.parametrize(
    "overrides, match",
    [
        ({"num_vsas": 0}, "geometry"),
        ({"vsa_rows": -1}, "geometry"),
        ({"freq_ghz": 0.0}, "positive"),
        ({"mem_bandwidth_gbps": -5.0}, "positive"),
        ({"scratchpad_mb": 0.0}, "scratchpad"),
        ({"transpose_dim": 0}, "transpose"),
        ({"twiddle_multipliers": 0}, "twiddle"),
        ({"pe_registers": 0}, "register"),
        ({"ntt_tile_log2": 0}, "ntt_tile_log2"),
        ({"ntt_tile_log2": 17}, "ntt_tile_log2"),
        ({"ntt_tile_log2": 8, "pe_registers": 64}, "delay registers"),
    ],
)
def test_hw_config_rejects_nonsense(overrides, match):
    with pytest.raises(ValueError, match=match):
        HwConfig(**overrides)


def test_hw_config_scaled_revalidates():
    with pytest.raises(ValueError):
        DEFAULT_CONFIG.scaled(num_vsas=0)


def test_sim_sweep_runs_each_point():
    from repro.sim.simulator import simulate_plonky2, sweep

    points = [DEFAULT_CONFIG, DEFAULT_CONFIG.scaled(num_vsas=8)]
    reports = sweep(SMALL, points)
    assert len(reports) == 2
    base = simulate_plonky2(SMALL, DEFAULT_CONFIG)
    assert reports[0].total_cycles == base.total_cycles
    # Quartering the VSAs can only slow things down.
    assert reports[1].total_cycles >= reports[0].total_cycles


# -- fixed software blocking --------------------------------------------------


def test_permute_row_blocking_is_bit_identical(rng, monkeypatch):
    """The permutation's fixed row blocking must match one unblocked
    pass, ragged tail and scalar-sized tail included."""
    from repro.field import goldilocks as gl
    from repro.hashing import optimized

    states = rng.integers(0, gl.P, size=(53, 12), dtype=np.uint64)
    base_perm = optimized.permute_into(states.copy())
    monkeypatch.setattr(optimized, "_PERMUTE_ROWS", 16)
    np.testing.assert_array_equal(optimized.permute_into(states.copy()), base_perm)


# -- CLI ----------------------------------------------------------------------


def test_cli_simulate_json(capsys):
    from repro.cli import main

    assert main(["simulate", "--workload", "Factorial", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["workload"] == "plonky2/Factorial"
    assert payload["total_cycles"] > 0


def test_cli_schedule_json(capsys):
    from repro.cli import main

    assert main(["schedule", "--workload", "Factorial", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["workload"] == "plonky2/Factorial"
    assert payload["num_kernels"] == len(payload["kernels"])
    assert payload["total_cycles"] > 0


def test_cli_tune_smoke(tmp_path, capsys):
    from repro.cli import main
    from repro.tracing import load_trace

    out_path, trace_path = tmp_path / "report.json", tmp_path / "trace.json"
    argv = [
        "tune", "--workload", "Factorial",
        "--out", str(out_path), "--trace-out", str(trace_path),
    ]
    assert main(argv) == 0
    assert "tuned plonky2/Factorial" in capsys.readouterr().out
    first = out_path.read_bytes()
    report = json.loads(first)
    assert report["tuned_total_cycles"] < report["default_total_cycles"]

    # The trace is the schedule lowered under the winners, not the default.
    # (Timestamps are cycles; a zero-cost kernel is drawn one cycle wide.)
    events = [e for e in load_trace(trace_path)["traceEvents"] if e.get("ph") == "X"]
    end = max(e["ts"] + e["dur"] for e in events)
    assert end == pytest.approx(report["tuned_total_cycles"], abs=1.0)

    # Nothing carries over: a second invocation writes the same bytes.
    assert main(argv) == 0
    assert out_path.read_bytes() == first
