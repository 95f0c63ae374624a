"""Mapping autotuner: enumeration, search, cache, CLI.

Covers the closed compiler loop -- candidate enumeration is
deterministic, the sanitizer gate keeps unsafe microcode out of the
simulator, and winners round-trip through the on-disk cache.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.autotune.cache import (
    CACHE_VERSION,
    MappingResolver,
    TuningCache,
    TuningCacheError,
    hw_key,
    load_default_cache,
)
from repro.autotune.search import tune_graph, tune_workload
from repro.autotune.space import (
    FAMILIES,
    candidate_spaces,
    space_for_family,
)
from repro.compiler.frontend import PlonkParams, trace_plonky2
from repro.hw import DEFAULT_CONFIG, HwConfig
from repro.mapping.params import DEFAULT_MAPPING, MappingParams

#: Small-but-representative workload: exercises every kernel family
#: without paper-scale search times.
SMALL = PlonkParams(name="tiny", degree_bits=10, width=24, rate_bits=3)


# -- candidate enumeration ----------------------------------------------------


def test_spaces_cover_all_families_default_first():
    spaces = candidate_spaces()
    assert tuple(s.family for s in spaces) == FAMILIES
    for space in spaces:
        assert len(space) >= 2
        assert space.candidates[0].is_default or space.family == "poseidon"
        labels = [c.label for c in space.candidates]
        assert len(labels) == len(set(labels)), "duplicate candidate labels"
    # Poseidon's first candidate is the shipped default scheme.
    poseidon = space_for_family("poseidon")
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


def test_space_for_family_rejects_unknown():
    with pytest.raises(ValueError, match="unknown mapping family"):
        space_for_family("fft")


# -- search -------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_graph():
    return trace_plonky2(SMALL)


def test_search_same_seed_reproduces_trials_and_winners(small_graph):
    a = tune_graph(small_graph, DEFAULT_CONFIG, cache=TuningCache(), seed=7)
    b = tune_graph(small_graph, DEFAULT_CONFIG, cache=TuningCache(), seed=7)
    assert [s.key for s in a.shapes] == [s.key for s in b.shapes]
    assert [s.tried for s in a.shapes] == [s.tried for s in b.shapes]
    assert [s.winner for s in a.shapes] == [s.winner for s in b.shapes]
    assert a.tuned_total_cycles == b.tuned_total_cycles


def test_search_other_seed_converges_to_same_cost(small_graph):
    # The space is exhaustively small: a different exploration order may
    # pick a different tied winner but never a different best cost.
    a = tune_graph(small_graph, DEFAULT_CONFIG, cache=TuningCache(), seed=0)
    b = tune_graph(small_graph, DEFAULT_CONFIG, cache=TuningCache(), seed=99)
    assert a.tuned_total_cycles == b.tuned_total_cycles


def test_search_default_scored_first_and_never_beaten_by_rejects(small_graph):
    report = tune_graph(small_graph, DEFAULT_CONFIG, cache=TuningCache(), seed=0)
    assert report.shapes, "no tunable shapes found"
    for shape in report.shapes:
        # The family's default candidate is always scored first.
        assert shape.tried[0] == space_for_family(shape.family).candidates[0].label
        assert shape.best_cycles <= shape.default_cycles
        rejected = {r["label"] for r in shape.rejected}
        # Rejected candidates are never scored, never win.
        assert rejected.isdisjoint(shape.tried)
        assert shape.winner not in rejected


def test_sanitizer_rejects_ii1_poseidon_before_simulation(small_graph):
    report = tune_graph(small_graph, DEFAULT_CONFIG, cache=TuningCache(), seed=0)
    poseidon = [s for s in report.shapes if s.family == "poseidon"]
    assert poseidon, "workload has no Poseidon shapes"
    for shape in poseidon:
        sanitizer = [r for r in shape.rejected if r["stage"] == "sanitizer"]
        assert any(r["label"] == "poseidon:sparse-12x3-ii1" for r in sanitizer)
        for r in sanitizer:
            assert r["reasons"], "sanitizer rejection must carry findings"
            assert r["label"] not in shape.tried


def test_search_winners_are_valid_mappings(small_graph):
    report = tune_graph(small_graph, DEFAULT_CONFIG, cache=TuningCache(), seed=0)
    for shape in report.shapes:
        params = MappingParams.from_dict(shape.winner_params)
        assert params.invalid_reasons(DEFAULT_CONFIG) == []


def test_second_run_served_from_cache_without_research(small_graph):
    cache = TuningCache()
    first = tune_graph(small_graph, DEFAULT_CONFIG, cache=cache, seed=0)
    second = tune_graph(small_graph, DEFAULT_CONFIG, cache=cache, seed=0)
    assert all(s.cached for s in second.shapes)
    # Cached results carry no trial history: nothing was re-scored.
    assert all(s.tried == [] for s in second.shapes)
    assert second.tuned_total_cycles == first.tuned_total_cycles


def test_zero_budget_degrades_to_default(small_graph):
    report = tune_graph(
        small_graph, DEFAULT_CONFIG, cache=TuningCache(), budget_s=0.0, seed=0
    )
    assert report.budget_exhausted
    for shape in report.shapes:
        assert shape.best_cycles == shape.default_cycles


def test_tune_workload_matches_tune_graph():
    report = tune_workload(SMALL, DEFAULT_CONFIG, cache=TuningCache(), seed=0)
    assert report.workload == f"plonky2/{SMALL.name}"
    assert report.tuned_total_cycles <= report.default_total_cycles
    payload = report.to_dict()
    assert payload["num_shapes"] == len(report.shapes)
    json.dumps(payload)  # must be JSON-serialisable as-is


# -- tuning cache -------------------------------------------------------------


def test_cache_round_trip(tmp_path):
    path = tmp_path / "cache.json"
    cache = TuningCache()
    cache.store("ntt/log10", "abc123", {"x": 1}, cycles=42.0, meta={"label": "t"})
    cache.save(path)
    reloaded = TuningCache.load(path)
    assert len(reloaded) == 1
    entry = reloaded.lookup("ntt/log10", "abc123")
    assert entry == {"params": {"x": 1}, "cycles": 42.0, "meta": {"label": "t"}}
    assert reloaded.lookup("ntt/log10", "other-hw") is None


def test_cache_version_mismatch_yields_empty(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text(json.dumps({"version": CACHE_VERSION + 1, "entries": {"k": {}}}))
    assert len(TuningCache.load(path)) == 0
    assert len(TuningCache.load(path, strict=False)) == 0


def test_cache_corrupt_file_strictness(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text("{not json")
    with pytest.raises(TuningCacheError, match="unreadable"):
        TuningCache.load(path)
    assert len(TuningCache.load(path, strict=False)) == 0
    # Structurally wrong payloads are also rejected.
    path.write_text(json.dumps({"version": CACHE_VERSION, "entries": [1, 2]}))
    with pytest.raises(TuningCacheError, match="no entries mapping"):
        TuningCache.load(path)


def test_cache_missing_file_is_empty(tmp_path):
    assert len(TuningCache.load(tmp_path / "absent.json")) == 0


def test_default_cache_never_raises(tmp_path, monkeypatch):
    path = tmp_path / "tuning.json"
    monkeypatch.setenv("REPRO_TUNING_CACHE", str(path))
    path.write_text("garbage")
    assert len(load_default_cache()) == 0


def test_resolver_prefers_valid_cached_winner(small_graph):
    hw = DEFAULT_CONFIG
    node = next(
        n for n in small_graph.topological_order() if n.kind in ("ntt", "intt")
    )
    winner = DEFAULT_MAPPING.with_family(
        "ntt", type(DEFAULT_MAPPING.ntt)(tile_log2=6, dims_per_pass=2)
    )
    cache = TuningCache()
    from repro.autotune.cache import node_key

    cache.store(node_key(node), hw_key(hw), winner.to_dict(), cycles=1.0)
    resolver = MappingResolver(hw, cache=cache)
    assert resolver.for_node(node) == winner


def test_resolver_degrades_invalid_entry_to_default(small_graph):
    hw = DEFAULT_CONFIG
    node = next(
        n for n in small_graph.topological_order() if n.kind in ("ntt", "intt")
    )
    from repro.autotune.cache import node_key

    cache = TuningCache()
    cache.store(node_key(node), hw_key(hw), {"ntt": {"tile_log2": 99}}, cycles=1.0)
    resolver = MappingResolver(hw, cache=cache)
    assert resolver.for_node(node) == DEFAULT_MAPPING


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

    cache_path = tmp_path / "cache.json"
    out_path = tmp_path / "report.json"
    argv = [
        "tune", "--workload", "Factorial", "--seed", "0",
        "--cache", str(cache_path), "--out", str(out_path),
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "tuned plonky2/Factorial" in first
    report = json.loads(out_path.read_text())
    assert report["num_cached"] == 0
    assert report["tuned_total_cycles"] <= report["default_total_cycles"]
    assert cache_path.exists()

    # Second invocation serves every shape from the saved cache.
    assert main(argv) == 0
    rerun = json.loads(out_path.read_text())
    assert rerun["num_cached"] == rerun["num_shapes"]
    assert rerun["tuned_total_cycles"] == report["tuned_total_cycles"]


def test_cli_tune_rejects_corrupt_cache(tmp_path, capsys):
    from repro.cli import main

    cache_path = tmp_path / "cache.json"
    cache_path.write_text("{broken")
    code = main(["tune", "--workload", "Factorial", "--cache", str(cache_path)])
    assert code == 2
    assert "unreadable" in capsys.readouterr().err
