"""Shard-graph race detection: footprints, graph analysis, pool gating."""

import numpy as np
import pytest

from repro.analysis.races import graph_findings, run_race_checks
from repro.fri.prover import PolynomialBatch
from repro.hashing import Challenger
from repro.parallel import GraphRaceError, ShardGraph, ShardPool, ops
from repro.parallel.footprints import FOOTPRINTS, Access, buffer_key, footprint
from repro.parallel.kernels import KERNELS


def _rules(findings):
    return [f.rule for f in findings]


def _rows(n=4, m=16):
    return np.arange(n * m, dtype=np.uint64).reshape(n, m)


# ---------------------------------------------------------------------------
# The footprint model
# ---------------------------------------------------------------------------


class TestFootprints:
    def test_every_kernel_declares_a_footprint(self):
        assert set(FOOTPRINTS) == set(KERNELS)

    def test_unknown_kind_has_no_footprint(self):
        assert footprint("no_such_kernel", {}) is None

    def test_interval_overlap_semantics(self):
        a = Access("b", "w", axis=0, lo=0, hi=4)
        disjoint = Access("b", "w", axis=0, lo=4, hi=8)
        touching = Access("b", "r", axis=0, lo=3, hi=5)
        assert not a.overlaps(disjoint)
        assert a.overlaps(touching)
        # Restrictions along different axes always intersect (a row
        # band crosses every column band), as does a whole-buffer
        # access; open-ended [lo, None) runs to the end.
        assert a.overlaps(Access("b", "w", axis=1, lo=100, hi=200))
        assert a.overlaps(Access("b", "w"))
        assert a.overlaps(Access("b", "w", axis=0, lo=2, hi=None))

    def test_buffer_identity(self):
        arr = np.zeros(4, dtype=np.uint64)
        assert buffer_key(arr) == f"mem:{id(arr)}"
        assert buffer_key("not a buffer") is None
        assert buffer_key(3) is None


# ---------------------------------------------------------------------------
# Graph analysis: shipped shapes clean, injected hazards caught
# ---------------------------------------------------------------------------


def _combine_args(out, values, lo, hi):
    return {"out": out, "values": [values], "alpha": (1, 0), "lo": lo, "hi": hi}


class TestGraphFindings:
    def test_shipped_graph_shapes_are_race_free(self):
        findings, checked = run_race_checks()
        shapes = [
            "commit:from_values",
            "commit:coset_leaves",
            "commit:quotient",
            "fri:layer_tree",
            "fri:combine",
            "mlpcs:commit",
            "sumcheck:round",
        ]
        # Every shape as the inline executor builds it and fanned out.
        assert checked == [f"{s}@{w}" for w in (1, 4) for s in shapes]
        assert findings == [], [f.format() for f in findings]

    def test_dependency_path_orders_transitively(self):
        # a writes rows 0..2 of `out`, b reads them, c overwrites them;
        # c never names a as a direct dep -- the a->b->c path suffices.
        out = np.zeros((4, 2), dtype=np.uint64)
        mid = np.zeros((4, 2), dtype=np.uint64)
        src = np.ones((4, 2), dtype=np.uint64)
        g = ShardGraph("chain")
        g.add("a", "fri_combine", _combine_args(out, src, 0, 2))
        g.add("b", "fri_combine", _combine_args(mid, out, 0, 2), deps=("a",))
        g.add("c", "fri_combine", _combine_args(out, mid, 0, 2), deps=("b",))
        assert graph_findings(g) == []

    def test_unordered_write_write_is_flagged(self):
        out = np.zeros((4, 2), dtype=np.uint64)
        src = np.ones((4, 2), dtype=np.uint64)
        g = ShardGraph("alias")
        g.add("a", "fri_combine", _combine_args(out, src, 0, 2))
        g.add("b", "fri_combine", _combine_args(out, src, 0, 2))
        findings = graph_findings(g)
        assert _rules(findings) == ["race.write-write"]
        assert findings[0].graph == "alias"
        assert findings[0].detail == "a~b"

    def test_disjoint_writes_are_clean(self):
        out = np.zeros((4, 2), dtype=np.uint64)
        src = np.ones((4, 2), dtype=np.uint64)
        g = ShardGraph("split")
        g.add("a", "fri_combine", _combine_args(out, src, 0, 2))
        g.add("b", "fri_combine", _combine_args(out, src, 2, 4))
        # The reads of `src` overlap, but read-read is not a race.
        assert graph_findings(g) == []

    def test_unordered_read_write_is_flagged(self):
        out = np.zeros((4, 2), dtype=np.uint64)
        other = np.zeros((4, 2), dtype=np.uint64)
        src = np.ones((4, 2), dtype=np.uint64)
        g = ShardGraph("rw")
        g.add("w", "fri_combine", _combine_args(out, src, 0, 2))
        g.add("r", "fri_combine", _combine_args(other, out, 0, 2))
        assert _rules(graph_findings(g)) == ["race.read-write"]

    def test_unknown_kind_is_flagged(self):
        g = ShardGraph("mystery")
        g.add("x", "warp_drive", {})
        findings = graph_findings(g)
        assert _rules(findings) == ["race.no-footprint"]
        assert findings[0].detail == "kind:warp_drive"

    def test_challenger_in_shard_args_is_flagged(self):
        out = np.zeros((4, 2), dtype=np.uint64)
        src = np.ones((4, 2), dtype=np.uint64)
        g = ShardGraph("leak")
        args = _combine_args(out, src, 0, 2)
        args["extra"] = {"nested": [Challenger()]}
        g.add("x", "fri_combine", args)
        assert "race.challenger-in-shard" in _rules(graph_findings(g))


# ---------------------------------------------------------------------------
# Pool gating: every submitted graph is race-checked before it runs
# ---------------------------------------------------------------------------


def _strip_deps(graph, victim_kind):
    """Rebuild a graph with every ``victim_kind`` shard's deps deleted."""
    out = ShardGraph(graph.name)
    for sid in graph.order:
        s = graph.shards[sid]
        deps = () if s.kind == victim_kind else s.deps
        out.add(sid, s.kind, s.args, deps, s.units)
    return out


class TestPoolGating:
    def test_dep_deleted_commit_graph_is_rejected_at_submission(self):
        with ShardPool(workers=1) as pool:
            graph = ops.from_values_graph(pool, _rows(), 1, 1, "t").graph
            assert graph_findings(graph) == []  # shipped topology is clean
            broken = _strip_deps(graph, "merkle_subtree")
            with pytest.raises(GraphRaceError) as err:
                pool.run(broken)
            assert err.value.findings
            assert {f.rule for f in err.value.findings} <= {
                "race.read-write", "race.write-write"
            }
            assert "commit:t" in str(err.value)

    def test_coset_gather_before_the_lde_is_rejected_at_submission(self):
        # Coset leaves gather strided rows from every LDE column band, so
        # each subtree shard must wait for all the LDE shards.
        with ShardPool(workers=1) as pool:
            graph = ops.from_values_graph(pool, _rows(), 1, 1, "t", 3).graph
            assert graph_findings(graph) == []
            with pytest.raises(GraphRaceError) as err:
                pool.run(_strip_deps(graph, "merkle_subtree"))
            assert "race.read-write" in _rules(err.value.findings)

    def test_unknown_kernel_is_rejected_at_submission(self):
        g = ShardGraph("mystery")
        g.add("x", "warp_drive", {})
        with ShardPool(workers=1) as pool:
            with pytest.raises(GraphRaceError) as err:
                pool.run(g)
            assert _rules(err.value.findings) == ["race.no-footprint"]
            assert pool.stats["inline_shards"] == 0

    def test_validated_sharded_commit_matches_serial(self):
        rows = _rows()
        inline = PolynomialBatch.from_values(rows.copy(), 1, 1)  # default pool
        gates = {"min_rows": 1, "min_tree_leaves": 1}
        with ShardPool(workers=2, **gates) as pool:
            fanned = ops.from_values_graph(pool, rows, 1, 1, "t").run()
            assert pool.stats["shards"] == 4
            assert np.array_equal(fanned.tree.cap, inline.tree.cap)
            assert np.array_equal(fanned.values, inline.values)

    def test_sharded_coset_commit_matches_serial(self):
        rows = _rows()
        inline = PolynomialBatch.from_values(rows.copy(), 1, 1, coset_bits=3)
        assert inline.coset_bits == 3
        assert inline.tree.leaves.shape == (inline.values.shape[0] >> 3, rows.shape[0] << 3)
        gates = {"min_rows": 1, "min_tree_leaves": 1}
        with ShardPool(workers=2, **gates) as pool:
            fanned = ops.from_values_graph(pool, rows, 1, 1, "t", 3).run()
            assert np.array_equal(fanned.tree.cap, inline.tree.cap)
            assert np.array_equal(fanned.tree.leaves, inline.tree.leaves)
            assert np.array_equal(fanned.values, inline.values)
