"""Compiler tests: graph IR, protocol frontends, scheduler."""

import pytest

from repro.compiler import (
    ComputationGraph,
    PlonkParams,
    StarkParams,
    map_node,
    schedule,
    trace_plonky2,
    trace_recursive_plonky2,
    trace_starky,
)
from repro.compiler.graph import KernelNode
from repro.hw import DEFAULT_CONFIG as HW


class TestGraph:
    def test_add_and_lookup(self):
        g = ComputationGraph("t")
        g.add("a", "hash_misc", perms=1)
        g.add("b", "hash_misc", deps=["a"], perms=2)
        assert len(g) == 2
        assert g.node("b").deps == ["a"]

    def test_duplicate_rejected(self):
        g = ComputationGraph("t")
        g.add("a", "hash_misc", perms=1)
        with pytest.raises(ValueError):
            g.add("a", "hash_misc", perms=1)

    def test_forward_dep_rejected(self):
        g = ComputationGraph("t")
        with pytest.raises(ValueError):
            g.add("a", "hash_misc", deps=["missing"], perms=1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            KernelNode(name="x", kind="bogus")

    def test_topological_order(self):
        g = ComputationGraph("t")
        g.add("a", "hash_misc", perms=1)
        g.add("b", "hash_misc", deps=["a"], perms=1)
        g.add("c", "hash_misc", deps=["a", "b"], perms=1)
        order = [n.name for n in g.topological_order()]
        assert order.index("a") < order.index("b") < order.index("c")


class TestPlonkParams:
    def test_derived_columns(self):
        p = PlonkParams(name="x", degree_bits=10, width=135)
        assert p.zs_columns == 2 * (1 + 17)
        assert p.quotient_columns == 32
        assert p.committed_columns == 135 + 4 + 36 + 32
        assert p.n == 1024
        assert p.lde_size == 8192

    def test_overrides(self):
        p = PlonkParams(name="x", degree_bits=10, width=135, zs_width=5, quotient_width=6)
        assert p.zs_columns == 5 and p.quotient_columns == 6


class TestFrontend:
    def test_plonky2_graph_shape(self):
        g = trace_plonky2(PlonkParams(name="t", degree_bits=12, width=50))
        names = [n.name for n in g.nodes]
        # The Figure 7 stages must all be present.
        assert "wires.lde" in names
        assert "wires.merkle" in names
        assert "zs.partial_products" in names
        assert "quotient.gate_eval" in names
        assert "fri.combine" in names
        assert "fri.pow" in names
        assert list(dict.fromkeys(n.stage for n in g.nodes if n.stage)) == [
            "wires_commitment", "get_challenges", "partial_products",
            "quotient", "prove_openings",
        ]

    def test_plonky2_graph_acyclic(self):
        g = trace_plonky2(PlonkParams(name="t", degree_bits=14, width=135))
        assert len(g.topological_order()) == len(g)

    def test_fri_layer_count_scales(self):
        small = trace_plonky2(PlonkParams(name="s", degree_bits=10, width=10))
        big = trace_plonky2(PlonkParams(name="b", degree_bits=20, width=10))
        count = lambda g: sum(1 for n in g.nodes if "fri.layer" in n.name)
        assert count(big) > count(small)

    def test_starky_graph(self):
        g = trace_starky(StarkParams(name="t", degree_bits=12, width=20))
        names = [n.name for n in g.nodes]
        assert "trace.merkle" in names
        assert "quotient.constraints" in names
        assert len(g.topological_order()) == len(g)

    def test_recursive_graph_fixed_shape(self):
        g1 = trace_recursive_plonky2()
        g2 = trace_recursive_plonky2()
        assert [n.name for n in g1.nodes] == [n.name for n in g2.nodes]


class TestScheduler:
    def test_every_node_mapped(self):
        g = trace_plonky2(PlonkParams(name="t", degree_bits=12, width=50))
        sched = schedule(g, HW)
        assert len(sched.kernels) == len(g)
        for sk in sched.kernels:
            assert sk.cost.elapsed_cycles(HW) >= 1.0

    def test_transform_hidden(self):
        node = KernelNode(name="x", kind="transform", params={"bytes": 1e9})
        cost = map_node(node, HW)
        assert cost.elapsed_cycles(HW) == 1.0  # clamped minimum; hidden

    def test_kind_dispatch(self):
        for kind, params in [
            ("intt", {"batch": 4, "log_n": 10}),
            ("ntt", {"batch": 4, "log_n": 10}),
            ("lde", {"batch": 4, "log_n": 10, "rate_bits": 3}),
            ("merkle", {"leaves": 1024, "width": 10}),
            ("hash_misc", {"perms": 100}),
            ("poly_elementwise", {"vector_len": 1024, "num_ops": 4, "num_operands": 3}),
            ("poly_gate", {"lde_size": 1024, "ops_per_row": 10, "width": 20}),
            ("poly_pp", {"rows": 1024, "wires": 20}),
            ("query_io", {"bytes": 1000}),
        ]:
            cost = map_node(KernelNode(name=kind, kind=kind, params=params), HW)
            assert cost.elapsed_cycles(HW) >= 1.0

    def test_stage_propagated(self):
        g = trace_plonky2(PlonkParams(name="t", degree_bits=12, width=50))
        sched = schedule(g, HW)
        assert any(sk.stage == "quotient" for sk in sched.kernels)
