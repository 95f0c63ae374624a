"""Compiler backend: map each graph node to a :class:`KernelCost`.

This is the automated part of the paper's Section 5.5 pipeline: given a
computation graph and a hardware configuration, dispatch every node to
its mapping strategy and emit the schedule the simulator executes.

Layout transformations map to the global transpose buffer, which runs
concurrently with the compute kernels -- their elapsed cost on UniZK is
zero (paper Section 7.1), though the CPU/GPU baselines pay for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Union

from ..hw.config import HwConfig
from ..mapping import (
    DEFAULT_MAPPING,
    KIND_TRANSFORM,
    KernelCost,
    MappingParams,
    elementwise_cost,
    gate_eval_cost,
    lde_cost,
    merkle_cost,
    ntt_cost,
    partial_products_cost,
    poseidon_cost,
)
from .graph import ComputationGraph, KernelNode

#: What ``schedule`` / ``lower`` / ``simulate_graph`` accept as
#: ``mapping``: one point for every node, or a per-node choice.
MappingLike = Union[MappingParams, Callable[[KernelNode], MappingParams]]


@dataclass(frozen=True)
class ScheduledKernel:
    """One scheduled node: its cost plus bookkeeping for reports."""

    node: KernelNode
    cost: KernelCost

    @property
    def stage(self) -> str:
        """Protocol stage (Figure 7 grouping)."""
        return self.node.stage


def map_node(
    node: KernelNode, hw: HwConfig, mapping: MappingParams = DEFAULT_MAPPING
) -> KernelCost:
    """Dispatch one node to its mapping strategy.

    ``mapping`` carries the kernel-family knobs the autotuner searches
    (:mod:`repro.mapping.params`); the default is the static mapping.
    """
    p = node.params
    if node.kind in ("intt", "ntt"):
        return ntt_cost(
            int(p["log_n"]), int(p["batch"]), hw, name=node.name,
            tile_log2=mapping.ntt.tile_log2, dims_per_pass=mapping.ntt.dims_per_pass,
        )
    if node.kind == "lde":
        return lde_cost(
            int(p["log_n"]), int(p["rate_bits"]), int(p["batch"]), hw,
            name=node.name,
            tile_log2=mapping.ntt.tile_log2, dims_per_pass=mapping.ntt.dims_per_pass,
        )
    if node.kind == "merkle":
        return merkle_cost(
            int(p["leaves"]), int(p["width"]), hw, name=node.name,
            subtree_div_log2=mapping.merkle.subtree_div_log2,
            scheme=mapping.poseidon.scheme,
        )
    if node.kind == "hash_misc":
        return poseidon_cost(
            float(p["perms"]), hw, name=node.name, scheme=mapping.poseidon.scheme
        )
    if node.kind == "poly_elementwise":
        return elementwise_cost(
            int(p["vector_len"]),
            int(p["num_ops"]),
            int(p["num_operands"]),
            hw,
            name=node.name,
            chain_split=mapping.poly.chain_split,
        )
    if node.kind == "poly_gate":
        return gate_eval_cost(
            int(p["lde_size"]), int(p["ops_per_row"]), int(p["width"]), hw,
            name=node.name,
        )
    if node.kind == "poly_pp":
        return partial_products_cost(int(p["rows"]), int(p["wires"]), hw, name=node.name)
    if node.kind == "transform":
        # Handled by the transpose buffer in parallel with compute.
        return KernelCost(
            name=node.name,
            kind=KIND_TRANSFORM,
            compute_cycles=0.0,
            mem_bytes=0.0,
            mem_efficiency=1.0,
            mult_ops=0.0,
            detail={"hidden_bytes": p.get("bytes", 0.0)},
        )
    if node.kind == "query_io":
        return KernelCost(
            name=node.name,
            kind=KIND_TRANSFORM,
            compute_cycles=0.0,
            mem_bytes=float(p["bytes"]),
            mem_efficiency=0.3,
            mult_ops=0.0,
        )
    raise ValueError(f"no mapping for kind {node.kind!r}")


def schedule(
    graph: ComputationGraph,
    hw: HwConfig,
    mapping: MappingLike = DEFAULT_MAPPING,
) -> List[ScheduledKernel]:
    """Map every node in (validated) topological order.

    The schedule is a function of ``(graph, hw, mapping)`` and nothing
    else: ``mapping`` is the only way a mapping decision gets in.  It is
    either one :class:`~repro.mapping.params.MappingParams` applied to
    every node -- the default, :data:`DEFAULT_MAPPING`, is the paper's
    static mapping -- or a ``node -> MappingParams`` callable such as
    :meth:`repro.autotune.TuneReport.mapping_for`.
    """
    pick = mapping if callable(mapping) else (lambda node: mapping)
    return [
        ScheduledKernel(node=n, cost=map_node(n, hw, pick(n)))
        for n in graph.topological_order()
    ]
