"""Compiler backend: map each graph node to a :class:`KernelCost` and
lay the kernels out on one timeline.

This is the automated part of the paper's Section 5.5 pipeline: given a
computation graph and a hardware configuration, dispatch every node to
its mapping strategy and emit the schedule the simulator executes.  The
paper's backend "outputs detailed schedules that describe how the
kernels execute on the hardware"; here that is one :class:`Schedule`,
and everything reported about a kernel -- its VSA mode and count, its
DMA programme, whether DRAM bounds it, its utilisations, its place on
the timeline -- is derived from its cost on the spot.  The per-PE
instruction streams for the inner loops live in
:mod:`repro.mapping.microcode_schedules`.

Layout transformations map to the global transpose buffer, which runs
concurrently with the compute kernels -- their elapsed cost on UniZK is
zero (paper Section 7.1), though the CPU/GPU baselines pay for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

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
from ..mapping.base import KIND_HASH, KIND_NTT, KIND_POLY
from .graph import ComputationGraph, KernelNode

#: What ``schedule`` / ``simulate_graph`` accept as ``mapping``: one
#: point for every node, or a per-node choice.
MappingLike = Union[MappingParams, Callable[[KernelNode], MappingParams]]

#: Execution modes of the VSAs.
MODE_SYSTOLIC = "systolic"  # weight-stationary matmul (hash rounds)
MODE_PIPELINE = "mdc-pipeline"  # NTT butterfly pipelines
MODE_VECTOR = "vector"  # element-wise polynomial kernels
MODE_NONE = "off-array"  # transpose buffer / DMA-only

_MODE_BY_KIND = {
    KIND_NTT: MODE_PIPELINE,
    KIND_HASH: MODE_SYSTOLIC,
    KIND_POLY: MODE_VECTOR,
}

#: Classes shown in the paper's per-kernel breakdowns.
REPORT_KINDS = (KIND_NTT, KIND_POLY, KIND_HASH)


@dataclass(frozen=True)
class ScheduledKernel:
    """One node on the timeline: its cost on ``hw`` from ``start_cycle``.

    The paper schedules kernels one at a time on all the VSAs, so a
    kernel occupies ``cost.elapsed_cycles(hw)`` cycles of the whole chip.
    """

    node: KernelNode
    cost: KernelCost
    start_cycle: float
    hw: HwConfig

    @property
    def name(self) -> str:
        """The node's (and cost's) name."""
        return self.cost.name

    @property
    def kind(self) -> str:
        """Kernel class (``ntt`` / ``hash`` / ``poly`` / ``transform``)."""
        return self.cost.kind

    @property
    def stage(self) -> str:
        """Protocol stage (Figure 7 grouping)."""
        return self.node.stage

    @property
    def elapsed(self) -> float:
        """Cycles this kernel runs (double-buffered compute/memory overlap)."""
        return self.cost.elapsed_cycles(self.hw)

    @property
    def end_cycle(self) -> float:
        """Cycle at which the next kernel starts."""
        return self.start_cycle + self.elapsed

    @property
    def mode(self) -> str:
        """VSA execution mode for this kernel class."""
        return _MODE_BY_KIND.get(self.kind, MODE_NONE)

    @property
    def vsas(self) -> int:
        """VSAs assigned: all of them, or none off-array."""
        return self.hw.num_vsas if self.mode != MODE_NONE else 0

    @property
    def dma_in_bytes(self) -> float:
        """DRAM reads: they dominate for Merkle, half the traffic otherwise."""
        return self.cost.mem_bytes * (0.8 if self.kind == KIND_HASH else 0.5)

    @property
    def dma_out_bytes(self) -> float:
        """DRAM writes: the rest of the traffic."""
        return self.cost.mem_bytes - self.dma_in_bytes

    @property
    def memory_bound(self) -> bool:
        """Whether DRAM (True) or the VSAs (False) bound this kernel."""
        return self.cost.is_memory_bound(self.hw)

    @property
    def memory_util(self) -> float:
        """Achieved / peak DRAM bandwidth while this kernel runs."""
        return self.cost.memory_utilization(self.hw)

    @property
    def vsa_util(self) -> float:
        """Fraction of PE multiplier slots doing useful work."""
        return self.cost.vsa_utilization(self.hw)

    def describe(self) -> str:
        """One-line human-readable schedule entry."""
        bound = "mem" if self.memory_bound else "vsa"
        return (
            f"[{self.start_cycle / 1e6:10.3f}M .. {self.end_cycle / 1e6:10.3f}M] "
            f"{self.name:24s} {self.mode:12s} {self.vsas:3d} VSAs "
            f"in={_fmt_bytes(self.dma_in_bytes)} out={_fmt_bytes(self.dma_out_bytes)} "
            f"bound={bound}"
        )


def _fmt_bytes(b: float) -> str:
    if b >= 1 << 30:
        return f"{b / (1 << 30):6.2f}G"
    if b >= 1 << 20:
        return f"{b / (1 << 20):6.2f}M"
    if b >= 1 << 10:
        return f"{b / (1 << 10):6.2f}K"
    return f"{b:6.0f}B"


@dataclass(frozen=True)
class Schedule:
    """One proof generation's kernels, back to back on one chip.

    Two views read it.  The timeline (:meth:`format`,
    :meth:`timeline_dict`, :mod:`repro.sim.tracing`) measures kernels on
    its running clock; the report (:attr:`total_cycles`, the ``*_by_kind``
    breakdowns, :meth:`report_dict`) sums their elapsed cycles -- the
    paper's per-kernel breakdown methodology (Figure 8, Table 4).
    """

    workload: str
    hw: HwConfig
    kernels: List[ScheduledKernel]

    # -- report --------------------------------------------------------------

    @property
    def total_cycles(self) -> float:
        """End-to-end cycles (kernels execute back to back)."""
        return sum(k.elapsed for k in self.kernels)

    @property
    def total_seconds(self) -> float:
        """End-to-end wall-clock seconds."""
        return self.hw.cycles_to_seconds(self.total_cycles)

    def cycles_by_kind(self) -> Dict[str, float]:
        """Elapsed cycles per kernel class (Figure 8's bars)."""
        out: Dict[str, float] = {}
        for k in self.kernels:
            out[k.kind] = out.get(k.kind, 0.0) + k.elapsed
        return out

    def seconds_by_kind(self) -> Dict[str, float]:
        """Elapsed seconds per kernel class."""
        return {k: self.hw.cycles_to_seconds(v) for k, v in self.cycles_by_kind().items()}

    def fraction_by_kind(self) -> Dict[str, float]:
        """Share of total time per kernel class."""
        total = self.total_cycles
        return {k: v / total for k, v in self.cycles_by_kind().items()} if total else {}

    def utilization_by_kind(self) -> Dict[str, Dict[str, float]]:
        """Time-weighted memory and VSA utilisation per class (Table 4)."""
        out: Dict[str, Dict[str, float]] = {}
        for kind in REPORT_KINDS:
            ks = [k for k in self.kernels if k.kind == kind]
            elapsed = sum(k.elapsed for k in ks)
            if elapsed <= 0:
                continue
            mem = sum(k.memory_util * k.elapsed for k in ks) / elapsed
            vsa = sum(k.vsa_util * k.elapsed for k in ks) / elapsed
            out[kind] = {"memory": mem, "vsa": vsa}
        return out

    def summary_lines(self) -> List[str]:
        """Human-readable report (``repro simulate``)."""
        lines = [f"workload {self.workload}: {self.total_seconds * 1e3:.2f} ms "
                 f"({self.total_cycles / 1e6:.1f} Mcycles)"]
        fracs = self.fraction_by_kind()
        for kind in REPORT_KINDS:
            if kind in fracs:
                lines.append(f"  {kind:5s}: {fracs[kind] * 100:5.1f}% of time")
        for kind, u in self.utilization_by_kind().items():
            lines.append(
                f"  util[{kind}]: memory {u['memory'] * 100:.1f}%  vsa {u['vsa'] * 100:.1f}%"
            )
        return lines

    def report_dict(self) -> Dict[str, object]:
        """JSON-safe summary (``repro simulate --json``, the service's
        ``sim-report``)."""
        return {
            "workload": self.workload,
            "total_cycles": float(self.total_cycles),
            "total_seconds": float(self.total_seconds),
            "num_kernels": len(self.kernels),
            "cycles_by_kind": {k: float(v) for k, v in self.cycles_by_kind().items()},
            "fraction_by_kind": {
                k: float(v) for k, v in self.fraction_by_kind().items()
            },
            "utilization_by_kind": {
                k: {m: float(v) for m, v in u.items()}
                for k, u in self.utilization_by_kind().items()
            },
        }

    # -- timeline ------------------------------------------------------------

    @property
    def end_cycle(self) -> float:
        """Where the timeline's clock stops."""
        return self.kernels[-1].end_cycle if self.kernels else 0.0

    @property
    def total_dma_bytes(self) -> float:
        """Total DRAM traffic."""
        return sum(k.dma_in_bytes + k.dma_out_bytes for k in self.kernels)

    def bound_fraction(self) -> float:
        """Fraction of the timeline spent in memory-bound kernels."""
        spans = [(k.end_cycle - k.start_cycle, k.memory_bound) for k in self.kernels]
        total = sum(span for span, _ in spans)
        mem = sum(span for span, bound in spans if bound)
        return mem / total if total else 0.0

    def format(self, limit: Optional[int] = None) -> str:
        """Render the timeline (optionally only the first ``limit`` rows)."""
        rows = self.kernels if limit is None else self.kernels[:limit]
        lines = [
            f"schedule for {self.workload}: {len(self.kernels)} kernels, "
            f"{self.end_cycle / 1e6:.2f} Mcycles, "
            f"{_fmt_bytes(self.total_dma_bytes)} DRAM traffic"
        ]
        lines += [k.describe() for k in rows]
        if limit is not None and len(self.kernels) > limit:
            lines.append(f"... ({len(self.kernels) - limit} more kernels)")
        return "\n".join(lines)

    def timeline_dict(self) -> dict:
        """JSON-safe timeline (``repro schedule --json``)."""
        return {
            "workload": self.workload,
            "num_kernels": len(self.kernels),
            "total_cycles": float(self.end_cycle),
            "total_dma_bytes": float(self.total_dma_bytes),
            "memory_bound_fraction": self.bound_fraction(),
            "kernels": [
                {
                    "name": k.name,
                    "stage": k.stage,
                    "kind": k.kind,
                    "mode": k.mode,
                    "vsas": k.vsas,
                    "start_cycle": float(k.start_cycle),
                    "end_cycle": float(k.end_cycle),
                    "dma_in_bytes": float(k.dma_in_bytes),
                    "dma_out_bytes": float(k.dma_out_bytes),
                    "memory_bound": k.memory_bound,
                }
                for k in self.kernels
            ],
        }


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
) -> Schedule:
    """Map every node in (validated) topological order, back to back.

    The schedule is a function of ``(graph, hw, mapping)`` and nothing
    else: ``mapping`` is the only way a mapping decision gets in.  It is
    either one :class:`~repro.mapping.params.MappingParams` applied to
    every node -- the default, :data:`DEFAULT_MAPPING`, is the paper's
    static mapping -- or a ``node -> MappingParams`` callable such as
    :meth:`repro.autotune.TuneReport.mapping_for`.
    """
    pick = mapping if callable(mapping) else (lambda node: mapping)
    kernels: List[ScheduledKernel] = []
    clock = 0.0
    for n in graph.topological_order():
        kernel = ScheduledKernel(
            node=n, cost=map_node(n, hw, pick(n)), start_cycle=clock, hw=hw
        )
        kernels.append(kernel)
        clock = kernel.end_cycle
    return Schedule(workload=graph.name, hw=hw, kernels=kernels)
