"""Computation-graph IR (paper Section 5.5, Figure 7).

The compiler frontend parses a proof-generation flow into kernel nodes
("Wires Commitment" becomes iNTT -> NTT -> Merkle; "Get Challenges"
becomes hash nodes; ...).  The backend schedules each node onto the
hardware via the mapping strategies.

Nodes carry a ``kind`` dispatched by the scheduler plus free-form
parameters; edges are explicit dependencies, validated to be acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

#: Node kinds understood by the scheduler.
NODE_KINDS = (
    "intt",  # batch inverse NTTs: batch, log_n
    "ntt",  # batch forward NTTs: batch, log_n
    "lde",  # iNTT + zero-pad + coset NTT: batch, log_n, rate_bits
    "merkle",  # tree build: leaves, width
    "hash_misc",  # challenger / grinding permutations: perms
    "poly_elementwise",  # vector_len, num_ops, num_operands
    "poly_gate",  # lde_size, ops_per_row, width
    "poly_pp",  # partial products: rows, wires
    "transform",  # data layout changes: bytes (hidden on UniZK)
    "query_io",  # proof assembly reads: bytes
)


@dataclass
class KernelNode:
    """One kernel instance in the computation graph."""

    name: str
    kind: str
    params: Dict[str, float] = field(default_factory=dict)
    deps: List[str] = field(default_factory=list)
    #: Which protocol function this belongs to (Figure 7 grouping).
    stage: str = ""

    def __post_init__(self) -> None:
        if self.kind not in NODE_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")


class ComputationGraph:
    """A DAG of kernel nodes with insertion-order scheduling."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._nodes: Dict[str, KernelNode] = {}

    def add(
        self,
        name: str,
        kind: str,
        stage: str = "",
        deps: Optional[Iterable[str]] = None,
        **params,
    ) -> KernelNode:
        """Append a node; dependencies must already exist."""
        if name in self._nodes:
            raise ValueError(f"duplicate node {name!r}")
        deps = list(deps or [])
        for d in deps:
            if d not in self._nodes:
                raise ValueError(f"dependency {d!r} of {name!r} not defined yet")
        node = KernelNode(name=name, kind=kind, params=params, deps=deps, stage=stage)
        self._nodes[name] = node
        return node

    @property
    def nodes(self) -> List[KernelNode]:
        """Nodes in insertion (schedulable) order."""
        return list(self._nodes.values())

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, name: str) -> KernelNode:
        """Look up a node by name."""
        return self._nodes[name]

    def topological_order(self) -> List[KernelNode]:
        """Kahn topological order (validates acyclicity; insertion order
        is already topological by construction, this is the checker)."""
        indeg = {n.name: len(n.deps) for n in self._nodes.values()}
        children: Dict[str, List[str]] = {n.name: [] for n in self._nodes.values()}
        for n in self._nodes.values():
            for d in n.deps:
                children[d].append(n.name)
        ready = [n for n, deg in indeg.items() if deg == 0]
        order: List[KernelNode] = []
        while ready:
            cur = ready.pop(0)
            order.append(self._nodes[cur])
            for c in children[cur]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
        if len(order) != len(self._nodes):
            raise ValueError("computation graph contains a cycle")
        return order
