"""Shard graphs: a proof stage's kernel work and its dependencies.

A proof stage decomposes into a :class:`ShardGraph`: independent units
of kernel work (:class:`Shard`) with explicit dependencies (LDE row
shards feed Merkle subtree shards feed the cap compression).  A graph
runs in the order it was built: the pool dispatches the first shard in
:attr:`ShardGraph.order` whose dependencies are done.  Insertion order
is topological (dependencies must pre-exist), so inline execution is
that order verbatim, and a parallel pool repeats the same scan each
time a worker is idle.

That rule is enough because the shipped graphs are level-synchronous --
rows, then subtrees, then the top -- with at most ``workers`` parts per
level (the equal-size Merkle subtrees aside), so no ordering inside a
level can shorten the level that follows.

Determinism: dispatch order never reaches results -- every shard writes
a disjoint region and the coordinator assembles results by shard id, so
any execution order yields bit-identical proofs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple


@dataclass(frozen=True)
class Shard:
    """One unit of kernel work.

    ``kind`` names a kernel in :mod:`repro.parallel.kernels`; ``args``
    is its (picklable) argument dict; ``deps`` are shard ids that must
    complete first; ``units`` is the shard's abstract work size (rows
    hashed, butterflies, folded rows), recorded on its ``shard:*`` span.
    """

    id: str
    kind: str
    args: Dict[str, Any]
    deps: Tuple[str, ...] = ()
    units: float = 1.0


class ShardGraph:
    """A DAG of shards, acyclic by construction (deps must pre-exist).

    ``name`` labels the graph in race-analysis findings and pool
    errors (e.g. ``commit:wires``); it has no scheduling effect.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.shards: Dict[str, Shard] = {}
        self.order: List[str] = []  # insertion order == a topological order

    def add(
        self,
        shard_id: str,
        kind: str,
        args: Dict[str, Any],
        deps: Tuple[str, ...] | List[str] = (),
        units: float = 1.0,
    ) -> str:
        """Add a shard; returns its id.

        Raises ``ValueError`` on duplicate ids or dependencies on
        shards that have not been added yet (which also rules out
        cycles).
        """
        if shard_id in self.shards:
            raise ValueError(f"duplicate shard id {shard_id!r}")
        deps = tuple(deps)
        for dep in deps:
            if dep not in self.shards:
                raise ValueError(f"shard {shard_id!r} depends on unknown {dep!r}")
        self.shards[shard_id] = Shard(
            id=shard_id, kind=kind, args=args, deps=deps, units=float(units)
        )
        self.order.append(shard_id)
        return shard_id

    def __len__(self) -> int:
        return len(self.shards)

