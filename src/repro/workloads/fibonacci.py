"""Fibonacci workload: prove the ``2**20``-th Fibonacci number (app 2).

The AET matches the paper's Figure 2 exactly: columns ``(x0, x1)`` with
transitions ``x0' = x1`` and ``x1' = x0 + x1``, plus input/output
boundary constraints.
"""

from __future__ import annotations

import numpy as np

from ..field import goldilocks as gl
from ..plonk import CircuitBuilder
from ..stark import Air, BoundaryConstraint
from .base import PlonkParams, StarkParams, WorkloadSpec


def fibonacci_mod_p(k: int) -> int:
    """``F_k mod p`` with ``F_0 = 0, F_1 = 1``."""
    a, b = 0, 1
    for _ in range(k):
        a, b = b, gl.add(a, b)
    return a


def build_circuit(scale: int):
    """Circuit iterating ``scale`` Fibonacci additions."""
    b = CircuitBuilder()
    x0 = b.constant(0)
    x1 = b.constant(1)
    for _ in range(scale):
        x0, x1 = x1, b.add(x0, x1)
    out = b.public_input()
    b.assert_equal(out, x0)
    circuit = b.build()
    expected = fibonacci_mod_p(scale)
    return circuit, {out.index: expected}, [expected]


class FibonacciAir(Air):
    """Paper Figure 2: ``x0' = x1``, ``x1' = x0 + x1``."""

    width = 2
    constraint_degree = 1

    def eval_transition(self, local, nxt, alg):
        return [
            alg.sub(nxt[0], local[1]),
            alg.sub(nxt[1], alg.add(local[0], local[1])),
        ]

    def boundary_constraints(self, publics):
        last_row, result = publics
        return [
            BoundaryConstraint(0, 0, 0),
            BoundaryConstraint(0, 1, 1),
            BoundaryConstraint(int(last_row), 0, int(result)),
        ]


def build_air(log_rows: int):
    """Trace of ``2**log_rows`` Fibonacci steps starting (0, 1)."""
    n = 1 << log_rows
    trace = np.zeros((n, 2), dtype=np.uint64)
    a, b = 0, 1
    for row in range(n):
        trace[row] = (a, b)
        a, b = b, gl.add(a, b)
    publics = [n - 1, int(trace[n - 1, 0])]
    return FibonacciAir(), trace, publics


SPEC = WorkloadSpec(
    name="Fibonacci",
    plonk=PlonkParams(name="Fibonacci", degree_bits=16, width=135),
    stark=StarkParams(name="Fibonacci", degree_bits=20, width=40),
    build_circuit=build_circuit,
    build_air=build_air,
    repro_note=(
        "Paper: the 2**20-th Fibonacci number (Plonky2 + Starky). "
        "Ours: the same recurrence as circuit and Figure-2 AET."
    ),
)
