"""Factorial workload: prove knowledge of ``n!`` (paper app 1).

The paper proves the factorial of ``2**20`` with Plonky2; functionally
we build the same iterated-product circuit at reduced length, and a
Starky AET with columns ``(i, f)`` and transitions ``i' = i + 1``,
``f' = f * i'`` for Table 5.
"""

from __future__ import annotations

from math import factorial as _py_factorial

import numpy as np

from ..field import goldilocks as gl
from ..plonk import CircuitBuilder
from ..stark import Air, BoundaryConstraint
from .base import PlonkParams, StarkParams, WorkloadSpec


def factorial_mod_p(k: int) -> int:
    """``k! mod p`` (reference value for assertions)."""
    return gl.canonical(_py_factorial(k))


def build_circuit(scale: int):
    """Circuit computing ``scale!`` with one multiply gate per step."""
    b = CircuitBuilder()
    acc = b.constant(1)
    for i in range(2, scale + 1):
        acc = b.mul(acc, b.constant(i))
    out = b.public_input()
    b.assert_equal(out, acc)
    circuit = b.build()
    inputs = {out.index: factorial_mod_p(scale)}
    return circuit, inputs, [factorial_mod_p(scale)]


class FactorialAir(Air):
    """AET columns ``(i, f)``: ``i' = i + 1`` and ``f' = f * i'``."""

    width = 2
    constraint_degree = 2

    def eval_transition(self, local, nxt, alg):
        one = alg.constant(1)
        c1 = alg.sub(nxt[0], alg.add(local[0], one))
        c2 = alg.sub(nxt[1], alg.mul(local[1], nxt[0]))
        return [c1, c2]

    def boundary_constraints(self, publics):
        last_row, result = publics
        return [
            BoundaryConstraint(0, 0, 1),
            BoundaryConstraint(0, 1, 1),
            BoundaryConstraint(int(last_row), 1, int(result)),
        ]


def build_air(log_rows: int):
    """Trace of ``2**log_rows`` factorial steps."""
    n = 1 << log_rows
    trace = np.zeros((n, 2), dtype=np.uint64)
    i, f = 1, 1
    for row in range(n):
        trace[row] = (i, f)
        i += 1
        f = gl.mul(f, i)
    publics = [n - 1, int(trace[n - 1, 1])]
    return FactorialAir(), trace, publics


SPEC = WorkloadSpec(
    name="Factorial",
    plonk=PlonkParams(name="Factorial", degree_bits=20, width=135),
    stark=StarkParams(name="Factorial", degree_bits=20, width=48),
    build_circuit=build_circuit,
    build_air=build_air,
    repro_note=(
        "Paper: factorial of 2**20 via Plonky2 (and Starky in Table 5). "
        "Ours: identical iterated-product circuit/AET at reduced length "
        "for functional runs; paper-scale degree 2**20 for the models."
    ),
)
