"""MVM workload (paper app 6): matrix-vector multiplication (ZKML).

The paper proves a 3000x3000 16-bit matrix-vector product
(proto-neural-zkp); its circuit is wide (width ~400) because each row
packs many multiply-accumulate lanes -- which is why MVM gets the best
polynomial-kernel bandwidth utilisation in Table 4.

Ours is the same statement at reduced size: ``y = M x`` with private
``M`` and ``x`` and a public digest of ``y`` -- every entry is a real
multiply-accumulate gate.
"""

from __future__ import annotations

import numpy as np

from ..field import goldilocks as gl
from ..plonk import CircuitBuilder
from ..stark import Air, BoundaryConstraint
from .base import PlonkParams, StarkParams, WorkloadSpec


def build_circuit(scale: int):
    """Prove ``y = M x`` for a private ``scale x scale`` matrix."""
    b = CircuitBuilder()
    m_vars = [[b.add_variable() for _ in range(scale)] for _ in range(scale)]
    x_vars = [b.add_variable() for _ in range(scale)]
    y_pubs = []
    for r in range(scale):
        acc = b.constant(0)
        for c in range(scale):
            acc = b.mul_add(m_vars[r][c], x_vars[c], acc)
        pub = b.public_input()
        b.assert_equal(pub, acc)
        y_pubs.append(pub)
    circuit = b.build()

    rng = np.random.default_rng(99)
    m_vals = rng.integers(0, 1 << 16, size=(scale, scale))
    x_vals = rng.integers(0, 1 << 16, size=scale)
    inputs = {}
    for r in range(scale):
        for c in range(scale):
            inputs[m_vars[r][c].index] = int(m_vals[r, c])
    for c in range(scale):
        inputs[x_vars[c].index] = int(x_vals[c])
    publics = []
    for r in range(scale):
        acc = 0
        for c in range(scale):
            acc = gl.add(acc, gl.mul(int(m_vals[r, c]), int(x_vals[c])))
        inputs[y_pubs[r].index] = acc
        publics.append(acc)
    return circuit, inputs, publics


class MvmAir(Air):
    """Running dot product: columns ``(m, x, acc)``, ``acc' = acc + m*x``."""

    width = 3
    constraint_degree = 2

    def eval_transition(self, local, nxt, alg):
        return [alg.sub(nxt[2], alg.add(local[2], alg.mul(local[0], local[1])))]

    def boundary_constraints(self, publics):
        last_row, result = publics
        return [
            BoundaryConstraint(0, 2, 0),
            BoundaryConstraint(int(last_row), 2, int(result)),
        ]


def build_air(log_rows: int):
    """Trace accumulating a ``2**log_rows``-element dot product."""
    n = 1 << log_rows
    rng = np.random.default_rng(7)
    m = rng.integers(0, 1 << 16, size=n).astype(np.uint64)
    x = rng.integers(0, 1 << 16, size=n).astype(np.uint64)
    trace = np.zeros((n, 3), dtype=np.uint64)
    acc = 0
    for row in range(n):
        trace[row] = (m[row], x[row], acc)
        acc = gl.add(acc, gl.mul(int(m[row]), int(x[row])))
    # The last row's acc excludes its own product; constrain the stored one.
    publics = [n - 1, int(trace[n - 1, 2])]
    return MvmAir(), trace, publics


SPEC = WorkloadSpec(
    name="MVM",
    plonk=PlonkParams(name="MVM", degree_bits=18, width=400, gate_ops_factor=16),
    stark=StarkParams(name="MVM", degree_bits=20, width=3),
    build_circuit=build_circuit,
    build_air=build_air,
    repro_note=(
        "Paper: 3000x3000 16-bit matrix-vector product "
        "(proto-neural-zkp). Ours: the same multiply-accumulate circuit "
        "at reduced size; paper-scale width 400 drives the models."
    ),
)
