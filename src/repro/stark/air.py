"""Algebraic Intermediate Representation (AIR) for Starky-style proofs.

A computation is an *Algebraic Execution Trace* (paper Figure 2): a
table with one row per time step and one column per register.  The AIR
declares:

* **transition constraints** -- polynomial relations between each row and
  the next (they must vanish on every row but the last);
* **boundary constraints** -- pinned cell values (inputs/outputs), e.g.
  ``x0[0] = 0`` and ``x1[0] = 1`` for Fibonacci.

Constraints are written once against an abstract *algebra* so the same
definition evaluates vectorised over the whole LDE coset (prover side,
base field) and at a single extension point ``zeta`` (verifier side).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..field import extension as fext, gl64, goldilocks as gl


class BaseVecAlgebra:
    """Vectorised base-field algebra over (N,) uint64 arrays."""

    def __init__(self, n: int) -> None:
        self.n = n

    def constant(self, c: int):
        """Broadcast a constant over the domain."""
        return np.broadcast_to(np.uint64(gl.canonical(c)), (self.n,))

    def add(self, a, b):
        """Field addition."""
        return gl64.add(a, b)

    def sub(self, a, b):
        """Field subtraction."""
        return gl64.sub(a, b)

    def mul(self, a, b):
        """Field multiplication."""
        return gl64.mul(a, b)

    def mul_const(self, a, c: int):
        """Multiply by a Python-int constant."""
        return gl64.mul(a, np.uint64(gl.canonical(c)))


class ExtAlgebra:
    """Extension-field algebra over (2,) arrays (verifier at zeta)."""

    def constant(self, c: int):
        """Embed a constant into the extension."""
        return fext.from_base(np.uint64(gl.canonical(c)))

    def add(self, a, b):
        """Extension addition."""
        return fext.add(a, b)

    def sub(self, a, b):
        """Extension subtraction."""
        return fext.sub(a, b)

    def mul(self, a, b):
        """Extension multiplication."""
        return fext.mul(a, b)

    def mul_const(self, a, c: int):
        """Multiply by a base-field constant."""
        return fext.scalar_mul(a, np.uint64(gl.canonical(c)))


@dataclass(frozen=True)
class BoundaryConstraint:
    """Pin ``column`` at ``row`` to ``value`` (Figure 2's I/O constraints)."""

    row: int
    column: int
    value: int


class Air:
    """Base class for AIR definitions.

    Subclasses set :attr:`width` and :attr:`constraint_degree`, implement
    :meth:`eval_transition`, and usually :meth:`boundary_constraints`.

    AIRs whose transition rules vary by row (round constants, round-type
    selectors -- e.g. a Poseidon AIR) additionally override
    :meth:`constant_columns` and :meth:`eval_transition_with_constants`:
    constant columns are *public* periodic-style polynomials (ethSTARK's
    periodic columns) interpolated over the trace domain; the prover
    evaluates their LDE, the verifier evaluates their interpolants at
    ``zeta`` directly -- they are never committed.
    """

    #: Number of trace columns.
    width: int = 0
    #: Maximum algebraic degree of any transition constraint (counting
    #: constant columns as degree-1 factors).
    constraint_degree: int = 1

    def eval_transition(self, local: Sequence, next_row: Sequence, alg) -> List:
        """Return the transition constraint values.

        ``local``/``next_row`` hold one algebra value per column; every
        returned expression must evaluate to zero on consecutive trace
        rows.
        """
        raise NotImplementedError

    def constant_columns(self, n: int) -> np.ndarray:
        """Public per-row constants, shape (k, n); default: none."""
        return np.zeros((0, n), dtype=np.uint64)

    def eval_transition_with_constants(
        self, local: Sequence, next_row: Sequence, constants: Sequence, alg
    ) -> List:
        """Transition constraints with constant-column values in scope.

        Default delegates to :meth:`eval_transition` (constant-free AIRs
        need not override).
        """
        return self.eval_transition(local, next_row, alg)

    def boundary_constraints(self, public_inputs: Sequence[int]) -> List[BoundaryConstraint]:
        """Return the boundary constraints for the given public values."""
        return []

    def check_trace(self, trace: np.ndarray, public_inputs: Sequence[int]) -> bool:
        """Directly validate a trace against all constraints (test helper)."""
        trace = np.asarray(trace, dtype=np.uint64)
        n = trace.shape[0]
        alg = BaseVecAlgebra(n - 1)
        local = [trace[:-1, c] for c in range(self.width)]
        nxt = [trace[1:, c] for c in range(self.width)]
        const_cols = self.constant_columns(n)
        consts = [const_cols[k, :-1] for k in range(const_cols.shape[0])]
        for con in self.eval_transition_with_constants(local, nxt, consts, alg):
            if bool(np.asarray(con).any()):
                return False
        for bc in self.boundary_constraints(public_inputs):
            if int(trace[bc.row, bc.column]) != gl.canonical(bc.value):
                return False
        return True
