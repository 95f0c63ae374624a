"""The algebras constraints are written against, and the one ``alpha``-blend.

An AIR or Plonk's constraints are written once against an algebra, so
one definition evaluates over a base-field vector (a coset, queried
rows: :class:`BaseVecAlgebra`) and at an extension point
(:class:`ExtAlgebra`); :func:`blend` turns their values into a FRI
quotient's, for both FRI provers and both FRI verifiers.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from . import extension as fext, gl64, goldilocks as gl


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

    def scale(self, a, e: np.ndarray):
        """Multiply by one extension element: an (N, 2) extension array."""
        return fext.scalar_mul(e, a)


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

    def scale(self, a, e: np.ndarray):
        """Multiply by one extension element."""
        return fext.mul(a, e)


def blend(alg, alpha: np.ndarray, terms: Iterable[Tuple[object, object]]) -> np.ndarray:
    """``sum_k alpha^k * c_k * d_k`` over ``terms``, the ``(c_k, d_k)``
    pairs of a constraint value and the inverse of its divisor, both
    ``alg`` values; ``alpha`` is an extension element and so is the
    result (an (N, 2) array for :class:`BaseVecAlgebra`)."""
    total, weight = None, fext.one()
    for value, divisor_inv in terms:
        term = alg.scale(alg.mul(value, divisor_inv), weight)
        total = term if total is None else fext.add(total, term)
        weight = fext.mul(weight, alpha)
    return total
