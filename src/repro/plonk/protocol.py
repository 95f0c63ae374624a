"""The Plonk protocol's declaration, its constraints and its verifier's error.

:func:`constraints` states Plonk's gate and copy constraints once (paper
Figure 1), against an algebra of :mod:`repro.field.algebra`: the Plonk
prover evaluates them on its quotient's coset, its verifier at
``zeta``, and HyperPlonk-lite's prover and verifier over the subgroup
rows -- each supplies only its domain values.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..errors import VerifierError
from ..pcs import FriPCS
from ..pcs.protocol import FriProtocol, Round
from .circuit import NUM_WIRES


class PlonkError(VerifierError):
    """Raised when a Plonk proof fails verification."""


#: The constraint blend's degree over ``n``: ``Z`` times one factor a
#: wire (:meth:`~repro.pcs.FriPCS.quotient_shape` gives its quotient).
CONSTRAINT_DEGREE = NUM_WIRES + 1

#: Salt columns appended to the wires commitment when blinding.
ZK_SALT_COLUMNS = 2

#: Plonk: the preprocessed cap (5 selectors, 3 sigmas) and the publics;
#: the wires cap (salted when blinding), ``beta``, ``gamma``; the Z cap
#: (Z is also opened at ``zeta * omega``), ``alpha``; the quotient cap,
#: ``zeta``.
PLONK = FriProtocol(
    "Plonk",
    setup=(Round("preprocessed", 8),),
    rounds=(
        Round("wires", 3, salt=ZK_SALT_COLUMNS, base=("beta", "gamma")),
        Round("z", 1, ext=("alpha",), at_next=True),
        Round("quotient", 2 * FriPCS.quotient_shape(CONSTRAINT_DEGREE)[0], ext=("zeta",)),
    ),
    error=PlonkError,
)


def copy_product(alg, wires: Sequence, labels: Sequence, beta: int, gamma: int):
    """``prod_j (w_j + beta * label_j + gamma)``: with the labels
    ``k_j * x`` the copy argument's ``f``, with the sigmas its ``g``."""
    out = None
    for wire, label in zip(wires, labels, strict=True):
        term = alg.add(alg.add(wire, alg.mul_const(label, beta)), alg.constant(gamma))
        out = term if out is None else alg.mul(out, term)
    return out


def constraints(
    alg, pre: Sequence, wires: Sequence, labels: Sequence, z, z_next, pi, l1, beta: int, gamma: int
) -> Tuple:
    """Plonk's gate ``q_L a + q_R b + q_M a b + q_O c + q_C + PI``, copy
    step ``Z f - Z_next g`` (:func:`copy_product`) and start
    ``L_1 (Z - 1)`` at a domain point (or a vector of them), given the
    5 selectors then 3 sigmas ``pre``, the 3 ``wires``, their labels
    ``k_j * x``, ``Z`` here and one row on, ``PI`` and ``L_1``."""
    q_l, q_r, q_m, q_o, q_c, *sigmas = pre
    a, b, c = wires
    gate = alg.add(
        alg.add(alg.add(alg.mul(q_l, a), alg.mul(q_r, b)), alg.mul(q_m, alg.mul(a, b))),
        alg.add(alg.add(alg.mul(q_o, c), q_c), pi),
    )
    f = copy_product(alg, wires, labels, beta, gamma)
    g = copy_product(alg, wires, sigmas, beta, gamma)
    copy = alg.sub(alg.mul(z, f), alg.mul(z_next, g))
    return gate, copy, alg.mul(l1, alg.sub(z, alg.constant(1)))
