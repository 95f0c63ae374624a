"""The Plonk protocol's declaration and its verifier's error."""

from __future__ import annotations

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
