"""The STARK protocol's declaration and its verifier's error."""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

from ..errors import VerifierError
from ..pcs import FriPCS
from ..pcs.protocol import FriProtocol, Round
from .air import Air


class StarkError(VerifierError):
    """Raised when a STARK proof fails verification."""


#: STARK: the publics; the trace cap (the trace is also opened at
#: ``zeta * omega``), ``alpha``; the quotient cap, ``zeta``.  The widths
#: are an AIR's: :func:`stark` fills them in.
STARK = FriProtocol(
    "STARK",
    setup=(),
    rounds=(Round("trace", 0, ext=("alpha",), at_next=True), Round("quotient", 0, ext=("zeta",))),
    error=StarkError,
)


@lru_cache(maxsize=16)
def stark(air: Air) -> FriProtocol:
    """:data:`STARK` over ``air``'s trace and quotient columns (two
    limbs of :meth:`~repro.pcs.FriPCS.quotient_shape` chunks)."""
    trace, quotient = STARK.rounds
    chunks, _ = FriPCS.quotient_shape(air.constraint_degree)
    return replace(STARK, rounds=(
        replace(trace, width=air.width), replace(quotient, width=2 * chunks)
    ))
