"""Workload definitions: paper-scale parameters + functional circuits.

Each of the paper's six applications (Section 6, "Applications") is a
:class:`WorkloadSpec` with two faces:

* **paper-scale parameters** (:class:`PlonkParams` /
  :class:`StarkParams`) consumed by the performance models, which the
  compiler frontend traces into kernel graphs -- degree and width
  chosen to reproduce the paper's measured CPU times (Tables 1 and 3);
* a **functional builder** that constructs a scaled-down but *real*
  circuit (or AET) our Plonk/STARK provers prove and verify end to end
  in the tests and examples.

Where the original gadget is out of scope (secp256k1 arithmetic, SHA-256
bit decomposition, PNG decoding), the builder substitutes a circuit with
the same computational *shape*; each substitution is documented in the
spec's ``repro_note`` and in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..fri.config import FRI_ARITY_BITS
from ..plonk import Circuit
from ..stark import Air

@dataclass(frozen=True)
class PlonkParams:
    """Paper-scale parameters of one Plonky2 proof-generation workload."""

    name: str
    #: log2 of the row count n.
    degree_bits: int
    #: Wire columns (the paper's "circuit width", e.g. 135).
    width: int
    #: log2 blowup (Plonky2 default 3 -> k = 8).
    rate_bits: int = 3
    #: Soundness-amplification copies of the permutation argument
    #: (Plonky2's ``num_challenges``; 2 copies for ~100-bit security).
    num_challenges: int = 2
    #: Z + partial-product columns (chunked accumulators, Eq. (1)-(2)).
    zs_width: int = 0  # 0 -> derived: num_challenges * (1 + ceil(width / 8))
    #: Quotient chunk columns (8 chunks x extension degree 2 x challenges).
    quotient_width: int = 0  # 0 -> derived: 16 * num_challenges
    #: Blinding salt columns added to the wires commitment (zero knowledge).
    salt_width: int = 4
    #: FRI folding arity bits (Plonky2 reduces by 8 per round, as the
    #: functional FRI prover does).
    fri_arity_bits: int = FRI_ARITY_BITS
    #: FRI query rounds.
    num_queries: int = 28
    #: Grinding bits.
    pow_bits: int = 16
    #: Field operations evaluated per LDE row for all gate constraints.
    gate_ops_factor: int = 10  # ops_per_row = factor * width

    @property
    def n(self) -> int:
        """Row count."""
        return 1 << self.degree_bits

    @property
    def lde_size(self) -> int:
        """LDE domain size ``k * n``."""
        return self.n << self.rate_bits

    @property
    def zs_columns(self) -> int:
        """Z + partial product columns."""
        return self.zs_width or self.num_challenges * (1 + ceil(self.width / 8))

    @property
    def quotient_columns(self) -> int:
        """Quotient chunk columns."""
        return self.quotient_width or 16 * self.num_challenges

    @property
    def committed_columns(self) -> int:
        """All columns committed during proving."""
        return self.width + self.salt_width + self.zs_columns + self.quotient_columns


@dataclass(frozen=True)
class StarkParams:
    """Paper-scale parameters of one Starky base-proof workload."""

    name: str
    degree_bits: int
    #: Trace columns.
    width: int
    rate_bits: int = 1
    quotient_width: int = 4  # (constraint_degree - 1) chunks x 2 limbs
    constraint_ops_factor: int = 6
    fri_arity_bits: int = FRI_ARITY_BITS
    num_queries: int = 84
    pow_bits: int = 16

    @property
    def n(self) -> int:
        """Trace length."""
        return 1 << self.degree_bits

    @property
    def lde_size(self) -> int:
        """LDE domain size."""
        return self.n << self.rate_bits


#: (circuit, inputs dict, expected public values)
CircuitBuild = Tuple[Circuit, Dict[int, int], list]
#: (air, trace, public values)
AirBuild = Tuple[Air, np.ndarray, list]


@dataclass(frozen=True)
class WorkloadSpec:
    """One evaluation application."""

    name: str
    #: Paper-scale Plonky2 parameters (Tables 1, 3, 4; Figures 8-10).
    plonk: PlonkParams
    #: Builds a functional scaled-down circuit; ``scale`` controls size.
    build_circuit: Callable[[int], CircuitBuild]
    #: Paper-scale Starky parameters (Tables 5, 6), when applicable.
    stark: Optional[StarkParams] = None
    #: Builds a functional scaled-down AET, when applicable.
    build_air: Optional[Callable[[int], AirBuild]] = None
    #: What the paper used vs what we build (substitution record).
    repro_note: str = ""
