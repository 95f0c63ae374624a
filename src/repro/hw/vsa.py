"""Vector-systolic array (VSA) structural model (paper Figure 3b).

Each VSA is a 12x12 grid of PEs; a PE holds one 64-bit Goldilocks
modular multiplier, two modular adder/subtractors, and a 64x64-bit
register file.  Data enters/leaves at the boundary; PEs talk only to
neighbours (right/down systolic links, plus a few *reverse* bottom-up
links in designated columns that the Poseidon partial-round mapping
needs).  A *vector mode* turns each column into an independent vector
unit for element-wise polynomial kernels.

This module emulates vector mode functionally with cycle accounting;
the systolic mode runs as PE-grid microcode (:mod:`repro.hw.microcode`,
:mod:`repro.mapping.microcode_schedules`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Tuple

import numpy as np


@dataclass(frozen=True)
class PeSpec:
    """Resources inside one processing element."""

    multipliers: int = 1
    adders: int = 2
    register_words: int = 64


@dataclass(frozen=True)
class VsaSpec:
    """Geometry and link structure of one VSA."""

    rows: int = 12
    cols: int = 12
    pe: PeSpec = field(default_factory=PeSpec)
    #: Columns equipped with bottom-up reverse links (paper: "a limited
    #: amount of new links"; the partial-round scheme needs them in the
    #: second column of each 3-column region, i.e. every 3rd column).
    reverse_link_cols: Tuple[int, ...] = (1, 4, 7, 10)

    @property
    def num_pes(self) -> int:
        """PEs in the array."""
        return self.rows * self.cols


@dataclass
class SystolicResult:
    """Output of an emulated systolic pass."""

    values: np.ndarray
    cycles: int
    pe_mul_ops: int


class Vsa:
    """Functional emulator for the VSA's execution modes."""

    def __init__(self, spec: VsaSpec | None = None) -> None:
        self.spec = spec or VsaSpec()

    # -- vector mode -------------------------------------------------------------

    def vector_mode(
        self,
        fn: Callable[[List[np.ndarray]], np.ndarray],
        operands: List[np.ndarray],
        ops_per_element: int = 1,
    ) -> SystolicResult:
        """Element-wise kernel across the array's column vector units.

        ``operands`` are equal-length vectors; ``fn`` combines them
        element-wise.  Work is split across ``cols`` vector units, each
        column's PEs chaining multiplier and adders (Section 5.4's
        chained operations).  Per-cycle throughput: one element per PE
        per op.
        """
        n = operands[0].shape[0]
        for op in operands:
            if op.shape[0] != n:
                raise ValueError("vector-mode operands must be equal length")
        values = fn(operands)
        total_ops = n * ops_per_element
        throughput = self.spec.num_pes  # one op per PE per cycle
        cycles = -(-total_ops // throughput)
        return SystolicResult(values=values, cycles=cycles, pe_mul_ops=total_ops)

