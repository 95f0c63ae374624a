"""Sum-check kernel mapping (paper Section 8.1, Algorithm 2).

The paper sketches how UniZK generalises to sum-check-based protocols:
the per-round vector update ``A[j] = A[j](1-r) + A[j+m/2] r`` is an
element-wise kernel in vector mode, and the two half-sums ride the
systolic accumulation links like matmul partial sums.  We emulate one
round on the VSA model and provide the whole-protocol cost.
"""

from __future__ import annotations

import numpy as np

from ..field import gl64
from ..hw.config import HwConfig
from ..hw.vsa import Vsa
from ..sumcheck import fold_table
from .base import KIND_POLY, KernelCost
from .poly_mapping import STREAM_MEM_EFFICIENCY


def emulate_sumcheck_round(table: np.ndarray, r: int):
    """One sum-check round on the VSA: sums via links, update in vector mode.

    Returns ``(y0, y1, folded_table)``; validated against the protocol's
    reference implementation in the tests.
    """
    table = np.asarray(table, dtype=np.uint64)
    half = table.shape[0] // 2
    lo, hi = table[:half], table[half:]
    # Systolic accumulation: vector elements stream through a column and
    # fold pairwise along the links (log-depth tree, same as matmul sums).
    y0 = int(gl64.sum_array(lo))
    y1 = int(gl64.sum_array(hi))
    res = Vsa().vector_mode(
        lambda ops: fold_table(np.concatenate(ops), r), [lo, hi], ops_per_element=3
    )
    return y0, y1, res.values


def sumcheck_cost(log_n: int, hw: HwConfig, name: str = "sumcheck") -> KernelCost:
    """Cost of a full n-round sum-check prover pass.

    Round ``i`` touches ``2**(n-i)`` elements (3 ops each: two multiplies
    and an add, plus the tree sums); the table streams from DRAM only
    while it exceeds the scratchpad, after which rounds are on-chip.
    """
    total_elems = float((1 << (log_n + 1)) - 2)  # sum of 2^n + 2^(n-1) + ...
    ops = 3.0 * total_elems
    spad_elems = hw.scratchpad_bytes // 16  # double-buffered halves
    dram_elems = 0.0
    m = 1 << log_n
    while m > spad_elems:
        dram_elems += 1.5 * m  # read m, write m/2
        m //= 2
    return KernelCost(
        name=name,
        kind=KIND_POLY,
        compute_cycles=ops / hw.total_pes,
        mem_bytes=dram_elems * 8,
        mem_efficiency=STREAM_MEM_EFFICIENCY,
        mult_ops=2.0 * total_elems,
        detail={"log_n": log_n},
    )
