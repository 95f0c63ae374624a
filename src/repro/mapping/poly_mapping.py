"""Polynomial-operation mapping (paper Section 5.4, Figure 6).

Three sub-kernels:

* **element-wise chains** -- vector mode across all VSA columns, with
  compiler tiling collapsing DRAM traffic to one read per operand and
  one result write (:func:`repro.hw.scratchpad.tile_plan`);
* **gate-constraint evaluation** -- element-wise compute but with short
  pseudo-random accesses whose efficiency is *measured* on the
  Ramulator-lite model as a function of the circuit width (this is the
  mechanism behind the paper's "MVM's width-400 circuit lifts poly
  bandwidth utilisation" observation, Section 7.1);
* **partial products** (Equations (1)-(2)) -- the three-step group
  scheme of Figure 6b, emulated functionally and validated against the
  direct prefix product.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..field import gl64, goldilocks as gl
from ..hw.config import HwConfig
from ..hw.memory import DramModel, random_chunks
from ..hw.scratchpad import tile_plan
from .base import KIND_POLY, KernelCost

#: Efficiency of long streaming vector operands (tiled, double buffered;
#: interleaved multi-operand read streams plus the result write stream
#: land close to the NTT's read/write-turnaround efficiency).
STREAM_MEM_EFFICIENCY = 0.5

#: Chunks each PE accumulates locally in the partial-product scheme.
PP_GROUP_SIZE = 32


@lru_cache(maxsize=64)
def gate_access_efficiency(width: int) -> float:
    """DRAM efficiency for width-``width``-element pseudo-random chunks.

    Measured on the Ramulator-lite model; memoised per width.  Short
    chunks (a few elements) land near 0.1, a 135-wide circuit near 0.16,
    MVM's 400-wide circuit near 0.22 -- reproducing the poly column of
    paper Table 4.
    """
    chunk_bytes = max(16, width * 8)
    model = DramModel()
    return max(
        0.05, model.efficiency(random_chunks(2000, chunk_bytes, 1 << 26, seed=1))
    )


def elementwise_cost(
    vector_len: int,
    num_ops: int,
    num_operands: int,
    hw: HwConfig,
    mult_fraction: float = 0.5,
    name: str = "poly.elementwise",
    chain_split: int = 1,
) -> KernelCost:
    """Cost of a fused chain of element-wise vector operations.

    ``num_ops`` operations over vectors of ``vector_len`` touching
    ``num_operands`` distinct operand vectors.  ``chain_split`` breaks
    the chain into that many segments (the autotuner's tiling knob):
    each segment resident-sets fewer operands -- bigger tiles -- but one
    intermediate vector spills to DRAM between segments.  1 is the fully
    fused static default.
    """
    total_ops = num_ops * vector_len
    compute_cycles = total_ops / hw.total_pes
    min_tile = 512

    def _segment_bytes(operands: int, ops: int) -> float:
        plan = tile_plan(vector_len, operands, ops, hw.scratchpad_bytes)
        spill_factor = 1.0
        # If tiles shrink below the DRAM-friendly minimum, the operand
        # set no longer fits on-chip at once: the compiler splits the op
        # chain and spills intermediates, multiplying traffic
        # (scratchpad sensitivity).
        if plan.tile_elems < min_tile:
            spill_factor = min(4.0, min_tile / max(1, plan.tile_elems))
        return plan.dram_bytes * spill_factor, plan.tile_elems

    if chain_split <= 1:
        mem_bytes, tile_elems = _segment_bytes(num_operands, num_ops)
    else:
        k = min(chain_split, max(1, num_operands))
        seg_operands = -(-num_operands // k) + 1  # carried intermediate
        seg_ops = max(1, -(-num_ops // k))
        seg_bytes, tile_elems = _segment_bytes(seg_operands, seg_ops)
        # k segments plus (k-1) intermediate spill round trips.
        mem_bytes = k * seg_bytes + (k - 1) * 2 * vector_len * 8
    return KernelCost(
        name=name,
        kind=KIND_POLY,
        compute_cycles=compute_cycles,
        mem_bytes=mem_bytes,
        mem_efficiency=STREAM_MEM_EFFICIENCY,
        mult_ops=total_ops * mult_fraction,
        detail={
            "vector_len": vector_len,
            "num_ops": num_ops,
            "tile": tile_elems,
            "chain_split": chain_split,
        },
    )


#: How many times each row's wire data is re-fetched across gate types.
#: Plonky2 evaluates every gate's constraints over all rows; even with
#: the compiler pinning wire data on-chip, distinct gate evaluators
#: re-touch overlapping wire subsets several times.
GATE_REREAD_FACTOR = 3.5


def gate_eval_cost(
    lde_size: int,
    ops_per_row: int,
    width: int,
    hw: HwConfig,
    name: str = "poly.gate_eval",
) -> KernelCost:
    """Cost of evaluating gate constraints over the LDE domain.

    Reads the ``width`` wire values of each row (pseudo-randomly placed
    due to bit-reversed orders, re-read across gate types), evaluates
    ``ops_per_row`` field operations, writes one constraint-blend value
    per row.  A larger scratchpad pins more wire data on-chip (the
    compiler's hand-crafted replacement policy, Section 5.4) and lowers
    the re-read factor; a smaller one raises it.
    """
    spad_scale = min(2.5, max(0.5, ((8 << 20) / hw.scratchpad_bytes) ** 0.5))
    mem_bytes = lde_size * (width * 8 * GATE_REREAD_FACTOR * spad_scale + 16)
    total_ops = lde_size * ops_per_row
    return KernelCost(
        name=name,
        kind=KIND_POLY,
        compute_cycles=total_ops / hw.total_pes,
        mem_bytes=mem_bytes,
        mem_efficiency=gate_access_efficiency(width),
        mult_ops=total_ops * 0.5,
        detail={"lde_size": lde_size, "ops_per_row": ops_per_row, "width": width},
    )


# -- partial products (Figure 6) -----------------------------------------------


def emulate_partial_products_3step(h: np.ndarray, num_pes: int | None = None) -> np.ndarray:
    """The three-step group scheme for prefix products (Figure 6b).

    Groups of ``PP_GROUP_SIZE`` chunk-products live in each PE's register
    file.  Step 1: each PE computes its local prefix products.  Step 2:
    the PEs' last products propagate through neighbour links, each PE
    multiplying in everything before it.  Step 3: each PE scales its
    local prefixes by the incoming product.  Matches the sequential
    definition ``PP[i] = PP[i-1] * h[i]`` exactly.
    """
    h = np.asarray(h, dtype=np.uint64)
    n = h.shape[0]
    if n % PP_GROUP_SIZE:
        raise ValueError("chunk count must divide into whole PE groups")
    groups = h.reshape(-1, PP_GROUP_SIZE)
    # Step 1: local prefix products inside every PE (parallel across PEs).
    local = groups.copy()
    for j in range(1, PP_GROUP_SIZE):
        local[:, j] = gl64.mul(local[:, j - 1], groups[:, j])
    # Step 2: propagate each PE's last product along the neighbour chain.
    carry_in = np.ones(groups.shape[0], dtype=np.uint64)
    carry = 1
    for k in range(groups.shape[0]):
        carry_in[k] = carry
        carry = gl.mul(carry, int(local[k, -1]))
    # Step 3: scale local prefixes by the received carry.
    return gl64.mul(local, carry_in[:, None]).reshape(n)


def partial_products_cost(
    n_rows: int, num_wires: int, hw: HwConfig, name: str = "poly.partial_products"
) -> KernelCost:
    """Cost of the full Z computation over ``n_rows`` rows.

    Per row: blend ``f`` and ``g`` (2 * 3 wires: one multiply and two
    adds each, then chain products), one inversion-by-multiplication
    amortised via batch inversion (~3 multiplies), quotient chunking and
    the three-step prefix scheme.
    """
    ops_per_row = num_wires * 6 + 8
    total_ops = n_rows * ops_per_row
    # Traffic: read wires + sigma labels, write z.
    mem_bytes = n_rows * (2 * num_wires * 8 + 16)
    # Step 2's neighbour chain serialises across PE groups.
    chain_cycles = n_rows / PP_GROUP_SIZE
    return KernelCost(
        name=name,
        kind=KIND_POLY,
        compute_cycles=max(total_ops / hw.total_pes, chain_cycles),
        mem_bytes=mem_bytes,
        mem_efficiency=STREAM_MEM_EFFICIENCY,
        mult_ops=total_ops * 0.7,
        detail={"rows": n_rows},
    )
