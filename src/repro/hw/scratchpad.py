"""Scratchpad model: the compiler's vector tiling.

UniZK's global scratchpad hides DRAM latency with double buffering and
keeps element-wise operands on-chip (paper Sections 4 and 5.4).
:func:`tile_plan` is the compiler's tiling calculation: how many operand
vectors fit on-chip and the resulting DRAM traffic.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TilePlan:
    """Output of the compiler's vector-tiling analysis."""

    tile_elems: int
    num_tiles: int
    dram_bytes: int
    reuse_factor: float


def tile_plan(
    vector_len: int,
    num_operands: int,
    num_ops: int,
    scratchpad_bytes: int,
    elem_bytes: int = 8,
) -> TilePlan:
    """Plan tiling for a chain of element-wise operations.

    ``num_operands`` distinct vectors feed ``num_ops`` element-wise
    operations.  With tiling, each tile of every operand is loaded once,
    all ops on that tile run back to back, and results stream out --
    DRAM traffic collapses from ``O(num_ops)`` passes to one read of
    each operand plus one write (paper Section 5.4: "our tiling is more
    aggressive and can use much larger batch sizes").

    Half the scratchpad is reserved for the double buffer.
    """
    usable = scratchpad_bytes // 2
    per_elem_footprint = (num_operands + 1) * elem_bytes
    tile_elems = max(1, min(vector_len, usable // per_elem_footprint))
    num_tiles = -(-vector_len // tile_elems)
    # One read per operand element + one result write, regardless of op count.
    dram_bytes = vector_len * per_elem_footprint
    naive_bytes = num_ops * vector_len * 3 * elem_bytes  # 2 reads + 1 write per op
    reuse = naive_bytes / dram_bytes if dram_bytes else 1.0
    return TilePlan(
        tile_elems=tile_elems,
        num_tiles=num_tiles,
        dram_bytes=dram_bytes,
        reuse_factor=reuse,
    )
