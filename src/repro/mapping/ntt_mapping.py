"""NTT kernel mapping (paper Section 5.1, Figure 4).

Two layers:

* :class:`MdcPipeline` -- a functional emulation of the multi-path delay
  commutator pipeline that maps one fixed-size DIF NTT onto a linear
  sequence of PEs.  Each stage is one PE: it pairs elements at the
  stage's stride using its register file as the delay buffer and applies
  the butterfly with on-PE twiddles.  Validated against the reference
  NTT; sustains 2 elements/cycle like the hardware.
* :func:`ntt_cost` -- the cycle/traffic model for variable-length batched
  NTTs built from the SAM multi-dimensional decomposition: two decomposed
  dimensions per memory pass (two half-row pipelines chained through the
  transpose buffer), inter-dimension twiddles from the on-chip generator,
  and the final constant multiply fused into otherwise-idle PEs.
"""

from __future__ import annotations

from math import ceil

import numpy as np

from ..field import goldilocks as gl
from ..hw.config import HwConfig
from ..ntt import bit_reverse, ntt
from .base import KIND_NTT, KernelCost

#: Effective DRAM efficiency of the NTT's read+write streams.  Derived
#: from the Ramulator-lite model: pure sequential streams reach ~0.94,
#: but each pass interleaves a read stream and a write stream and the
#: last pass shuffles bit-reversed groups, landing around 0.55 -- which
#: reproduces the ~50% NTT memory utilisation of paper Table 4.
NTT_MEM_EFFICIENCY = 0.55


class MdcPipeline:
    """Functional model of a size-``n`` DIF NTT as a PE pipeline.

    ``log n`` butterfly stages plus one twiddle stage, each claiming one
    PE.  Stage ``s`` (stride ``n/2^(s+1)``) delays the first half of
    each block in its PE register file so butterflies pair elements
    ``stride`` apart while input arrives 2 elements per cycle.
    """

    def __init__(self, n: int) -> None:
        if n & (n - 1) or n < 2:
            raise ValueError("pipeline size must be a power of two >= 2")
        self.n = n
        self.log_n = n.bit_length() - 1

    def required_registers_per_pe(self) -> int:
        """Peak delay-buffer elements any stage holds (bounded by n/2)."""
        return self.n // 2

    def run(self, coeffs: np.ndarray) -> tuple[np.ndarray, int]:
        """Push one size-``n`` block through; returns (NR-order NTT, cycles).

        The emulation processes stage by stage but respects each stage's
        streaming discipline (delay buffers of exactly ``stride``
        elements); cycles = ``n/2`` beats plus pipeline fill.
        """
        coeffs = np.asarray(coeffs, dtype=np.uint64)
        if coeffs.shape != (self.n,):
            raise ValueError(f"expected a size-{self.n} block")
        omega = gl.primitive_root_of_unity(self.log_n)
        data = [int(v) for v in coeffs]
        stride = self.n // 2
        stage = 0
        while stride >= 1:
            out = [0] * self.n
            # Twiddles for this stage live in the stage PE's register file.
            tw_base = gl.pow_mod(omega, self.n // (2 * stride))
            for block_start in range(0, self.n, 2 * stride):
                tw = 1
                for j in range(stride):
                    a = data[block_start + j]
                    b = data[block_start + j + stride]
                    out[block_start + j] = gl.add(a, b)
                    out[block_start + j + stride] = gl.mul(gl.sub(a, b), tw)
                    tw = gl.mul(tw, tw_base)
            data = out
            stride //= 2
            stage += 1
        # Throughput: 2 elements/cycle; fill: one beat per stage (+1 twiddle PE).
        cycles = self.n // 2 + (self.log_n + 1)
        return np.array(data, dtype=np.uint64), cycles


def emulate_pipeline_matches_reference(coeffs: np.ndarray) -> bool:
    """The MDC pipeline output equals ``NTT^NR`` of the input: the
    natural-order NTT, bit-reversed."""
    pipe = MdcPipeline(len(coeffs))
    out, _ = pipe.run(coeffs)
    return bool(np.array_equal(out, bit_reverse(ntt(coeffs))))


def batched_ntt_index_major(matrix: np.ndarray, hw: HwConfig):
    """Batched NTTs over index-major data via the transpose buffer.

    Implements Section 5.1's "Data layouts": ``matrix`` is (N, B) with
    the elements at the same position of all ``B`` polynomials stored
    contiguously (index-major).  The hardware fetches ``b`` consecutive
    elements at a time, transposes ``b x b`` blocks on the fly to
    polynomial-major for the MDC pipelines, and writes results back the
    same way -- keeping every DRAM access a long consecutive burst.

    Returns ``(out_matrix, transpose_blocks)`` where ``out_matrix`` is
    index-major NTT results (column ``j`` is the NTT of polynomial
    ``j``) and ``transpose_blocks`` counts buffer round trips.
    Functional model: the batch width must divide into ``b`` blocks and
    ``N`` into ``b`` rows.
    """
    from ..hw.transpose import TransposeBuffer

    b = hw.transpose_dim
    n, batch = matrix.shape
    if n % b or batch % b:
        raise ValueError(f"matrix dims must be multiples of the buffer dim {b}")
    buf = TransposeBuffer(b)
    # Ingest: transpose b x b blocks to assemble polynomial-major rows.
    poly_major = np.empty((batch, n), dtype=np.uint64)
    for col_blk in range(0, batch, b):
        for row_blk in range(0, n, b):
            block = matrix[row_blk : row_blk + b, col_blk : col_blk + b]
            poly_major[col_blk : col_blk + b, row_blk : row_blk + b] = (
                buf.transpose_block(block)
            )
    transformed = ntt(poly_major)
    # Writeback: transpose back to index-major.
    out = np.empty_like(matrix)
    for col_blk in range(0, batch, b):
        for row_blk in range(0, n, b):
            block = transformed[col_blk : col_blk + b, row_blk : row_blk + b]
            out[row_blk : row_blk + b, col_blk : col_blk + b] = buf.transpose_block(
                block
            )
    return out, buf.blocks_processed


def ntt_dims(log_n: int, hw: HwConfig, tile_log2: int | None = None) -> list[int]:
    """Decomposed dimension sizes for a size-``2**log_n`` NTT.

    ``tile_log2`` overrides the per-dimension tile exponent (the
    autotuner's SAM-shape knob); ``None`` uses ``hw.ntt_tile_log2``.
    """
    tile = hw.ntt_tile_log2 if tile_log2 is None else tile_log2
    if tile < 1:
        raise ValueError(f"NTT tile exponent must be >= 1, got {tile}")
    if (1 << tile) // 2 > hw.pe_registers:
        raise ValueError(
            f"tile_log2={tile} exceeds the PE delay-register capacity "
            f"({hw.pe_registers} words)"
        )
    dims = []
    remaining = log_n
    while remaining > 0:
        take = min(tile, remaining)
        dims.append(take)
        remaining -= take
    return dims


def ntt_cost(
    log_n: int,
    batch: int,
    hw: HwConfig,
    name: str = "ntt",
    output_scale: float = 1.0,
    index_major: bool = False,
    tile_log2: int | None = None,
    dims_per_pass: int | None = None,
) -> KernelCost:
    """Cost of ``batch`` size-``2**log_n`` NTTs (forward or inverse).

    ``output_scale`` < 1 models iNTT-then-truncate patterns; LDE is
    modelled as an NTT at the *output* size (zero-padded input reads
    less, so traffic uses the true input/output sizes).  ``index_major``
    layouts route through the transpose buffer, which runs in parallel
    and does not change elapsed time (paper Section 5.1 "Data layouts").
    ``tile_log2`` / ``dims_per_pass`` are the autotuner's mapping knobs;
    ``None`` keeps the static defaults.
    """
    n = 1 << log_n
    dims = ntt_dims(log_n, hw, tile_log2)
    # Fusing two decomposed dimensions per memory pass (the two chained
    # half-row pipelines of Figure 4b) needs scratchpad room for the
    # inter-dimension tiles; below ~4 MB the fusion degrades to one
    # dimension per pass and traffic doubles (the scratchpad leg of the
    # paper's Figure 10).
    if dims_per_pass is None:
        dims_per_pass = 2 if hw.scratchpad_bytes >= (4 << 20) else 1
    elif dims_per_pass == 2 and hw.scratchpad_bytes < (4 << 20):
        raise ValueError("dims_per_pass=2 needs >= 4 MB of scratchpad")
    elif dims_per_pass not in (1, 2):
        raise ValueError(f"dims_per_pass must be 1 or 2, got {dims_per_pass}")
    passes = ceil(len(dims) / dims_per_pass)
    elems = n * batch
    # One read + one write of the whole batch per pass.
    mem_bytes = passes * 2 * elems * 8 * ((1 + output_scale) / 2)
    # Each row chains two half-pipelines (2 dims) at 2 elements/cycle.
    compute_cycles = passes * elems / (hw.ntt_pipelines * 2)
    # Butterfly multiplies: n/2 log n, plus inter-dimension twiddles and
    # coset constants fused into otherwise-idle pipeline slots.
    mult_ops = batch * (n / 2 * log_n + n * max(0, len(dims) - 1) + n)
    return KernelCost(
        name=name,
        kind=KIND_NTT,
        compute_cycles=compute_cycles,
        mem_bytes=mem_bytes,
        mem_efficiency=NTT_MEM_EFFICIENCY,
        mult_ops=mult_ops,
        detail={
            "log_n": log_n,
            "batch": batch,
            "passes": passes,
            "dims": dims,
            "index_major": index_major,
        },
    )


def lde_cost(
    log_n_in: int,
    rate_bits: int,
    batch: int,
    hw: HwConfig,
    name: str = "lde",
    tile_log2: int | None = None,
    dims_per_pass: int | None = None,
) -> KernelCost:
    """Cost of low-degree extension: iNTT at ``n`` then NTT^NR at ``kn``."""
    intt_part = ntt_cost(
        log_n_in, batch, hw, name=f"{name}.intt",
        tile_log2=tile_log2, dims_per_pass=dims_per_pass,
    )
    ntt_part = ntt_cost(
        log_n_in + rate_bits, batch, hw, name=f"{name}.ntt",
        tile_log2=tile_log2, dims_per_pass=dims_per_pass,
    )
    return KernelCost(
        name=name,
        kind=KIND_NTT,
        compute_cycles=intt_part.compute_cycles + ntt_part.compute_cycles,
        mem_bytes=intt_part.mem_bytes + ntt_part.mem_bytes,
        mem_efficiency=NTT_MEM_EFFICIENCY,
        mult_ops=intt_part.mult_ops + ntt_part.mult_ops,
        detail={"log_n_in": log_n_in, "rate_bits": rate_bits, "batch": batch},
    )
