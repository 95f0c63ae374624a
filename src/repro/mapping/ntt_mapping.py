"""NTT kernel mapping (paper Section 5.1, Figure 4).

:func:`ntt_cost` is the cycle/traffic model for variable-length batched
NTTs built from the SAM multi-dimensional decomposition.  Each
decomposed dimension of ``2**tile`` points runs on a multi-path delay
commutator (MDC) pipeline: one PE per butterfly stage, its register
file the stage's delay buffer (at most ``2**tile / 2`` words), at 2
elements/cycle.  Two decomposed dimensions share a memory pass (two
half-row pipelines chained through the transpose buffer),
inter-dimension twiddles come from the on-chip generator, and the final
constant multiply is fused into otherwise-idle PEs.  Index-major
layouts stream through the transpose buffer in parallel with compute,
so the layout does not change the cost (Section 5.1 "Data layouts").
"""

from __future__ import annotations

from math import ceil

from ..hw.config import HwConfig
from .base import KIND_NTT, KernelCost

#: Effective DRAM efficiency of the NTT's read+write streams.  Derived
#: from the Ramulator-lite model: pure sequential streams reach ~0.94,
#: but each pass interleaves a read stream and a write stream and the
#: last pass shuffles bit-reversed groups, landing around 0.55 -- which
#: reproduces the ~50% NTT memory utilisation of paper Table 4.
NTT_MEM_EFFICIENCY = 0.55


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
    tile_log2: int | None = None,
    dims_per_pass: int | None = None,
) -> KernelCost:
    """Cost of ``batch`` size-``2**log_n`` NTTs (forward or inverse).

    ``output_scale`` < 1 models iNTT-then-truncate patterns; LDE is
    modelled as an NTT at the *output* size (zero-padded input reads
    less, so traffic uses the true input/output sizes).  ``tile_log2`` /
    ``dims_per_pass`` are the autotuner's mapping knobs; ``None`` keeps
    the static defaults.
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
