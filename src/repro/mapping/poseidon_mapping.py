"""Poseidon hash mapping (paper Section 5.2, Figure 5).

The per-permutation cost constants the hash/Merkle cycle models use,
and the round schemes the autotuner chooses between.

Region budget per permutation (grid cells are PE-cycles at one state
per cycle):

* **full round**: a 4-PE S-box chain per lane (``x^7`` in 4 multiplies)
  plus the 12x12 weight-stationary MDS multiply = 12x16 PEs, folded
  onto a 12x8 region by running two consecutive operations per PE
  (2 cycles/state) -> 192 PE-cycles per round, 8 rounds;
* **pre-partial round**: constant add fused into the adders of the
  12x12 matrix multiply -> 144 PE-cycles;
* **partial round**: the 12x3 scheme of Figure 5b (S-box column,
  reverse-link distribute/accumulate column, scalar-vector column),
  four consecutive rounds per 12x12 array -> 36 PE-cycles per round,
  22 rounds, 145-cycle latency per 4-round block.

The sparse rounds are :func:`repro.hashing.sparse.optimized_params`;
the S-box column, the reverse-link dot and the MDS multiply run as
PE-grid microcode in :mod:`.microcode_schedules`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.config import HwConfig
from .base import KIND_HASH, KernelCost

#: PE-cycles one permutation occupies on the VSAs.
PERM_PE_CYCLES = 8 * 192 + 144 + 22 * 36  # = 2472
#: Modular multiplies per permutation (S-boxes, MDS, sparse rounds).
PERM_MULTS = 8 * 192 + 144 + 22 * 27  # = 2274
#: Pipeline latency of one 4-partial-round block (paper Section 5.2).
PARTIAL_BLOCK_LATENCY = 145


@dataclass(frozen=True)
class RoundScheme:
    """One way of laying the permutation's rounds onto the PE grid."""

    name: str
    #: PE-cycles one permutation occupies on the VSAs under this scheme.
    pe_cycles: int
    #: Modular multiplies per permutation.
    mults: int
    #: ``ii`` of the S-box pipeline microcode this scheme assumes
    #: (:func:`repro.mapping.microcode_schedules.build_sbox_pipeline`).
    sbox_ii: int = 2


#: Round schemes the mapper understands, keyed by name.
#:
#: * ``sparse-12x3`` -- the paper's Figure 5b scheme (the default):
#:   sparse partial rounds on a 12x3 region, S-box pipeline at
#:   initiation interval 2.
#: * ``dense-partial`` -- the naive scheme: every partial round pays a
#:   full 12x12 dense MDS multiply (144 PE-cycles) plus a 4-PE S-box
#:   chain; no pre-matrix.  Always valid, always slower -- the point the
#:   paper's Section 5.2 optimisation beats.
#: * ``sparse-12x3-ii1`` -- a hypothetical Figure 5b variant running the
#:   S-box pipeline at initiation interval 1 (half the partial-round
#:   cycles on paper).  Its microcode double-drives the down links, so
#:   the schedule sanitizer rejects it before it ever reaches the
#:   simulator -- the autotuner's cheap-rejection path.
ROUND_SCHEMES = {
    "sparse-12x3": RoundScheme("sparse-12x3", PERM_PE_CYCLES, PERM_MULTS, sbox_ii=2),
    "dense-partial": RoundScheme(
        "dense-partial", 8 * 192 + 22 * (144 + 4), 8 * 192 + 22 * (144 + 4)
    ),
    "sparse-12x3-ii1": RoundScheme(
        "sparse-12x3-ii1", 8 * 192 + 144 + 22 * 18, PERM_MULTS, sbox_ii=1
    ),
}

#: Sequential efficiency of level-order Merkle traffic.
HASH_MEM_EFFICIENCY = 0.85


def chip_perm_throughput(hw: HwConfig) -> float:
    """Sustained permutations per cycle across all VSAs."""
    return hw.total_pes / PERM_PE_CYCLES


def poseidon_cost(
    num_perms: float,
    hw: HwConfig,
    input_bytes: float = 0.0,
    output_bytes: float = 0.0,
    name: str = "poseidon",
    scheme: str = "sparse-12x3",
) -> KernelCost:
    """Cost of a batch of permutations plus its DRAM traffic.

    ``scheme`` names a :data:`ROUND_SCHEMES` entry (the autotuner's
    round-scheme knob); the default reproduces the static mapping.
    """
    try:
        sc = ROUND_SCHEMES[scheme]
    except KeyError:
        raise ValueError(
            f"unknown Poseidon round scheme {scheme!r} "
            f"(choose from: {', '.join(sorted(ROUND_SCHEMES))})"
        ) from None
    return KernelCost(
        name=name,
        kind=KIND_HASH,
        compute_cycles=num_perms * sc.pe_cycles / hw.total_pes,
        mem_bytes=input_bytes + output_bytes,
        mem_efficiency=HASH_MEM_EFFICIENCY,
        mult_ops=num_perms * sc.mults,
        detail={"perms": num_perms, "scheme": sc.name},
    )
