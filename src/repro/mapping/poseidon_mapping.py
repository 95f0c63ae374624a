"""Poseidon hash mapping (paper Section 5.2, Figure 5).

Functional emulators for the three round schemes -- validated against
the reference permutation -- plus the per-permutation cost constants the
hash/Merkle cycle models use.

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..field import gl64, goldilocks as gl
from ..hashing.constants import WIDTH, mds_matrix, round_constants
from ..hashing.optimized import SparseRound, optimized_params
from ..hashing.poseidon import FULL_ROUNDS, HALF_FULL, apply_mds, full_round, permute_naive
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


def emulate_sbox_chain(x: int) -> int:
    """The 4-PE S-box chain: ``a=x^2; b=a^2; c=b*a; out=c*x``.

    Each step is one PE's multiplier; ``x`` rides the systolic link
    alongside the partials.  Equals ``x**7``.
    """
    a = gl.mul(x, x)
    b = gl.mul(a, a)
    c = gl.mul(b, a)
    return gl.mul(c, x)


def emulate_full_round_region(states: np.ndarray, round_index: int) -> np.ndarray:
    """Emulate the 12x8 folded full-round region on a batch of states.

    Stage 1 (rows of S-box chains): add the round constant and run the
    4-PE chain per lane.  Stage 2 (12x12 systolic, weight-stationary):
    multiply by the MDS matrix with partial sums accumulating down the
    columns.  Matches :func:`repro.hashing.poseidon.full_round`.
    """
    full_rc, _ = round_constants()
    rc = full_rc[round_index]
    states = np.atleast_2d(np.asarray(states, dtype=np.uint64))
    after_sbox = np.empty_like(states)
    for lane in range(WIDTH):
        for s in range(states.shape[0]):
            val = gl.add(int(states[s, lane]), int(rc[lane]))
            after_sbox[s, lane] = emulate_sbox_chain(val)
    # Weight-stationary systolic MDS: column j accumulates row partials.
    mds = mds_matrix()
    out = gl64.zeros(states.shape)
    for j in range(WIDTH):
        acc = gl64.zeros(states.shape[0])
        for i in range(WIDTH):
            acc = gl64.add(acc, gl64.mul(after_sbox[:, i], mds[i, j]))
        out[:, j] = acc
    return out


def emulate_partial_round_region(state: np.ndarray, rnd: SparseRound) -> np.ndarray:
    """Emulate the 12x3 partial-round scheme of Figure 5b for one state.

    Column 1 (top-down pipeline): S-box ``state[0]`` and add the round
    constant.  Column 2: the reverse links distribute the result to all
    rows while the ``v`` (col_hat) dot product accumulates bottom-up to
    the top PE, forming output lane 0.  Column 3: each row computes the
    scalar-vector multiply-add ``state[0] * u[j] + state[j]``.
    """
    state = np.asarray(state, dtype=np.uint64).reshape(WIDTH)
    # Column 1: scalar pipeline on lane 0.
    lane0 = gl.add(emulate_sbox_chain(int(state[0])), rnd.post_constant)
    # Column 2a: reverse links broadcast lane0 to every row.
    distributed = [lane0] * (WIDTH - 1)
    # Column 2b: dot product v . state[1:] accumulated bottom-up.
    acc = 0
    for i in range(WIDTH - 2, -1, -1):  # bottom row first, climbing up
        acc = gl.add(acc, gl.mul(int(state[i + 1]), int(rnd.col_hat[i])))
    out0 = gl.add(gl.mul(lane0, rnd.m00), acc)
    # Column 3: scalar-vector multiply-add per row.
    rest = [
        gl.add(gl.mul(distributed[j], int(rnd.row[j])), int(state[j + 1]))
        for j in range(WIDTH - 1)
    ]
    return np.array([out0] + rest, dtype=np.uint64)


def emulate_partial_rounds_match(state: np.ndarray) -> bool:
    """The 22 emulated partial-round regions, between the reference full
    rounds and the optimised pre-matrix, reproduce the naive permutation."""
    params = optimized_params()
    full_rc, _ = round_constants()
    start = np.asarray(state, dtype=np.uint64).reshape(1, WIDTH)
    s = start
    for r in range(HALF_FULL):
        s = full_round(s, full_rc[r])
    s = apply_mds(gl64.add(s, params.pre_constants), params.pre_matrix)[0]
    for rnd in params.rounds:
        s = emulate_partial_round_region(s, rnd)
    s = s[None, :]
    for r in range(HALF_FULL, FULL_ROUNDS):
        s = full_round(s, full_rc[r])
    return bool(np.array_equal(s, permute_naive(start)))


def emulate_full_round_matches(states: np.ndarray, round_index: int) -> bool:
    """The emulated full-round region equals the reference full round."""
    full_rc, _ = round_constants()
    ref = full_round(np.atleast_2d(np.asarray(states, dtype=np.uint64)), full_rc[round_index])
    return bool(np.array_equal(emulate_full_round_region(states, round_index), ref))


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
