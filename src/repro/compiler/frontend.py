"""Compiler frontend: protocol flows -> computation graphs (Figure 7).

Expands Plonky2 / Starky proof generation into the kernel-node sequence
the paper's Figure 7 sketches: *Wires Commitment* (iNTT, LDE-NTT,
Merkle), *Get Challenges* (hash), *Partial Products* (poly + commit),
*Quotient* (gate evaluation + commit), and *Prove Openings*
(FRI combine, folds, layer commits, grinding, queries).

Counts are derived from the protocol structure -- the same structure our
functional provers execute -- evaluated at paper-scale parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from ..fri.config import FRI_ARITY_BITS
from ..merkle import merkle_permutation_count
from .graph import ComputationGraph


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


def _fri_layers(lde_size: int, arity_bits: int, final_len: int = 8) -> list[int]:
    """Sizes of the FRI commit-phase layers."""
    sizes = []
    size = lde_size
    while size > final_len * 8:
        sizes.append(size)
        size >>= arity_bits
    return sizes


def trace_plonky2(p: PlonkParams) -> ComputationGraph:
    """Build the Plonky2 proof-generation graph at paper scale."""
    g = ComputationGraph(f"plonky2/{p.name}")
    n_bits, lde_bits = p.degree_bits, p.degree_bits + p.rate_bits

    # -- Wires Commitment (Figure 7, first node) --
    wires_cols = p.width + p.salt_width
    g.add("wires.lde", "lde", stage="wires_commitment",
          batch=wires_cols, log_n=n_bits, rate_bits=p.rate_bits)
    g.add("wires.transpose", "transform", stage="wires_commitment",
          deps=["wires.lde"], bytes=p.lde_size * wires_cols * 8)
    g.add("wires.merkle", "merkle", stage="wires_commitment",
          deps=["wires.transpose"], leaves=p.lde_size, width=wires_cols)

    # -- Get Challenges (beta, gamma) --
    g.add("challenges.bg", "hash_misc", stage="get_challenges",
          deps=["wires.merkle"], perms=8)

    # -- Partial products / Z commitment --
    g.add("zs.partial_products", "poly_pp", stage="partial_products",
          deps=["challenges.bg"], rows=p.n, wires=p.width)
    g.add("zs.lde", "lde", stage="partial_products",
          deps=["zs.partial_products"], batch=p.zs_columns, log_n=n_bits,
          rate_bits=p.rate_bits)
    g.add("zs.merkle", "merkle", stage="partial_products",
          deps=["zs.lde"], leaves=p.lde_size, width=p.zs_columns)
    g.add("challenges.alpha", "hash_misc", stage="get_challenges",
          deps=["zs.merkle"], perms=4)

    # -- Quotient polynomial --
    g.add("quotient.gate_eval", "poly_gate", stage="quotient",
          deps=["challenges.alpha"], lde_size=p.lde_size,
          ops_per_row=p.gate_ops_factor * p.width, width=p.width)
    g.add("quotient.copy_blend", "poly_elementwise", stage="quotient",
          deps=["quotient.gate_eval"], vector_len=p.lde_size,
          num_ops=8 * 3 + 6, num_operands=2 * p.width + p.zs_columns)
    g.add("quotient.intt", "intt", stage="quotient",
          deps=["quotient.copy_blend"], batch=2 * p.num_challenges, log_n=lde_bits)
    g.add("quotient.lde", "lde", stage="quotient",
          deps=["quotient.intt"], batch=p.quotient_columns, log_n=n_bits,
          rate_bits=p.rate_bits)
    g.add("quotient.merkle", "merkle", stage="quotient",
          deps=["quotient.lde"], leaves=p.lde_size, width=p.quotient_columns)
    g.add("challenges.zeta", "hash_misc", stage="get_challenges",
          deps=["quotient.merkle"], perms=4)

    # -- Prove Openings: FRI --
    total_cols = p.committed_columns
    g.add("fri.combine", "poly_elementwise", stage="prove_openings",
          deps=["challenges.zeta"], vector_len=p.lde_size,
          num_ops=3 * total_cols + 12, num_operands=total_cols)
    layers = _fri_layers(p.lde_size, p.fri_arity_bits)
    prev = "fri.combine"
    for i, size in enumerate(layers):
        leaf_width = 2 << p.fri_arity_bits  # arity cosets of extension values
        g.add(f"fri.layer{i}.merkle", "merkle", stage="prove_openings",
              deps=[prev], leaves=size >> p.fri_arity_bits, width=leaf_width)
        g.add(f"fri.layer{i}.fold", "poly_elementwise", stage="prove_openings",
              deps=[f"fri.layer{i}.merkle"], vector_len=size,
              num_ops=9, num_operands=3)
        prev = f"fri.layer{i}.fold"
    g.add("fri.pow", "hash_misc", stage="prove_openings",
          deps=[prev], perms=1 << p.pow_bits)
    query_bytes = p.num_queries * (
        total_cols * 8
        + len(layers) * (2 << p.fri_arity_bits) * 8
        + (lde_bits + len(layers)) * 32
    )
    g.add("fri.queries", "query_io", stage="prove_openings",
          deps=["fri.pow"], bytes=query_bytes)
    return g


def trace_starky(p: StarkParams) -> ComputationGraph:
    """Build the Starky base-proof graph at paper scale."""
    g = ComputationGraph(f"starky/{p.name}")
    n_bits = p.degree_bits

    g.add("trace.lde", "lde", stage="trace_commitment",
          batch=p.width, log_n=n_bits, rate_bits=p.rate_bits)
    g.add("trace.transpose", "transform", stage="trace_commitment",
          deps=["trace.lde"], bytes=p.lde_size * p.width * 8)
    g.add("trace.merkle", "merkle", stage="trace_commitment",
          deps=["trace.transpose"], leaves=p.lde_size, width=p.width)
    g.add("challenges.alpha", "hash_misc", stage="get_challenges",
          deps=["trace.merkle"], perms=4)

    g.add("quotient.constraints", "poly_gate", stage="quotient",
          deps=["challenges.alpha"], lde_size=p.lde_size,
          ops_per_row=p.constraint_ops_factor * p.width, width=p.width)
    g.add("quotient.intt", "intt", stage="quotient",
          deps=["quotient.constraints"], batch=2, log_n=n_bits + p.rate_bits)
    g.add("quotient.lde", "lde", stage="quotient",
          deps=["quotient.intt"], batch=p.quotient_width, log_n=n_bits,
          rate_bits=p.rate_bits)
    g.add("quotient.merkle", "merkle", stage="quotient",
          deps=["quotient.lde"], leaves=p.lde_size, width=p.quotient_width)
    g.add("challenges.zeta", "hash_misc", stage="get_challenges",
          deps=["quotient.merkle"], perms=4)

    total_cols = p.width + p.quotient_width
    g.add("fri.combine", "poly_elementwise", stage="prove_openings",
          deps=["challenges.zeta"], vector_len=p.lde_size,
          num_ops=3 * total_cols + 12, num_operands=total_cols)
    layers = _fri_layers(p.lde_size, p.fri_arity_bits)
    prev = "fri.combine"
    for i, size in enumerate(layers):
        leaf_width = 2 << p.fri_arity_bits
        g.add(f"fri.layer{i}.merkle", "merkle", stage="prove_openings",
              deps=[prev], leaves=size >> p.fri_arity_bits, width=leaf_width)
        g.add(f"fri.layer{i}.fold", "poly_elementwise", stage="prove_openings",
              deps=[f"fri.layer{i}.merkle"], vector_len=size,
              num_ops=9, num_operands=3)
        prev = f"fri.layer{i}.fold"
    g.add("fri.pow", "hash_misc", stage="prove_openings",
          deps=[prev], perms=1 << p.pow_bits)
    query_bytes = p.num_queries * (
        total_cols * 8
        + len(layers) * (2 << p.fri_arity_bits) * 8
        + (n_bits + p.rate_bits + len(layers)) * 32
    )
    g.add("fri.queries", "query_io", stage="prove_openings",
          deps=["fri.pow"], bytes=query_bytes)
    return g


#: The fixed-shape Plonky2 circuit that verifies another proof
#: (recursive aggregation, paper Table 5): Plonky2's recursive verifier
#: circuit has a fixed degree (~2^15 rows with standard gate sets)
#: regardless of the inner statement, so the aggregation stage costs the
#: same for every application.
RECURSION_PARAMS = PlonkParams(name="recursive", degree_bits=15, width=135)


def trace_recursive_plonky2() -> ComputationGraph:
    """Graph of one recursive aggregation step (fixed-size circuit)."""
    return trace_plonky2(RECURSION_PARAMS)
