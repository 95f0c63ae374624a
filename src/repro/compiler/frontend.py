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

from ..workloads.base import PlonkParams, StarkParams
from .graph import ComputationGraph


#: Coefficients in the final FRI polynomial (Plonky2's default).
FRI_FINAL_POLY_LEN = 8


def fri_layers(lde_size: int, arity_bits: int) -> list[int]:
    """Sizes of the FRI commit-phase layers.

    Folding stops once a layer holds at most ``8 * FRI_FINAL_POLY_LEN``
    values.  The graph's ``fri.layer*`` nodes and the proof-size model
    (:mod:`repro.experiments.proof_size`) both read this one list.
    """
    sizes = []
    size = lde_size
    while size > FRI_FINAL_POLY_LEN * 8:
        sizes.append(size)
        size >>= arity_bits
    return sizes


def _fri_tail(
    g: ComputationGraph,
    p: PlonkParams | StarkParams,
    total_cols: int,
) -> None:
    """Append Prove Openings: combine, per layer a Merkle tree and a
    fold, grinding, then the query openings."""
    g.add("fri.combine", "poly_elementwise", stage="prove_openings",
          deps=["challenges.zeta"], vector_len=p.lde_size,
          num_ops=3 * total_cols + 12, num_operands=total_cols)
    layers = fri_layers(p.lde_size, p.fri_arity_bits)
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
        + (p.degree_bits + p.rate_bits + len(layers)) * 32
    )
    g.add("fri.queries", "query_io", stage="prove_openings",
          deps=["fri.pow"], bytes=query_bytes)


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
    _fri_tail(g, p, p.committed_columns)
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

    _fri_tail(g, p, p.width + p.quotient_width)
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
