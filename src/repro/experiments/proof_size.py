"""Analytic proof-size models (paper Table 5's "Size" column).

Sizes model Plonky2's and Starky's proof format, which is the paper's:
Merkle caps, claimed openings, per-query initial leaves +
authentication paths, per-layer coset openings + paths, the final
polynomial, and the grinding witness -- evaluated at paper-scale
parameters (cap height 4, folding arity 8, as Plonky2/Starky configure
them).  This repo's own FRI proofs are smaller than this model at the
same parameters: they open each tree once as a shared-path multiproof
(:class:`repro.merkle.TreeOpening`), so the nodes near each cap are
sent once per tree rather than once per query.
"""

from __future__ import annotations

from math import ceil

from ..compiler import PlonkParams, StarkParams

#: Bytes per field element / digest.
ELEM = 8
DIGEST = 32
#: Plonky2/Starky default Merkle cap height at paper scale.
CAP_HEIGHT = 4
#: Coefficients in the final FRI polynomial.
FINAL_POLY_LEN = 8


def _fri_query_bytes(
    lde_bits: int,
    arity_bits: int,
    tree_widths: list[int],
) -> int:
    """Per-query bytes: initial openings + layer openings."""
    total = 0
    # Initial openings: one leaf + path per committed tree.
    path_len = max(0, lde_bits - CAP_HEIGHT)
    for width in tree_widths:
        total += width * ELEM + path_len * DIGEST
    # Layer openings: arity-wide coset of extension values + path.
    size_bits = lde_bits
    final_bits = (FINAL_POLY_LEN - 1).bit_length() + 3
    while size_bits > final_bits:
        size_bits -= arity_bits
        coset = (1 << arity_bits) * 2 * ELEM
        total += coset + max(0, size_bits - CAP_HEIGHT) * DIGEST
    return total


def _fri_common_bytes(lde_bits: int, arity_bits: int, num_trees: int) -> int:
    """Caps, final polynomial, grinding witness."""
    caps = num_trees * (1 << CAP_HEIGHT) * DIGEST
    layers = max(0, (lde_bits - 6) // arity_bits + 1)
    layer_caps = layers * (1 << CAP_HEIGHT) * DIGEST
    final_poly = FINAL_POLY_LEN * 2 * ELEM
    return caps + layer_caps + final_poly + ELEM


def plonk_proof_size(p: PlonkParams) -> int:
    """Estimated Plonky2 proof size in bytes."""
    lde_bits = p.degree_bits + p.rate_bits
    widths = [
        p.width + p.salt_width,  # wires
        p.zs_columns,  # Z / partial products
        p.quotient_columns,  # quotient chunks
        p.width + 8,  # preprocessed (sigmas + selectors)
    ]
    opened_values = (sum(widths) + p.zs_columns) * 2 * ELEM  # at zeta (+ zeta*g)
    per_query = _fri_query_bytes(lde_bits, p.fri_arity_bits, widths)
    return (
        _fri_common_bytes(lde_bits, p.fri_arity_bits, len(widths))
        + opened_values
        + p.num_queries * per_query
    )


def stark_proof_size(p: StarkParams) -> int:
    """Estimated Starky proof size in bytes."""
    lde_bits = p.degree_bits + p.rate_bits
    widths = [p.width, p.quotient_width]
    opened_values = (2 * p.width + p.quotient_width) * 2 * ELEM
    per_query = _fri_query_bytes(lde_bits, p.fri_arity_bits, widths)
    return (
        _fri_common_bytes(lde_bits, p.fri_arity_bits, len(widths))
        + opened_values
        + p.num_queries * per_query
    )
