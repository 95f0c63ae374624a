"""Analytic proof-size models (paper Table 5's "Size" column).

Sizes model Plonky2's and Starky's proof format, which is the paper's:
Merkle caps, claimed openings, per-query initial leaves +
authentication paths, per-layer coset openings + paths, the final
polynomial, and the grinding witness -- evaluated at paper-scale
parameters (cap height 4, folding arity 8, as Plonky2/Starky configure
them).  The per-query path prices are kept on purpose: they are what
Plonky2's own format sends, and Table 5 compares with it.  This repo's
own FRI proofs are smaller than this model at the same parameters:
they open each tree once as a shared-path multiproof
(:class:`repro.merkle.TreeOpening`), so the nodes near each cap are
sent once per tree rather than once per query, and their leaf layout
is priced by that expected size instead
(:func:`repro.fri.config.fri_layout`).
"""

from __future__ import annotations

from ..compiler import PlonkParams, StarkParams
from ..compiler.frontend import FRI_FINAL_POLY_LEN, fri_layers

#: Bytes per field element / digest.
ELEM = 8
DIGEST = 32
#: Plonky2/Starky default Merkle cap height at paper scale.
CAP_HEIGHT = 4


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
    # Layer openings: arity-wide coset of extension values + path in the
    # tree over the folded layer.
    coset = (1 << arity_bits) * 2 * ELEM
    for size in fri_layers(1 << lde_bits, arity_bits):
        folded_bits = (size >> arity_bits).bit_length() - 1
        total += coset + max(0, folded_bits - CAP_HEIGHT) * DIGEST
    return total


def _fri_common_bytes(lde_bits: int, arity_bits: int, num_trees: int) -> int:
    """Merkle caps (one per committed tree and per FRI layer), final
    polynomial, grinding witness."""
    layers = len(fri_layers(1 << lde_bits, arity_bits))
    caps = (num_trees + layers) * (1 << CAP_HEIGHT) * DIGEST
    final_poly = FRI_FINAL_POLY_LEN * 2 * ELEM
    return caps + final_poly + ELEM


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
