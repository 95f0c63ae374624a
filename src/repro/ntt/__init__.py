"""NTT library: the natural-order and coset transforms the provers run,
batched over the last axis, over the Goldilocks field."""

from .transforms import (
    coset_intt,
    coset_intt_ext,
    coset_ntt,
    intt,
    lde,
    lde_coeffs,
    ntt,
)

__all__ = [
    "ntt",
    "intt",
    "coset_ntt",
    "coset_intt",
    "coset_intt_ext",
    "lde",
    "lde_coeffs",
]
