"""Polynomial commitment schemes (the pluggable commitment plane).

Univariate-FRI and multilinear commitment backends, interchangeable
behind protocol backends (see :mod:`repro.protocols`).
"""

from .base import PCS
from .fri import FriPCS
from .multilinear import MultilinearPCS, eq_at, eq_table

__all__ = [
    "PCS",
    "FriPCS",
    "MultilinearPCS",
    "eq_at",
    "eq_table",
]
