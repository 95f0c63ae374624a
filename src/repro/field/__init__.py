"""Goldilocks field arithmetic: scalar reference, vectorised NumPy kernels,
quadratic extension, and small dense matrix algebra.

Public surface:

* :mod:`repro.field.goldilocks` -- scalar ops, roots of unity, constants.
* :mod:`repro.field.gl64` -- vectorised ops on ``uint64`` arrays.
* :mod:`repro.field.extension` -- GF(p^2) challenge arithmetic.
* :mod:`repro.field.gemm` -- exact float64 limb GEMMs, the one matrix
  primitive of Poseidon, the NTT, the FRI fold and the combine.
* :mod:`repro.field.matrix` -- exact matrices (Poseidon MDS machinery).
"""

from . import extension, gemm, gl64, goldilocks, matrix
from .goldilocks import P, TWO_ADICITY

__all__ = ["goldilocks", "gl64", "gemm", "extension", "matrix", "P", "TWO_ADICITY"]
