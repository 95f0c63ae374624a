"""The per-shape prover plan: precomputed coset tables.

A :class:`DomainPlan` gathers everything a FRI-based prover (STARK or
Plonk) would otherwise re-derive on every proof over one
``(n, rate_bits)`` evaluation domain -- the software analogue of UniZK's
static, per-shape kernel-mapping preparation (paper Sections 4-5):

* built eagerly, because both protocols use them: the coset points, the
  vanishing-polynomial inverses ``1 / Z_H(x)`` and the subgroup
  generator;
* built on first use, then cached read-only: the STARK transition /
  boundary divisor inverses and constant-column LDEs, and Plonk's first
  Lagrange polynomial;
* touched once by :meth:`DomainPlan.warm`: the process-wide NTT
  weights and twiddles, fused Poseidon tables and FRI fold tables.

A plan is keyed on the domain shape only, so every trace or circuit of
one size -- whatever the protocol -- shares it; a service worker's
successive jobs of one shape run on one warm plan.  A plan holds
tables only: every scratch and stage buffer of a proof lives in the
thread's one arena, ``RUN.workspace``.  A plan fills its lazy tables
without a lock, so :func:`plan_for` draws plans from the calling
thread's ``RUN.plans`` (:mod:`repro.context`).
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict

import numpy as np

from ..context import RUN, lru
from ..field import gl64, goldilocks as gl
from ..hashing import optimized
from ..ntt import transforms
from . import prover as fri_prover
from .config import FRI_ARITY_BITS


class DomainPlan:
    """Precomputed state for proving over one ``(n, rate_bits)`` domain."""

    def __init__(self, n: int, rate_bits: int) -> None:
        if n & (n - 1) or n <= 0:
            raise ValueError("domain size must be a power of two")
        self.n = n
        self.rate_bits = rate_bits
        self.n_lde = n << rate_bits
        self.log_lde = self.n_lde.bit_length() - 1
        #: Coset points g * omega^i over the LDE domain (read-only).
        self.xs = fri_prover.lde_points(self.log_lde)
        # x^n on the coset cycles with period `blowup`.
        cycle = gl64.mul(
            gl64.powers(
                gl.pow_mod(gl.primitive_root_of_unity(self.log_lde), n), 1 << rate_bits
            ),
            np.uint64(gl.pow_mod(gl.coset_shift(), n)),
        )
        #: 1 / Z_H(x) on the LDE coset (read-only).
        self.zh_inv = _frozen(
            gl64.inv_fast(np.tile(gl64.sub(cycle, np.uint64(1)), n))
        )
        self.omega = gl.primitive_root_of_unity(n.bit_length() - 1)
        self._boundary_inv: Dict[int, np.ndarray] = {}
        self._const_ldes: Dict[bytes, np.ndarray] = {}

    @cached_property
    def transition_div_inv(self) -> np.ndarray:
        """``(x - omega^(n-1)) / Z_H(x)``: the STARK transition divisor
        inverse over the LDE coset (read-only)."""
        last = np.uint64(gl.pow_mod(self.omega, self.n - 1))
        return _frozen(gl64.mul(self.zh_inv, gl64.sub(self.xs, last)))

    @cached_property
    def lagrange_first(self) -> np.ndarray:
        """Plonk's ``L_1(x) = (x^n - 1) / (n (x - 1))`` over the LDE
        coset (read-only)."""
        denom = gl64.mul(gl64.sub(self.xs, np.uint64(1)), np.uint64(self.n))
        return _frozen(gl64.inv_fast(gl64.mul(self.zh_inv, denom)))

    def boundary_inverse(self, row: int) -> np.ndarray:
        """Cached ``1 / (x - omega^row)`` over the LDE coset (read-only)."""
        row = row % self.n
        cached = self._boundary_inv.get(row)
        if cached is None:
            point = np.uint64(gl.pow_mod(self.omega, row))
            cached = _frozen(gl64.inv_fast(gl64.sub(self.xs, point)))
            self._boundary_inv[row] = cached
        return cached

    def const_lde(self, const_cols: np.ndarray) -> np.ndarray:
        """Cached LDE of public constant columns, keyed by content."""
        key = const_cols.tobytes()
        cached = self._const_ldes.get(key)
        if cached is None:
            cached = _frozen(transforms.lde(const_cols, self.rate_bits))
            self._const_ldes[key] = cached
        return cached

    def warm(self) -> "DomainPlan":
        """Touch every process-wide table the hot path will need.

        Builds the NTT engine's DFT weights and twiddles for the
        transforms a prove runs over this domain (the iNTT of the
        subgroup values, the LDE and the quotient's coset iNTT), the
        Poseidon tables (full layers and the partial block's lane-0
        chain, as limb-GEMM weights and as the scalar path's packed
        ints), and the FRI fold tables -- arity-2 weights and every
        one-step arity the schedule can take -- for every fold the
        config could run, so the first proof through the plan pays no
        one-time costs.
        """
        shift = gl.coset_shift()
        transforms._levels(self.n.bit_length() - 1, 1, True)
        transforms._levels(self.log_lde, shift, False)
        transforms._levels(self.log_lde, shift, True)
        optimized._fused_tables()
        optimized._scalar_tables()
        for log_n in range(self.log_lde, 1, -1):
            fri_prover.fold_weights(log_n, int(shift))
            if 1 << log_n >= fri_prover._FOLD_GEMM_VALUES:
                for bits in range(2, min(FRI_ARITY_BITS, log_n) + 1):
                    fri_prover.fold_tables(log_n, int(shift), bits)
            shift = gl.mul(shift, shift)
        return self


def _frozen(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


#: Per-thread plan-cache capacity.  Plans pin their coset-sized tables,
#: so the cache is LRU-bounded; evictions are counted in
#: :class:`repro.metrics.Counters` (``plan_evictions``).
PLAN_CACHE_CAP = 8


def plan_for(n: int, rate_bits: int) -> DomainPlan:
    """Return this thread's (warmed) plan for a domain shape.

    Keyed on ``(n, rate_bits)``; repeated proofs of one shape -- of
    either protocol, a service worker's successive jobs in particular --
    share tables.  The cache holds at most
    :data:`PLAN_CACHE_CAP` plans per thread, evicting least-recently-used
    shapes.
    """
    plan, evicted = lru(
        RUN.plans, (n, rate_bits), PLAN_CACHE_CAP, lambda: DomainPlan(n, rate_bits).warm()
    )
    RUN.counters.plan_evictions += evicted
    return plan
