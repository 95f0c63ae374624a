"""Per-shape prover plans: precomputed tables + reusable workspaces.

A :class:`ProverPlan` gathers everything the STARK + FRI provers would
otherwise re-derive on every proof of a ``(n, rate_bits)`` trace shape:

* the coset evaluation points and vanishing-polynomial inverses;
* the transition-divisor inverse and per-row boundary-divisor inverses;
* low-degree extensions of public constant columns (keyed by content);
* the NTT twiddle/bit-reverse tables, fused Poseidon matrices and FRI
  fold weights (touched once by :meth:`ProverPlan.warm`);
* one :class:`repro.field.gl64.Workspace` arena holding the NTT scratch,
  sponge states and Merkle level arenas for the whole proof.

This is the software analogue of UniZK's kernel-mapping preparation:
the plan is built once per shape and then shared by every job the
service batches onto it (paper Sections 4-5).  Plans are NOT
thread-safe -- the workspace arena is reused mutably per proof -- so
:func:`plan_for` hands out thread-local instances.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from ..field import gl64, goldilocks as gl
from ..fri import prover as fri_prover
from ..hashing import optimized
from ..metrics import GLOBAL as _METRICS
from ..ntt import transforms
from ..tunables import PlanTuning


class ProverPlan:
    """Precomputed state for proving traces of one shape."""

    def __init__(self, n: int, rate_bits: int) -> None:
        if n & (n - 1) or n <= 0:
            raise ValueError("trace length must be a power of two")
        self.n = n
        self.rate_bits = rate_bits
        self.n_lde = n << rate_bits
        self.log_lde = self.n_lde.bit_length() - 1
        self.ws = gl64.Workspace()
        #: Coset points g * omega^i over the LDE domain (read-only).
        self.xs = fri_prover.lde_points(self.log_lde)
        blowup = 1 << rate_bits
        omega_lde = gl.primitive_root_of_unity(self.log_lde)
        cycle = gl64.mul(
            gl64.powers(gl.pow_mod(omega_lde, n), blowup),
            np.uint64(gl.pow_mod(gl.coset_shift(), n)),
        )
        #: 1 / Z_H(x) on the LDE coset (read-only).
        self.zh_inv = gl64.inv_fast(np.tile(gl64.sub(cycle, np.uint64(1)), n))
        self.zh_inv.flags.writeable = False
        self.omega = gl.primitive_root_of_unity(n.bit_length() - 1)
        #: Z_H(x)^-1 * (x - omega^(n-1)): the transition divisor inverse.
        self.transition_div_inv = gl64.mul(
            self.zh_inv, gl64.sub(self.xs, np.uint64(gl.pow_mod(self.omega, n - 1)))
        )
        self.transition_div_inv.flags.writeable = False
        self._boundary_inv: Dict[int, np.ndarray] = {}
        self._const_ldes: Dict[bytes, np.ndarray] = {}
        #: Software tuning the prover applies for this shape (``None``
        #: = heuristic defaults; filled in by :func:`plan_for` from the
        #: tuning cache when the plan tuner has a stored winner).
        self.tuning: Optional[PlanTuning] = None

    def boundary_inverse(self, row: int) -> np.ndarray:
        """Cached ``1 / (x - omega^row)`` over the LDE coset (read-only)."""
        row = row % self.n
        cached = self._boundary_inv.get(row)
        if cached is None:
            point = gl.pow_mod(self.omega, row)
            cached = gl64.inv_fast(gl64.sub(self.xs, np.uint64(point)))
            cached.flags.writeable = False
            self._boundary_inv[row] = cached
        return cached

    def const_lde(self, const_cols: np.ndarray) -> np.ndarray:
        """Cached LDE of public constant columns, keyed by content."""
        key = const_cols.tobytes()
        cached = self._const_ldes.get(key)
        if cached is None:
            cached = transforms.lde(const_cols, self.rate_bits)
            cached.flags.writeable = False
            self._const_ldes[key] = cached
        return cached

    def warm(self) -> "ProverPlan":
        """Touch every lazily-built table the hot path will need.

        Builds the NTT stage twiddles and bit-reverse permutations for
        the trace and LDE domains, the fused Poseidon round tensors, and
        the FRI fold weights for every fold the config could run, so the
        first proof through the plan pays no one-time costs.
        """
        for log_n in (self.n.bit_length() - 1, self.log_lde):
            transforms.bit_reverse_indices(log_n)
            transforms._stage_twiddles(log_n, False)
            transforms._stage_twiddles(log_n, True)
        optimized._fused_tables()
        optimized._scalar_tables()
        shift = gl.coset_shift()
        for log_n in range(self.log_lde, 1, -1):
            fri_prover.fold_weights(log_n, int(shift))
            shift = gl.mul(shift, shift)
        return self

    def workspace_bytes(self) -> int:
        """Current size of the plan's scratch arena, in bytes."""
        return self.ws.nbytes()


_LOCAL = threading.local()

#: Per-thread plan-cache capacity.  Plans pin multi-megabyte workspace
#: arenas, so the cache is LRU-bounded; evictions are counted in
#: :data:`repro.metrics.GLOBAL` (``plan_evictions``).
PLAN_CACHE_CAP = 8


def plan_for(n: int, rate_bits: int) -> ProverPlan:
    """Return this thread's (warmed) plan for a trace shape.

    Keyed on ``(n, rate_bits)``; repeated proofs of one shape -- the
    service's batch path in particular -- share tables and workspaces.
    The cache holds at most :data:`PLAN_CACHE_CAP` plans per thread,
    evicting least-recently-used shapes.
    """
    cache: OrderedDict[Tuple[int, int], ProverPlan] = getattr(_LOCAL, "plans", None)
    if cache is None:
        cache = OrderedDict()
        _LOCAL.plans = cache
    key = (n, rate_bits)
    plan = cache.get(key)
    if plan is None:
        plan = ProverPlan(n, rate_bits).warm()
        plan.tuning = _cached_tuning(n, rate_bits)
        cache[key] = plan
        while len(cache) > PLAN_CACHE_CAP:
            cache.popitem(last=False)
            _METRICS.plan_evictions += 1
    else:
        cache.move_to_end(key)
    return plan


def _cached_tuning(n: int, rate_bits: int) -> Optional[PlanTuning]:
    """Stored plan-tuner winner for this shape, or ``None``.

    Imported lazily: the plan tuner drives the provers, which in turn
    build plans through this module.
    """
    try:
        from ..autotune.plan_tuner import cached_tuning

        return cached_tuning("stark", n, rate_bits)
    except Exception:
        return None
