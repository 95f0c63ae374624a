"""Per-shape Plonk prover plans: precomputed tables + reusable workspaces.

The Plonk analogue of :mod:`repro.stark.plan`: a :class:`PlonkPlan`
gathers everything the prover would otherwise re-derive on every proof
of an ``(n, rate_bits)`` circuit shape:

* the coset evaluation points over the LDE domain;
* the vanishing-polynomial inverses ``1 / Z_H(x)`` and the first
  Lagrange basis polynomial ``L_1(x)`` on the coset;
* the permutation-argument position labels ``k_j * omega^i``;
* the NTT twiddles, fused Poseidon tensors and FRI fold weights
  (touched once by :meth:`PlonkPlan.warm`);
* one :class:`repro.field.gl64.Workspace` arena threaded through every
  commitment and the FRI call.

Plans are keyed on the domain shape only, so every circuit of one size
shares a plan -- the service batches many circuits of one workload onto
one warm plan, mirroring the paper's batched-kernel amortisation.
Plans are NOT thread-safe (the arena is reused mutably per proof);
:func:`plan_for` hands out thread-local instances.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np

from ..field import gl64, goldilocks as gl
from ..fri import prover as fri_prover
from ..hashing import optimized
from ..metrics import GLOBAL as _METRICS
from ..ntt import transforms
from ..tunables import PlanTuning
from .permutation import id_values


class PlonkPlan:
    """Precomputed state for proving circuits of one domain shape."""

    def __init__(self, n: int, rate_bits: int) -> None:
        if n & (n - 1) or n <= 0:
            raise ValueError("circuit size must be a power of two")
        self.n = n
        self.rate_bits = rate_bits
        self.n_lde = n << rate_bits
        self.log_lde = self.n_lde.bit_length() - 1
        self.ws = gl64.Workspace()
        #: Coset points g * omega^i over the LDE domain (read-only).
        self.xs = fri_prover.lde_points(self.log_lde)
        blowup = 1 << rate_bits
        omega_lde = gl.primitive_root_of_unity(self.log_lde)
        # x^n on the coset cycles with period `blowup`.
        cycle = gl64.mul(
            gl64.powers(gl.pow_mod(omega_lde, n), blowup),
            np.uint64(gl.pow_mod(gl.coset_shift(), n)),
        )
        zh = np.tile(gl64.sub(cycle, np.uint64(1)), n)
        #: 1 / Z_H(x) on the LDE coset (read-only).
        self.zh_inv = gl64.inv_fast(zh)
        self.zh_inv.flags.writeable = False
        #: L_1(x) = (x^n - 1) / (n (x - 1)) on the LDE coset (read-only).
        denom = gl64.mul(gl64.sub(self.xs, np.uint64(1)), np.uint64(n))
        self.lagrange_first = gl64.mul(zh, gl64.inv_fast(denom))
        self.lagrange_first.flags.writeable = False
        #: Permutation position labels k_j * omega^i, shape (3, n)
        #: (read-only).
        self.ids = id_values(n)
        self.ids.flags.writeable = False
        self.omega = gl.primitive_root_of_unity(n.bit_length() - 1)
        #: Software tuning the prover applies for this shape (``None``
        #: = heuristic defaults; filled in by :func:`plan_for` from the
        #: tuning cache when the plan tuner has a stored winner).
        self.tuning: Optional[PlanTuning] = None

    def warm(self) -> "PlonkPlan":
        """Touch every lazily-built table the hot path will need.

        Builds the NTT stage twiddles and bit-reverse permutations for
        the subgroup and LDE domains, the fused Poseidon round tensors,
        and the FRI fold weights for every fold the config could run.
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

#: Per-thread plan-cache capacity (see :mod:`repro.stark.plan`).
PLAN_CACHE_CAP = 8


def plan_for(n: int, rate_bits: int) -> PlonkPlan:
    """Return this thread's (warmed) plan for a circuit shape.

    Keyed on ``(n, rate_bits)``; repeated proofs of one shape -- the
    service's cached-circuit path in particular -- share tables and
    workspaces.  The cache holds at most :data:`PLAN_CACHE_CAP` plans
    per thread, evicting least-recently-used shapes (counted in
    ``metrics.GLOBAL.plan_evictions``).
    """
    cache: OrderedDict[Tuple[int, int], PlonkPlan] = getattr(_LOCAL, "plans", None)
    if cache is None:
        cache = OrderedDict()
        _LOCAL.plans = cache
    key = (n, rate_bits)
    plan = cache.get(key)
    if plan is None:
        plan = PlonkPlan(n, rate_bits).warm()
        plan.tuning = _cached_tuning(n, rate_bits)
        cache[key] = plan
        while len(cache) > PLAN_CACHE_CAP:
            cache.popitem(last=False)
            _METRICS.plan_evictions += 1
    else:
        cache.move_to_end(key)
    return plan


def _cached_tuning(n: int, rate_bits: int) -> Optional[PlanTuning]:
    """Stored plan-tuner winner for this shape, or ``None`` (lazy
    import: the plan tuner drives the prover, which builds plans here).
    """
    try:
        from ..autotune.plan_tuner import cached_tuning

        return cached_tuning("plonk", n, rate_bits)
    except Exception:
        return None
