"""Software-prover tuning knobs (the :class:`PlanTuner` search space).

These knobs change *how* the numpy prover computes, never *what* it
computes: every setting produces bit-identical field elements, digests
and perf counters.  They only move wall-clock time, which is why the
plan tuner can search them against measured timings without touching
the proof-system goldens.

Knobs (``0`` means "keep the built-in heuristic" for the chunking
knobs, "never" for the crossover):

``scalar_batch_limit``
    Poseidon batch size at or below which ``permute_into`` uses the
    scalar per-state loop instead of the vectorised path
    (:mod:`repro.hashing.optimized`); ``0`` always vectorises.
``ntt_row_block``
    Block the leading (batch) axis of the in-place NTT butterfly loops
    into chunks of this many rows, trading loop overhead against cache
    footprint (:mod:`repro.ntt.transforms`).
``leaf_hash_chunk``
    Hash Merkle leaves in row chunks of this size instead of one giant
    batch (:mod:`repro.hashing.sponge`), bounding the transient arrays.

The active tuning travels via a :class:`contextvars.ContextVar`, so
``with tunables.applied(plan.tuning):`` scopes it to one proof without
threading a parameter through every call site.  This module is
deliberately stdlib-only: the hashing/NTT hot paths import it, and it
must never import them back.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, Optional


@dataclass(frozen=True)
class PlanTuning:
    """One point of the software tuning space (defaults = heuristics)."""

    scalar_batch_limit: int = 8
    ntt_row_block: int = 0
    leaf_hash_chunk: int = 0

    def __post_init__(self) -> None:
        if self.scalar_batch_limit < 0:
            raise ValueError(
                f"scalar_batch_limit must be >= 0, got {self.scalar_batch_limit}"
            )
        if self.ntt_row_block < 0:
            raise ValueError(
                f"ntt_row_block must be >= 0, got {self.ntt_row_block}"
            )
        if self.leaf_hash_chunk < 0:
            raise ValueError(
                f"leaf_hash_chunk must be >= 0, got {self.leaf_hash_chunk}"
            )

    def to_dict(self) -> Dict[str, int]:
        """JSON-safe form (stored in the tuning cache)."""
        return {
            "scalar_batch_limit": self.scalar_batch_limit,
            "ntt_row_block": self.ntt_row_block,
            "leaf_hash_chunk": self.leaf_hash_chunk,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PlanTuning":
        tuning = cls()
        known = {k: int(v) for k, v in data.items() if k in tuning.to_dict()}
        return replace(tuning, **known)


DEFAULT_TUNING = PlanTuning()

_ACTIVE: ContextVar[PlanTuning] = ContextVar("repro_plan_tuning", default=DEFAULT_TUNING)


def current() -> PlanTuning:
    """The tuning in effect for the current context."""
    return _ACTIVE.get()


@contextlib.contextmanager
def applied(tuning: Optional[PlanTuning]) -> Iterator[PlanTuning]:
    """Scope ``tuning`` to the enclosed block (``None`` = defaults)."""
    value = tuning if tuning is not None else DEFAULT_TUNING
    token = _ACTIVE.set(value)
    try:
        yield value
    finally:
        _ACTIVE.reset(token)
