"""Shipped PE-grid schedules, as sanitizer specs.

The analysis runner sanitizes every schedule the compiler backend ships
(:mod:`repro.mapping.microcode_schedules`) without executing a single
emulated cycle.  Instances are small and fully deterministic -- the
proving-path lint rules apply to this module too, so no ``random``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..field import goldilocks as gl
from ..mapping.microcode_schedules import (
    BuiltSchedule,
    build_matvec,
    build_reverse_dot,
    build_sbox_pipeline,
    build_vector_mac,
)
from .sanitizer import ScheduleSpec, spec_for_emulator


def sample_values(n: int, seed: int) -> list:
    """Deterministic, well-spread field elements (no RNG in this path)."""
    return [gl.canonical((seed + 1) * 0x9E37_79B9_7F4A_7C15 * (i + 1)) for i in range(n)]


def spec_of(built: BuiltSchedule) -> ScheduleSpec:
    """The sanitizer's view of one built PE-grid schedule."""
    return spec_for_emulator(
        built.emu,
        built.programs,
        built.left_inputs,
        built.top_inputs,
        built.num_cycles,
        name=built.name,
    )


def shipped_schedules() -> Iterator[BuiltSchedule]:
    """Build one representative instance of every shipped schedule."""
    weights = np.array(
        [sample_values(6, 10 + r) for r in range(6)], dtype=np.uint64
    )
    states = np.array([sample_values(6, 20 + s) for s in range(4)], dtype=np.uint64)
    yield build_matvec(weights, states)
    yield build_sbox_pipeline(sample_values(5, 3), post_constant=977)
    yield build_reverse_dot(sample_values(12, 4), sample_values(12, 5))
    yield build_vector_mac(sample_values(30, 6), sample_values(30, 7), sample_values(30, 8))


def shipped_specs() -> Iterator[ScheduleSpec]:
    """Sanitizer specs for every shipped schedule."""
    for built in shipped_schedules():
        yield spec_of(built)
