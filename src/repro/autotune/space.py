"""Candidate enumeration: the mapping points the search may try.

One :class:`CandidateSpace` per kernel family.  Enumeration is cheap
and deterministic; the *default* mapping is always the first candidate
of every family, so a search in which nothing beats it returns the
static compiler's mapping.

Candidates carry two kinds of cheap rejection evidence, both consulted
before any simulation:

* structural validity (:meth:`MappingParams.invalid_reasons` -- e.g. an
  NTT tile whose delay registers overflow the PE register file);
* a PE-grid microcode factory (``built_schedule``) for candidates that
  change the emitted schedule, which the search runs through the static
  sanitizer (:mod:`repro.analysis.sanitizer`).  The ``sparse-12x3-ii1``
  Poseidon scheme is the deliberate example: nominally faster, but its
  initiation-interval-1 S-box pipeline double-drives the down latch,
  so the sanitizer rejects it without costing a single simulated cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..analysis.schedules import sample_values
from ..mapping.microcode_schedules import BuiltSchedule, build_sbox_pipeline
from ..mapping.params import (
    DEFAULT_MAPPING,
    MappingParams,
    MerkleMapping,
    NttMapping,
    PolyMapping,
    PoseidonMapping,
)
from ..mapping.poseidon_mapping import ROUND_SCHEMES

#: Kernel families the autotuner searches, in canonical order.
FAMILIES = ("ntt", "poseidon", "merkle", "poly")


@dataclass(frozen=True)
class Candidate:
    """One enumerable mapping point for one kernel family."""

    family: str
    label: str
    #: Full mapping point: the family's knob applied over the defaults.
    params: MappingParams
    #: Factory for the PE-grid schedule this candidate would emit, when
    #: it differs from the shipped microcode (sanitized pre-simulation).
    built_schedule: Optional[Callable[[], BuiltSchedule]] = field(
        default=None, compare=False
    )


@dataclass(frozen=True)
class CandidateSpace:
    """All candidates of one family (default first)."""

    family: str
    candidates: Tuple[Candidate, ...]

    def __len__(self) -> int:
        return len(self.candidates)


def ntt_space() -> CandidateSpace:
    """SAM decomposition shapes: tile exponent x dimensions per pass."""
    cands: List[Candidate] = [
        Candidate("ntt", "ntt:default", DEFAULT_MAPPING)
    ]
    for tile in (3, 4, 5, 6, 7, 8):
        for dims in (None, 1, 2):
            mapping = DEFAULT_MAPPING.with_family(
                "ntt", NttMapping(tile_log2=tile, dims_per_pass=dims)
            )
            label = f"ntt:tile{tile}" + ("" if dims is None else f"+dims{dims}")
            cands.append(Candidate("ntt", label, mapping))
    return CandidateSpace("ntt", tuple(cands))


def poseidon_space() -> CandidateSpace:
    """Round schemes, each with the microcode it would emit."""
    cands: List[Candidate] = []
    # Default scheme first, then the alternatives in name order.
    names = sorted(ROUND_SCHEMES, key=lambda s: (s != "sparse-12x3", s))
    for name in names:
        scheme = ROUND_SCHEMES[name]
        mapping = DEFAULT_MAPPING.with_family("poseidon", PoseidonMapping(scheme=name))

        def _factory(ii: int = scheme.sbox_ii) -> BuiltSchedule:
            return build_sbox_pipeline(sample_values(5, 3), post_constant=977, ii=ii)

        cands.append(
            Candidate("poseidon", f"poseidon:{name}", mapping, built_schedule=_factory)
        )
    return CandidateSpace("poseidon", tuple(cands))


def merkle_space() -> CandidateSpace:
    """Subtree tiling factors (0 = largest subtree that fits)."""
    cands = [
        Candidate(
            "merkle",
            f"merkle:div{div}",
            DEFAULT_MAPPING.with_family("merkle", MerkleMapping(subtree_div_log2=div)),
        )
        for div in (0, 1, 2)
    ]
    return CandidateSpace("merkle", tuple(cands))


def poly_space() -> CandidateSpace:
    """Element-wise chain splits (1 = fully fused)."""
    cands = [
        Candidate(
            "poly",
            f"poly:split{split}",
            DEFAULT_MAPPING.with_family("poly", PolyMapping(chain_split=split)),
        )
        for split in (1, 2, 4, 8)
    ]
    return CandidateSpace("poly", tuple(cands))


def candidate_spaces() -> Tuple[CandidateSpace, ...]:
    """Every family's space, in canonical family order."""
    return (ntt_space(), poseidon_space(), merkle_space(), poly_space())
