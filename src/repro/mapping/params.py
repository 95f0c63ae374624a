"""Mapping parameters: the per-kernel knobs the autotuner searches.

The paper's core claim (Sections 4-5) is that kernel *mappings* -- how
an NTT decomposes over the MDC pipelines, which Poseidon round scheme
the PE grid runs, how Merkle subtrees and polynomial op-chains tile onto
the scratchpad -- are flexible, not baked into the hardware.  This
module gives every such choice an explicit value: the ``mapping``
argument of :func:`repro.compiler.schedule` is the only way one reaches
the compiler, and :mod:`repro.autotune` searches over them.

A ``None`` field (or the family default) always reproduces the static
mapping the compiler shipped before the autotuner existed, bit for bit:
:data:`DEFAULT_MAPPING` is the identity point of the search space.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Optional

from ..hw.config import HwConfig

#: Poseidon round schemes the mapper understands (see
#: :data:`repro.mapping.poseidon_mapping.ROUND_SCHEMES`).
POSEIDON_SCHEME_DEFAULT = "sparse-12x3"


@dataclass(frozen=True)
class NttMapping:
    """SAM decomposition knobs for the batched NTT (Section 5.1).

    ``tile_log2`` overrides the per-dimension tile exponent (``None``
    uses ``hw.ntt_tile_log2``); ``dims_per_pass`` overrides how many
    decomposed dimensions one memory pass fuses (``None`` uses the
    scratchpad heuristic: 2 at >= 4 MB, else 1).
    """

    tile_log2: Optional[int] = None
    dims_per_pass: Optional[int] = None

    def invalid_reasons(self, hw: HwConfig) -> List[str]:
        """Cheap validity predicates, checked before any simulation."""
        reasons = []
        if self.tile_log2 is not None:
            if self.tile_log2 < 1:
                reasons.append("ntt.tile_log2 must be >= 1")
            # A 2**tile-point MDC pipeline's first stage delays 2**tile / 2
            # elements in one PE's register file: 2**tile / 2 <= pe_registers.
            elif (1 << self.tile_log2) // 2 > hw.pe_registers:
                reasons.append(
                    f"ntt.tile_log2={self.tile_log2} needs "
                    f"{(1 << self.tile_log2) // 2} delay registers per PE, "
                    f"register file holds {hw.pe_registers}"
                )
        if self.dims_per_pass is not None:
            if self.dims_per_pass not in (1, 2):
                reasons.append("ntt.dims_per_pass must be 1 or 2")
            elif self.dims_per_pass == 2 and hw.scratchpad_bytes < (4 << 20):
                reasons.append(
                    "ntt.dims_per_pass=2 needs >= 4 MB scratchpad for the "
                    "inter-dimension tiles"
                )
        return reasons


@dataclass(frozen=True)
class PoseidonMapping:
    """Which round scheme the hash kernels run (Section 5.2)."""

    scheme: str = POSEIDON_SCHEME_DEFAULT


@dataclass(frozen=True)
class MerkleMapping:
    """Merkle subtree tiling (Section 5.3).

    ``subtree_div_log2`` shrinks the scratchpad-sized subtree by that
    power of two; smaller subtrees mean more root-level DRAM round
    trips (0 = the largest subtree that fits, the static default).
    """

    subtree_div_log2: int = 0

    def invalid_reasons(self, hw: HwConfig) -> List[str]:
        """Cheap validity predicates, checked before any simulation."""
        if self.subtree_div_log2 < 0 or self.subtree_div_log2 > 8:
            return ["merkle.subtree_div_log2 must be in 0..8"]
        return []


@dataclass(frozen=True)
class PolyMapping:
    """Element-wise chain tiling (Section 5.4).

    ``chain_split`` breaks one fused operand chain into that many
    segments, spilling one intermediate vector between segments but
    shrinking the per-tile operand set (pays off only when the full set
    starves the scratchpad; 1 = fully fused, the static default).
    """

    chain_split: int = 1

    def invalid_reasons(self, hw: HwConfig) -> List[str]:
        """Cheap validity predicates, checked before any simulation."""
        if self.chain_split < 1 or self.chain_split > 16:
            return ["poly.chain_split must be in 1..16"]
        return []


@dataclass(frozen=True)
class MappingParams:
    """One point in the full kernel-mapping space."""

    ntt: NttMapping = field(default_factory=NttMapping)
    poseidon: PoseidonMapping = field(default_factory=PoseidonMapping)
    merkle: MerkleMapping = field(default_factory=MerkleMapping)
    poly: PolyMapping = field(default_factory=PolyMapping)

    def with_family(self, family: str, params) -> "MappingParams":
        """A copy with one kernel family's knobs replaced."""
        if family not in ("ntt", "poseidon", "merkle", "poly"):
            raise ValueError(f"unknown mapping family {family!r}")
        return replace(self, **{family: params})

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe nested form (``repro tune`` reports)."""
        return asdict(self)

    def invalid_reasons(self, hw: HwConfig) -> List[str]:
        """All validity violations of this point on ``hw``."""
        reasons = list(self.ntt.invalid_reasons(hw))
        reasons += self.merkle.invalid_reasons(hw)
        reasons += self.poly.invalid_reasons(hw)
        return reasons


#: The static mappings the compiler shipped before the autotuner: the
#: identity point every search starts from and must never regress.
DEFAULT_MAPPING = MappingParams()
