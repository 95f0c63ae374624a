"""UniZK hardware configuration (paper Section 4 / Section 6).

Default chip: 32 vector-systolic arrays of 12x12 PEs at 1 GHz, an 8 MB
double-buffered scratchpad, a 16x16 global transpose buffer, an
on-the-fly twiddle factor generator, and two HBM2e PHYs (~1 TB/s).
Every field is overridable for design-space exploration (Figure 10).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class HwConfig:
    """One point in UniZK's hardware design space."""

    #: Number of vector-systolic arrays.
    num_vsas: int = 32
    #: PE grid dimensions per VSA (sized for the Poseidon width of 12).
    vsa_rows: int = 12
    vsa_cols: int = 12
    #: Clock frequency in GHz.
    freq_ghz: float = 1.0
    #: Global scratchpad capacity in MB (double-buffered).
    scratchpad_mb: float = 8.0
    #: Peak off-chip bandwidth in GB/s (2 HBM2e PHYs).
    mem_bandwidth_gbps: float = 1000.0
    #: Transpose buffer dimension (b x b elements; paper uses b = 16).
    transpose_dim: int = 16
    #: Modular multipliers in the twiddle factor generator.
    twiddle_multipliers: int = 8
    #: PE register file capacity in 64-bit words.
    pe_registers: int = 64
    #: MDC pipeline tile size exponent: each half-row handles 2**5 NTTs.
    ntt_tile_log2: int = 5

    def __post_init__(self) -> None:
        # The autotuner sweeps these fields; nonsense points must fail
        # here with a typed error, not as silent downstream misbehavior.
        if self.num_vsas < 1 or self.vsa_rows < 1 or self.vsa_cols < 1:
            raise ValueError("VSA geometry must be positive")
        if self.freq_ghz <= 0 or self.mem_bandwidth_gbps <= 0:
            raise ValueError("frequency and bandwidth must be positive")
        if self.scratchpad_mb <= 0:
            raise ValueError("scratchpad must be positive")
        if self.transpose_dim < 1:
            raise ValueError("transpose buffer dimension must be positive")
        if self.twiddle_multipliers < 1:
            raise ValueError("twiddle generator needs at least one multiplier")
        if self.pe_registers < 1:
            raise ValueError("PE register file must be positive")
        if not 1 <= self.ntt_tile_log2 <= 16:
            raise ValueError(
                f"ntt_tile_log2 must be in 1..16, got {self.ntt_tile_log2}"
            )
        if (1 << self.ntt_tile_log2) // 2 > self.pe_registers:
            raise ValueError(
                f"ntt_tile_log2={self.ntt_tile_log2} needs "
                f"{(1 << self.ntt_tile_log2) // 2} delay registers per PE "
                f"but the register file holds {self.pe_registers}"
            )

    # -- derived quantities ---------------------------------------------------

    @property
    def pes_per_vsa(self) -> int:
        """PEs in one VSA."""
        return self.vsa_rows * self.vsa_cols

    @property
    def total_pes(self) -> int:
        """PEs across the whole chip."""
        return self.num_vsas * self.pes_per_vsa

    @property
    def bytes_per_cycle(self) -> float:
        """Peak DRAM bytes deliverable per clock cycle."""
        return self.mem_bandwidth_gbps / self.freq_ghz

    @property
    def scratchpad_bytes(self) -> int:
        """Scratchpad capacity in bytes."""
        return int(self.scratchpad_mb * (1 << 20))

    @property
    def ntt_pipelines(self) -> int:
        """Independent MDC pipelines on the chip.

        Each VSA row splits into two pipelines chained across the two
        half-arrays (paper Figure 4b), so a row forms ONE two-dimension
        chain accepting 2 elements/cycle.
        """
        return self.num_vsas * self.vsa_rows

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert clock cycles to wall-clock seconds."""
        return cycles / (self.freq_ghz * 1e9)

    def scaled(self, **overrides) -> "HwConfig":
        """A copy with some fields overridden (for DSE sweeps)."""
        return replace(self, **overrides)


#: The paper's default configuration.
DEFAULT_CONFIG = HwConfig()
