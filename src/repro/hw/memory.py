"""Ramulator-lite: a simplified HBM2e channel/bank/row timing model.

The paper drives its simulator with Ramulator2; we substitute a
compact bank-state model that captures the first-order effects the
evaluation depends on: row-buffer locality (sequential streams hit open
rows; scattered small accesses pay activate/precharge), bank-level
parallelism, and per-channel bus occupancy.

Its purpose here is to *derive* the effective-bandwidth factors the
fast analytic cost models use (sequential ~0.8-0.9, strided ~0.5,
short random chunks ~0.15-0.25), rather than hard-coding them -- see
``repro.experiments.ablations.dram_calibration``, which derives them,
and the unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List


@dataclass(frozen=True)
class HbmTimings:
    """Simplified HBM2e timing/geometry parameters (1 GHz clock domain)."""

    num_channels: int = 16  # pseudo-channels across 2 PHYs
    banks_per_channel: int = 16
    row_bytes: int = 1024
    burst_bytes: int = 64
    #: cycles the data bus is busy per burst, per channel
    burst_cycles: int = 1
    #: activate + column-access latency on a row miss
    t_rcd: int = 14
    #: precharge latency before activating a new row
    t_rp: int = 14
    #: column access on a row hit
    t_cas: int = 14


class DramModel:
    """Service a request stream and report cycles and efficiency."""

    def __init__(self, timings: HbmTimings | None = None) -> None:
        self.t = timings or HbmTimings()

    def _map(self, addr: int) -> tuple[int, int, int]:
        """Address -> (channel, bank, row).

        Bursts interleave channels, then banks; the row index is the
        remaining high bits, so a bank's row covers ``row_bytes``
        *consecutive visits* -- the standard interleaving that gives
        sequential streams their row-buffer locality.
        """
        t = self.t
        burst_idx = addr // t.burst_bytes
        channel = burst_idx % t.num_channels
        rest = burst_idx // t.num_channels
        bank = rest % t.banks_per_channel
        col = rest // t.banks_per_channel
        row = col // max(1, t.row_bytes // t.burst_bytes)
        return channel, bank, row

    def service(self, addresses: Iterable[int]) -> int:
        """Cycles to serve the burst-aligned addresses, in order per bank.

        Banks proceed independently; a row hit occupies the bank for one
        column-to-column slot, a row miss for precharge + activate; each
        channel's data bus serialises bursts.  Returns the completion
        time of the last request.
        """
        t = self.t
        open_row: dict[tuple[int, int], int] = {}
        bank_ready: dict[tuple[int, int], int] = {}
        bus_free: List[int] = [0] * t.num_channels
        finish = 0
        for addr in addresses:
            ch, bank, row = self._map(addr)
            key = (ch, bank)
            ready = bank_ready.get(key, 0)
            if open_row.get(key) == row:
                occupancy = t.burst_cycles  # back-to-back column accesses
            else:
                occupancy = t.t_rp + t.t_rcd  # precharge + activate
                open_row[key] = row
            start = max(ready + occupancy, bus_free[ch])
            done = start + t.burst_cycles
            bus_free[ch] = done
            bank_ready[key] = start
            finish = max(finish, done)
        return finish

    def peak_cycles(self, num_bursts: int) -> float:
        """Ideal cycles if every channel streamed back to back."""
        t = self.t
        return num_bursts * t.burst_cycles / t.num_channels

    def efficiency(self, addresses: List[int]) -> float:
        """Achieved / peak bandwidth for a given access pattern."""
        if not addresses:
            return 1.0
        return self.peak_cycles(len(addresses)) / max(1, self.service(addresses))


# -- synthetic access patterns -------------------------------------------------


def sequential_stream(total_bytes: int, burst: int = 64) -> List[int]:
    """A long unit-stride stream (NTT polynomial-major reads)."""
    return list(range(0, total_bytes, burst))


def strided_stream(total_bytes: int, stride: int, burst: int = 64) -> List[int]:
    """Fixed-stride bursts (index-major access without the transpose buffer)."""
    out = []
    addr = 0
    while len(out) * burst < total_bytes:
        out.append(addr)
        addr += stride
    return out


def random_chunks(
    num_chunks: int, chunk_bytes: int, region_bytes: int, seed: int = 0, burst: int = 64
) -> List[int]:
    """Short chunks at pseudo-random offsets (gate-evaluation accesses).

    This is the pattern the paper blames for the poly kernels' low
    bandwidth utilisation (Section 7.1): chunk size is bounded by the
    circuit width and can be as small as a couple of elements.
    """
    state = seed or 0x9E3779B97F4A7C15
    out = []
    for _ in range(num_chunks):
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        base = (state % max(1, region_bytes // chunk_bytes)) * chunk_bytes
        for off in range(0, max(burst, chunk_bytes), burst):
            out.append(base + off)
    return out


def measured_efficiencies(model: DramModel | None = None) -> dict[str, float]:
    """Calibrate the analytic models' efficiency factors from the DRAM model."""
    model = model or DramModel()
    seq = model.efficiency(sequential_stream(1 << 20))
    strided = model.efficiency(strided_stream(1 << 20, stride=4096))
    rnd_small = model.efficiency(random_chunks(4096, 16, 1 << 26))
    rnd_wide = model.efficiency(random_chunks(2048, 3200, 1 << 26))
    return {
        "sequential": seq,
        "strided": strided,
        "random_small": rnd_small,
        "random_wide": rnd_wide,
    }
