"""The design-choice ablations behind the paper's argument.

* Section 3 -- the unified chip against an equal-area chip of dedicated
  per-kernel units and a PipeZK-style top-2-only accelerator;
* the DRAM-efficiency calibration -- the analytic cost models'
  bandwidth factors re-derived from the bank/row timing model;
* the NTT mapping's tile size and two-dimensions-per-pass fusion
  (Section 5.1);
* Poseidon's multiplier occupancy on the PE grid (Section 5.2).

Each ``name()`` returns structured rows and ``format_name()`` renders
them; ``repro experiments`` prints them after the tables and figures.
"""

from __future__ import annotations

from typing import Dict, List

from ..baselines import CpuModel, DedicatedChip, Top2Chip
from ..compiler import trace_plonky2
from ..hw import DEFAULT_CONFIG
from ..hw.memory import DramModel, measured_efficiencies, sequential_stream
from ..mapping import NTT_MEM_EFFICIENCY, ROUND_SCHEMES, chip_perm_throughput, ntt_cost
from ..mapping.poly_mapping import gate_access_efficiency
from ..sim import simulate_plonky2
from ..workloads import PAPER_WORKLOADS

# --------------------------------------------------------------------------
# Section 3: unified vs dedicated units vs top-2 only
# --------------------------------------------------------------------------


def section3() -> List[Dict]:
    """Each paper workload on the unified chip, on an equal-area chip of
    dedicated units, and with only hash + NTT accelerated."""
    cpu, dedicated, top2 = CpuModel(), DedicatedChip(), Top2Chip()
    rows = []
    for spec in PAPER_WORKLOADS:
        graph = trace_plonky2(spec.plonk)
        cpu_s = cpu.run(graph).total_seconds
        unified_s = simulate_plonky2(spec.plonk).total_seconds
        ded = dedicated.run(graph)
        top2_s = top2.run(graph).total_seconds
        rows.append(
            {
                "app": spec.name,
                "unified_s": unified_s,
                "unified_speedup": cpu_s / unified_s,
                "dedicated_s": ded.total_seconds(),
                "dedicated_util": ded.average_logic_utilization,
                "top2_s": top2_s,
                "top2_speedup": cpu_s / top2_s,
            }
        )
    return rows


def format_section3(rows: List[Dict]) -> str:
    """Render the Section 3 comparison."""
    out = ["Section 3: unified vs dedicated units vs top-2-only acceleration"]
    for r in rows:
        out.append(
            f"{r['app']:12s} unified {r['unified_s'] * 1e3:7.1f} ms "
            f"({r['unified_speedup']:3.0f}x)  dedicated {r['dedicated_s'] * 1e3:7.1f} ms "
            f"(util {r['dedicated_util'] * 100:4.1f}%)  "
            f"top-2-only {r['top2_s']:5.2f} s ({r['top2_speedup']:.1f}x)"
        )
    out.append("(paper: top-2 acceleration caps below ~7x; static partitioning "
               "leaves units idle)")
    return "\n".join(out)


# --------------------------------------------------------------------------
# DRAM efficiency calibration
# --------------------------------------------------------------------------


def dram_calibration() -> Dict[str, float]:
    """Access-pattern efficiencies from the timing model, the NTT's
    interleaved read+write stream, and the gate-evaluation chunks."""
    model = DramModel()
    effs = measured_efficiencies(model)
    # One NTT pass reads one stream while it writes another far away.
    reads = sequential_stream(1 << 18)
    mixed = [a for r in reads for a in (r, r + (1 << 28))]
    effs["ntt_read_write"] = model.efficiency(mixed)
    effs["gate_w135"] = gate_access_efficiency(135)
    effs["gate_w400"] = gate_access_efficiency(400)
    return effs


def format_dram_calibration(effs: Dict[str, float]) -> str:
    """Render the calibration beside the constants the cost models use."""
    out = ["DRAM efficiency calibration (bank/row timing model)"]
    for name in ("sequential", "strided", "random_small", "random_wide"):
        out.append(f"  {name:16s} {effs[name] * 100:5.1f}%")
    out.append(
        f"  NTT read+write   {effs['ntt_read_write'] * 100:5.1f}% <= NTT model "
        f"constant {NTT_MEM_EFFICIENCY * 100:.1f}% <= sequential "
        f"{effs['sequential'] * 100:.1f}%"
    )
    out.append(
        f"  gate chunks: width 135 {effs['gate_w135'] * 100:4.1f}% (paper ~15.7%), "
        f"width 400 {effs['gate_w400'] * 100:4.1f}% (paper ~24.5%)"
    )
    return "\n".join(out)


# --------------------------------------------------------------------------
# NTT tile size and pass fusion
# --------------------------------------------------------------------------

#: The swept transform: one 2^20-point NTT batch over 135 columns.
_NTT_LOG_N, _NTT_BATCH = 20, 135


def ntt_mapping_sweep() -> Dict[str, List[Dict]]:
    """Elapsed time of the swept NTT by MDC tile size, and its pass count
    with the scratchpad above and below the fusion threshold."""
    tiles = []
    for tile_log2 in (3, 4, 5, 6):
        hw = DEFAULT_CONFIG.scaled(ntt_tile_log2=tile_log2)
        cost = ntt_cost(_NTT_LOG_N, _NTT_BATCH, hw)
        tiles.append(
            {
                "tile_log2": tile_log2,
                "dims": len(cost.detail["dims"]),
                "passes": cost.detail["passes"],
                "ms": hw.cycles_to_seconds(cost.elapsed_cycles(hw)) * 1e3,
            }
        )
    fusion = []
    for spad_mb in (8.0, 2.0):
        hw = DEFAULT_CONFIG.scaled(scratchpad_mb=spad_mb)
        cost = ntt_cost(_NTT_LOG_N, _NTT_BATCH, hw)
        fusion.append({"scratchpad_mb": spad_mb, "passes": cost.detail["passes"]})
    return {"tiles": tiles, "fusion": fusion}


def format_ntt_mapping_sweep(sweep: Dict[str, List[Dict]]) -> str:
    """Render the tile and fusion sweep."""
    out = [f"NTT mapping: tile size and pass fusion "
           f"(2^{_NTT_LOG_N} points x {_NTT_BATCH} columns)"]
    for r in sweep["tiles"]:
        out.append(
            f"  tile 2^{r['tile_log2']}: {r['dims']} dims, {r['passes']} passes, "
            f"{r['ms']:6.1f} ms"
        )
    out.append("  " + "; ".join(
        f"{r['scratchpad_mb']:g} MB scratchpad: {r['passes']} passes"
        for r in sweep["fusion"]
    ) + " (two dims per pass need >= 4 MB)")
    return "\n".join(out)


# --------------------------------------------------------------------------
# Poseidon PE occupancy
# --------------------------------------------------------------------------


def poseidon_occupancy() -> Dict[str, object]:
    """Multiplier occupancy of one permutation under the paper's sparse
    partial-round scheme and the dense one it replaces, and the chip's
    sustained permutation rate."""
    schemes = []
    for name in ("sparse-12x3", "dense-partial"):
        sc = ROUND_SCHEMES[name]
        schemes.append(
            {
                "scheme": name,
                "pe_cycles": sc.pe_cycles,
                "mults": sc.mults,
                "occupancy": sc.mults / sc.pe_cycles,
            }
        )
    return {"schemes": schemes, "perms_per_cycle": chip_perm_throughput(DEFAULT_CONFIG)}


def format_poseidon_occupancy(occ: Dict[str, object]) -> str:
    """Render the occupancy comparison."""
    out = ["Poseidon on the PE grid: multiplier occupancy per permutation"]
    for r in occ["schemes"]:
        out.append(
            f"  {r['scheme']:14s} {r['pe_cycles']:5d} PE-cycles {r['mults']:5d} mults "
            f"{r['occupancy'] * 100:5.1f}%"
        )
    out.append(
        f"  default chip: {occ['perms_per_cycle']:.2f} permutations/cycle "
        f"(paper: 95-97% VSA utilisation while hashing)"
    )
    return "\n".join(out)
