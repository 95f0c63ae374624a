"""Run every experiment and render the report.

``python -m repro.experiments.runner`` (or ``repro experiments``)
regenerates every paper table and figure, then the design-choice
ablations and the design-space Pareto frontier, and prints the
paper-vs-measured record.
"""

from __future__ import annotations

from . import ablations, figures, pareto, tables


def run_all() -> str:
    """Execute every experiment; returns the full text report."""
    points = pareto.sweep_design_space("MVM")
    sections = [
        tables.format_table1(tables.table1()),
        tables.format_table2(tables.table2()),
        tables.format_table3(tables.table3()),
        tables.format_table4(tables.table4()),
        tables.format_table5(tables.table5()),
        tables.format_table6(tables.table6()),
        figures.format_fig8(figures.fig8()),
        figures.format_fig9(figures.fig9()),
        figures.format_fig10(figures.fig10()),
        ablations.format_section3(ablations.section3()),
        ablations.format_dram_calibration(ablations.dram_calibration()),
        ablations.format_ntt_mapping_sweep(ablations.ntt_mapping_sweep()),
        ablations.format_poseidon_occupancy(ablations.poseidon_occupancy()),
        "Pareto frontier: VSAs x scratchpad x bandwidth on MVM\n"
        + pareto.format_frontier(points, pareto.pareto_frontier(points)),
    ]
    return "\n\n".join(sections)


def main() -> None:
    """CLI entry point: print the report."""
    print(run_all())


if __name__ == "__main__":
    main()
