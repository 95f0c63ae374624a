"""CSV export tests."""

import csv

from repro.experiments.export import export_all


class TestExport:
    def test_writes_all_files(self, tmp_path):
        paths = export_all(tmp_path)
        assert sorted(p.name for p in paths) == [
            "fig10_dse.csv", "fig8_breakdown.csv", "fig9_kernel_speedups.csv",
            "table1_cpu_breakdown.csv", "table2_area_power.csv", "table3_end_to_end.csv",
            "table4_utilisation.csv", "table5_starky.csv", "table6_pipezk.csv",
        ]
        for p in paths:
            assert p.exists() and p.stat().st_size > 0

    def test_table3_content(self, tmp_path):
        paths = {p.name: p for p in export_all(tmp_path)}
        with paths["table3_end_to_end.csv"].open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert {r["app"] for r in rows} == {
            "Factorial", "Fibonacci", "ECDSA", "SHA-256", "Image Crop", "MVM",
        }
        for r in rows:
            assert float(r["unizk_s"]) < float(r["cpu_s"])

    def test_fig10_content(self, tmp_path):
        paths = {p.name: p for p in export_all(tmp_path)}
        with paths["fig10_dse.csv"].open() as fh:
            rows = list(csv.DictReader(fh))
        resources = {r["resource"] for r in rows}
        assert resources == {"scratchpad", "vsas", "bandwidth"}
