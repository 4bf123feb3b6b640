"""Tests for the report rendering helpers and experiment scaffolding."""

import pytest

from repro.exp import report
from repro.exp.common import PagingConfig, small_config
from repro.sim.trace import Trace
from repro.sim.units import MS


class TestTable:
    def test_alignment(self):
        text = report.table(["name", "value"],
                            [("a", 1), ("long-name", 22)])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert all(len(line) <= len(max(lines, key=len)) for line in lines)
        assert "long-name" in text

    def test_title(self):
        text = report.table(["x"], [(1,)], title="My Table")
        assert text.splitlines()[0] == "My Table"
        assert text.splitlines()[1] == "========"


class TestUsdTraceText:
    @pytest.fixture
    def trace(self):
        trace = Trace()
        trace.record(0, "txn", "a", duration=100 * MS)
        trace.record(100 * MS, "lax", "a", duration=50 * MS)
        trace.record(150 * MS, "txn", "b", duration=100 * MS)
        trace.record(250 * MS, "alloc", "a")
        return trace

    def test_marks(self, trace):
        text = report.usd_trace_text(trace, 0, 300 * MS, bucket=10 * MS)
        lines = text.splitlines()
        row_a = next(line for line in lines if line.strip().startswith("a"))
        row_b = next(line for line in lines if line.strip().startswith("b"))
        assert "#" in row_a and "-" in row_a and "^" in row_a
        assert "#" in row_b

    def test_window_clipping(self, trace):
        text = report.usd_trace_text(trace, 140 * MS, 260 * MS,
                                     bucket=10 * MS)
        assert "#" in text  # partially-overlapping events still shown


class TestPagingConfig:
    def test_defaults_match_paper(self):
        config = PagingConfig()
        assert config.period_ms == 250
        assert config.slices_ms == (100, 50, 25)
        assert config.laxity_ms == 10
        assert config.stretch_bytes == 4 * 1024 * 1024
        assert config.driver_frames == 2       # 16 KB of physical memory
        assert config.swap_bytes == 16 * 1024 * 1024
        assert not config.slack_eligible

    def test_qos_construction(self):
        config = PagingConfig()
        qos = config.qos(100)
        assert qos.period_ns == 250 * MS
        assert qos.slice_ns == 100 * MS
        assert qos.laxity_ns == 10 * MS
        assert not qos.extra

    def test_app_names_by_share(self):
        config = PagingConfig()
        assert config.app_name(100) == "pager-40%"
        assert config.app_name(25) == "pager-10%"

    def test_small_config_overrides(self):
        config = small_config(measure_sec=3.0)
        assert config.measure_sec == 3.0
        assert config.stretch_bytes < PagingConfig().stretch_bytes
        # Everything else still the paper's.
        assert config.slices_ms == (100, 50, 25)


class TestCsvExport:
    def test_fig7_export(self, tmp_path):
        from repro.exp import export, fig7

        config = small_config(stretch_bytes=32 * 8192,
                              swap_bytes=64 * 8192,
                              settle_sec=1.0, measure_sec=4.0)
        written = export.export_paging_figure(fig7, "fig7", str(tmp_path),
                                              config=config)
        assert len(written) == 2
        import csv

        with open(written[0]) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["time_s", "client", "mbit_per_s"]
        assert len(rows) > 3
        with open(written[1]) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["start_s", "kind", "client", "duration_ms"]
        kinds = {row[1] for row in rows[1:]}
        assert "txn" in kinds and "alloc" in kinds

    def test_fig9_export(self, tmp_path):
        from repro.exp import export, fig9

        config = fig9.Fig9Config(stretch_bytes=32 * 8192,
                                 swap_bytes=64 * 8192,
                                 settle_sec=1.0, measure_sec=3.0)
        result = fig9.run(config)
        path = export.write_fig9_csv(result, str(tmp_path / "fig9.csv"))
        import csv

        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["run", "client", "mbit_per_s"]
        assert any(row[0] == "solo" for row in rows[1:])
        assert any(row[0] == "contended" for row in rows[1:])
