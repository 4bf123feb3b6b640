"""Smoke tests for the command-line entry points."""

import pytest


class TestExpMain:
    def test_unknown_target_rejected(self, capsys):
        from repro.exp.__main__ import main

        # perfbench/ is the one benchmark: there is no ``bench`` target.
        for target in ("frobnicate", "bench"):
            assert main([target]) == 1
            out = capsys.readouterr().out
            assert "unknown experiment" in out
            assert "(also: report, sweep)" in out

    def test_table1_runs(self, capsys):
        from repro.exp.__main__ import main

        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "dirty" in out


class TestExportMain:
    def test_usage_on_bad_target(self, capsys, tmp_path):
        from repro.exp.export import main

        assert main(["nothing", str(tmp_path)]) == 1

    def test_fig9_target(self, capsys, tmp_path, monkeypatch):
        from repro.exp import export, fig9

        # Shrink the run so the smoke test is fast.
        tiny = fig9.Fig9Config(stretch_bytes=32 * 8192,
                               swap_bytes=64 * 8192,
                               settle_sec=1.0, measure_sec=2.0)
        monkeypatch.setattr(fig9, "Fig9Config", lambda: tiny)
        assert export.main(["fig9", str(tmp_path)]) == 0
        assert (tmp_path / "fig9_bandwidth.csv").exists()


class TestRegenerateHelpers:
    def test_ratio_map_formatting(self):
        from repro.exp.regenerate import _fmt_ratio_map

        text = _fmt_ratio_map({"pager-40%": 4.0, "pager-10%": 1.0})
        assert "40% 4.00" in text and "10% 1.00" in text
        # Sorted by descending value.
        assert text.index("40%") < text.index("10%")


class TestRegenerateGate:
    """``build`` is replaced, so no experiment runs."""

    def _main(self, failed, tmp_path, monkeypatch):
        from repro.exp import regenerate

        output = tmp_path / "EXPERIMENTS.md"
        monkeypatch.setattr(regenerate, "build",
                            lambda: ("# record\n", failed))
        monkeypatch.setattr("sys.argv", ["regenerate", str(output)])
        code = regenerate.main()
        assert output.read_text() == "# record\n"
        return code

    def test_failed_claim_exits_1_and_is_named(self, capsys, tmp_path,
                                               monkeypatch):
        name = "Figure 9 FS retention >= 0.93"
        assert self._main([name], tmp_path, monkeypatch) == 1
        assert "claim failed: %s" % name in capsys.readouterr().out

    def test_all_claims_holding_exits_0(self, capsys, tmp_path,
                                        monkeypatch):
        assert self._main([], tmp_path, monkeypatch) == 0
        assert "claim failed" not in capsys.readouterr().out
