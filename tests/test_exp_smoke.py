"""Fast smoke tests of the experiment harness.

``python -m repro.exp.regenerate`` (CI's ``make experiments-drift``)
runs the experiments at meaningful scale and checks the paper's claims;
these tests only verify the harness machinery end-to-end at tiny
scale, so ``pytest tests/`` stays fast.
"""

import pytest

from repro.exp import fig7, fig8, fig9, microbench
from repro.exp.common import small_config

TINY = small_config(stretch_bytes=32 * 8192, swap_bytes=64 * 8192,
                    settle_sec=1.0, measure_sec=4.0)


class TestMicrobenchPieces:
    def test_dirty(self):
        assert 0.05 < microbench.bench_dirty(iterations=20) < 1.0

    def test_prot_routes(self):
        pt = microbench.bench_prot1("pagetable", iterations=20)
        pd = microbench.bench_prot1("protdom", iterations=20)
        assert pt > 0 and pd > 0

    def test_trap(self):
        assert 1.0 < microbench.bench_trap(iterations=10) < 20.0

    def test_osf1_reference_is_paper_data(self):
        assert microbench.OSF1_REFERENCE["trap"] == 10.33
        assert microbench.PAPER_NEMESIS["appel2"] == 9.75


class TestFigureHarnesses:
    def test_fig7_tiny(self):
        result = fig7.run(TINY)
        assert set(result.bandwidth_mbit) == {"pager-40%", "pager-20%",
                                              "pager-10%"}
        assert all(mbit > 0 for mbit in result.bandwidth_mbit.values())
        text = fig7.format_result(result, trace_window_sec=0.5)
        assert "Figure 7" in text and "pager-40%" in text

    def test_fig8_tiny(self):
        result = fig8.run(TINY)
        assert all(mbit > 0 for mbit in result.bandwidth_mbit.values())
        text = fig8.format_result(result, trace_window_sec=0.5)
        assert "Figure 8" in text

    def test_fig9_tiny(self):
        config = fig9.Fig9Config(stretch_bytes=32 * 8192,
                                 swap_bytes=64 * 8192,
                                 settle_sec=1.0, measure_sec=4.0)
        result = fig9.run(config)
        assert result.solo_mbit > 0
        assert result.contended_mbit > 0
        text = fig9.format_result(result)
        assert "Figure 9" in text and "retention" in text

    def test_results_are_deterministic(self):
        first = fig7.run(TINY)
        second = fig7.run(TINY)
        assert first.bandwidth_mbit == second.bandwidth_mbit

