"""Tests for the performance plane (``repro.exp.bench``).

The benchmarks themselves are exercised at smoke scale only — these
tests verify the *harness*: deterministic op counts, the warmup/rep
accounting, the JSON schema, and the null-observability fast path the
suite depends on for honest ``metrics=False`` numbers.
"""

import gc
import json
import os

import pytest

from repro.exp import bench
from repro.obs import metrics as metrics_mod


SMOKE = dict(reps=1, warmup=0, smoke=True)


class TestDeterminism:
    def test_sim_events_op_count_is_exact(self):
        ops, wall = bench.bench_sim_events(nproc=5, iters=40)
        assert ops == 5 * 40
        assert wall > 0

    def test_sim_pingpong_op_count_is_exact(self):
        ops, _ = bench.bench_sim_pingpong(pairs=3, iters=25)
        assert ops == 3 * 25

    def test_fault_roundtrip_op_count_is_exact(self):
        ops, _ = bench.bench_fault_roundtrip(iterations=20)
        assert ops == 20

    def test_usd_pipeline_is_deterministic(self):
        first = bench.bench_usd_pipeline(pages=8, passes=1)[0]
        second = bench.bench_usd_pipeline(pages=8, passes=1)[0]
        assert first == second
        assert first > 8  # at least one disk op per page beyond the pool

    def test_run_benchmark_rejects_nondeterminism(self, monkeypatch):
        counts = iter([100, 101])

        def flaky():
            return next(counts), 0.001

        monkeypatch.setitem(bench.SUITE, "flaky", (flaky, {}, {}))
        with pytest.raises(AssertionError, match="not deterministic"):
            bench.run_benchmark("flaky", reps=2, warmup=0)


class TestHarness:
    def test_warmup_runs_are_discarded(self, monkeypatch):
        calls = []

        def fake(**kwargs):
            calls.append(kwargs)
            return 10, 0.01

        monkeypatch.setitem(bench.SUITE, "fake", (fake, {"a": 1}, {"a": 2}))
        result = bench.run_benchmark("fake", reps=3, warmup=2)
        assert len(calls) == 5             # 2 warmup + 3 recorded
        assert len(result["runs_s"]) == 3  # warmup not recorded
        assert result["params"] == {"a": 1}
        smoke = bench.run_benchmark("fake", reps=1, warmup=0, smoke=True)
        assert smoke["params"] == {"a": 2}

    def test_best_and_mean(self, monkeypatch):
        walls = iter([0.03, 0.01, 0.02])

        def fake():
            return 100, next(walls)

        monkeypatch.setitem(bench.SUITE, "fake", (fake, {}, {}))
        result = bench.run_benchmark("fake", reps=3, warmup=0)
        assert result["best_s"] == 0.01
        assert result["mean_s"] == pytest.approx(0.02)
        assert result["ops_per_sec"] == pytest.approx(100 / 0.01)

    def test_suite_names_cover_baseline(self):
        assert set(bench.SUITE) == set(bench._BASELINE_NUMBERS)
        for name in bench.WALL_CLOCK:
            assert name in bench._BASELINE_SECONDS


class TestPayload:
    @pytest.fixture(scope="class")
    def payload(self):
        return bench.run_suite(names=["sim_events", "sim_pingpong"], **SMOKE)

    def test_payload_validates(self, payload):
        assert bench.validate_payload(payload)

    def test_smoke_speedups_are_null(self, payload):
        assert payload["config"]["scale"] == "smoke"
        assert all(v is None
                   for v in payload["speedup_vs_baseline"].values())

    def test_write_and_reload(self, payload, tmp_path):
        path = bench.write_payload(payload, out_dir=str(tmp_path),
                                   timestamp="test")
        assert os.path.basename(path) == "BENCH_test.json"
        with open(path) as fh:
            reloaded = json.load(fh)
        assert bench.validate_payload(reloaded)
        assert reloaded == payload

    def test_format_table(self, payload):
        text = bench.format_table(payload)
        assert "sim_events" in text and "ops/s" in text

    def test_validate_rejects_bad_payloads(self, payload):
        bad = json.loads(json.dumps(payload))
        bad["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            bench.validate_payload(bad)
        bad = json.loads(json.dumps(payload))
        del bad["baseline"]
        with pytest.raises(ValueError, match="baseline"):
            bench.validate_payload(bad)
        bad = json.loads(json.dumps(payload))
        bad["results"]["sim_events"]["ops"] = 0
        with pytest.raises(ValueError, match="op count"):
            bench.validate_payload(bad)
        bad = json.loads(json.dumps(payload))
        bad["results"]["sim_events"]["runs_s"] = []
        with pytest.raises(ValueError, match="samples"):
            bench.validate_payload(bad)


def _live_metric_objects():
    """Count live bound-instrument/cell objects after a full collection."""
    classes = (metrics_mod._BoundCounter, metrics_mod._BoundGauge,
               metrics_mod._HistogramCell)
    gc.collect()
    return sum(isinstance(obj, classes) for obj in gc.get_objects())


class TestDisabledObservabilityAllocatesNothing:
    def test_fault_path_with_metrics_off(self):
        # Prime everything (module init, code objects, interned strings)
        # with one throwaway run, then assert a second run allocates no
        # new metric objects at all: with metrics=False every instrument
        # must resolve to the shared null singletons.
        bench.bench_fault_roundtrip(iterations=5)
        before = _live_metric_objects()
        bench.bench_fault_roundtrip(iterations=5)
        after = _live_metric_objects()
        assert after <= before
