"""Tests for the benchmark's own code (``python3 -m pytest perfbench``)."""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

import calibrate
import layers
import run

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


@pytest.fixture(scope="module")
def spec():
    with open(SPEC_PATH) as handle:
        return json.load(handle)


# -- the percentile rule ------------------------------------------------------


def test_percentiles_take_the_highest_tail_with_ten_samples_beyond():
    got = layers.percentiles(range(1, 1001))
    assert got == {"n": 1000, "p50": 500, "tail_pct": 99.0, "tail": 990}


def test_percentiles_step_down_the_ladder_as_samples_shrink():
    assert layers.percentiles(range(1, 101))["tail_pct"] == 90.0
    assert layers.percentiles(range(1, 100001))["tail_pct"] == 99.99
    assert layers.percentiles(range(1, 20001))["tail_pct"] == 99.9


def test_percentiles_report_no_tail_below_a_hundred_samples():
    got = layers.percentiles([5, 1, 3])
    assert got == {"n": 3, "p50": 3, "tail_pct": None, "tail": None}
    assert layers.percentiles([])["p50"] is None


def test_percentiles_ignore_input_order():
    values = [7, 3, 9, 1, 5] * 40
    assert layers.percentiles(values) == layers.percentiles(sorted(values))


# -- path-to-package bucketing ------------------------------------------------


@pytest.mark.parametrize("filename, funcname, layer", [
    ("src/repro/mm/paged.py", "handle_slow", "mm"),
    ("/work/repro/src/repro/kernel/domain.py", "_run", "kernel"),
    ("src/repro/system.py", "new_app", "system"),
    ("~", "<built-in method _heapq.heappop>", "heapq"),
    ("/usr/lib/python3.11/heapq.py", "merge", "heapq"),
    ("src/repro/exp/fig7.py", "run", "other"),
    ("src/repro/baseline/fcfs_disk.py", "submit", "other"),
    ("/work/repro/perfbench/workloads.py", "_reader", "other"),
    ("~", "<method 'send' of 'generator' objects>", "other"),
])
def test_bucket(filename, funcname, layer):
    assert layers.bucket(filename, funcname) == layer


def test_profile_by_layer_sums_self_time_and_primitive_calls():
    stats = {
        ("src/repro/mm/paged.py", 10, "a"): (3, 4, 0.5, 1.0, {}),
        ("src/repro/mm/frames.py", 20, "b"): (2, 2, 0.25, 0.3, {}),
        ("~", 0, "<built-in method _heapq.heappush>"): (7, 7, 0.125, 0.1, {}),
    }
    got = layers.profile_by_layer(stats)
    assert set(got) == set(layers.BUCKETS)
    assert got["mm"] == (0.75, 5)
    assert got["heapq"] == (0.125, 7)
    assert got["usd"] == (0.0, 0)


# -- metric names -------------------------------------------------------------


@pytest.mark.parametrize("name", ["setup_s", "sim.events_per_touch",
                                  "touch_p99.9_us", "pager-40pct_mbit_s",
                                  "0x", "a" * 64])
def test_valid_names(name):
    assert layers.valid_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "pager-40%",
                                  "p/q", "a" * 65])
def test_invalid_names(name):
    assert not layers.valid_name(name)


def test_every_listed_name_is_valid_and_unique(spec):
    names = [entry["name"] for key in ("workloads", "end_to_end",
                                       "per_layer") for entry in spec[key]]
    assert all(layers.valid_name(name) for name in names)
    assert len(names) == len(set(names))


# -- BENCHMARK.json layout ----------------------------------------------------


def test_spec_layout(spec):
    assert os.path.getsize(SPEC_PATH) <= 64 * 1024
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= len(spec["command"]) <= 32
    assert all(len(part) <= 200 for part in spec["command"])
    assert 1 <= len(spec["paths"]) <= 16
    for path in spec["paths"]:
        assert PATH.match(path) and not path.startswith("/")
        assert ".." not in path.split("/")
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    for entry in spec["workloads"]:
        assert set(entry) == {"name", "why"}
        assert 0 < len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert 1 <= len(spec["end_to_end"]) <= 16
    for entry in spec["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    assert 1 <= len(spec["per_layer"]) <= 128
    for entry in spec["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(entry["unit"])
        assert entry["better"] in ("lower", "higher")


def test_spec_setup_metric_has_the_largest_bound(spec):
    bounds = {entry["name"]: entry for entry in spec["end_to_end"]}
    setup = bounds["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in spec["end_to_end"])


def test_spec_names_the_benchmark_workloads(spec):
    from workloads import WORKLOADS

    assert [entry["name"] for entry in spec["workloads"]] == list(WORKLOADS)


def test_spec_per_layer_names_are_the_measured_ones(spec):
    from repro import NemesisSystem

    raw = layers.raw_counters(NemesisSystem())
    untraced = {"layers": layers.derive(raw, layers.capacity(raw, 1), 1),
                "raw_host_s": 1.0}
    traced = [{"profile": {name: (0.0, 0) for name in layers.BUCKETS},
               "raw_host_s": 2.0}]
    measured = set(run.per_layer(untraced, traced))
    assert measured == {entry["name"] for entry in spec["per_layer"]}


# -- the host-speed reference -------------------------------------------------


def test_reference_chain_is_one_cycle_through_every_slot():
    chain = calibrate.Speedometer().chain
    at, steps = 0, 0
    while True:
        at = chain[at]
        steps += 1
        if at == 0:
            break
    assert steps == len(chain)


def test_speed_is_nominal_over_mean_lap():
    nominal = calibrate.NOMINAL_LAP_S
    assert calibrate.speed([nominal, nominal]) == 1.0
    assert calibrate.speed([nominal, 3 * nominal]) == 0.5


def test_speedometer_laps_inside_its_block_only():
    meter = calibrate.Speedometer()
    with meter.running():
        end = time.process_time() + 6 * calibrate.INTERVAL_S
        while time.process_time() < end:
            pass
    laps = len(meter.laps)
    assert laps >= 2
    busy = time.process_time() + 4 * calibrate.INTERVAL_S
    while time.process_time() < busy:
        pass
    assert len(meter.laps) == laps
    starts = [at for at, _ in meter.laps]
    assert meter.between(starts[1], float("inf")) == [
        seconds for _, seconds in meter.laps[1:]]


def test_laps_leave_the_simulation_unchanged():
    from workloads import InmemTouch

    plain = run.run_rep(InmemTouch, 7)
    timed = run.run_rep(InmemTouch, 7, calibrate.Speedometer())
    assert run.deterministic_part(plain) == run.deterministic_part(timed)
    assert timed["host_s"] > 0 and timed["setup_s"] > 0


# -- the command --------------------------------------------------------------


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paging_in",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
