"""``runs`` on workload domains and drivers: a run builds only its own.

A domain or driver whose ``runs`` names runs is constructed, admitted
and driven only in those runs (``[]``: every run). The validator
rejects any reference to a domain in a run that does not build it —
from a check, a driver, a behaviour rule, a fault scope or a crash
component — and the runner leaves the skipped entries out entirely.
"""

import copy

import pytest

from repro.missions import MissionError, run_mission, validate_mission


def _pager(name, **extra):
    out = {"kind": "pager", "name": name, "period_ms": 25,
           "slice_ms": 2.5, "mode": "write-loop", "stretch_kb": 64,
           "driver_frames": 8, "swap_kb": 256}
    out.update(extra)
    return out


def mission(**sections):
    """Two runs; pager ``only-b`` is built in run ``b`` alone."""
    raw = {
        "schema": 1,
        "mission": {"name": "runs-unit", "family": "chaos", "seed": 3},
        "topology": {"machine_mb": 4},
        "workload": {"domains": [_pager("both"),
                                 _pager("only-b", runs=["b"])]},
        "phases": {"settle_sec": 0.1, "measure_sec": 0.2},
        "runs": [{"name": "a"}, {"name": "b"}],
    }
    raw.update(copy.deepcopy(sections))
    return raw


def _rejects(raw, path, text="is not built in run"):
    with pytest.raises(MissionError) as err:
        validate_mission(raw)
    assert err.value.path == path
    assert text in err.value.message
    return err.value


class TestValidation:
    def test_runs_defaults_to_every_run(self):
        normalised = validate_mission(mission())
        both, only_b = normalised["workload"]["domains"]
        assert both["runs"] == [] and only_b["runs"] == ["b"]

    def test_runs_must_name_runs(self):
        raw = mission()
        raw["workload"]["domains"][1]["runs"] = ["nosuch"]
        _rejects(raw, "workload.domains[1].runs", "names no run")

    def test_check_on_unbuilt_domain(self):
        _rejects(mission(expect=[{"check": "progress", "run": "a",
                                  "domains": ["only-b"]}]),
                 "expect[0].domains")
        # A ``runs=[]`` check reads every run, so it needs the domain
        # built in each.
        raw = mission(
            drivers=[{"kind": "sample_min_alloc",
                      "domains": ["only-b"], "runs": ["b"]}],
            expect=[{"check": "min_frames", "domains": ["only-b"],
                     "floor": 1}])
        _rejects(raw, "expect[0].domains")
        raw["expect"][0]["runs"] = ["b"]
        validate_mission(raw)

    def test_driver_in_a_run_without_its_domain(self):
        raw = mission(drivers=[{"kind": "sample_min_alloc",
                                "domains": ["only-b"]}])
        _rejects(raw, "drivers[0].domains")
        raw["drivers"][0]["runs"] = ["b"]
        validate_mission(raw)
        raw["drivers"][0]["runs"] = ["nosuch"]
        _rejects(raw, "drivers[0].runs", "names no run")

    def test_sampler_must_run_where_min_frames_reads(self):
        raw = mission(drivers=[{"kind": "sample_min_alloc",
                                "domains": ["both"], "runs": ["b"]}],
                      expect=[{"check": "min_frames", "domains": ["both"],
                               "floor": 1}])
        _rejects(raw, "expect[0].domains", "not covered by a "
                 "sample_min_alloc driver in run 'a'")

    def test_behavior_on_a_domain_some_run_skips(self):
        _rejects(mission(behaviors=[{"kind": "revoke_slow",
                                     "domain": "only-b"}]),
                 "behaviors[0].domain")
        validate_mission(mission(behaviors=[{"kind": "revoke_slow",
                                             "domain": "both"}]))

    def test_fault_scope_on_an_unbuilt_pager(self):
        raw = mission()
        raw["runs"][0]["faults"] = [{"kind": "transient", "rate": 0.5,
                                     "scope": "extent:only-b"}]
        _rejects(raw, "runs[0].faults[0].scope")
        raw["runs"][0]["faults"] = []
        raw["runs"][0]["corruptions"] = [{"kind": "bit_flip",
                                          "scope": "extent:only-b"}]
        _rejects(raw, "runs[0].corruptions[0].scope")

    def test_crash_component_on_an_unbuilt_pager(self):
        raw = mission(supervision={"enabled": True})
        raw["runs"][0]["crashes"] = [{"component": "pager:only-b"}]
        _rejects(raw, "runs[0].crashes[0].component")
        raw["runs"][0]["crashes"] = [{"component": "pager:both"}]
        raw["expect"] = [{"check": "recovered", "run": "a",
                          "component": "pager:only-b",
                          "max_recovery_ms": 500}]
        _rejects(raw, "expect[0].component")

    def test_active_runs_outside_runs(self):
        hog = {"kind": "compute", "name": "hog", "period_ms": 10,
               "slice_ms": 2.0, "runs": ["b"], "active_runs": ["a"]}
        raw = mission(workload={"domains": [_pager("both"), hog]})
        _rejects(raw, "workload.domains[1].active_runs")
        raw["workload"]["domains"][1]["active_runs"] = ["b"]
        validate_mission(raw)

    def test_usbs_store_needs_volumes_only_where_built(self):
        raw = mission(workload={"domains": [
            _pager("both"), _pager("striped", store="usbs", runs=["b"])]})
        raw["runs"][1]["topology"] = {"volumes": 2}
        validate_mission(raw)
        raw["workload"]["domains"][1]["runs"] = []
        _rejects(raw, "runs[0].topology.volumes", "no volumes")


class TestRunner:
    def test_each_run_builds_only_its_domains(self):
        report = run_mission(validate_mission(mission(
            expect=[{"check": "progress", "run": "b",
                     "domains": ["both", "only-b"]},
                    {"check": "kill_set"}])))
        assert report["passed"], report["invariants"]
        assert sorted(report["runs"]["a"]["mbit"]) == ["both"]
        assert sorted(report["runs"]["b"]["mbit"]) == ["both", "only-b"]
        assert sorted(report["runs"]["b"]["domains"]) == ["both", "only-b"]

    def test_each_run_spawns_only_its_drivers(self):
        report = run_mission(validate_mission(mission(
            drivers=[{"kind": "sample_min_alloc", "domains": ["only-b"],
                      "runs": ["b"]},
                     {"kind": "sample_min_alloc", "domains": ["both"],
                      "runs": ["a"]}])))
        assert report["runs"]["a"]["min_allocated"].keys() == {"both"}
        assert report["runs"]["b"]["min_allocated"].keys() == {"only-b"}
