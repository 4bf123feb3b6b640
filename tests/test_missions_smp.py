"""Tests for the SMP mission plane: the topology/compute/crosstalk
schema additions, the validator's cross-references (active runs, cpu
component addresses, crosstalk preconditions), and an end-to-end
multi-core mission through the runner — including a supervised
per-core crash."""

import pytest

from repro.missions import MissionError, run_mission, validate_mission
from repro.system import NemesisSystem


def smp_mission(**overrides):
    """A minimal valid two-core crosstalk mission (fast to run)."""
    mission = {
        "schema": 1,
        "mission": {"name": "smp-test", "family": "smp", "seed": 11},
        "topology": {"machine_mb": 8, "cpus": 2},
        "workload": {"domains": [
            {"kind": "compute", "name": "bystander", "period_ms": 10,
             "slice_ms": 6.0},
            {"kind": "compute", "name": "hog", "period_ms": 10,
             "slice_ms": 5.0, "extra": True, "active_runs": ["storm"]},
        ]},
        "phases": {"settle_sec": 0.2, "measure_sec": 0.5},
        "runs": [{"name": "calm"}, {"name": "storm"}],
        "determinism": {"repeat": "storm"},
        "expect": [
            {"check": "crosstalk_contained", "run": "storm",
             "baseline": "calm", "hog": "hog", "domains": ["bystander"],
             "floor": 0.95},
        ],
    }
    mission.update(overrides)
    return mission


class TestSchema:
    def test_topology_defaults_to_classic(self):
        mission = smp_mission()
        mission["topology"] = {"machine_mb": 8}
        mission["expect"] = []
        normalised = validate_mission(mission)
        assert normalised["topology"]["cpus"] == 0

    def test_placement_choices_enforced(self):
        mission = smp_mission()
        mission["topology"]["volume_placement"] = "random"
        with pytest.raises(MissionError):
            validate_mission(mission)

    def test_compute_domain_normalises(self):
        normalised = validate_mission(smp_mission())
        hog = [d for d in normalised["workload"]["domains"]
               if d["name"] == "hog"][0]
        assert hog["extra"] is True
        assert hog["active_runs"] == ["storm"]


class TestValidator:
    def test_active_runs_must_reference_runs(self):
        mission = smp_mission()
        mission["workload"]["domains"][1]["active_runs"] = ["nosuch"]
        with pytest.raises(MissionError) as err:
            validate_mission(mission)
        assert "active_runs" in str(err.value)

    def test_crosstalk_hog_cannot_be_its_own_bystander(self):
        mission = smp_mission()
        mission["expect"][0]["domains"] = ["bystander", "hog"]
        with pytest.raises(MissionError):
            validate_mission(mission)

    def test_crosstalk_needs_a_multicore_run(self):
        mission = smp_mission()
        mission["topology"]["cpus"] = 1
        with pytest.raises(MissionError) as err:
            validate_mission(mission)
        assert "cpus" in str(err.value)

    def test_cpu_component_address_bounds_checked(self):
        mission = smp_mission()
        mission["supervision"] = {"enabled": True}
        mission["runs"][1]["crashes"] = [
            {"component": "cpu:1", "start_sec": 0.3}]
        validate_mission(mission)       # in range: fine
        mission["runs"][1]["crashes"] = [
            {"component": "cpu:5", "start_sec": 0.3}]
        with pytest.raises(MissionError):
            validate_mission(mission)


class TestRunner:
    def test_crosstalk_mission_end_to_end(self):
        report = run_mission(validate_mission(smp_mission()))
        assert report["passed"] and report["reproducible"]
        storm = report["runs"]["storm"]
        assert storm["core_of"]["bystander"] != storm["core_of"]["hog"]
        assert set(storm["cpu_shares"]) == {"cpu0", "cpu1"}
        # The hog computes only in its active run.
        assert report["runs"]["calm"]["mbit"]["hog"] == 0.0
        assert storm["mbit"]["hog"] > 0.0

    def test_classic_missions_carry_no_smp_payload(self):
        mission = smp_mission()
        mission["topology"] = {"machine_mb": 8}
        mission["workload"]["domains"] = [
            {"kind": "compute", "name": "solo", "period_ms": 10,
             "slice_ms": 5.0}]
        mission["runs"] = [{"name": "calm"}]
        mission["determinism"] = {"repeat": "calm"}
        mission["expect"] = [
            {"check": "progress", "run": "calm", "domains": ["solo"]}]
        report = run_mission(validate_mission(mission))
        assert report["passed"]
        assert "core_of" not in report["runs"]["calm"]
        assert "cpu_shares" not in report["runs"]["calm"]
        # The classic path builds no placement layer or per-core state.
        cpu = NemesisSystem().cpu
        assert getattr(cpu, "core_map", None) is None
        assert getattr(cpu, "scheds", None) is None

    def test_supervised_core_crash_recovers(self):
        mission = smp_mission()
        mission["supervision"] = {"enabled": True}
        # Crash the hog's core mid-storm; the supervisor must restart
        # it fast enough that the run still meets every expectation.
        mission["runs"][1]["crashes"] = [
            {"component": "cpu:0", "start_sec": 0.3},
            {"component": "cpu:1", "start_sec": 0.3}]
        # The outage eats into the short measure window, so the tight
        # retention floor does not apply -- recovery itself is the claim.
        mission["expect"][0]["floor"] = 0.5
        mission["expect"] += [
            {"check": "progress", "run": "storm", "domains": ["bystander"]},
            {"check": "recovered", "run": "storm", "component": "cpu:0",
             "max_recovery_ms": 1000},
            {"check": "recovered", "run": "storm", "component": "cpu:1",
             "max_recovery_ms": 1000},
        ]
        report = run_mission(validate_mission(mission))
        assert report["passed"], [inv for inv in report["invariants"]
                                  if not inv["passed"]]
