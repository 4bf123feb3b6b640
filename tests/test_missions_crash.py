"""The mission plane's crash-recovery surface: validation, execution,
audit, and the wall-clock deadline guard.

Fast paths run in tier-1: schema/reference validation for crash rules
and the supervision-backed expectations, a sub-second supervised
crash mission end-to-end (recovery, retention machinery, determinism),
the vacuous-crash audit, and the ``hung`` canonical report driven by
an injected fake clock. The full-scale corpus missions are marked
``crash`` and run via ``pytest -m crash``.
"""

import os

import pytest

from repro.missions import (MissionError, MissionRunner, load_mission,
                            report_json, run_mission, validate_mission)
from tests.test_missions_runner import REPO


def raw_crash_mission(name="tiny-crash", seed=13):
    """A sub-second supervised crash mission (raw, pre-validation):
    two tiny pagers, a rate-1.0 kill of tiny-a's driver mid-measure,
    recovery and bystander-retention expectations, a repeat leg."""
    def pager(pname):
        return {"kind": "pager", "name": pname, "period_ms": 25,
                "slice_ms": 2.5, "mode": "write-loop", "stretch_kb": 256,
                "driver_frames": 8, "swap_kb": 512}
    return {
        "schema": 1,
        "mission": {"name": name, "family": "crash-recovery",
                    "seed": seed, "smoke": False},
        "topology": {"machine_mb": 4},
        "workload": {"domains": [pager("tiny-a"), pager("tiny-b")]},
        "supervision": {"enabled": True, "heartbeat_ms": 20,
                        "backoff_ms": 20, "max_backoff_ms": 200,
                        "sample_ms": 10},
        "phases": {"settle_sec": 0.2, "measure_sec": 0.5},
        "runs": [
            {"name": "baseline"},
            {"name": "crash", "crashes": [
                {"component": "pager:tiny-a", "start_sec": 0.3}]},
        ],
        "determinism": {"repeat": "crash"},
        "expect": [
            {"check": "recovered", "run": "crash",
             "component": "pager:tiny-a", "max_recovery_ms": 200},
            {"check": "bystander_retention_during_crash", "run": "crash",
             "baseline": "baseline", "components": ["pager:tiny-a"],
             "domains": ["tiny-b"], "floor": 0.5},
            {"check": "kill_set", "exactly": {}},
            {"check": "progress", "run": "crash",
             "domains": ["tiny-a", "tiny-b"], "min_mbit": 0.0},
        ],
    }


class TestValidation:
    def _expect_error(self, mission, fragment):
        with pytest.raises(MissionError, match=fragment):
            validate_mission(mission)

    def test_crash_rules_require_supervision(self):
        mission = raw_crash_mission()
        mission["supervision"]["enabled"] = False
        self._expect_error(mission, "supervision.enabled")

    def test_component_must_name_a_pager_domain(self):
        mission = raw_crash_mission()
        mission["runs"][1]["crashes"][0]["component"] = "pager:nope"
        self._expect_error(mission, "names no pager")

    def test_volume_index_must_exist(self):
        mission = raw_crash_mission()
        mission["runs"][1]["crashes"][0]["component"] = "volume:0"
        self._expect_error(mission, "volume index")

    def test_balancer_needs_the_topology_flag(self):
        mission = raw_crash_mission()
        mission["runs"][1]["crashes"][0]["component"] = "balancer"
        self._expect_error(mission, "topology.balancer")

    def test_junk_component_rejected(self):
        mission = raw_crash_mission()
        mission["runs"][1]["crashes"][0]["component"] = "disk"
        self._expect_error(mission, "must be")

    def test_crash_window_must_be_ordered(self):
        mission = raw_crash_mission()
        mission["runs"][1]["crashes"][0].update(
            {"start_sec": 0.4, "end_sec": 0.3})
        self._expect_error(mission, "end_sec")

    def test_recovered_expect_rejects_wildcard_component(self):
        mission = raw_crash_mission()
        mission["expect"][0]["component"] = ""
        self._expect_error(mission, "no wildcard")

    def test_recovered_expect_requires_supervision(self):
        mission = raw_crash_mission()
        mission["supervision"]["enabled"] = False
        mission["runs"] = [{"name": "baseline"}, {"name": "crash"}]
        self._expect_error(mission, "supervision")

    def test_bystander_expect_requires_known_baseline(self):
        mission = raw_crash_mission()
        mission["expect"][1]["baseline"] = "nosuch"
        self._expect_error(mission, "names no run")

    def test_restart_budget_final_state_choices(self):
        mission = raw_crash_mission()
        mission["expect"][0] = {"check": "restart_budget", "run": "crash",
                                "component": "pager:tiny-a", "max": 2,
                                "final": "zombie"}
        self._expect_error(mission, "zombie")

    def test_valid_crash_mission_round_trips(self):
        from repro.missions import serialize_mission
        import tomllib
        mission = validate_mission(raw_crash_mission())
        text = serialize_mission(mission)
        assert validate_mission(tomllib.loads(text)) == mission
        assert "[supervision]" in text
        assert "[[runs.crashes]]" in text


class TestExecution:
    def test_supervised_crash_recovers_and_reproduces(self):
        """End to end on a sub-second mission: the victim restarts
        once within budget, the bystander holds, every crash rule
        fires, and the repeat leg is byte-identical."""
        report = run_mission(validate_mission(raw_crash_mission()))
        assert report["passed"] is True
        assert report["reproducible"] is True
        assert report["audit"]["passed"] is True
        assert report["audit"]["fired"]["crash"]["crashes"] == [0]
        record = report["runs"]["crash"]["supervision"]["pager:tiny-a"]
        assert record["restarts"] == 1
        assert record["state"] == "running"
        assert len(record["windows"]) == 1
        # The baseline run was supervised too — and saw nothing.
        baseline = report["runs"]["baseline"]["supervision"]
        assert all(r["restarts"] == 0 for r in baseline.values())
        # Progress samples back the retention integration.
        assert report["runs"]["crash"]["progress_samples"]
        # Byte-stable canonical JSON.
        assert report_json(report) \
            == report_json(run_mission(validate_mission(
                raw_crash_mission())))

    def test_never_firing_crash_rule_fails_as_vacuous(self):
        """A crash rule scheduled after the run ends never fires; the
        injection audit must fail the mission rather than let the
        invariants pass vacuously."""
        mission = raw_crash_mission()
        mission["runs"][1]["crashes"][0]["start_sec"] = 30.0
        mission["expect"] = [{"check": "progress", "run": "crash",
                              "domains": ["tiny-a"], "min_mbit": 0.0}]
        report = run_mission(validate_mission(mission))
        assert report["passed"] is False
        assert report["audit"]["passed"] is False
        assert any("crashes[0]" in entry
                   for entry in report["audit"]["vacuous"])


class TestDeadlineGuard:
    def test_hung_run_produces_canonical_fail_report(self):
        """A fake wall clock that leaps past the deadline turns the
        run into the canonical ``hung`` report — reason, run name and
        budget, no wall-clock values, overall FAIL."""
        mission = raw_crash_mission()
        mission["runs"][0]["deadline_s"] = 2.0
        mission = validate_mission(mission)
        ticks = iter(range(0, 10_000, 100))   # +100 s per reading

        def clock():
            return float(next(ticks))

        report = MissionRunner(mission, clock=clock).run()
        assert report["passed"] is False
        assert report["error"] == {"reason": "hung", "run": "baseline",
                                   "deadline_s": 2.0}
        assert report["runs"] == {}
        assert report["invariants"] == []
        assert report["reproducible"] is None
        # Canonical: serialises cleanly with no wall-clock values.
        assert "elapsed" not in report_json(report)

    def test_real_clock_does_not_trip_generous_deadlines(self):
        """The default 300 s budget is invisible on a tiny mission."""
        report = run_mission(validate_mission(raw_crash_mission()))
        assert report["passed"] is True


@pytest.mark.crash
class TestCorpusMissions:
    """Full-scale crash-recovery corpus cells (``pytest -m crash``)."""

    @pytest.mark.parametrize("name", [
        "crash-pager-sfs", "crash-balancer-sfs", "crash-usd-sfs",
        "crash-volume-pinned4"])
    def test_corpus_mission_passes(self, name):
        path = os.path.join(REPO, "missions", "matrix",
                            "%s.toml" % name)
        report = run_mission(load_mission(path))
        assert report["passed"] is True, report["invariants"]
        assert report["reproducible"] is True

    def test_volume_cell_walks_the_full_ladder(self):
        path = os.path.join(REPO, "missions", "matrix",
                            "crash-volume-pinned4.toml")
        report = run_mission(load_mission(path))
        record = report["runs"]["crash"]["supervision"]["volume:0"]
        assert record["restarts"] == 2
        assert record["escalations"] == 1
        assert record["state"] == "retired"
        assert len(record["crashes"]) == 3
