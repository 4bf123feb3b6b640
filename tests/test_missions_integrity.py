"""The mission plane's integrity surface: corruption-rule validation,
the integrity checks, end-to-end execution, and the injection audit.

Fast paths run in tier-1: schema/reference validation for
``[[runs.corruptions]]`` and the integrity expectations, a sub-second
corruption mission end-to-end (detection, the repair ledger,
determinism), and the vacuous-corruption audit. The full-scale
corruption cells live in the matrix corpus and run via the sweep.
"""

import pytest

from repro.missions import (MissionError, loads_mission, run_mission,
                            serialize_mission, validate_mission)


def raw_corruption_mission(name="tiny-rot", seed=17):
    """A sub-second corruption mission (raw, pre-validation): two tiny
    read-loop pagers on the single-disk store, a hot bit-flip storm on
    tiny-a's extent, the integrity ledger expectations, a repeat leg."""
    def pager(pname):
        return {"kind": "pager", "name": pname, "period_ms": 25,
                "slice_ms": 10.0, "mode": "read-loop", "stretch_kb": 128,
                "driver_frames": 8, "guaranteed_frames": 8,
                "extra_frames": 0, "swap_kb": 1024}
    return {
        "schema": 1,
        "mission": {"name": name, "family": "corruption", "seed": seed,
                    "smoke": False},
        "topology": {"machine_mb": 4},
        "workload": {"domains": [pager("tiny-a"), pager("tiny-b")]},
        "integrity": {"enabled": True, "scrub_interval_ms": 5},
        "phases": {"settle_sec": 1.0, "measure_sec": 0.5},
        "runs": [
            {"name": "baseline"},
            {"name": "storm", "corruptions": [
                {"kind": "bit_flip", "rate": 0.3,
                 "scope": "extent:tiny-a"}]},
        ],
        "determinism": {"repeat": "storm"},
        "expect": [
            {"check": "undetected_corruptions", "max": 0},
            {"check": "repaired", "run": "storm", "min_detected": 1},
            {"check": "progress", "run": "storm",
             "domains": ["tiny-b"], "min_mbit": 0.0},
        ],
    }


class TestValidation:
    def _expect_error(self, mission, fragment):
        with pytest.raises(MissionError, match=fragment):
            validate_mission(mission)

    def test_unknown_corruption_kind_rejected(self):
        mission = raw_corruption_mission()
        mission["runs"][1]["corruptions"][0]["kind"] = "gamma_ray"
        self._expect_error(mission, "kind")

    def test_junk_scope_rejected(self):
        mission = raw_corruption_mission()
        mission["runs"][1]["corruptions"][0]["scope"] = "everything"
        self._expect_error(mission, "must be 'disk'")

    def test_volume_scope_needs_the_multi_volume_store(self):
        mission = raw_corruption_mission()
        mission["runs"][1]["corruptions"][0]["scope"] = \
            "volume_of:tiny-a"
        self._expect_error(mission, "store='usbs'")

    def test_scope_must_name_a_pager_domain(self):
        mission = raw_corruption_mission()
        mission["runs"][1]["corruptions"][0]["scope"] = "extent:nobody"
        self._expect_error(mission, "names no pager")

    def test_blocks_need_an_extent_scope(self):
        mission = raw_corruption_mission()
        mission["runs"][1]["corruptions"][0].update(
            {"scope": "disk", "blocks": 2})
        self._expect_error(mission, "blocks count needs")

    def test_measure_window_computes_its_own_bounds(self):
        mission = raw_corruption_mission()
        mission["runs"][1]["corruptions"][0].update(
            {"during": "measure", "start_sec": 0.1})
        self._expect_error(mission, "leave start_sec")

    def test_repaired_check_requires_a_known_run(self):
        mission = raw_corruption_mission()
        mission["expect"][1]["run"] = "no-such-run"
        self._expect_error(mission, "names no run")

    def test_repaired_check_rejects_negative_min_repaired(self):
        mission = raw_corruption_mission()
        mission["expect"][1]["min_repaired"] = -1
        self._expect_error(mission, "min_repaired")

    def test_integrity_defaults_are_filled(self):
        mission = validate_mission(raw_corruption_mission())
        integrity = mission["integrity"]
        assert integrity["enabled"] is True
        assert integrity["detect_threshold"] >= 1

    def test_valid_corruption_mission_round_trips(self):
        mission = validate_mission(raw_corruption_mission())
        again = loads_mission(serialize_mission(mission))
        assert again == mission


class TestExecution:
    def test_storm_is_detected_accounted_and_reproducible(self):
        report = run_mission(validate_mission(raw_corruption_mission()))
        assert report["passed"], report["invariants"]
        ledger = report["runs"]["storm"]["integrity"]
        assert ledger["injected"] >= 1
        assert ledger["detected"] >= 1
        assert ledger["undetected"] == 0
        assert ledger["detected"] == ledger["repaired"] + ledger["lost"]
        assert report["reproducible"] is True
        # The audit carries per-rule fire counts for the storm.
        counts = report["audit"]["fired"]["storm"]["counts"]
        assert counts["corruptions"]["0"] == ledger["injected"]

    def test_baseline_ledger_is_clean(self):
        report = run_mission(validate_mission(raw_corruption_mission()))
        ledger = report["runs"]["baseline"]["integrity"]
        assert ledger["injected"] == 0
        assert ledger["detected"] == 0

    def test_never_firing_corruption_rule_fails_as_vacuous(self):
        mission = raw_corruption_mission()
        mission["runs"][1]["corruptions"][0]["rate"] = 0.0
        mission["expect"] = [{"check": "progress", "run": "storm",
                              "domains": ["tiny-b"], "min_mbit": 0.0}]
        report = run_mission(validate_mission(mission))
        assert not report["passed"]
        assert any("corruptions[0]" in entry
                   for entry in report["audit"]["vacuous"])
