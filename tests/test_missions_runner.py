"""Golden-report determinism for the mission runner.

The mission plane's core promise: a mission file *is* its report.
Running the same mission twice — in this process or in a fresh
interpreter — must produce byte-identical canonical JSON, and the
committed golden reports under ``tests/golden/`` (one per corpus
family) must be reproduced exactly by today's tree.  Any intentional
runner change shows up here as a reviewed golden diff instead of a
silent drift of the numbers.
"""

import json
import os
import re
import subprocess
import sys

import pytest

from repro.missions import (load_mission, report_json, run_mission,
                            serialize_mission, validate_mission)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(REPO, "tests", "golden")

#: One committed golden report per corpus family, plus smp-scaling:
#: its one-core run pins the one-core AtroposCpu output.
GOLDEN_MISSIONS = [
    ("chaos", os.path.join("missions", "chaos-fig9.toml")),
    ("pressure", os.path.join("missions", "pressure-revocation.toml")),
    ("scale", os.path.join("missions", "scale-scaleout.toml")),
    ("matrix", os.path.join("missions", "matrix",
                            "matrix-silent-transient-sfs.toml")),
    ("corruption", os.path.join("missions", "matrix",
                                "corruption-bitflip-sfs.toml")),
    ("smp", os.path.join("missions", "matrix", "smp-crosstalk-2cpu.toml")),
    ("smp-scaling", os.path.join("missions", "smp-scaling.toml")),
    ("crash", os.path.join("missions", "matrix", "crash-usd-sfs.toml")),
]


def tiny_mission(name="tiny-determinism", seed=11):
    """A sub-second mission: two pagers on sfs, a hot transient storm,
    and a repeat leg — small enough for tier-1, rich enough to cover
    faults, audit, and the determinism comparison."""
    def pager(pname):
        return {"kind": "pager", "name": pname, "period_ms": 25,
                "slice_ms": 2.5, "mode": "write-loop", "stretch_kb": 256,
                "driver_frames": 8, "swap_kb": 512}
    return validate_mission({
        "schema": 1,
        "mission": {"name": name, "family": "chaos", "seed": seed,
                    "smoke": False},
        "topology": {"machine_mb": 4},
        "workload": {"domains": [pager("tiny-a"), pager("tiny-b")]},
        "phases": {"settle_sec": 0.2, "measure_sec": 0.5},
        "runs": [
            {"name": "baseline"},
            {"name": "storm", "faults": [
                {"kind": "transient", "rate": 0.5,
                 "scope": "extent:tiny-a"}]},
        ],
        "determinism": {"repeat": "storm"},
        "expect": [{"check": "progress", "run": "storm",
                    "domains": ["tiny-a", "tiny-b"], "min_mbit": 0.0}],
    })


class TestDeterminism:
    def test_same_mission_twice_is_byte_identical(self):
        """Two independent executions serialise to the same bytes."""
        first = report_json(run_mission(tiny_mission()))
        second = report_json(run_mission(tiny_mission()))
        assert first == second
        assert json.loads(first)["passed"]

    def test_fresh_interpreter_is_byte_identical(self, tmp_path):
        """A subprocess (fresh hash seeds, fresh module state) running
        the mission from its TOML file reproduces the exact bytes —
        no dict-ordering or interpreter-state leaks into the report."""
        path = tmp_path / "tiny.toml"
        path.write_text(serialize_mission(tiny_mission()),
                        encoding="utf-8")
        in_process = report_json(run_mission(load_mission(str(path))))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src")
        code = ("import sys\n"
                "from repro.missions import (load_mission, report_json,"
                " run_mission)\n"
                "sys.stdout.write(report_json(run_mission("
                "load_mission(sys.argv[1]))))\n")
        proc = subprocess.run(
            [sys.executable, "-c", code, str(path)], cwd=REPO, env=env,
            capture_output=True, text=True, check=True)
        assert proc.stdout == in_process

    def test_report_key_order_is_canonical(self):
        """The report dict iterates in sorted-key order at every level
        (construction-time ``canonical()``), so a plain ``json.dumps``
        equals the sort_keys dump — nothing depends on insertion
        order."""
        report = run_mission(tiny_mission())
        assert json.dumps(report) == json.dumps(report, sort_keys=True)

    def test_report_json_is_plain_sorted_dump(self):
        """report_json is exactly the canonical dump format every
        consumer (sweep, golden files) relies on."""
        report = run_mission(tiny_mission())
        assert report_json(report) == (
            json.dumps(report, sort_keys=True, indent=2) + "\n")


class TestInjectionAudit:
    """Every declared rule is audited: one that never fires fails the
    mission as vacuous, on the storage-fault and behaviour planes as
    on the crash and corruption planes."""

    def test_never_firing_fault_rule_fails_as_vacuous(self):
        mission = tiny_mission()
        mission["runs"][1]["faults"][0]["rate"] = 0.0
        report = run_mission(validate_mission(mission))
        assert not report["passed"]
        assert report["audit"]["vacuous"] == [
            "storm: faults[0] (transient on extent:tiny-a) never fired"]

    def test_never_firing_behavior_rule_fails_as_vacuous(self):
        """Neither pager holds an optimistic frame, so the allocator
        never revokes ``tiny-b`` and its lie is never told."""
        mission = tiny_mission()
        mission["behaviors"] = [{"kind": "revoke_lie", "domain": "tiny-b"}]
        report = run_mission(validate_mission(mission))
        assert not report["passed"]
        assert report["audit"]["vacuous"] == [
            "%s: behaviors[0] (revoke_lie on tiny-b) never fired" % run
            for run in ("baseline", "storm")]


class TestReadmeExample:
    def test_readme_walkthrough_mission_passes(self):
        """The "Writing a mission" TOML in the README is a real,
        passing mission — the docs can't rot silently."""
        from repro.missions import loads_mission
        with open(os.path.join(REPO, "README.md"),
                  encoding="utf-8") as fh:
            text = fh.read()
        block = re.search(r"```toml\n(.*?)```", text, re.S)
        assert block, "README lost its mission walkthrough example"
        report = run_mission(loads_mission(block.group(1)))
        assert report["passed"]
        assert report["audit"]["vacuous"] == []
        assert report["reproducible"] is True


class TestGoldenReports:
    @pytest.mark.parametrize("family,mission_path", GOLDEN_MISSIONS,
                             ids=[f for f, _ in GOLDEN_MISSIONS])
    def test_corpus_mission_matches_golden(self, family, mission_path):
        """Each corpus family's committed golden report is reproduced
        byte for byte by the current tree."""
        mission = load_mission(os.path.join(REPO, mission_path))
        name = mission["mission"]["name"]
        golden_path = os.path.join(GOLDEN, "%s.report.json" % name)
        with open(golden_path, encoding="utf-8") as fh:
            golden = fh.read()
        assert report_json(run_mission(mission)) == golden
        assert json.loads(golden)["passed"]
