"""The ``repro.exp sweep`` CLI: corpus lint, parallel execution, and
the aggregate ``sweep.json`` contract.

The heavy corpus itself runs in CI via ``make sweep``; these
tests exercise the machinery on sub-second missions — discovery,
up-front lint abort, worker-pool execution, smoke/name filtering, and
the aggregate's canonical layout.
"""

import json
import os
import time

import pytest

from repro.exp import sweep
from repro.missions import serialize_mission
from tests.test_missions_runner import REPO, tiny_mission


def _crashing_worker(path):
    """A worker body that hard-kills its own process for one mission
    (simulating a segfault/OOM kill) and runs the rest normally."""
    if "tiny-doomed" in path:
        os._exit(17)
    return sweep._worker(path)


def _wedging_worker(path):
    """A worker body that crashes its pool on the first attempt and
    then wedges below any Python-level guard on the lone retry — the
    exact failure the bounded retry leg exists to contain."""
    if "tiny-wedged" in path:
        marker = path + ".crashed-once"
        if os.path.exists(marker):
            time.sleep(5)   # a stuck syscall, as far as the parent knows
            os._exit(0)
        open(marker, "w").close()
        os._exit(17)
    return sweep._worker(path)


@pytest.fixture
def corpus(tmp_path):
    """Two valid tiny missions on disk (one marked smoke)."""
    directory = tmp_path / "missions"
    directory.mkdir()
    smoke = tiny_mission(name="tiny-smoke", seed=3)
    smoke["mission"]["smoke"] = True
    for mission in (tiny_mission(name="tiny-full", seed=5), smoke):
        path = directory / ("%s.toml" % mission["mission"]["name"])
        path.write_text(serialize_mission(mission), encoding="utf-8")
    return directory


class TestLint:
    def test_committed_corpus_is_valid(self, monkeypatch, capsys):
        """Every mission file shipped in the repo lints clean."""
        monkeypatch.chdir(REPO)
        assert sweep.main(["--lint"]) == 0
        out = capsys.readouterr().out
        assert "mission files validated" in out

    def test_invalid_file_aborts_with_field_path(self, corpus, capsys):
        """A malformed mission aborts the sweep before any run, and
        the error names the offending file and field path."""
        bad = corpus / "broken.toml"
        bad.write_text('schema = 1\n[mission]\nname = "broken"\n'
                       'family = "chaos"\nseed = "x"\n',
                       encoding="utf-8")
        code = sweep.main(["--lint", "--missions", str(corpus)])
        out = capsys.readouterr().out
        assert code == 1
        assert "INVALID" in out and "broken.toml" in out
        assert "mission.seed" in out

    def test_duplicate_mission_name_across_directories_rejected(
            self, corpus, tmp_path, capsys):
        """Two files with one mission.name would write one report file,
        the second overwriting the first: lint names both paths."""
        other = tmp_path / "more"
        other.mkdir()
        twin = other / "twin.toml"
        twin.write_text(serialize_mission(tiny_mission(name="tiny-full")),
                        encoding="utf-8")
        code = sweep.main(["--lint", "--missions", str(corpus),
                           "--missions", str(other)])
        out = capsys.readouterr().out
        assert code == 1
        assert "INVALID" in out and "'tiny-full'" in out
        assert str(twin) in out
        assert str(corpus / "tiny-full.toml") in out

    def test_unknown_mission_name_rejected(self, corpus, capsys):
        code = sweep.main(["--missions", str(corpus), "nosuch"])
        assert code == 1
        assert "unknown mission" in capsys.readouterr().out


class TestSweep:
    def test_parallel_sweep_writes_reports_and_aggregate(
            self, corpus, tmp_path, capsys):
        """Two missions on two workers: per-mission reports land in
        <out>/missions/, the aggregate in <out>/sweep.json, exit 0."""
        out = tmp_path / "results"
        code = sweep.main(["--missions", str(corpus), "--jobs", "2",
                           "--out", str(out)])
        assert code == 0
        with open(out / "sweep.json", encoding="utf-8") as fh:
            aggregate = json.load(fh)
        assert aggregate["schema_version"] == sweep.SWEEP_SCHEMA_VERSION
        assert aggregate["jobs"] == 2
        assert aggregate["passed"] is True
        assert aggregate["counts"] == {
            "total": 2, "passed": 2, "failed": 0, "vacuous": 0,
            "crashed": 0, "hung": 0}
        names = [row["name"] for row in aggregate["missions"]]
        assert names == sorted(names) == ["tiny-full", "tiny-smoke"]
        for name in names:
            with open(out / "missions" / ("%s.json" % name),
                      encoding="utf-8") as fh:
                report = json.load(fh)
            assert report["passed"] is True
            assert report["mission"]["name"] == name
        assert "2/2 passed" in capsys.readouterr().out

    def test_aggregate_json_is_canonical(self, corpus, tmp_path):
        """sweep.json is dumped with sorted keys — byte-stable across
        runs of the same corpus apart from elapsed wall-clock."""
        out = tmp_path / "results"
        sweep.main(["--missions", str(corpus), "--jobs", "1",
                    "--out", str(out)])
        text = (out / "sweep.json").read_text(encoding="utf-8")
        data = json.loads(text)
        assert text == json.dumps(data, indent=2, sort_keys=True) + "\n"

    def test_smoke_filter_selects_marked_missions(
            self, corpus, tmp_path, capsys):
        """``--smoke`` and naming a mission both run tiny-smoke alone:
        its report is the only one written, and the aggregate has its
        row alone."""
        for label, select in (("smoke", ["--smoke"]),
                              ("named", ["tiny-smoke"])):
            out = tmp_path / label
            code = sweep.main(["--missions", str(corpus), "--jobs", "1",
                               "--out", str(out)] + select)
            assert code == 0
            assert os.listdir(out / "missions") == ["tiny-smoke.json"]
            with open(out / "sweep.json", encoding="utf-8") as fh:
                aggregate = json.load(fh)
            assert [row["name"] for row in aggregate["missions"]] \
                == ["tiny-smoke"]
            assert "1/1 passed" in capsys.readouterr().out

    def test_mission_without_repeat_leg_is_not_flagged(
            self, tmp_path, capsys):
        """A mission with no determinism repeat reports
        ``reproducible: null``; its PASS row carries no
        NOT-reproducible flag."""
        directory = tmp_path / "missions"
        directory.mkdir()
        mission = tiny_mission(name="tiny-once", seed=13)
        mission["determinism"]["repeat"] = ""
        (directory / "tiny-once.toml").write_text(
            serialize_mission(mission), encoding="utf-8")
        out = tmp_path / "results"
        code = sweep.main(["--missions", str(directory), "--jobs", "1",
                           "--out", str(out)])
        assert code == 0
        with open(out / "sweep.json", encoding="utf-8") as fh:
            row = json.load(fh)["missions"][0]
        assert row["passed"] is True
        assert row["reproducible"] is None
        text = capsys.readouterr().out
        assert "tiny-once" in text and "1/1 passed" in text
        assert "NOT reproducible" not in text

    def test_failing_mission_fails_the_sweep(self, tmp_path, capsys):
        """An unsatisfiable invariant turns up as a FAIL row with the
        failed check attached, and a non-zero exit."""
        directory = tmp_path / "missions"
        directory.mkdir()
        doomed = tiny_mission(name="tiny-doomed", seed=9)
        doomed["expect"].append(
            {"check": "progress", "run": "storm",
             "domains": ["tiny-a"], "min_mbit": 10000.0})
        (directory / "tiny-doomed.toml").write_text(
            serialize_mission(doomed), encoding="utf-8")
        out = tmp_path / "results"
        code = sweep.main(["--missions", str(directory),
                           "--out", str(out)])
        assert code == 1
        with open(out / "sweep.json", encoding="utf-8") as fh:
            aggregate = json.load(fh)
        assert aggregate["passed"] is False
        row = aggregate["missions"][0]
        assert row["passed"] is False
        assert row["invariants_failed"][0]["check"] == "progress"
        assert "FAIL" in capsys.readouterr().out


class TestWorkerCrash:
    """A worker process dying outright must not take the sweep down."""

    @pytest.fixture
    def corpus(self, tmp_path):
        """Three missions: two healthy, one whose worker will die."""
        directory = tmp_path / "missions"
        directory.mkdir()
        for name, seed in (("tiny-a", 3), ("tiny-doomed", 5),
                           ("tiny-z", 7)):
            mission = tiny_mission(name=name, seed=seed)
            (directory / ("%s.toml" % name)).write_text(
                serialize_mission(mission), encoding="utf-8")
        return directory

    def test_crashed_worker_fails_only_its_mission(self, corpus,
                                                   tmp_path):
        """The crasher is charged FAIL/worker_crashed; the bystanders
        (poisoned on the same broken pool) complete on the retry."""
        paths = sweep.discover([str(corpus)])
        aggregate = sweep.sweep(paths, jobs=2,
                                out_dir=str(tmp_path / "results"),
                                worker=_crashing_worker)
        assert aggregate["passed"] is False
        assert aggregate["counts"] == {
            "total": 3, "passed": 2, "failed": 1, "vacuous": 0,
            "crashed": 1, "hung": 0}
        rows = {row["name"]: row for row in aggregate["missions"]}
        assert rows["tiny-doomed"]["passed"] is False
        assert rows["tiny-doomed"]["error"] == "worker_crashed"
        assert rows["tiny-doomed"]["invariants_failed"] == []
        for name in ("tiny-a", "tiny-z"):
            assert rows[name]["passed"] is True
            assert rows[name]["error"] is None

    def test_survivor_reports_still_written(self, corpus, tmp_path):
        """Per-mission report files exist for the survivors and not
        for the crasher (it produced no report to write)."""
        out = tmp_path / "results"
        paths = sweep.discover([str(corpus)])
        sweep.sweep(paths, jobs=2, out_dir=str(out),
                    worker=_crashing_worker)
        assert (out / "missions" / "tiny-a.json").exists()
        assert (out / "missions" / "tiny-z.json").exists()
        assert not (out / "missions" / "tiny-doomed.json").exists()

    def test_crash_row_rendered_in_summary(self, corpus, tmp_path):
        paths = sweep.discover([str(corpus)])
        aggregate = sweep.sweep(paths, jobs=2,
                                out_dir=str(tmp_path / "results"),
                                worker=_crashing_worker)
        text = sweep.format_aggregate(aggregate)
        assert "worker_crashed" in text
        assert "2/3 passed" in text


class TestHungRetry:
    """A retry wedged below the runner's own hang guard is abandoned
    on the mission's wall-clock budget and charged a canonical FAIL."""

    @pytest.fixture
    def corpus(self, tmp_path):
        """Three missions: two healthy, one that crashes then wedges."""
        directory = tmp_path / "missions"
        directory.mkdir()
        for name, seed in (("tiny-a", 3), ("tiny-wedged", 5),
                           ("tiny-z", 7)):
            mission = tiny_mission(name=name, seed=seed)
            (directory / ("%s.toml" % name)).write_text(
                serialize_mission(mission), encoding="utf-8")
        return directory

    def test_budget_sums_run_deadlines_plus_repeat(self, tmp_path):
        """The retry budget is the mission's own declared wall-clock:
        every run's deadline_s, the determinism repeat charged twice,
        plus fixed slack."""
        mission = tiny_mission(name="tiny-budget")
        for run in mission["runs"]:
            run["deadline_s"] = 40.0
        path = tmp_path / "tiny-budget.toml"
        path.write_text(serialize_mission(mission), encoding="utf-8")
        # Two runs at 40 s + the repeated storm leg + slack.
        assert sweep._retry_budget(str(path)) == \
            3 * 40.0 + sweep.RETRY_SLACK_SEC

    def test_wedged_retry_is_abandoned_and_charged_hung(
            self, corpus, tmp_path):
        """The sweep returns (bounded by the injected tiny budget)
        with the wedged mission charged FAIL/hung; bystanders pass."""
        paths = sweep.discover([str(corpus)])
        out = tmp_path / "results"
        started = time.monotonic()
        aggregate = sweep.sweep(paths, jobs=2, out_dir=str(out),
                                worker=_wedging_worker,
                                budget=lambda path: 0.5)
        assert time.monotonic() - started < 30.0   # it came back
        assert aggregate["passed"] is False
        assert aggregate["counts"] == {
            "total": 3, "passed": 2, "failed": 1, "vacuous": 0,
            "crashed": 0, "hung": 1}
        rows = {row["name"]: row for row in aggregate["missions"]}
        assert rows["tiny-wedged"]["error"] == "hung"
        assert rows["tiny-wedged"]["passed"] is False
        for name in ("tiny-a", "tiny-z"):
            assert rows[name]["passed"] is True
        # The hung mission still got a canonical FAIL report on disk.
        with open(out / "missions" / "tiny-wedged.json",
                  encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["passed"] is False
        assert report["error"]["reason"] == "hung"
        assert report["runs"] == {}
        assert report["audit"]["passed"] is False
        text = sweep.format_aggregate(aggregate)
        assert "hung" in text and "2/3 passed" in text
