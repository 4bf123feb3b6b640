"""Tests for tools/bench_pairs.py: two stub checkouts whose
``perfbench/run.py`` prints a fixed final JSON line, read back through
tools/bench_compare.py."""

import importlib.util
import json
import os
import textwrap

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools")

#: A stand-in for perfbench/run.py: logs its side and arguments, then
#: prints the final JSON line its checkout's ``touches`` file sets (or
#: nothing, once the file holds a negative number).
STUB = textwrap.dedent('''\
    import json, os, sys
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(os.path.dirname(here), "log"), "a") as log:
        log.write(os.path.basename(here) + " " + " ".join(sys.argv[1:])
                  + "\\n")
    with open(os.path.join(here, "touches")) as handle:
        touches = float(handle.read())
    if touches < 0:
        sys.exit(3)
    print("touches_per_host_s %s 1/s" % touches)
    print(json.dumps({"correct": True, "attempted": 10, "failed": 0,
                      "metrics": {"touches_per_host_s": {
                          "value": touches, "unit": "1/s"}}}))
    ''')


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(TOOLS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkout(root, name, touches):
    path = root / name
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(STUB)
    (path / "touches").write_text(str(touches))
    return str(path)


def test_pairs_alternate_and_compare(tmp_path, capsys):
    parent = _checkout(tmp_path, "old", 100.0)
    change = _checkout(tmp_path, "new", 125.0)
    out = tmp_path / "BENCH_test.json"
    assert _load("bench_pairs").main(
        [parent, change, "--workload", "fs_isolation", "--seed", "4242",
         "--pairs", "3", "--out", str(out)]) == 0
    log = (tmp_path / "log").read_text().splitlines()
    assert [line.split()[0] for line in log] == [
        "old", "new", "new", "old", "old", "new"]
    assert set(line.split(" ", 1)[1] for line in log) == {
        "--workload fs_isolation --seed 4242 --trace 0"}
    runs = json.loads(out.read_text())
    assert [(run["pair"], run["side"], run["commit"]) for run in runs] == [
        (1, "parent", "old"), (1, "change", "new"),
        (2, "change", "new"), (2, "parent", "old"),
        (3, "parent", "old"), (3, "change", "new")]
    assert all(run["workload"] == "fs_isolation" and run["seed"] == 4242
               and run["correct"] and run["failed"] == 0 for run in runs)
    capsys.readouterr()
    assert _load("bench_compare").main([str(out)]) == 0
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row[:3] == ["fs_isolation", "4242", "touches_per_host_s"]
    assert row[-2:] == ["1.250", "3/3"]


def test_each_run_is_kept_and_a_file_is_extended(tmp_path):
    parent = _checkout(tmp_path, "old", 100.0)
    change = _checkout(tmp_path, "new", 90.0)
    out = tmp_path / "BENCH_test.json"
    tool = _load("bench_pairs")
    args = [parent, change, "--workload", "paging_in", "--pairs", "2",
            "--out", str(out)]
    assert tool.main(args) == 0
    # The change's checkout breaks in the second invocation's first
    # pair, after the parent's run: that run is already on file.
    (tmp_path / "new" / "touches").write_text("-1")
    with pytest.raises(RuntimeError, match="no final JSON line"):
        tool.main(args)
    runs = json.loads(out.read_text())
    assert [(run["pair"], run["side"]) for run in runs] == [
        (1, "parent"), (1, "change"), (2, "change"), (2, "parent"),
        (3, "parent")]
    assert [run["seed"] for run in runs] == [1999] * 5
