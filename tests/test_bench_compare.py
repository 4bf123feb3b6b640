"""Tests for tools/bench_compare.py: a synthetic three-pair record, and
the tables docs/PERFORMANCE.md says are its output."""

import importlib.util
import json
import os
import re

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools", "bench_compare.py")

#: (pair, parent touches/s, change touches/s, parent host_s, change host_s)
PAIRS = (
    (1, 100.0, 120.0, 1.00, 0.80),
    (2, 110.0, 130.0, 0.90, 0.95),
    (3, 90.0, 105.0, 1.10, 0.85),
)


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_compare", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(side, pair, touches, host_s):
    return {"workload": "paging_in", "seed": 1999, "side": side,
            "pair": pair, "commit": "abc1234" if side == "parent"
            else "def5678", "correct": True, "attempted": 3, "failed": 0,
            "metrics": {"touches_per_host_s": {"value": touches,
                                               "unit": "1/s"},
                        "host_s": {"value": host_s, "unit": "s"}}}


def test_compare_prints_medians_quartiles_ratio_and_wins(tmp_path, capsys):
    runs = []
    for pair, old_touches, new_touches, old_host, new_host in PAIRS:
        runs.append(_record("parent", pair, old_touches, old_host))
        runs.append(_record("change", pair, new_touches, new_host))
    path = tmp_path / "BENCH_test.json"
    path.write_text(json.dumps(runs))
    assert _load_tool().main([str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = {line.split()[2]: line for line in lines[1:]}
    assert sorted(rows) == ["host_s", "touches_per_host_s"]
    touches = rows["touches_per_host_s"]
    assert touches.split()[:2] == ["paging_in", "1999"]
    assert "100 [90, 110]" in touches
    assert "120 [105, 130]" in touches
    assert touches.split()[-2:] == ["1.200", "3/3"]
    # host_s is lower-is-better: pair 2 is a loss.
    host = rows["host_s"]
    assert "1 [0.9, 1.1]" in host
    assert "0.85 [0.8, 0.95]" in host
    assert host.split()[-2:] == ["0.850", "2/3"]


def test_usage_error_without_a_file(capsys):
    assert _load_tool().main([]) == 2
    assert "bench_compare.py" in capsys.readouterr().err


#: A sentence ending in the tool's command on a committed record, then
#: the fenced block that claims to be its output.
RECORDED_TABLE = re.compile(
    r"`python3 tools/bench_compare\.py\s+(BENCH_[\w.-]+\.json)`:\n\n"
    r"```\n(.*?)```", re.DOTALL)


def test_performance_tables_are_the_tools_output(capsys):
    root = os.path.dirname(os.path.dirname(TOOL))
    with open(os.path.join(root, "docs", "PERFORMANCE.md")) as handle:
        sections = RECORDED_TABLE.findall(handle.read())
    # The FIFO burst path and the Atropos loop, at least.
    assert len(sections) >= 2
    tool = _load_tool()
    for name, table in sections:
        assert tool.main([os.path.join(root, name)]) == 0
        assert capsys.readouterr().out == table, name
