"""``tools/heap_census.py``: heap entries per benchmark window, by callable."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "heap_census.py")


def _census(*args):
    proc = subprocess.run([sys.executable, TOOL] + list(args), cwd=ROOT,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def _counts(lines):
    return {name: int(count.replace(",", "")) for count, name in
            (line.split(None, 1) for line in lines)}


def test_census_counts_every_entry_of_the_window():
    """The entries counted by callable add up to the window's own
    ``sim.events``, and the end-of-window heap table adds up to the
    size printed under it."""
    code, out, err = _census("--workload", "inmem_touch", "--seed", "1999")
    assert code == 0, err
    lines = out.splitlines()
    total = re.fullmatch(r"total ([\d,]+) \(sim\.events ([\d,]+)\)",
                         lines[[line.startswith("total ")
                                for line in lines].index(True)])
    counted, events = (int(group.replace(",", "")) for group in
                       total.groups())
    assert counted == events > 0
    heading = lines.index("heap at the window's end, by callable:")
    dispatched = _counts(lines[1:heading - 1])
    assert sum(dispatched.values()) == counted
    assert "Domain._turn" in dispatched
    size = int(lines[-1].removeprefix("heap size ").replace(",", ""))
    assert sum(_counts(lines[heading + 1:-1]).values()) == size


def test_unknown_workload_is_refused():
    code, _out, err = _census("--workload", "nope")
    assert code != 0
    assert "unknown workload 'nope'" in err
