"""docs/PAPER_MAP.md lists the metric families a run records: every
name in the first column of its "Metric | Paper concept" table must
be registered somewhere in ``src/repro``, so the table cannot document
a metric that no run produces."""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAPER_MAP = os.path.join(ROOT, "docs", "PAPER_MAP.md")
SOURCES = os.path.join(ROOT, "src", "repro")


def _documented_families():
    """Metric family names from the table's first column, in order."""
    with open(PAPER_MAP, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    start = next(index for index, line in enumerate(lines)
                 if line.startswith("| Metric | Paper concept"))
    names = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        first_column = line.split("|")[1]
        for token in re.findall(r"`([^`]+)`", first_column):
            names.append(token.split("{")[0])
    return names


def _source_text():
    chunks = []
    for directory, _dirs, files in os.walk(SOURCES):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(directory, name),
                          encoding="utf-8") as handle:
                    chunks.append(handle.read())
    return "\n".join(chunks)


def test_every_documented_metric_family_is_registered():
    names = _documented_families()
    assert len(set(names)) >= 50     # the table was found and parsed
    source = _source_text()
    missing = [name for name in names
               if '"%s"' % name not in source
               and "'%s'" % name not in source]
    assert missing == []
