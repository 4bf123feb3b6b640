"""The docs name only what the code has.

docs/PAPER_MAP.md lists the metric families a run records: every
name in the first column of its "Metric | Paper concept" table must
be registered somewhere in ``src/repro``, so the table cannot document
a metric that no run produces, and every family registered there must
have a row, so no run produces a metric the table leaves out. And
every backticked dotted
``repro.…`` name in README.md, DESIGN.md, EXPERIMENTS.md and docs/
must resolve to a module or an attribute, so no doc points a reader
at a class, method or module that is gone."""

import glob
import importlib
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


def _registered_families():
    """Family names ``src/repro`` registers: the literal first argument
    of every ``.counter(`` / ``.gauge(`` / ``.histogram(`` call, plus
    each fault plane's ``METRIC`` name (bound through a variable)."""
    source = _source_text()
    names = set(re.findall(
        r'\.(?:counter|gauge|histogram)\(\s*"([a-z0-9_]+)"', source))
    names.update(re.findall(r'METRIC = \(\s*"([a-z0-9_]+)"', source))
    return names


def test_every_registered_metric_family_is_documented():
    registered = _registered_families()
    assert len(registered) >= 60     # the registrations were found
    assert sorted(registered - set(_documented_families())) == []


def _documented_names():
    """Every backticked dotted ``repro.…`` name in the prose docs."""
    paths = [os.path.join(ROOT, name)
             for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    paths += sorted(glob.glob(os.path.join(ROOT, "docs", "*.md")))
    names = set()
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            names.update(re.findall(r"`(repro(?:\.\w+)+)`", handle.read()))
    return sorted(names)


def _resolves(name):
    """Import the longest module prefix of ``name``, then look up the
    rest as attributes."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


def test_every_documented_repro_name_resolves():
    names = _documented_names()
    assert len(names) >= 100         # the docs were found and parsed
    assert [name for name in names if not _resolves(name)] == []
