"""Property-based tests (hypothesis) on the mission validator.

Two contracts from the mission-plane design:

* **Round trip**: for any valid mission, normalise -> serialise ->
  parse -> normalise is the identity, and the canonical TOML text is
  itself a fixed point (serialising twice gives the same bytes).
* **Rejection**: corrupting a valid mission — dropping sections,
  breaking types, inserting unknown keys, dangling references —
  raises :class:`~repro.missions.MissionError` naming the offending
  field path; never a raw ``KeyError``/``TypeError`` traceback, and
  never silent acceptance.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.missions import (MissionError, loads_mission,
                            serialize_mission, validate_mission)

# ---------------------------------------------------------------------------
# A generator for valid (sparse) mission dicts
# ---------------------------------------------------------------------------

#: Text that exercises the TOML serialiser's escaping (quotes,
#: backslashes, newlines, control characters, non-ASCII).
_descriptions = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=30)

_names = st.sampled_from(["coop-a", "coop-b", "pager one", "d_0", "Δ-pager"])


@st.composite
def _pager(draw, name, store):
    return {
        "kind": "pager", "name": name,
        "period_ms": draw(st.sampled_from([25, 100, 250])),
        "slice_ms": draw(st.sampled_from([2.5, 10.0, 50.0])),
        "mode": draw(st.sampled_from(["read-loop", "write-loop"])),
        "stretch_kb": draw(st.sampled_from([64, 128, 256])),
        "driver_frames": draw(st.integers(8, 48)),
        "swap_kb": 512,
        "store": store,
    }


@st.composite
def missions(draw):
    """A valid, sparse (defaults left implicit) raw mission dict."""
    store = draw(st.sampled_from(["sfs", "usbs"]))
    names = draw(st.lists(_names, min_size=1, max_size=3, unique=True))
    domains = [draw(_pager(name, store)) for name in names]
    topology = {"machine_mb": draw(st.sampled_from([4, 8, 16]))}
    if store == "usbs":
        topology["volumes"] = draw(st.integers(1, 4))
    victim = names[0]
    scope = ("extent:%s" if store == "sfs" else "volume_of:%s") % victim
    faults = draw(st.lists(st.sampled_from([
        {"kind": "transient", "rate": 0.25, "scope": scope},
        {"kind": "latency", "rate": 0.5, "extra_ms": 3, "scope": scope},
    ]), max_size=2, unique_by=lambda rule: rule["kind"]))
    runs = [{"name": "baseline"}, {"name": "storm", "faults": faults}]
    raw = {
        "schema": 1,
        "mission": {"name": draw(st.sampled_from(
                        ["prop-a", "prop-b", "prop.c"])),
                    "family": draw(st.sampled_from(
                        ["chaos", "pressure", "scale", "matrix"])),
                    "description": draw(_descriptions),
                    "seed": draw(st.integers(0, 2**31 - 1)),
                    "smoke": draw(st.booleans())},
        "topology": topology,
        "workload": {"domains": domains},
        "phases": {"settle_sec": 0.5,
                   "measure_sec": draw(st.sampled_from([0.5, 1.0]))},
        "runs": runs,
    }
    if draw(st.booleans()):
        raw["determinism"] = {"repeat": "storm"}
    if draw(st.booleans()):
        raw["expect"] = [{"check": "progress", "run": "storm",
                          "domains": list(names), "min_mbit": 0.0}]
    return raw


# ---------------------------------------------------------------------------
# Round trip
# ---------------------------------------------------------------------------

class TestRoundTrip:
    @given(missions())
    @settings(max_examples=60, deadline=None)
    def test_validate_serialize_validate_is_identity(self, raw):
        """normalise -> TOML -> parse -> normalise == normalise."""
        mission = validate_mission(raw)
        text = serialize_mission(mission)
        assert loads_mission(text) == mission

    @given(missions())
    @settings(max_examples=30, deadline=None)
    def test_serialisation_is_canonical(self, raw):
        """The canonical text is a fixed point: serialising the
        re-parsed mission reproduces the exact bytes."""
        mission = validate_mission(raw)
        text = serialize_mission(mission)
        assert serialize_mission(loads_mission(text)) == text

    @given(missions())
    @settings(max_examples=30, deadline=None)
    def test_normalisation_is_idempotent(self, raw):
        """A normalised mission re-validates to itself (defaults are
        explicit and every explicit field is legal)."""
        mission = validate_mission(raw)
        assert validate_mission(copy.deepcopy(mission)) == mission


# ---------------------------------------------------------------------------
# Rejection with field paths
# ---------------------------------------------------------------------------

#: (label, corruption) pairs: each takes a deep-copied *normalised*
#: mission and breaks it. Labels keep hypothesis' shrunk output legible.
_CORRUPTIONS = [
    ("drop-workload", lambda d: d.pop("workload")),
    ("drop-schema", lambda d: d.pop("schema")),
    ("future-schema", lambda d: d.__setitem__("schema", 99)),
    ("drop-name", lambda d: d["mission"].pop("name")),
    ("seed-type", lambda d: d["mission"].__setitem__("seed", "xyz")),
    ("unknown-key", lambda d: d["mission"].__setitem__("bogus", 1)),
    ("bad-kind",
     lambda d: d["workload"]["domains"][0].__setitem__("kind", "bogus")),
    ("zero-slice",
     lambda d: d["workload"]["domains"][0].__setitem__("slice_ms", 0.0)),
    ("dup-domain",
     lambda d: d["workload"]["domains"].append(
         copy.deepcopy(d["workload"]["domains"][0]))),
    ("section-type", lambda d: d.__setitem__("workload", "oops")),
    ("domains-type",
     lambda d: d["workload"].__setitem__("domains", 5)),
    ("empty-runs", lambda d: d.__setitem__("runs", [])),
    ("dup-run",
     lambda d: d["runs"].append(copy.deepcopy(d["runs"][0]))),
    ("neg-settle",
     lambda d: d["phases"].__setitem__("settle_sec", -1.0)),
    ("dangling-repeat",
     lambda d: d["determinism"].__setitem__("repeat", "nosuch")),
    ("neg-rate",
     lambda d: d["runs"].append(
         {"name": "bad", "topology": d["topology"],
          "faults": [{"kind": "transient", "rate": -1.0,
                      "scope": "disk"}]})),
    ("dangling-scope",
     lambda d: d["runs"].append(
         {"name": "bad", "topology": d["topology"],
          "faults": [{"kind": "transient", "rate": 0.5,
                      "scope": "extent:nosuch"}]})),
    ("runs-names-no-run",
     lambda d: d["workload"]["domains"][0].__setitem__("runs", ["nosuch"])),
    ("check-on-unbuilt-domain", lambda d: (
        d["workload"]["domains"][0].__setitem__("runs", ["baseline"]),
        d["runs"][1].__setitem__("faults", []),
        d["expect"].append({"check": "progress", "run": "storm",
                            "domains": [d["workload"]["domains"][0]
                                        ["name"]]}))),
]


class TestRejection:
    @given(missions(), st.sampled_from(_CORRUPTIONS))
    @settings(max_examples=120, deadline=None)
    def test_corruption_rejected_with_field_path(self, raw, corruption):
        """Every corruption raises MissionError whose ``path`` names
        the offending field and appears in the message — never a raw
        traceback, never acceptance."""
        label, corrupt = corruption
        bad = copy.deepcopy(validate_mission(raw))
        corrupt(bad)
        try:
            validate_mission(bad)
        except MissionError as exc:
            assert isinstance(exc, ValueError)
            assert isinstance(exc.path, str) and exc.path, label
            assert exc.path in str(exc), label
        else:
            raise AssertionError("%s: corrupted mission accepted" % label)

    @given(st.text(max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_text_never_tracebacks(self, text):
        """loads_mission on arbitrary text either parses+validates or
        raises MissionError — TOML syntax errors are wrapped too."""
        try:
            loads_mission(text)
        except MissionError as exc:
            assert str(exc)
