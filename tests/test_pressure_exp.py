"""The memory-pressure chaos scenario as a pytest (marked ``pressure``).

Runs the committed ``missions/pressure-revocation.toml``. Deselected
by default (see ``addopts`` in pyproject.toml); run with
``pytest -m pressure``.
"""

import os

import pytest

from repro.missions import load_mission, run_mission
from tests.test_missions_runner import REPO

MISSION = os.path.join(REPO, "missions", "pressure-revocation.toml")


@pytest.mark.pressure
def test_pressure_scenario_passes():
    mission = load_mission(MISSION)
    report = run_mission(mission)
    baseline, storm = report["runs"]["baseline"], report["runs"]["storm"]
    coops = sorted(baseline["mbit"])
    guaranteed = {domain["name"]: domain["guaranteed_frames"]
                  for domain in mission["workload"]["domains"]}
    (claim_frames,) = [driver["frames"] for driver in mission["drivers"]
                       if driver["kind"] == "claim"]
    (floor,) = [check["floor"] for check in mission["expect"]
                if check["check"] == "bandwidth_retention"]
    # Every acceptance property individually, for a readable failure.
    assert all(payload["min_allocated"][name] >= guaranteed[name]
               for payload in (baseline, storm) for name in coops), (
        "a cooperative domain dipped below its guarantee: baseline=%r "
        "storm=%r" % (baseline["min_allocated"], storm["min_allocated"]))
    assert all(payload["kills"] == {"hostile": 1}
               for payload in (baseline, storm)), (
        "kills were not exactly the hostile domain: baseline=%r storm=%r"
        % (baseline["kills"], storm["kills"]))
    assert all(payload["claim_granted"] == claim_frames
               for payload in (baseline, storm))
    for name in coops:
        retention = (storm["mbit"][name] / baseline["mbit"][name]
                     if baseline["mbit"][name] else 0.0)
        assert retention >= floor, (
            "%s retained only %.1f%% of fault-free bandwidth"
            % (name, 100 * retention))
    assert report["reproducible"], "same-seed storm runs diverged"
    assert report["passed"]
