"""The chaos scenario's acceptance bar, as a test.

Marked ``chaos`` and deselected from the default run: this is the
end-to-end storm (three Figure-9 domains, three full runs) of the
committed ``missions/chaos-fig9.toml``, run by the CI sweep job.
"""

import os

import pytest

from repro.missions import load_mission, run_mission
from tests.test_missions_runner import REPO

MISSION = os.path.join(REPO, "missions", "chaos-fig9.toml")


@pytest.fixture(scope="module")
def mission():
    return load_mission(MISSION)


@pytest.fixture(scope="module")
def report(mission):
    return run_mission(mission)


@pytest.fixture(scope="module")
def victim(mission):
    """The domain whose swap extent hosts the storm."""
    scopes = {rule["scope"] for run in mission["runs"]
              for rule in run["faults"]}
    assert len(scopes) == 1
    return scopes.pop()[len("extent:"):]


def _retention(report, name):
    baseline = report["runs"]["baseline"]["mbit"][name]
    storm = report["runs"]["storm"]["mbit"][name]
    return storm / baseline if baseline else 0.0


@pytest.mark.chaos
class TestChaosScenario:
    def test_storm_actually_happened(self, report, victim):
        storm = report["runs"]["storm"]
        assert storm["stats"]["faults_injected"] > 0
        assert storm["domains"][victim]["usd_retries"] > 0
        assert storm["domains"][victim]["sfs_remaps"] >= 1

    def test_bystanders_keep_their_bandwidth(self, mission, report,
                                             victim):
        bystanders = [name for name in report["runs"]["baseline"]["mbit"]
                      if name != victim]
        assert bystanders == ["fsclient", "pager-20%"]
        (tolerance,) = [check["tolerance"] for check in mission["expect"]
                        if check["check"] == "bandwidth_retention"]
        retention = {name: _retention(report, name) for name in bystanders}
        assert all(abs(value - 1.0) <= tolerance
                   for value in retention.values()), retention

    def test_victim_degrades_but_survives(self, report, victim):
        """Recovery costs the victim bandwidth — charged to it alone —
        but it keeps making progress and loses no pages."""
        assert 0 < report["runs"]["storm"]["mbit"][victim] \
            <= report["runs"]["baseline"]["mbit"][victim]
        assert report["runs"]["storm"]["domains"][victim]["pages_lost"] \
            == 0

    def test_storm_is_reproducible(self, report):
        assert report["reproducible"]
