"""The committed scenario missions keep every gate of the scenario
modules they replaced.

The chaos, pressure, crash-recovery, integrity and USBS scale-out
scenarios used to be Python modules that built a mission, ran it and
re-derived a verdict. The committed TOML files are now their only
definition, so each must declare the checks those verdicts enforced:
a port that drops a gate fails here, in tier 1, without running a
simulation. The numbers themselves are pinned by the chaos-fig9 and
pressure-revocation golden reports, the ``chaos``/``pressure`` marker
tests, and the sweep, which fails any mission whose checks fail.
"""

import os

from repro.missions import load_mission
from tests.test_missions_runner import REPO

#: mission file -> (check kinds its scenario module enforced, whether
#: it also gated a byte-identical determinism repeat).
SCENARIO_GATES = {
    "chaos-fig9": ({"bandwidth_retention"}, True),
    "pressure-revocation": (
        {"min_frames", "kill_set", "claim_granted",
         "bandwidth_retention"}, True),
    "crash-recovery": (
        {"kill_set", "recovered", "restart_budget",
         "bystander_retention_during_crash", "progress"}, True),
    "integrity-accountability": (
        {"undetected_corruptions", "repaired", "scrub_overhead",
         "progress", "share_error", "drained"}, True),
    "scale-scaling": ({"scaling", "share_error"}, False),
    "scale-failover": (
        {"bandwidth_retention", "exposure_contained", "drained",
         "losses_contained"}, False),
}


class TestCorpusMatchesWrappers:
    """Each scenario mission declares the gates of the module it
    replaced."""

    def test_corpus_declares_invariants(self):
        for name, (kinds, repeat) in sorted(SCENARIO_GATES.items()):
            mission = load_mission(os.path.join(REPO, "missions",
                                                "%s.toml" % name))
            declared = {check["check"] for check in mission["expect"]}
            assert kinds <= declared, (name, sorted(kinds - declared))
            assert bool(mission["determinism"]["repeat"]) == repeat, name
