"""Domain-to-core placement for the Atropos CPU.

The paper ran Nemesis on single-processor Alphas; this package is the
part of the multi-core plane that goes *beyond* the paper: once
:class:`repro.kernel.cpu.AtroposCpu` gives every simulated core its
own Atropos run queue, somebody has to decide **which** core a domain's
CPU contract lands on. A contract stays on that core until its domain
departs. On one core (the paper's uniprocessor) the decision is trivial
and the policy is plain admission control: a contract fits or is
refused with :class:`PlacementError`.

:mod:`repro.place.policy` holds the decision: deterministic, seed-stable
placement at admission, first-fit-decreasing by admitted CPU share with
a BLAKE2b-keyed tie-break, and an explicit :class:`PlacementError`
refusal that admission control surfaces *before* any scheduler state is
touched.

Everything here is pure policy: no simulator state lives in this
package, which is what keeps placement decisions reproducible from the
mission seed alone.
"""

from repro.place.policy import PlacementError, PlacementPolicy, placement_draw

__all__ = [
    "PlacementError",
    "PlacementPolicy",
    "placement_draw",
]
