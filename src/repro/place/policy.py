"""Deterministic domain-to-core placement.

The placement policy answers one question: given the admitted CPU share on
every core and a new contract of ``share`` of one CPU, which core should
carry it? The answer must be

* **feasible** — Atropos admission control caps every core at 1.0 of
  itself, so a core only qualifies if the contract still fits;
* **deterministic** — the same mission seed must produce the same
  assignment on every run, because mission reports byte-compare their
  repeat legs (``core_of`` is part of the payload);
* **side-effect-free on refusal** — when no core fits, the policy raises
  :class:`PlacementError` before any scheduler state has been created,
  so admission refusal rolls back to exactly the pre-call state.

The policy is the online analogue of first-fit-decreasing: visit
cores in decreasing order of admitted share and take the first that
fits. Packing guarantees tightly is what makes both SMP gates work — it
leaves whole cores free for later contracts (the 1→4 core scaling gate)
and it forces two contracts that cannot share a core onto different
cores (the crosstalk-firewalling gate). Exact-load ties are broken with
a BLAKE2b draw keyed by the mission seed and the domain name, the same
idiom the fault and volume planes use for seed-stable randomness.
"""

from hashlib import blake2b

#: Admission arithmetic tolerance, matching Atropos's own admit() check.
EPSILON = 1e-12


class PlacementError(ValueError):
    """No core can carry the requested CPU contract.

    Raised *before* any scheduler mutation, so callers can surface the
    refusal without rollback bookkeeping. Subclasses ``ValueError`` so
    existing per-scheduler admission failures and placement failures can
    be caught uniformly.
    """


def placement_draw(seed, name, count):
    """Deterministic tie-break index in ``[0, count)``.

    BLAKE2b keyed by the decimal seed over ``place:<name>``, reduced mod
    ``count`` — stable across processes and Python hash randomisation,
    and independent draws for distinct domain names under one seed.
    """
    if count <= 0:
        raise ValueError("draw over empty candidate set")
    digest = blake2b(("place:%s" % name).encode("utf-8"),
                     key=("%d" % seed).encode("ascii"),
                     digest_size=8).digest()
    return int.from_bytes(digest, "big") % count


class PlacementPolicy:
    """Online placement of CPU contracts onto ``cpus`` cores,
    first-fit-decreasing by load: among cores that fit, take the
    most-loaded one (packs guarantees tightly, keeps whole cores free).

    Exact-load ties break with :func:`placement_draw` so the
    assignment is a pure function of ``(seed, domain name, loads)``.
    """

    def __init__(self, cpus, seed=1999):
        if cpus < 1:
            raise ValueError("need at least one cpu, got %d" % cpus)
        self.cpus = cpus
        self.seed = seed

    def choose(self, name, share, loads):
        """Pick a core index for ``name``'s contract of ``share``.

        ``loads`` is the current admitted share per core (one float per
        core). Raises :class:`PlacementError` if the share exceeds a
        whole core or no single core has room — even when the *aggregate*
        spare capacity across cores would cover it, because a CPU
        guarantee is a contract with one run queue, not with the machine.
        """
        if len(loads) != self.cpus:
            raise ValueError("expected %d core loads, got %d"
                             % (self.cpus, len(loads)))
        if share > 1.0 + EPSILON:
            raise PlacementError(
                "contract %r wants %.4f of a CPU; no single core can "
                "carry more than 1.0" % (name, share))
        fits = [index for index, load in enumerate(loads)
                if load + share <= 1.0 + EPSILON]
        if not fits:
            spare = sum(max(0.0, 1.0 - load) for load in loads)
            raise PlacementError(
                "no core fits %r (share %.4f): per-core loads %s "
                "(aggregate spare %.4f does not help — shares are "
                "per-core contracts)"
                % (name, share,
                   "/".join("%.4f" % load for load in loads), spare))
        best = max(loads[index] for index in fits)
        tied = [index for index in fits if loads[index] == best]
        if len(tied) == 1:
            return tied[0]
        return tied[placement_draw(self.seed, name, len(tied))]

