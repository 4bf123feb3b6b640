"""Every ``[[expect]]`` check kind, defined once.

A check kind is one :class:`Check` entry in :data:`CHECKS`: its field
specs, which of them name runs, workload domains (and of what kinds)
or supervised components, any extra rule, and the function that
evaluates it against the run payloads. The validator
(:mod:`repro.missions.validate`) and the runner
(:mod:`repro.missions.runner`) loop over an entry; neither names a
check kind.

Conventions every entry shares:

* ``run``/``baseline`` name one run each, ``runs`` a list of runs
  (``[]``: every run);
* a domain field is a list (at least one name), a single name, or a
  table keyed by name (may be empty), and every domain it names must
  be built by every run the check reads;
* a rule returns ``None`` or a ``(field, message)`` pair, which the
  validator raises at ``expect[i].<field>``. ``needs`` rules are
  checked before any reference, ``rules`` after every reference;
* ``evaluate(check, payloads, targets)`` returns ``(passed,
  observed)``, where ``targets`` is ``runs`` resolved (every run when
  empty).
"""

from dataclasses import dataclass, field
from typing import Callable, Tuple

from repro.missions.schema import _f, in_run
from repro.sim.units import MS

#: Field names that name runs, in the order they are validated.
RUN_FIELDS = ("run", "baseline", "runs")

#: Domain kinds that produce a bandwidth series (and so can appear in
#: retention/progress invariants).
MEASURED_KINDS = ("fsclient", "pager", "compute")


@dataclass(frozen=True)
class Check:
    """One check kind: see the module docstring."""

    fields: Tuple
    evaluate: Callable
    domains: Tuple = ()       # (field, allowed kinds or None for any)
    components: Tuple = ()    # fields naming supervised components
    needs: Tuple = ()
    rules: Tuple = ()
    #: The fields that name runs, in declaration order (derived).
    run_fields: Tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "run_fields", tuple(
            f.name for f in self.fields if f.name in RUN_FIELDS))


@dataclass(frozen=True)
class Context:
    """What a rule may read: the mission's other sections, normalised."""

    domains: dict        # name -> domain
    drivers: list
    runs: dict           # name -> run
    supervision: dict
    integrity: dict

    def targets(self, check):
        """The runs a check's ``runs`` field resolves to."""
        return check["runs"] or list(self.runs)

    def reads(self, check):
        """Every run whose payload the check reads."""
        names = [check[name] for name in ("run", "baseline")
                 if name in check]
        if "runs" in check:
            names.extend(self.targets(check))
        return names


# ---------------------------------------------------------------------------
# Extra rules
# ---------------------------------------------------------------------------


def _needs_supervision(check, ctx):
    if not ctx.supervision["enabled"]:
        return "check", ("%s needs supervision.enabled = true"
                         % check["check"])
    return None


def _needs_integrity(check, ctx):
    if not ctx.integrity["enabled"]:
        return "check", ("%s needs integrity.enabled = true (nothing "
                         "would detect)" % check["check"])
    return None


def _needs_run_topology(key, count):
    """A rule: the check's ``run`` has ``topology[key] >= count``."""
    def rule(check, ctx):
        if ctx.runs[check["run"]]["topology"][key] < count:
            return "run", ("%s needs a run with %s >= %d"
                           % (check["check"], key, count))
        return None
    return rule


def _needs_corruptions(check, ctx):
    if not ctx.runs[check["run"]]["corruptions"]:
        return "run", "%s needs a run with corruption rules" % check["check"]
    return None


def _floor_xor_tolerance(check, ctx):
    if (check["floor"] >= 0.0) == (check["tolerance"] >= 0.0):
        return "floor", "set exactly one of floor/tolerance"
    return None


def _claim_driver(check, ctx):
    for run in ctx.targets(check):
        if not any(d["kind"] == "claim" and in_run(d, run)
                   for d in ctx.drivers):
            return "check", ("%s needs a claim driver in run %r"
                             % (check["check"], run))
    return None


def _sampled(check, ctx):
    for run in ctx.targets(check):
        sampled = set()
        for driver in ctx.drivers:
            if driver["kind"] == "sample_min_alloc" and in_run(driver, run):
                sampled.update(driver["domains"])
        missing = [d for d in check["domains"] if d not in sampled]
        if missing:
            return "domains", ("%s not covered by a sample_min_alloc "
                               "driver in run %r" % (", ".join(missing), run))
    return None


def _hog_not_bystander(check, ctx):
    if check["hog"] in check["domains"]:
        return "domains", "the hog cannot be its own bystander"
    return None


def _victim_on_usbs(check, ctx):
    if ctx.domains[check["victim_of"]]["store"] != "usbs":
        return "victim_of", ("%r must page through store='usbs'"
                             % check["victim_of"])
    return None


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _rounded(values):
    return {name: round(value, 4) for name, value in values.items()}


def _retention(check, payloads):
    """Each of the check's ``domains``: its bandwidth in ``run`` as a
    fraction of its bandwidth in ``baseline`` (0.0 if it had none)."""
    base = payloads[check["baseline"]]["mbit"]
    cur = payloads[check["run"]]["mbit"]
    return {name: (cur[name] / base[name] if base[name] else 0.0)
            for name in check["domains"]}


def _merge_windows(windows):
    """Overlapping/adjacent (start, end) spans merged, sorted."""
    merged = []
    for start, end in sorted(windows):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def _interp_progress(samples, name, t):
    """Piecewise-linear progress of ``name`` at simulated time ``t``
    from ``[ns, {name: bytes}]`` samples (clamped to the sampled
    range)."""
    if not samples:
        return 0.0
    if t <= samples[0][0]:
        return float(samples[0][1].get(name, 0))
    if t >= samples[-1][0]:
        return float(samples[-1][1].get(name, 0))
    lo, hi = 0, len(samples) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if samples[mid][0] <= t:
            lo = mid
        else:
            hi = mid
    t0, v0 = samples[lo][0], samples[lo][1].get(name, 0)
    t1, v1 = samples[hi][0], samples[hi][1].get(name, 0)
    return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


def _progress_delta(samples, name, start, end):
    """Bytes of progress ``name`` made across one (start, end) span."""
    return (_interp_progress(samples, name, end)
            - _interp_progress(samples, name, start))


def _eval_retention(check, payloads, targets):
    # scrub_overhead declares only a floor; bandwidth_retention either
    # a floor or a tolerance around 1.0.
    retention = _retention(check, payloads)
    if check["floor"] >= 0.0:
        passed = all(value >= check["floor"] for value in retention.values())
    else:
        passed = all(abs(value - 1.0) <= check["tolerance"]
                     for value in retention.values())
    return passed, {"retention": _rounded(retention)}


def _eval_progress(check, payloads, targets):
    mbit = payloads[check["run"]]["mbit"]
    observed = _rounded({name: mbit[name] for name in check["domains"]})
    passed = all(value > 0.0 and value >= check["min_mbit"]
                 for value in observed.values())
    return passed, {"mbit": observed}


def _eval_kill_set(check, payloads, targets):
    observed = {name: payloads[name]["kills"] for name in targets}
    passed = all(kills == check["exactly"] for kills in observed.values())
    return passed, {"kills": observed}


def _eval_claim_granted(check, payloads, targets):
    observed = {name: payloads[name]["claim_granted"] for name in targets}
    passed = all(value == check["frames"] for value in observed.values())
    return passed, {"granted": observed}


def _eval_min_frames(check, payloads, targets):
    observed = {name: {d: payloads[name]["min_allocated"][d]
                       for d in check["domains"]}
                for name in targets}
    passed = all(value >= check["floor"]
                 for per_run in observed.values()
                 for value in per_run.values())
    return passed, {"min_allocated": observed}


def _eval_pages_lost(check, payloads, targets):
    domains = payloads[check["run"]]["domains"]
    observed = {d: domains[d]["pages_lost"] for d in check["domains"]}
    passed = all(value <= check["max"] for value in observed.values())
    return passed, {"pages_lost": observed}


def _eval_scaling(check, payloads, targets):
    base = payloads[check["baseline"]]["aggregate_mbit"]
    cur = payloads[check["run"]]["aggregate_mbit"]
    scaling = cur / base if base else 0.0
    return scaling >= check["min"], {
        "scaling": round(scaling, 2),
        "aggregate": {check["baseline"]: base, check["run"]: cur}}


def _eval_share_error(check, payloads, targets):
    shares = payloads[check["run"]]["volume_shares"]
    worst = max((row["relative_error"] for row in shares), default=0.0)
    return worst <= check["max"], {"worst_share_error": worst}


def _eval_crosstalk(check, payloads, targets):
    # The Figure-7 argument across cores: every bystander sits on a
    # different core from the hog AND kept >= floor of its hog-free
    # baseline bandwidth.
    core_of = payloads[check["run"]].get("core_of", {})
    hog_core = core_of.get(check["hog"])
    separated = hog_core is not None and all(
        core_of.get(name) is not None and core_of[name] != hog_core
        for name in check["domains"])
    retention = _retention(check, payloads)
    passed = separated and all(value >= check["floor"]
                               for value in retention.values())
    return passed, {
        "hog_core": hog_core,
        "cores": {name: core_of.get(name)
                  for name in sorted(check["domains"])},
        "retention": _rounded(retention)}


_NEVER_SUPERVISED = {"error": "component was never supervised"}


def _eval_recovered(check, payloads, targets):
    record = payloads[check["run"]]["supervision"].get(check["component"])
    if record is None:
        return False, _NEVER_SUPERVISED
    worst_ns = max((end - start for start, end in record["windows"]),
                   default=0)
    passed = (record["restarts"] >= check["min_restarts"]
              and record["state"] == "running"
              and worst_ns <= check["max_recovery_ms"] * MS)
    return passed, {"restarts": record["restarts"],
                    "state": record["state"],
                    "worst_recovery_ms": round(worst_ns / MS, 3)}


def _eval_restart_budget(check, payloads, targets):
    record = payloads[check["run"]]["supervision"].get(check["component"])
    if record is None:
        return False, _NEVER_SUPERVISED
    passed = (record["restarts"] <= check["max"]
              and record["state"] == check["final"])
    return passed, {"restarts": record["restarts"],
                    "escalations": record["escalations"],
                    "state": record["state"]}


def _eval_crash_retention(check, payloads, targets):
    payload = payloads[check["run"]]
    baseline = payloads[check["baseline"]]
    supervision = payload["supervision"]
    windows = []
    for cid in check["components"] or sorted(supervision):
        record = supervision.get(cid)
        if record is not None:
            windows.extend((start, end) for start, end in record["windows"])
    merged = _merge_windows(windows)
    retention = {}
    for name in check["domains"]:
        crashed = sum(_progress_delta(payload["progress_samples"], name,
                                      start, end)
                      for start, end in merged)
        clean = sum(_progress_delta(baseline["progress_samples"], name,
                                    start, end)
                    for start, end in merged)
        # A bystander whose baseline made no progress in the windows
        # had nothing to lose during them.
        retention[name] = crashed / clean if clean else 1.0
    # No recovery windows -> trivially true; the injection audit is
    # what catches a storm that never happened.
    passed = all(value >= check["floor"] for value in retention.values())
    return passed, {"windows": [list(window) for window in merged],
                    "retention": _rounded(retention)}


def _eval_undetected(check, payloads, targets):
    observed = {}
    for name in targets:
        integrity = payloads[name].get("integrity")
        observed[name] = integrity["undetected"] if integrity else 0
    passed = all(value <= check["max"] for value in observed.values())
    return passed, {"undetected": observed}


def _eval_repaired(check, payloads, targets):
    integrity = payloads[check["run"]]["integrity"]
    detected = integrity["detected"]
    repaired = integrity["repaired"]
    lost = integrity["lost"]
    passed = (detected >= check["min_detected"]
              and repaired >= check["min_repaired"]
              and detected == repaired + lost
              and (check["max_lost"] == -1 or lost <= check["max_lost"]))
    return passed, {"detected": detected, "repaired": repaired,
                    "lost": lost, "accounted": detected == repaired + lost}


def _storm_volume(check, payloads):
    """(run payload, volumes payload, the volume the run's
    ``volume_of:<victim>`` storm hit or None)."""
    payload = payloads[check["run"]]
    volumes = payload["volumes"]
    scope = "volume_of:%s" % check["victim_of"]
    return payload, volumes, volumes.get("fault_volumes", {}).get(scope)


def _eval_exposure_contained(check, payloads, targets):
    _, volumes, storm = _storm_volume(check, payloads)
    exposure = volumes["exposure"]
    leaked = {name: count for name, count in exposure.items()
              if name != storm and count}
    return storm is not None and not leaked, {"storm_volume": storm,
                                              "exposure": exposure}


def _eval_drained(check, payloads, targets):
    _, volumes, storm = _storm_volume(check, payloads)
    final = volumes["final"].get(check["victim_of"], [])
    passed = (storm is not None
              and volumes["drains_done"] >= check["min_drains"]
              and not volumes["stranded"]
              and volumes["states"].get(storm) != "healthy"
              and bool(final) and storm not in final)
    return passed, {"storm_volume": storm,
                    "state": volumes["states"].get(storm),
                    "drains_done": volumes["drains_done"],
                    "stranded": volumes["stranded"],
                    "relocated_to": final}


def _eval_losses_contained(check, payloads, targets):
    payload = payloads[check["run"]]
    observed = {name: len(data["lost_bloks"])
                for name, data in payload["domains"].items()
                if name != check["victim_of"] and data["lost_bloks"]}
    return not observed, {"lost_elsewhere": observed}


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

_MEASURED = (("domains", MEASURED_KINDS),)
_PAGERS = (("domains", ("pager",)),)
_VICTIM = (("victim_of", ("pager",)),)

#: Every ``[[expect]]`` check kind. Exactly one of ``floor``/
#: ``tolerance`` must be set on ``bandwidth_retention`` (the other left
#: at the ``-1`` sentinel).
CHECKS = {
    "bandwidth_retention": Check(
        fields=(
            _f("run", "str"),
            _f("baseline", "str"),
            _f("domains", "str_list"),
            _f("floor", "float", default=-1.0, min=-1.0, max=10.0),
            _f("tolerance", "float", default=-1.0, min=-1.0, max=10.0),
        ),
        evaluate=_eval_retention, domains=_MEASURED,
        rules=(_floor_xor_tolerance,)),
    "progress": Check(
        fields=(
            _f("run", "str"),
            _f("domains", "str_list"),
            _f("min_mbit", "float", default=0.0, min=0.0),
        ),
        evaluate=_eval_progress, domains=_MEASURED),
    "kill_set": Check(
        fields=(
            _f("runs", "str_list", default=()),
            _f("exactly", "int_table", default=()),
        ),
        evaluate=_eval_kill_set, domains=(("exactly", None),)),
    "claim_granted": Check(
        fields=(
            _f("runs", "str_list", default=()),
            _f("frames", "int", min=1),
        ),
        evaluate=_eval_claim_granted, rules=(_claim_driver,)),
    "min_frames": Check(
        fields=(
            _f("runs", "str_list", default=()),
            _f("domains", "str_list"),
            _f("floor", "int", min=0),
        ),
        evaluate=_eval_min_frames, domains=_PAGERS, rules=(_sampled,)),
    "pages_lost": Check(
        fields=(
            _f("run", "str"),
            _f("domains", "str_list"),
            _f("max", "int", default=0, min=0),
        ),
        evaluate=_eval_pages_lost, domains=_PAGERS),
    "scaling": Check(
        fields=(
            _f("run", "str"),
            _f("baseline", "str"),
            _f("min", "float", min=0.0),
        ),
        evaluate=_eval_scaling),
    "share_error": Check(
        fields=(
            _f("run", "str"),
            _f("max", "float", min=0.0),
        ),
        evaluate=_eval_share_error,
        rules=(_needs_run_topology("volumes", 1),)),
    "exposure_contained": Check(
        fields=(
            _f("run", "str"),
            _f("victim_of", "str"),
        ),
        evaluate=_eval_exposure_contained, domains=_VICTIM,
        rules=(_victim_on_usbs, _needs_run_topology("volumes", 1))),
    "drained": Check(
        fields=(
            _f("run", "str"),
            _f("victim_of", "str"),
            _f("min_drains", "int", default=1, min=1),
        ),
        evaluate=_eval_drained, domains=_VICTIM,
        rules=(_victim_on_usbs, _needs_run_topology("volumes", 2))),
    "losses_contained": Check(
        fields=(
            _f("run", "str"),
            _f("victim_of", "str"),
        ),
        evaluate=_eval_losses_contained, domains=_VICTIM,
        rules=(_victim_on_usbs, _needs_run_topology("volumes", 1))),
    # The supervision family (all require ``supervision.enabled``):
    # ``recovered`` — the component crashed and every recovery
    # completed within ``max_recovery_ms``, ending back in service;
    # ``restart_budget`` — the component's restarts stayed within
    # ``max`` and it ended in ``final`` state (the escalation ladder's
    # verdict); ``bystander_retention_during_crash`` — over the
    # recovery windows of ``components`` (empty: all), each bystander
    # in ``domains`` retained at least ``floor`` of its baseline-run
    # bandwidth across the same windows.
    "recovered": Check(
        fields=(
            _f("run", "str"),
            _f("component", "str"),
            _f("max_recovery_ms", "int", min=1),
            _f("min_restarts", "int", default=1, min=1),
        ),
        evaluate=_eval_recovered, components=("component",),
        needs=(_needs_supervision,)),
    "restart_budget": Check(
        fields=(
            _f("run", "str"),
            _f("component", "str"),
            _f("max", "int", min=0),
            _f("final", "str", default="running",
               choices=("running", "degraded", "retired")),
        ),
        evaluate=_eval_restart_budget, components=("component",),
        needs=(_needs_supervision,)),
    "bystander_retention_during_crash": Check(
        fields=(
            _f("run", "str"),
            _f("baseline", "str"),
            _f("domains", "str_list"),
            _f("components", "str_list", default=()),
            _f("floor", "float", min=0.0, max=10.0),
        ),
        evaluate=_eval_crash_retention, domains=_MEASURED,
        components=("components",), needs=(_needs_supervision,)),
    # The integrity family: ``undetected_corruptions`` — at most
    # ``max`` injected corruptions were delivered unverified across the
    # named runs (all, if empty); ``repaired`` — the run detected at
    # least ``min_detected`` corruptions, repaired at least
    # ``min_repaired`` and declared at most
    # ``max_lost`` lost (``-1``: any), with every detection accounted
    # repaired-or-lost; ``scrub_overhead`` — each named domain in the
    # scrubbed/corrupted run kept at least ``floor`` of its bandwidth
    # in the clean ``baseline`` run (scrub I/O charged to the owner,
    # never to bystanders).
    "undetected_corruptions": Check(
        fields=(
            _f("runs", "str_list", default=()),
            _f("max", "int", default=0, min=0),
        ),
        evaluate=_eval_undetected),
    "repaired": Check(
        fields=(
            _f("run", "str"),
            _f("min_detected", "int", default=1, min=0),
            _f("min_repaired", "int", default=0, min=0),
            _f("max_lost", "int", default=-1, min=-1),
        ),
        evaluate=_eval_repaired, needs=(_needs_integrity,),
        rules=(_needs_corruptions,)),
    "scrub_overhead": Check(
        fields=(
            _f("run", "str"),
            _f("baseline", "str"),
            _f("domains", "str_list"),
            _f("floor", "float", min=0.0, max=10.0),
        ),
        evaluate=_eval_retention, domains=_MEASURED,
        needs=(_needs_integrity,)),
    # The SMP family: ``crosstalk_contained`` — in ``run`` (an SMP run,
    # ``topology.cpus >= 2``), each bystander in ``domains`` was placed
    # on a different core from ``hog`` (the report's ``core_of``) AND
    # retained at least ``floor`` of its bandwidth in ``baseline``
    # (typically the same topology with the hog's compute loop idle via
    # ``active_runs``) — the paper's Figure-7 argument applied across
    # cores.
    "crosstalk_contained": Check(
        fields=(
            _f("run", "str"),
            _f("baseline", "str"),
            _f("hog", "str"),
            _f("domains", "str_list"),
            _f("floor", "float", default=0.95, min=0.0, max=10.0),
        ),
        evaluate=_eval_crosstalk,
        domains=(("hog", ("compute",)),) + _MEASURED,
        rules=(_hog_not_bystander, _needs_run_topology("cpus", 2))),
}
