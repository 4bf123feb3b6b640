"""Mission validation, normalisation and (de)serialisation.

:class:`MissionValidator` turns a raw mission dict (usually parsed
from TOML) into a *normalised* mission: every field present, every
default filled, every cross-reference checked. Malformed input raises
:class:`MissionError`, whose ``path`` names the offending field with
TOML-style addressing (``workload.domains[1].slice_ms``) — missions
are data written by humans and generators, so "something was wrong
somewhere" is not an acceptable failure mode.

Normalised missions are canonical: validating twice is the identity,
and :func:`serialize_mission` emits TOML that parses and re-validates
back to the same dict (the property tests prove both round trips).
"""

import math
import tomllib

from repro.missions import schema
from repro.missions.checks import CHECKS, Context
from repro.missions.schema import (DOMAIN_KINDS, DRIVER_KINDS,
                                   MISSION_SCHEMA_VERSION, in_run)

#: check kind -> field specs, for :func:`_kinded_entry`.
_EXPECT_FIELDS = {kind: check.fields for kind, check in CHECKS.items()}

#: driver kind -> ((field naming domains, their allowed kinds), ...).
_DRIVER_REFS = {
    "claim": (("client", ("claimant",)),),
    "waves": (("donors", ("pager",)), ("claimant", ("claimant",))),
    "sample_min_alloc": (("domains", ("pager",)),),
}


class MissionError(ValueError):
    """A mission failed validation; ``path`` names the field."""

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__("%s: %s" % (path, message))


# ---------------------------------------------------------------------------
# Field-level checks
# ---------------------------------------------------------------------------


def _check_value(field, value, path):
    """Type/bounds/choices check for one field; returns the
    normalised value (ints destined for float fields are coerced)."""
    kind = field.kind
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise MissionError(path, "expected an integer, got %r" % (value,))
    elif kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise MissionError(path, "expected a number, got %r" % (value,))
        value = float(value)
        if not math.isfinite(value):
            raise MissionError(path, "must be finite, got %r" % (value,))
    elif kind == "bool":
        if not isinstance(value, bool):
            raise MissionError(path, "expected a boolean, got %r" % (value,))
    elif kind == "str":
        if not isinstance(value, str):
            raise MissionError(path, "expected a string, got %r" % (value,))
    elif kind == "str_list":
        if not isinstance(value, list) or any(
                not isinstance(item, str) for item in value):
            raise MissionError(path,
                               "expected a list of strings, got %r"
                               % (value,))
        value = list(value)
    elif kind == "int_table":
        if not isinstance(value, dict):
            raise MissionError(path, "expected a table, got %r" % (value,))
        for key, count in value.items():
            if not isinstance(key, str):
                raise MissionError(path, "table keys must be strings")
            if isinstance(count, bool) or not isinstance(count, int) \
                    or count < 0:
                raise MissionError(
                    "%s.%s" % (path, key),
                    "expected a non-negative integer, got %r" % (count,))
        value = dict(value)
    else:  # pragma: no cover - spec bug, not user input
        raise AssertionError("unknown field kind %r" % kind)
    if field.choices is not None and value not in field.choices:
        raise MissionError(path, "must be one of %s, got %r"
                           % (list(field.choices), value))
    if field.min is not None and kind in ("int", "float") \
            and value < field.min:
        raise MissionError(path, "must be >= %s, got %r"
                           % (field.min, value))
    if field.max is not None and kind in ("int", "float") \
            and value > field.max:
        raise MissionError(path, "must be <= %s, got %r"
                           % (field.max, value))
    return value


def _default(field):
    """The normalised default value for an optional field."""
    if field.kind == "str_list":
        return list(field.default)
    if field.kind == "int_table":
        return dict(field.default) if field.default else {}
    if field.kind == "float":
        return float(field.default)
    return field.default


def _section(raw, fields, path, partial=False):
    """Validate a table against a field tuple; returns the normalised
    dict. ``partial=True`` (run-level topology overrides) skips
    required-field and default filling for absent fields."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise MissionError(path, "expected a table, got %r" % (raw,))
    known = {field.name: field for field in fields}
    for key in raw:
        if key not in known:
            raise MissionError("%s.%s" % (path, key),
                               "unknown field (known: %s)"
                               % ", ".join(sorted(known)))
    out = {}
    for field in fields:
        if field.name in raw:
            out[field.name] = _check_value(field, raw[field.name],
                                           "%s.%s" % (path, field.name))
        elif partial:
            continue
        elif field.required:
            raise MissionError("%s.%s" % (path, field.name),
                               "required field is missing")
        else:
            out[field.name] = _default(field)
    return out


def _kinded_entry(raw, kinds, key, path):
    """Validate one array-of-tables entry that is discriminated by a
    ``kind``-like field (``key``) plus, for domains, a ``name``."""
    if not isinstance(raw, dict):
        raise MissionError(path, "expected a table, got %r" % (raw,))
    discriminator = raw.get(key)
    if not isinstance(discriminator, str) or discriminator not in kinds:
        raise MissionError("%s.%s" % (path, key),
                           "must be one of %s, got %r"
                           % (sorted(kinds), discriminator))
    fields = kinds[discriminator]
    body = {k: v for k, v in raw.items() if k not in (key, "name")}
    out = _section(body, fields, path)
    if "name" in raw:
        name = raw["name"]
        if not isinstance(name, str) or not name or len(name) > 64 \
                or any(c in name for c in "\n\r\t"):
            raise MissionError("%s.name" % path,
                               "expected a short printable string, got %r"
                               % (name,))
        normalised = {key: discriminator, "name": name}
    else:
        normalised = {key: discriminator}
    normalised.update(out)
    return normalised


def _names(value):
    """The names a reference field holds: one name, a list, or a
    table's keys."""
    if isinstance(value, str):
        return [value]
    return list(value)


def _domain_refs(path, value, kinds, by_name):
    """A field naming workload domains: a list (at least one), one
    name, or a table keyed by name (may be empty). Each must exist
    and be one of ``kinds`` (``None``: any kind); returns the named
    domains."""
    if isinstance(value, list) and not value:
        # "domains" -> "domain", "donors" -> "donor".
        raise MissionError(path, "expected at least one %s"
                           % path.rsplit(".", 1)[1][:-1])
    domains = []
    for ref in _names(value):
        domain = by_name.get(ref)
        if domain is None:
            raise MissionError(path, "names no workload domain: %r" % (ref,))
        if kinds is not None and domain["kind"] not in kinds:
            raise MissionError(path, "%r must be a %s domain"
                               % (ref, "/".join(kinds)))
        domains.append(domain)
    return domains


def _built(path, domain, run_name):
    """Reject a reference, in run ``run_name``, to a domain that run
    does not build."""
    if not in_run(domain, run_name):
        raise MissionError(path, "%r is not built in run %r (its runs: %s)"
                           % (domain["name"], run_name,
                              ", ".join(domain["runs"])))


def _run_refs(path, refs, run_names):
    """Each of ``refs`` must name one of ``run_names``."""
    for ref in refs:
        if ref not in run_names:
            raise MissionError(path, "names no run (runs: %s)"
                               % ", ".join(run_names))


# ---------------------------------------------------------------------------
# The validator
# ---------------------------------------------------------------------------


class MissionValidator:
    """Validate and normalise missions (see the module docstring)."""

    def validate(self, raw):
        """Raw mission dict -> normalised mission dict, or raise
        :class:`MissionError` naming the offending field path."""
        if not isinstance(raw, dict):
            raise MissionError("<root>", "mission must be a table, got %r"
                               % (raw,))
        known = ("schema",) + schema.SECTION_ORDER
        for key in raw:
            if key not in known:
                raise MissionError(key, "unknown section (known: %s)"
                                   % ", ".join(known))
        version = raw.get("schema")
        if version != MISSION_SCHEMA_VERSION:
            raise MissionError("schema", "expected schema = %d, got %r"
                               % (MISSION_SCHEMA_VERSION, version))
        mission = _section(raw.get("mission"), schema.MISSION_FIELDS,
                           "mission")
        name = mission["name"]
        if not name or len(name) > 64 or any(c in name for c in "\n\r\t "):
            raise MissionError("mission.name",
                               "expected a short identifier (no spaces), "
                               "got %r" % (name,))
        topology = _section(raw.get("topology"), schema.TOPOLOGY_FIELDS,
                            "topology")
        domains = self._domains(raw.get("workload"))
        drivers = self._drivers(raw.get("drivers"), domains)
        behaviors = self._behaviors(raw.get("behaviors"), domains)
        supervision = _section(raw.get("supervision"),
                               schema.SUPERVISION_FIELDS, "supervision")
        integrity = _section(raw.get("integrity"),
                             schema.INTEGRITY_FIELDS, "integrity")
        phases = _section(raw.get("phases"), schema.PHASES_FIELDS, "phases")
        runs = self._runs(raw.get("runs"), topology, domains, phases,
                          supervision)
        determinism = _section(raw.get("determinism"),
                               schema.DETERMINISM_FIELDS, "determinism")
        run_names = [run["name"] for run in runs]
        if determinism["repeat"]:
            _run_refs("determinism.repeat", [determinism["repeat"]],
                      run_names)
        self._run_scoping(domains, drivers, behaviors, run_names)
        expect = self._expect(raw.get("expect"), Context(
            domains={d["name"]: d for d in domains}, drivers=drivers,
            runs={run["name"]: run for run in runs},
            supervision=supervision, integrity=integrity))
        if phases["populate"] and not any(
                d["kind"] == "pager" for d in domains):
            raise MissionError("phases.populate",
                               "populate requires at least one pager domain")
        return {
            "schema": MISSION_SCHEMA_VERSION,
            "mission": mission,
            "topology": topology,
            "workload": {"domains": domains},
            "drivers": drivers,
            "behaviors": behaviors,
            "supervision": supervision,
            "integrity": integrity,
            "phases": phases,
            "runs": runs,
            "determinism": determinism,
            "expect": expect,
        }

    # -- sections ------------------------------------------------------------

    @staticmethod
    def _run_scoping(domains, drivers, behaviors, run_names):
        """Every ``runs`` list names runs, and nothing names a domain
        in a run that does not build it: a driver in any of its runs,
        a behaviour rule (installed on every run) in any run."""
        by_name = {d["name"]: d for d in domains}
        for index, domain in enumerate(domains):
            path = "workload.domains[%d]" % index
            _run_refs("%s.runs" % path, domain["runs"], run_names)
            if domain["kind"] != "compute":
                continue
            # A compute domain's active_runs names the runs it computes
            # in (empty: every run that builds it).
            _run_refs("%s.active_runs" % path, domain["active_runs"],
                      run_names)
            for ref in domain["active_runs"]:
                _built("%s.active_runs" % path, domain, ref)
        for index, driver in enumerate(drivers):
            path = "drivers[%d]" % index
            _run_refs("%s.runs" % path, driver["runs"], run_names)
            for field, _ in _DRIVER_REFS[driver["kind"]]:
                for ref in _names(driver[field]):
                    if by_name[ref]["runs"]:
                        for run_name in driver["runs"] or run_names:
                            _built("%s.%s" % (path, field), by_name[ref],
                                   run_name)
        for index, rule in enumerate(behaviors):
            if rule["domain"] and by_name[rule["domain"]]["runs"]:
                for run_name in run_names:
                    _built("behaviors[%d].domain" % index,
                           by_name[rule["domain"]], run_name)

    def _domains(self, raw):
        if raw is None:
            raise MissionError("workload", "required section is missing")
        if not isinstance(raw, dict):
            raise MissionError("workload", "expected a table, got %r"
                               % (raw,))
        for key in raw:
            if key != "domains":
                raise MissionError("workload.%s" % key,
                                   "unknown field (known: domains)")
        entries = raw.get("domains")
        if not isinstance(entries, list) or not entries:
            raise MissionError("workload.domains",
                               "expected a non-empty array of tables")
        domains = []
        seen = set()
        for index, entry in enumerate(entries):
            path = "workload.domains[%d]" % index
            if isinstance(entry, dict) and "name" not in entry:
                raise MissionError("%s.name" % path,
                                   "required field is missing")
            stretches = None
            if isinstance(entry, dict) and entry.get("kind") == "pager" \
                    and "stretches" in entry:
                # The multi-pager list rides only on pager domains; any
                # other kind gets the natural unknown-field error.
                entry = dict(entry)
                stretches = entry.pop("stretches")
            domain = _kinded_entry(entry, DOMAIN_KINDS, "kind", path)
            if domain["name"] in seen:
                raise MissionError("%s.name" % path,
                                   "duplicate domain name %r"
                                   % domain["name"])
            seen.add(domain["name"])
            if domain["kind"] == "pager" and stretches is not None:
                # Attached only when declared: single-personality
                # missions keep their historical normalised shape (the
                # runner reads the key with a default).
                domain["stretches"] = self._stretches(stretches, path,
                                                      domain)
            domains.append(domain)
        return domains

    def _stretches(self, raw, path, domain):
        """The ``[[workload.domains.stretches]]`` multi-pager list."""
        if raw is None:
            return []
        if not isinstance(raw, list):
            raise MissionError("%s.stretches" % path,
                               "expected an array of tables")
        specs = []
        seen = set()
        pinned_pages = 0
        for index, entry in enumerate(raw):
            spath = "%s.stretches[%d]" % (path, index)
            spec = _section(entry, schema.STRETCH_FIELDS, spath)
            if spec["name"]:
                if spec["name"] in seen:
                    raise MissionError("%s.name" % spath,
                                       "duplicate stretch name %r"
                                       % spec["name"])
                seen.add(spec["name"])
            if spec["swap_kb"] and spec["driver"] not in ("paged",
                                                          "forgetful"):
                raise MissionError("%s.swap_kb" % spath,
                                   "only paged/forgetful personalities "
                                   "take swap, not %r" % spec["driver"])
            if spec["frames"] and spec["driver"] in ("nailed", "seg"):
                raise MissionError("%s.frames" % spath,
                                   "%r keeps no frame pool (it backs the "
                                   "whole stretch)" % spec["driver"])
            if spec["driver"] in ("nailed", "seg"):
                pinned_pages += spec["pages"]
            specs.append(spec)
        if pinned_pages and domain["guaranteed_frames"] <= pinned_pages:
            raise MissionError(
                "%s.guaranteed_frames" % path,
                "stretches pin %d frames (nailed/seg personalities map "
                "whole stretches from the contract); set "
                "guaranteed_frames above that so the main driver keeps "
                "a working set" % pinned_pages)
        return specs

    def _drivers(self, raw, domains):
        if raw is None:
            return []
        if not isinstance(raw, list):
            raise MissionError("drivers", "expected an array of tables")
        by_name = {d["name"]: d for d in domains}
        drivers = []
        for index, entry in enumerate(raw):
            path = "drivers[%d]" % index
            driver = _kinded_entry(entry, DRIVER_KINDS, "kind", path)
            for field, kinds in _DRIVER_REFS[driver["kind"]]:
                _domain_refs("%s.%s" % (path, field), driver[field], kinds,
                             by_name)
            drivers.append(driver)
        return drivers

    def _behaviors(self, raw, domains):
        if raw is None:
            return []
        if not isinstance(raw, list):
            raise MissionError("behaviors", "expected an array of tables")
        names = {d["name"] for d in domains}
        rules = []
        for index, entry in enumerate(raw):
            path = "behaviors[%d]" % index
            rule = _section(entry, schema.BEHAVIOR_FIELDS, path)
            if rule["domain"] and rule["domain"] not in names:
                raise MissionError("%s.domain" % path,
                                   "names no workload domain: %r"
                                   % rule["domain"])
            rules.append(rule)
        return rules

    def _runs(self, raw, topology, domains, phases, supervision):
        if not isinstance(raw, list) or not raw:
            raise MissionError("runs", "expected a non-empty array of tables")
        pagers = {d["name"]: d for d in domains if d["kind"] == "pager"}
        deadline_field = next(f for f in schema.RUN_FIELDS
                              if f.name == "deadline_s")
        runs = []
        seen = set()
        for index, entry in enumerate(raw):
            path = "runs[%d]" % index
            if not isinstance(entry, dict):
                raise MissionError(path, "expected a table, got %r"
                                   % (entry,))
            for key in entry:
                if key not in ("name", "deadline_s", "topology", "faults",
                               "corruptions", "crashes"):
                    raise MissionError("%s.%s" % (path, key),
                                       "unknown field (known: name, "
                                       "deadline_s, topology, faults, "
                                       "corruptions, crashes)")
            name = entry.get("name")
            if not isinstance(name, str) or not name or len(name) > 64 \
                    or any(c in name for c in "\n\r\t "):
                raise MissionError("%s.name" % path,
                                   "expected a short identifier, got %r"
                                   % (name,))
            if name in seen:
                raise MissionError("%s.name" % path,
                                   "duplicate run name %r" % name)
            seen.add(name)
            overrides = _section(entry.get("topology"),
                                 schema.TOPOLOGY_FIELDS,
                                 "%s.topology" % path, partial=True)
            merged = dict(topology)
            merged.update(overrides)
            if any(d["store"] == "usbs" and in_run(d, name)
                   for d in pagers.values()) and merged["volumes"] < 1:
                raise MissionError("%s.topology.volumes" % path,
                                   "workload uses store='usbs' but this "
                                   "run has no volumes")
            if "deadline_s" in entry:
                deadline = _check_value(deadline_field,
                                        entry["deadline_s"],
                                        "%s.deadline_s" % path)
            else:
                deadline = _default(deadline_field)
            faults = self._disk_rules(entry.get("faults"), path, "faults",
                                      schema.FAULT_FIELDS, pagers, merged,
                                      name)
            corruptions = self._disk_rules(entry.get("corruptions"), path,
                                           "corruptions",
                                           schema.CORRUPTION_FIELDS, pagers,
                                           merged, name)
            crashes = self._crashes(entry.get("crashes"), path, pagers,
                                    merged, supervision, name)
            runs.append({"name": name, "deadline_s": deadline,
                         "topology": merged, "faults": faults,
                         "corruptions": corruptions, "crashes": crashes})
        if phases["wait_drains"] and all(
                run["topology"]["volumes"] < 2 for run in runs):
            raise MissionError("phases.wait_drains",
                               "waiting for drains needs a run with >= 2 "
                               "volumes")
        return runs

    def _disk_rules(self, raw, run_path, plane, fields, pagers, topology,
                    run_name):
        """A run's ``faults`` or ``corruptions`` list: one rule shape,
        scoped to the disk, a pager's swap extent or its volume."""
        if raw is None:
            return []
        if not isinstance(raw, list):
            raise MissionError("%s.%s" % (run_path, plane),
                               "expected an array of tables")
        rules = []
        during_by_target = {}
        for index, entry in enumerate(raw):
            path = "%s.%s[%d]" % (run_path, plane, index)
            rule = _section(entry, fields, path)
            scope = rule["scope"]
            if scope == "disk":
                target = "disk"
            elif scope.startswith("extent:") or scope.startswith(
                    "volume_of:"):
                prefix, _, victim = scope.partition(":")
                if victim not in pagers:
                    raise MissionError("%s.scope" % path,
                                       "names no pager domain: %r" % victim)
                _built("%s.scope" % path, pagers[victim], run_name)
                store = pagers[victim]["store"]
                if prefix == "extent" \
                        and pagers[victim]["driver_kind"] == "seg":
                    raise MissionError("%s.scope" % path,
                                       "the seg regime has no swap "
                                       "extent to scope a rule to")
                if prefix == "extent" and store != "sfs":
                    raise MissionError("%s.scope" % path,
                                       "extent scope needs %r on the "
                                       "single-disk store (store='sfs')"
                                       % victim)
                if prefix == "volume_of":
                    if store != "usbs":
                        raise MissionError("%s.scope" % path,
                                           "volume_of scope needs %r on "
                                           "store='usbs'" % victim)
                    if topology["volumes"] < 1:
                        raise MissionError("%s.scope" % path,
                                           "volume_of scope needs volumes "
                                           ">= 1 in this run")
                target = "disk" if prefix == "extent" else scope
            else:
                raise MissionError("%s.scope" % path,
                                   "must be 'disk', 'extent:<domain>' or "
                                   "'volume_of:<domain>', got %r" % scope)
            if plane == "faults" and rule["blocks"] \
                    and rule["kind"] != "bad_block":
                raise MissionError("%s.blocks" % path,
                                   "explicit blocks are only for "
                                   "kind='bad_block'")
            if rule["blocks"] and not scope.startswith("extent:"):
                raise MissionError("%s.blocks" % path,
                                   "blocks count needs an extent scope")
            if rule["during"] == "measure":
                if rule["start_sec"] != 0.0:
                    raise MissionError("%s.during" % path,
                                       "during='measure' computes its own "
                                       "window; leave start_sec unset")
                if rule["duration_sec"] != -1.0 \
                        and rule["duration_sec"] <= 0.0:
                    raise MissionError("%s.duration_sec" % path,
                                       "must be > 0 (or -1 for 'to end of "
                                       "run')")
            elif rule["duration_sec"] != -1.0:
                raise MissionError("%s.duration_sec" % path,
                                   "only valid with during='measure'")
            earlier = during_by_target.setdefault(target, rule["during"])
            if earlier != rule["during"]:
                raise MissionError("%s.during" % path,
                                   "all rules on the same disk must share "
                                   "one 'during' (one plan per disk)")
            rules.append(rule)
        return rules

    def _component_ref(self, path, component, pagers, topology, run_name):
        """One supervised-component reference (crash rules, expects) in
        run ``run_name``."""
        if component in ("", "usd"):
            return
        if component == "balancer":
            if not topology["balancer"]:
                raise MissionError(path, "'balancer' needs "
                                         "topology.balancer = true")
            return
        prefix, _, rest = component.partition(":")
        if prefix == "pager" and rest:
            if rest not in pagers:
                raise MissionError(path, "names no pager domain: %r"
                                   % rest)
            _built(path, pagers[rest], run_name)
            return
        if prefix == "volume" and rest:
            if not rest.isdigit() or int(rest) >= topology["volumes"]:
                raise MissionError(path,
                                   "volume index must be < volumes (%d), "
                                   "got %r" % (topology["volumes"], rest))
            return
        if prefix == "cpu" and rest:
            if not rest.isdigit() or int(rest) >= topology["cpus"]:
                raise MissionError(path,
                                   "cpu index must be < cpus (%d), got %r"
                                   % (topology["cpus"], rest))
            return
        raise MissionError(path,
                           "must be '', 'usd', 'balancer', "
                           "'pager:<domain>', 'volume:<index>' or "
                           "'cpu:<index>', got %r"
                           % component)

    def _crashes(self, raw, run_path, pagers, topology, supervision,
                 run_name):
        if raw is None:
            return []
        if not isinstance(raw, list):
            raise MissionError("%s.crashes" % run_path,
                               "expected an array of tables")
        if raw and not supervision["enabled"]:
            raise MissionError("%s.crashes" % run_path,
                               "crash rules need supervision.enabled = "
                               "true (nothing would restart the victim)")
        rules = []
        for index, entry in enumerate(raw):
            path = "%s.crashes[%d]" % (run_path, index)
            rule = _section(entry, schema.CRASH_FIELDS, path)
            self._component_ref("%s.component" % path, rule["component"],
                                pagers, topology, run_name)
            if rule["end_sec"] != -1.0 \
                    and rule["end_sec"] <= rule["start_sec"]:
                raise MissionError("%s.end_sec" % path,
                                   "must be after start_sec (or -1)")
            rules.append(rule)
        return rules

    def _expect(self, raw, context):
        """The ``[[expect]]`` list: each entry checked by its
        :data:`~repro.missions.checks.CHECKS` entry (see there)."""
        if raw is None:
            return []
        if not isinstance(raw, list):
            raise MissionError("expect", "expected an array of tables")
        pagers = {name: domain for name, domain in context.domains.items()
                  if domain["kind"] == "pager"}
        checks = []
        for index, entry in enumerate(raw):
            path = "expect[%d]" % index
            check = _kinded_entry(entry, _EXPECT_FIELDS, "check", path)
            spec = CHECKS[check["check"]]
            if spec.needs:
                self._rules(spec.needs, check, context, path)
            for name in spec.run_fields:
                _run_refs("%s.%s" % (path, name), _names(check[name]),
                          context.runs)
            for name, kinds in spec.domains:
                field_path = "%s.%s" % (path, name)
                for domain in _domain_refs(field_path, check[name], kinds,
                                           context.domains):
                    if domain["runs"]:
                        for run_name in context.reads(check):
                            _built(field_path, domain, run_name)
            for name in spec.components:
                value = check[name]
                if isinstance(value, str) and not value:
                    raise MissionError("%s.%s" % (path, name),
                                       "must name one component "
                                       "(no wildcard)")
                run = context.runs[check["run"]]
                for ref in _names(value):
                    self._component_ref("%s.%s" % (path, name), ref,
                                        pagers, run["topology"],
                                        run["name"])
            if spec.rules:
                self._rules(spec.rules, check, context, path)
            checks.append(check)
        return checks

    @staticmethod
    def _rules(rules, check, context, path):
        """Raise the first ``(field, message)`` a check's rules return."""
        for rule in rules:
            error = rule(check, context)
            if error is not None:
                raise MissionError("%s.%s" % (path, error[0]), error[1])


_VALIDATOR = MissionValidator()


def validate_mission(raw):
    """Module-level convenience for ``MissionValidator().validate``."""
    return _VALIDATOR.validate(raw)


def loads_mission(text):
    """Parse TOML text and validate; returns the normalised mission."""
    try:
        raw = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise MissionError("<toml>", "not valid TOML: %s" % exc) from exc
    return validate_mission(raw)


def load_mission(path):
    """Read, parse and validate one mission file."""
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    return loads_mission(text)


# ---------------------------------------------------------------------------
# Serialisation (canonical TOML)
# ---------------------------------------------------------------------------

_BARE_KEY = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-")


def _toml_key(key):
    if key and set(key) <= _BARE_KEY:
        return key
    return _toml_str(key)


def _toml_str(value):
    out = ['"']
    for char in value:
        if char in ('"', "\\"):
            out.append("\\" + char)
        elif char == "\n":
            out.append("\\n")
        elif ord(char) < 0x20 or ord(char) == 0x7f:
            out.append("\\u%04x" % ord(char))
        else:
            out.append(char)
    out.append('"')
    return "".join(out)


def _toml_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        text = repr(value)
        if "." not in text and "e" not in text and "n" not in text:
            text += ".0"
        return text
    if isinstance(value, str):
        return _toml_str(value)
    if isinstance(value, list):
        return "[%s]" % ", ".join(_toml_value(item) for item in value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{ %s }" % ", ".join(
            "%s = %s" % (_toml_key(k), _toml_value(v))
            for k, v in value.items())
    raise TypeError("cannot serialise %r" % (value,))


def _emit_pairs(lines, table):
    for key, value in table.items():
        lines.append("%s = %s" % (_toml_key(key), _toml_value(value)))


def serialize_mission(mission):
    """Normalised mission dict -> canonical TOML text.

    Only accepts *normalised* missions (every field explicit); the
    output parses with :mod:`tomllib` and re-validates to the same
    dict.
    """
    lines = ["schema = %d" % mission["schema"], ""]
    for section in ("mission", "topology"):
        lines.append("[%s]" % section)
        _emit_pairs(lines, mission[section])
        lines.append("")
    for domain in mission["workload"]["domains"]:
        lines.append("[[workload.domains]]")
        _emit_pairs(lines, domain)
        lines.append("")
    for driver in mission["drivers"]:
        lines.append("[[drivers]]")
        _emit_pairs(lines, driver)
        lines.append("")
    for rule in mission["behaviors"]:
        lines.append("[[behaviors]]")
        _emit_pairs(lines, rule)
        lines.append("")
    lines.append("[supervision]")
    _emit_pairs(lines, mission["supervision"])
    lines.append("")
    lines.append("[integrity]")
    _emit_pairs(lines, mission["integrity"])
    lines.append("")
    lines.append("[phases]")
    _emit_pairs(lines, mission["phases"])
    lines.append("")
    for run in mission["runs"]:
        lines.append("[[runs]]")
        lines.append("name = %s" % _toml_str(run["name"]))
        lines.append("deadline_s = %s" % _toml_value(run["deadline_s"]))
        lines.append("")
        lines.append("[runs.topology]")
        _emit_pairs(lines, run["topology"])
        lines.append("")
        for rule in run["faults"]:
            lines.append("[[runs.faults]]")
            _emit_pairs(lines, rule)
            lines.append("")
        for rule in run["corruptions"]:
            lines.append("[[runs.corruptions]]")
            _emit_pairs(lines, rule)
            lines.append("")
        for rule in run["crashes"]:
            lines.append("[[runs.crashes]]")
            _emit_pairs(lines, rule)
            lines.append("")
    lines.append("[determinism]")
    _emit_pairs(lines, mission["determinism"])
    lines.append("")
    for check in mission["expect"]:
        lines.append("[[expect]]")
        _emit_pairs(lines, check)
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
