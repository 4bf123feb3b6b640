"""The declarative mission plane.

A *mission* is a TOML file (topology + workload + fault/behaviour
plan + expected invariants) under ``missions/``; the committed files
are the only definition of a scenario. This package holds the schema
(:mod:`repro.missions.schema`), the validating loader and canonical
serialiser (:mod:`repro.missions.validate`) and the headless
deterministic runner (:mod:`repro.missions.runner`). ``python -m
repro.exp sweep [NAME ...]`` executes the corpus, or the named
missions, across parallel workers.
"""

from repro.missions.runner import (MissionRunError, MissionRunner,
                                   canonical, report_json, run_mission)
from repro.missions.schema import (MISSION_SCHEMA_VERSION,
                                   REPORT_SCHEMA_VERSION)
from repro.missions.validate import (MissionError, MissionValidator,
                                     load_mission, loads_mission,
                                     serialize_mission, validate_mission)

__all__ = [
    "MISSION_SCHEMA_VERSION", "REPORT_SCHEMA_VERSION", "MissionError",
    "MissionRunError", "MissionRunner", "MissionValidator", "canonical",
    "load_mission", "loads_mission", "report_json", "run_mission",
    "serialize_mission", "validate_mission",
]
