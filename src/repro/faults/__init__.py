"""Deterministic fault injection for the paging/storage stack.

Four planes, one object each: a :class:`FaultPlan` (storage faults,
the disk's ``injector``), a :class:`CorruptPlan` (silent corruption,
the disk's ``corruptor``), a :class:`CrashPlan` (component crashes,
the supervisor's ``injector``) and a :class:`BehaviorPlan` (hostile
domains, the frames allocator's ``behavior``). Each is a :class:`Plan`:
the rules, the consultation point, and the fire evidence and
injection count the mission audit reads.
"""

from repro.faults.behavior import (
    ALLOC_THRASH,
    BEHAVIOR_KINDS,
    REVOKE_KINDS,
    REVOKE_LIE,
    REVOKE_PARTIAL,
    REVOKE_SILENT,
    REVOKE_SLOW,
    BehaviorDecision,
    BehaviorPlan,
    BehaviorRule,
)
from repro.faults.corrupt import (
    BIT_FLIP,
    CORRUPT_KINDS,
    MISDIRECTED_WRITE,
    TORN_WRITE,
    CorruptDecision,
    CorruptPlan,
    CorruptRule,
    extent_corruption,
)
from repro.faults.crash import (
    CRASH,
    CrashDecision,
    CrashPlan,
    CrashRule,
)
from repro.faults.plan import (
    BAD_BLOCK,
    CLEAN,
    LATENCY,
    STATUS_IO_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    STUCK,
    TRANSIENT,
    FaultDecision,
    FaultPlan,
    FaultRule,
    Plan,
    disk_storm,
)

__all__ = [
    "ALLOC_THRASH", "BAD_BLOCK", "BEHAVIOR_KINDS", "BIT_FLIP",
    "CLEAN", "CORRUPT_KINDS", "CRASH", "LATENCY", "MISDIRECTED_WRITE",
    "REVOKE_KINDS", "REVOKE_LIE", "REVOKE_PARTIAL", "REVOKE_SILENT",
    "REVOKE_SLOW", "STATUS_IO_ERROR", "STATUS_OK", "STATUS_TIMEOUT",
    "STUCK", "TORN_WRITE", "TRANSIENT", "BehaviorDecision",
    "BehaviorPlan", "BehaviorRule", "CorruptDecision", "CorruptPlan",
    "CorruptRule", "CrashDecision", "CrashPlan", "CrashRule",
    "FaultDecision", "FaultPlan", "FaultRule", "Plan",
    "disk_storm", "extent_corruption",
]
