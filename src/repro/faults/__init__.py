"""Deterministic fault injection for the paging/storage stack."""

from repro.faults.behavior import (
    ALLOC_THRASH,
    BEHAVIOR_KINDS,
    REVOKE_KINDS,
    REVOKE_LIE,
    REVOKE_PARTIAL,
    REVOKE_SILENT,
    REVOKE_SLOW,
    BehaviorDecision,
    BehaviorInjector,
    BehaviorPlan,
    BehaviorRule,
)
from repro.faults.corrupt import (
    BIT_FLIP,
    CORRUPT_KINDS,
    MISDIRECTED_WRITE,
    TORN_WRITE,
    CorruptDecision,
    CorruptionInjector,
    CorruptPlan,
    CorruptRule,
    extent_corruption,
)
from repro.faults.crash import (
    CRASH,
    CrashDecision,
    CrashInjector,
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
    FaultInjector,
    FaultPlan,
    FaultRule,
    FireRecorder,
    disk_storm,
)

__all__ = [
    "ALLOC_THRASH", "BAD_BLOCK", "BEHAVIOR_KINDS", "BIT_FLIP",
    "CLEAN", "CORRUPT_KINDS", "CRASH", "LATENCY", "MISDIRECTED_WRITE",
    "REVOKE_KINDS", "REVOKE_LIE", "REVOKE_PARTIAL", "REVOKE_SILENT",
    "REVOKE_SLOW", "STATUS_IO_ERROR", "STATUS_OK", "STATUS_TIMEOUT",
    "STUCK", "TORN_WRITE", "TRANSIENT", "BehaviorDecision",
    "BehaviorInjector", "BehaviorPlan", "BehaviorRule",
    "CorruptDecision", "CorruptionInjector", "CorruptPlan",
    "CorruptRule", "CrashDecision", "CrashInjector", "CrashPlan",
    "CrashRule", "FaultDecision", "FaultInjector", "FaultPlan",
    "FaultRule", "FireRecorder", "disk_storm", "extent_corruption",
]
