"""Resilience layer: fault injection, invariant checking, forensics.

Three pillars (see the module docstrings for detail):

* :mod:`repro.resilience.faults` — deterministic, seeded fault
  injection into functional and pipelined PEs;
* :mod:`repro.resilience.invariants` /
  :mod:`repro.resilience.forensics` — runtime invariant checking and
  the deadlock watchdog's structured dumps;
* :mod:`repro.resilience.campaign` — seeded campaigns classifying
  which fault classes each microarchitecture detects, masks, or
  silently corrupts under.

Run ``python -m repro.resilience --smoke`` for the CI gate: a small
campaign checked for bit-identical results across worker counts.
"""

from repro.resilience.campaign import (
    DEFAULT_CONFIGS,
    DEFAULT_FAULTS,
    FaultTrial,
    TrialResult,
    fault_campaign,
    format_summary,
    run_trial,
    summarize,
)
from repro.resilience.faults import (
    ALL_FAULT_CLASSES,
    FaultClass,
    FaultInjector,
    FaultSpec,
    inject,
    plan_faults,
)
from repro.resilience.forensics import forensic_report, format_report
from repro.resilience.invariants import InvariantChecker

__all__ = [
    "ALL_FAULT_CLASSES",
    "DEFAULT_CONFIGS",
    "DEFAULT_FAULTS",
    "FaultClass",
    "FaultInjector",
    "FaultSpec",
    "FaultTrial",
    "InvariantChecker",
    "TrialResult",
    "fault_campaign",
    "forensic_report",
    "format_report",
    "format_summary",
    "inject",
    "plan_faults",
    "run_trial",
    "summarize",
]
