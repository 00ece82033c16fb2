"""Static analyzer for triggered-assembly programs and fabrics.

Three layers:

* :mod:`repro.analyze.abstract` — exhaustive reachability over the
  finite predicate-vector state space, with queues kept abstract;
* :mod:`repro.analyze.lints` — program-level rules (unreachable and
  unsatisfiable triggers, shadowed and overlapping triggers, redundant
  predicate literals, speculation-window dequeues);
* :mod:`repro.analyze.fabric` — system-level rules over the channel
  wiring (tag mismatches through ports, capacity-cycle deadlock risk);
* :mod:`repro.analyze.perf` — static CPI/throughput bounds per
  (program, pipeline config) by cycle-mean analysis over the weighted
  firing-transition graph (:mod:`repro.analyze.graph`), validated to
  bracket the simulator.

A fourth layer proves rather than lints:

* :mod:`repro.analyze.check` — a bounded explicit-state equivalence
  checker exploring every environment schedule at small queue depths,
  proving pipelined == single-cycle retirement per program and
  configuration or emitting a replayable counterexample schedule
  (:mod:`repro.analyze.witness`, encoded via
  :mod:`repro.analyze.encode`).

``python -m repro.analyze`` is the command-line front end (``--check``
selects the checker); :mod:`repro.analyze.crossval` ties analyzer
verdicts to fuzzer runs and checker verdicts to harness replays.
"""

from repro.analyze.abstract import Reachability, explore
from repro.analyze.check import (
    CheckBounds,
    CheckReport,
    ConfigVerdict,
    check_case,
    check_program,
    checkable_workloads,
    checker_oracle,
    confirm_speculation_window,
)
from repro.analyze.crossval import (
    crossval_case,
    reachable_slots,
    retired_outside,
    stream_tag_sets,
    unreachable_retirements,
)
from repro.analyze.encode import node_digest, node_key, roundtrips
from repro.analyze.witness import Witness, replay_witness, schedule_step
from repro.analyze.fabric import analyze_system
from repro.analyze.findings import (
    Finding,
    Severity,
    count_by_severity,
    fails_build,
    render_json,
    render_sarif,
    render_text,
    worst_severity,
)
from repro.analyze.graph import FiringGraph, build_firing_graph, cycle_mean
from repro.analyze.lints import analyze_program
from repro.analyze.perf import (
    PerfAnalyzer,
    PerfBounds,
    bracket_check,
    program_bounds,
    workload_bounds,
)

__all__ = [
    "CheckBounds",
    "CheckReport",
    "ConfigVerdict",
    "Finding",
    "FiringGraph",
    "PerfAnalyzer",
    "PerfBounds",
    "Reachability",
    "Severity",
    "Witness",
    "analyze_program",
    "analyze_system",
    "bracket_check",
    "build_firing_graph",
    "check_case",
    "check_program",
    "checkable_workloads",
    "checker_oracle",
    "confirm_speculation_window",
    "count_by_severity",
    "crossval_case",
    "cycle_mean",
    "explore",
    "fails_build",
    "node_digest",
    "node_key",
    "program_bounds",
    "reachable_slots",
    "render_json",
    "replay_witness",
    "retired_outside",
    "render_sarif",
    "render_text",
    "roundtrips",
    "schedule_step",
    "stream_tag_sets",
    "unreachable_retirements",
    "workload_bounds",
    "worst_severity",
]
