"""Seeded fault-injection campaigns over the microarchitecture space.

For each (microarchitecture, fault class, workload, trial) cell the
campaign builds the workload's system, arms a deterministic
:class:`~repro.resilience.faults.FaultInjector` on the worker PE,
enables per-cycle invariant checking, runs under the deadlock watchdog,
and classifies the outcome:

* ``detected``  — an error or invariant fired during simulation;
* ``hung``      — the watchdog tripped (deadlock or timeout);
* ``corrupted`` — the run completed but the golden model disagrees
  (silent state corruption: the outcome the architecture must minimize);
* ``masked``    — faults landed yet the golden model still validates;
* ``not-applied`` — no planned fault found state to corrupt (e.g. a
  queue fault scheduled while all queues were empty).

Trials are pure functions of their fields, run as ``fault-trial``
tasks on the campaign service (:func:`repro.serve.service.run_campaign`),
so a campaign is bit-identical across runs and worker counts and
survives killed workers; on a service whose store is a file it also
resumes after interruption.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass

from repro.errors import DeadlockError, SimulationError
from repro.pipeline.config import PipelineConfig, config_by_name
from repro.pipeline.core import PipelinedPE
from repro.resilience.faults import FaultClass, inject, plan_faults
from repro.resilience.invariants import InvariantChecker
from repro.workloads.suite import get_workload

DETECTED = "detected"
HUNG = "hung"
CORRUPTED = "corrupted"
MASKED = "masked"
NOT_APPLIED = "not-applied"

DEFAULT_FAULTS = (
    FaultClass.REG_BIT_FLIP,
    FaultClass.PRED_BIT_FLIP,
    FaultClass.QUEUE_TAG_FLIP,
    FaultClass.QUEUE_DROP,
    FaultClass.FORCE_MISPREDICT,
)

DEFAULT_CONFIGS = (
    "TDX",
    "T|DX +P",
    "TD|X +Q",
    "T|D|X1|X2 +P+Q",
)
"""Smoke-campaign microarchitectures: the single-cycle baseline plus
pipelines exercising +P alone, +Q alone, and both at full depth."""


@dataclass(frozen=True)
class FaultTrial:
    """One campaign cell; a pure function of these fields."""

    config: str
    workload: str
    fault: str            # FaultClass value (kept as str so it pickles/JSONs)
    trial: int
    scale: int
    seed: int
    faults_per_trial: int = 2
    window_cycles: int = 0   # 0: derive from a clean run's cycle count
    max_cycles: int = 400_000
    stall_limit: int = 4_000

    @property
    def key(self) -> str:
        return f"{self.config}/{self.workload}/{self.fault}/t{self.trial}"


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one campaign cell."""

    config: str
    workload: str
    fault: str
    trial: int
    outcome: str
    detail: str
    faults_applied: int
    cycles: int | None


def run_trial(trial: FaultTrial) -> TrialResult:
    """Execute one fault-injection trial."""
    workload = get_workload(trial.workload)
    config = config_by_name(trial.config)

    def factory(name: str) -> PipelinedPE:
        return PipelinedPE(config, workload.params, name=name)

    window = trial.window_cycles
    if window <= 0:
        # Injection cycles must fall inside the run to mean anything, so
        # measure a clean run first.  Its cycle count is a pure function
        # of (config, workload, scale, seed): determinism is preserved.
        clean = workload.build(factory, trial.scale, trial.seed)
        window = max(
            2,
            clean.run(
                max_cycles=trial.max_cycles, stall_limit=trial.stall_limit
            )
            - 1,
        )

    system = workload.build(factory, trial.scale, trial.seed)
    worker = system.pe(workload.worker_name)
    plan = plan_faults(
        FaultClass(trial.fault),
        trial.seed,
        key=trial.key,
        count=trial.faults_per_trial,
        window=(1, window),
    )
    injector = inject(worker, plan)
    system.attach_invariant_checker(InvariantChecker())

    def result(outcome: str, detail: str, cycles: int | None) -> TrialResult:
        return TrialResult(
            config=trial.config,
            workload=trial.workload,
            fault=trial.fault,
            trial=trial.trial,
            outcome=outcome,
            detail=detail,
            faults_applied=len(injector.applied),
            cycles=cycles,
        )

    try:
        cycles = system.run(
            max_cycles=trial.max_cycles, stall_limit=trial.stall_limit
        )
    except DeadlockError as exc:
        return result(HUNG, str(exc).splitlines()[0], None)
    except SimulationError as exc:
        return result(DETECTED, f"{type(exc).__name__}: {exc}", None)
    try:
        workload.check(system, trial.scale, trial.seed)
    except Exception as exc:
        return result(CORRUPTED, f"{type(exc).__name__}: {exc}", cycles)
    if injector.applied:
        return result(MASKED, "golden model validated despite faults", cycles)
    return result(NOT_APPLIED, "no planned fault found state to corrupt", cycles)


def fault_campaign(
    configs=DEFAULT_CONFIGS,
    faults=DEFAULT_FAULTS,
    workloads=("gcd",),
    trials: int = 1,
    scale: int = 8,
    seed: int = 0,
    service=None,
    **trial_kwargs,
) -> list[TrialResult]:
    """Run the full config x fault x workload x trial grid.

    ``configs`` accepts paper-style names or :class:`PipelineConfig`
    objects.  Results are in deterministic grid order however the
    trials ran.

    ``service`` (a :mod:`repro.serve` client) runs the grid as
    ``fault-trial`` tasks on that service — same results, plus
    durable-store dedup and supervision against crashed or hung trial
    workers.  A service whose store is a file is the campaign's
    checkpoint: an interrupted campaign rerun on it executes only the
    trials it has not stored.
    """
    from repro.serve.service import run_campaign

    names = [
        config.name if isinstance(config, PipelineConfig) else config
        for config in configs
    ]
    tasks = [
        FaultTrial(
            config=name,
            workload=workload,
            fault=FaultClass(fault).value,
            trial=trial,
            scale=scale,
            seed=seed,
            **trial_kwargs,
        )
        for name in names
        for fault in faults
        for workload in workloads
        for trial in range(trials)
    ]
    return run_campaign(
        service, "fault-trial", [dataclasses.asdict(task) for task in tasks]
    )


def summarize(results: list[TrialResult]) -> dict[tuple[str, str], Counter]:
    """Outcome counts per (microarchitecture, fault class)."""
    summary: dict[tuple[str, str], Counter] = {}
    for result in results:
        summary.setdefault((result.config, result.fault), Counter())[
            result.outcome
        ] += 1
    return summary


def format_summary(results: list[TrialResult]) -> str:
    """Render the detected-vs-masked table per microarchitecture."""
    summary = summarize(results)
    width = max((len(config) for config, _ in summary), default=6)
    lines = [
        f"{'config':<{width}}  {'fault':<18} {DETECTED:>9} {HUNG:>5} "
        f"{CORRUPTED:>10} {MASKED:>7} {NOT_APPLIED:>12}"
    ]
    for (config, fault), counts in sorted(summary.items()):
        lines.append(
            f"{config:<{width}}  {fault:<18} {counts[DETECTED]:>9} "
            f"{counts[HUNG]:>5} {counts[CORRUPTED]:>10} {counts[MASKED]:>7} "
            f"{counts[NOT_APPLIED]:>12}"
        )
    return "\n".join(lines)
