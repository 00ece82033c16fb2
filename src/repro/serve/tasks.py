"""Task registry: the named, JSON-pure work units the service executes.

A campaign submitted to :class:`repro.serve.service.CampaignService` is
a list of ``(kind, payload)`` pairs where ``payload`` is plain JSON.
This module maps each ``kind`` to:

* ``run`` — a pure function ``payload -> JSON result`` executed inside
  a worker process (or in-process under serial degradation).  Purity is
  the contract that makes dedup sound: two tasks with equal
  fingerprints must produce equal results, so serving the second from
  the store is undetectable;
* ``decode`` — an optional adapter from the stored JSON back to the
  Python type the original serial API returned (tuples, dataclasses),
  so existing callers get bit-identical values whether a result was
  computed serially, by a worker, or replayed from the durable store.

Worker processes are forked from the service, so kinds registered
before the pool spawns are visible in every worker without import
gymnastics.  The test-only chaos kinds (:mod:`repro.serve.chaos`)
register themselves on the first lookup of a name the registry does not
know, so campaigns never load them.

Registered campaign kinds mirror the in-tree campaign clients:

========================  ==================================================
``suite-run``             one model's Table 3 suite record: a config's, or
                          the functional PE's (:mod:`repro.dse.cpi`, which
                          feeds Table 3, Figures 4 and 5 and
                          :func:`repro.dse.sweep.sweep`)
``fault-trial``           one fault-injection trial
                          (:mod:`repro.resilience.campaign`)
``fuzz-case``             one differential-fuzzing seed
                          (:mod:`repro.verify.runner`)
``workload-run``          one (workload, config) simulation — the cheap
                          unit the smoke/chaos gates campaign over
========================  ==================================================
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable

from repro.errors import ConfigError


@dataclasses.dataclass(frozen=True)
class TaskKind:
    """One registered task kind."""

    name: str
    run: Callable[[dict], object]
    decode: Callable[[object], object] | None = None
    #: Optional instrumented twin: ``payload -> (result, sim_trace)``.
    #: Must return the *identical* result ``run`` would (the PR 3
    #: bit-identity guarantee makes this sound); the second element is
    #: the stage-track side channel for the unified Perfetto timeline
    #: and never reaches the result store.
    traced: Callable[[dict], tuple] | None = None


_REGISTRY: dict[str, TaskKind] = {}


def _load_chaos_kinds() -> None:
    import repro.serve.chaos  # noqa: F401  (registers the chaos kinds)


def register(name: str, run: Callable[[dict], object],
             decode: Callable[[object], object] | None = None,
             traced: Callable[[dict], tuple] | None = None) -> TaskKind:
    """Register (or replace) a task kind."""
    kind = TaskKind(name=name, run=run, decode=decode, traced=traced)
    _REGISTRY[name] = kind
    return kind


def get_kind(name: str) -> TaskKind:
    if name not in _REGISTRY:
        _load_chaos_kinds()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown task kind {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def registered_kinds() -> list[str]:
    _load_chaos_kinds()
    return sorted(_REGISTRY)


def execute(name: str, payload: dict):
    """Run one task in the current process; returns the JSON result."""
    return get_kind(name).run(payload)


def execute_traced(name: str, payload: dict) -> tuple:
    """Run one task with simulator tracing when the kind supports it.

    Returns ``(result, sim_trace_or_None)``; kinds without a traced
    twin run normally and ship no trace.
    """
    kind = get_kind(name)
    if kind.traced is None:
        return kind.run(payload), None
    return kind.traced(payload)


def decode_result(name: str, result):
    """Adapt a stored JSON result back to the serial API's return type."""
    kind = get_kind(name)
    return result if kind.decode is None else kind.decode(result)


# ----------------------------------------------------------------------
# Campaign kinds.  Imports are deferred into the run functions so that
# importing repro.serve stays cheap and dependency-light; each function
# reconstructs its domain objects from the JSON payload.
# ----------------------------------------------------------------------


def _params_from(payload: dict):
    from repro.params import DEFAULT_PARAMS, ArchParams

    params = payload.get("params")
    return DEFAULT_PARAMS if params is None else ArchParams(**params)


def _run_suite(payload: dict):
    from repro.dse.cpi import _campaign, model_by_name

    kernels = _campaign(
        model_by_name(payload["model"]), payload["scale"], payload["seed"],
        _params_from(payload),
    )
    return [dataclasses.asdict(kernel) for kernel in kernels]


def _decode_suite(result):
    from repro.dse.cpi import KernelRecord

    return tuple(KernelRecord(**kernel) for kernel in result)


def _run_fault_trial(payload: dict):
    from repro.resilience.campaign import FaultTrial, run_trial

    return dataclasses.asdict(run_trial(FaultTrial(**payload)))


def _decode_fault_trial(result):
    from repro.resilience.campaign import TrialResult

    return TrialResult(**result)


def _run_fuzz_case(payload: dict):
    from repro.verify.runner import _check_seed

    return _check_seed((
        payload["seed"],
        payload.get("ref_configs", 4),
        payload.get("jit", False),
    ))


def _simulate(payload: dict, telemetry=None) -> tuple:
    """One (workload, config) simulation: ``(result, run)``.

    The result — cycle count, worker CPI and worker counter block — is a
    pure function of the payload, cheap at small scales, and rich enough
    that a single flipped bit anywhere in the simulation changes it
    (what the chaos gate's byte-identity check needs).  A ``telemetry``
    sink leaves it unchanged: instrumented runs are bit-identical.
    """
    from repro.pipeline.config import config_by_name
    from repro.pipeline.core import PipelinedPE
    from repro.workloads.suite import run_workload

    params = _params_from(payload)
    config = config_by_name(payload["config"])

    def factory(name: str) -> PipelinedPE:
        return PipelinedPE(config, params, name=name)

    run = run_workload(
        payload["workload"],
        make_pe=factory,
        scale=payload["scale"],
        seed=payload.get("seed", 0),
        params=params,
        telemetry=telemetry,
    )
    counters = run.worker_counters
    return {
        "workload": payload["workload"],
        "config": config.name,
        "cycles": run.cycles,
        "cpi": counters.cpi,
        "counters": counters.as_dict(),
    }, run


def _run_workload(payload: dict):
    """The smoke/chaos campaign unit: :func:`_simulate`'s result."""
    return _simulate(payload)[0]


def _run_workload_traced(payload: dict) -> tuple:
    """Instrumented twin of :func:`_run_workload`.

    The same simulation with a telemetry sink attached returns the
    byte-identical result, so dedup stays sound.  The stage-track
    payload rides the worker's outbox side channel only; it is never
    stored.
    """
    from repro.obs.events import Telemetry
    from repro.obs.svc import sim_trace_data

    result, run = _simulate(payload, Telemetry())
    return result, sim_trace_data(run)


register("suite-run", _run_suite, decode=_decode_suite)
register("fault-trial", _run_fault_trial, decode=_decode_fault_trial)
register("fuzz-case", _run_fuzz_case)
register("workload-run", _run_workload, traced=_run_workload_traced)
