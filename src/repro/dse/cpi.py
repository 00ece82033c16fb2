"""Per-model Table 3 suite records, measured by the cycle simulator.

CPI depends only on the microarchitecture (not on voltage or frequency),
so the design-space sweep needs one simulation campaign per config: all
ten Table 3 workloads, counters read from the designated worker PE,
averaged — exactly how Figure 5's stacks are built.  A full 32-config
campaign is the expensive part of regenerating Figures 6-8.

The same campaign holds everything else an exhibit reads from the
worker PE, so one stored record per model serves them all: per kernel,
in Table 3 order, a :class:`KernelRecord` of fabric cycles, worker
retired count, CPI and predicate-write rate, plus the CPI stack and
prediction accuracy on a pipelined model.  The golden functional PE is
one more model, :data:`FUNCTIONAL`, whose record is Table 3.  A record
exists only once every kernel's golden check passed.

Each model is one ``suite-run`` task on the campaign service
(:func:`repro.serve.service.run_campaign`): the caller's ``service=``
client, or a throwaway in-process service whose durable result store is
the table's ``cache_path``.  Results are identical either way, because
the per-model campaign is a pure function of ``(model, scale, seed,
params)``.  Each task's store key is a fingerprint over exactly those
inputs, so a cache written at another scale or under edited parameters
can never be mistaken for current results, and an interrupted campaign
resumes from the models already stored.
"""

from __future__ import annotations

import dataclasses
from typing import ClassVar

from repro.params import ArchParams, DEFAULT_PARAMS
from repro.pipeline.config import PipelineConfig, config_by_name
from repro.pipeline.core import PipelinedPE
from repro.workloads.suite import WORKLOADS, run_workload


@dataclasses.dataclass(frozen=True)
class FunctionalModel:
    """The golden functional PE, named like a config in a suite table."""

    name: ClassVar[str] = "functional"


FUNCTIONAL = FunctionalModel()
"""The model whose suite record is Table 3."""


def model_by_name(name: str) -> PipelineConfig | FunctionalModel:
    """:data:`FUNCTIONAL` or the config with that paper-style name."""
    return FUNCTIONAL if name == FUNCTIONAL.name else config_by_name(name)


@dataclasses.dataclass(frozen=True)
class KernelRecord:
    """The worker PE's numbers from one Table 3 kernel under one model."""

    workload: str
    cycles: int                 # fabric cycles to completion
    retired: int                # worker instructions retired
    cpi: float
    predicate_write_rate: float
    #: The Figure 5 CPI stack; pipelined models only.
    stack: dict[str, float] | None = None
    #: Predicate-prediction accuracy; None when the worker made no
    #: prediction (and always on the functional model).
    accuracy: float | None = None


def _campaign(
    model: PipelineConfig | FunctionalModel, scale: int, seed: int,
    params: ArchParams,
) -> list[KernelRecord]:
    """Run all workloads under one model; one record per kernel.

    ``run_workload`` raises on a golden mismatch, so a campaign returns
    only once every kernel has been checked.
    """
    pipelined = isinstance(model, PipelineConfig)

    def factory(name: str) -> PipelinedPE:
        return PipelinedPE(model, params, name=name)

    kernels = []
    for workload in WORKLOADS():
        # Without a factory a workload builds functional PEs.
        run = run_workload(
            workload, make_pe=factory if pipelined else None, scale=scale,
            seed=seed, params=params,
        )
        counters = run.worker_counters
        kernels.append(KernelRecord(
            workload=workload,
            cycles=run.cycles,
            retired=counters.retired,
            cpi=counters.cpi,
            predicate_write_rate=counters.predicate_write_rate,
            stack=counters.stack() if pipelined else None,
            accuracy=counters.prediction_accuracy if pipelined else None,
        ))
    return kernels


class CpiTable:
    """Lazily simulated, cached per-model suite records.

    ``cache_path`` names the sqlite result store that persists the
    table across runs.  A file there that is not a store (a legacy JSON
    cache, a torn write) is moved to ``<cache_path>.corrupt`` and the
    table repopulates.
    """

    def __init__(
        self,
        scale: int = 24,
        seed: int = 0,
        params: ArchParams = DEFAULT_PARAMS,
        cache_path: str | None = None,
    ) -> None:
        self.scale = scale
        self.seed = seed
        self.params = params
        self.cache_path = cache_path
        self._records: dict[str, tuple[KernelRecord, ...]] = {}

    def populate(self, configs: list[PipelineConfig | FunctionalModel],
                 service=None) -> None:
        """Simulate every model (config or :data:`FUNCTIONAL`) not
        already in the table.

        ``service`` (a :class:`repro.serve.client.InProcessClient` or
        :class:`~repro.serve.client.HttpClient`) runs the campaign on
        that service and its store; without one, a throwaway service
        over ``cache_path`` runs it (see
        :func:`repro.serve.service.run_campaign`).  Models already in
        the store are not simulated again.
        """
        missing = [c for c in configs if c.name not in self._records]
        if not missing:
            return
        from repro.serve.service import run_campaign

        params = dataclasses.asdict(self.params)
        results = run_campaign(service, "suite-run", [
            {"model": c.name, "scale": self.scale, "seed": self.seed,
             "params": params}
            for c in missing
        ], store=self.cache_path)
        for model, kernels in zip(missing, results):
            self._records[model.name] = kernels

    def kernels(
        self, model: PipelineConfig | FunctionalModel
    ) -> tuple[KernelRecord, ...]:
        """One model's per-kernel records, in Table 3 order."""
        if model.name not in self._records:
            self.populate([model])
        return self._records[model.name]

    def cpi(self, config: PipelineConfig) -> float:
        """Workload-average worker CPI for one microarchitecture."""
        kernels = self.kernels(config)
        cpi_sum = 0.0
        for kernel in kernels:
            cpi_sum += kernel.cpi
        return cpi_sum / len(kernels)

    def stack(self, config: PipelineConfig) -> dict[str, float]:
        """Workload-average CPI stack (the Figure 5 bar) for one config."""
        kernels = self.kernels(config)
        totals: dict[str, float] = {}
        for kernel in kernels:
            for key, value in kernel.stack.items():
                totals[key] = totals.get(key, 0.0) + value
        return {key: value / len(kernels) for key, value in totals.items()}
