"""Average CPI per microarchitecture, measured by the cycle simulator.

CPI depends only on the microarchitecture (not on voltage or frequency),
so the design-space sweep needs one simulation campaign per config: all
ten Table 3 workloads, counters read from the designated worker PE,
averaged — exactly how Figure 5's stacks are built.  A full 32-config
campaign is the expensive part of regenerating Figures 6-8.

Each config is one ``cpi-config`` task on the campaign service
(:func:`repro.serve.service.run_campaign`): the caller's ``service=``
client, or a throwaway in-process service whose durable result store is
the table's ``cache_path``.  Results are identical either way, because
the per-config worker is a pure function of ``(config, scale, seed,
params)``.  Each task's store key is a fingerprint over exactly those
inputs, so a cache written at another scale or under edited parameters
can never be mistaken for current results, and an interrupted campaign
resumes from the configs already stored.
"""

from __future__ import annotations

import dataclasses

from repro.params import ArchParams, DEFAULT_PARAMS
from repro.pipeline.config import PipelineConfig
from repro.pipeline.core import PipelinedPE
from repro.workloads.suite import WORKLOADS, run_workload


def _campaign(
    config: PipelineConfig, scale: int, seed: int, params: ArchParams
) -> tuple[float, dict[str, float]]:
    """Run all workloads under one config; workload-average (CPI, stack)."""

    def factory(name: str) -> PipelinedPE:
        return PipelinedPE(config, params, name=name)

    totals: dict[str, float] = {}
    cpi_sum = 0.0
    names = WORKLOADS()
    for workload in names:
        run = run_workload(
            workload, make_pe=factory, scale=scale, seed=seed, params=params,
        )
        counters = run.worker_counters
        cpi_sum += counters.cpi
        for key, value in counters.stack().items():
            totals[key] = totals.get(key, 0.0) + value
    return (
        cpi_sum / len(names),
        {key: value / len(names) for key, value in totals.items()},
    )


class CpiTable:
    """Lazily simulated, cached per-config CPI (and CPI stacks).

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
        self._cpi: dict[str, float] = {}
        self._stacks: dict[str, dict[str, float]] = {}

    def populate(self, configs: list[PipelineConfig], service=None) -> None:
        """Simulate every config not already in the table.

        ``service`` (a :class:`repro.serve.client.InProcessClient` or
        :class:`~repro.serve.client.HttpClient`) runs the campaign on
        that service and its store; without one, a throwaway service
        over ``cache_path`` runs it (see
        :func:`repro.serve.service.run_campaign`).  Configs already in
        the store are not simulated again.
        """
        missing = [c for c in configs if c.name not in self._cpi]
        if not missing:
            return
        from repro.serve.service import run_campaign

        params = dataclasses.asdict(self.params)
        results = run_campaign(service, "cpi-config", [
            {"config": c.name, "scale": self.scale, "seed": self.seed,
             "params": params}
            for c in missing
        ], store=self.cache_path)
        for name, cpi, stack in results:
            self._cpi[name] = cpi
            self._stacks[name] = stack

    def cpi(self, config: PipelineConfig) -> float:
        """Workload-average worker CPI for one microarchitecture."""
        if config.name not in self._cpi:
            self.populate([config])
        return self._cpi[config.name]

    def stack(self, config: PipelineConfig) -> dict[str, float]:
        """Workload-average CPI stack (the Figure 5 bar) for one config."""
        if config.name not in self._stacks:
            self.populate([config])
        return self._stacks[config.name]
