"""Shared fixtures: a session-scoped CPI table so the expensive cycle
simulation campaign runs at most once per test session, and an empty
workload program cache for every test."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.dse.cpi import CpiTable
from repro.params import DEFAULT_PARAMS
from repro.workloads.builder import clear_program_cache

# Deterministic property tests for release CI; run with
# ``--hypothesis-profile=default`` locally to explore fresh examples.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile("ci")


@pytest.fixture(autouse=True)
def _empty_program_cache():
    """No test sees the workload programs another test built."""
    clear_program_cache()


@pytest.fixture(scope="session")
def cpi_table(tmp_path_factory) -> CpiTable:
    cache = tmp_path_factory.mktemp("cpi") / "cpi_cache.sqlite"
    return CpiTable(scale=12, cache_path=str(cache))


@pytest.fixture()
def params():
    return DEFAULT_PARAMS


@pytest.fixture()
def cpi_runs(monkeypatch) -> list[str]:
    """Names of the models (configs or the functional PE) whose suite
    campaign runs from here on.

    ``REPRO_WORKERS=1`` keeps every campaign serial and in this process,
    where the count is taken.
    """
    import repro.dse.cpi as cpi_module

    monkeypatch.setenv("REPRO_WORKERS", "1")
    runs: list[str] = []
    campaign = cpi_module._campaign

    def counted(model, *args):
        runs.append(model.name)
        return campaign(model, *args)

    monkeypatch.setattr(cpi_module, "_campaign", counted)
    return runs
