"""Campaign parallelism on the campaign service: the width policy,
serial-versus-pooled identity, retry backoff, and the worker traceback
chain."""

import dataclasses
import os

import pytest

from repro.dse.cpi import FUNCTIONAL, CpiTable
from repro.errors import CampaignError, WorkerTraceback
from repro.params import DEFAULT_PARAMS as P
from repro.pipeline.config import all_configs
from repro.serve.client import InProcessClient
from repro.serve.service import CampaignService, resolve_workers, run_campaign
from repro.serve.store import task_fingerprint
from repro.serve.supervisor import retry_delay


@pytest.fixture()
def clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)


class TestResolveWorkers:
    def test_workers_env_applies_when_unspecified(self, clean_env, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers(8) == 5
        assert resolve_workers(3) == 3     # never wider than the campaign

    def test_defaults_to_cpu_count(self, clean_env):
        assert resolve_workers(1000) == max(1, os.cpu_count() or 1)

    def test_never_below_one(self, clean_env, monkeypatch):
        assert resolve_workers(0) == 1
        monkeypatch.setenv("REPRO_WORKERS", "-3")
        assert resolve_workers(8) == 1

    def test_garbage_workers_env_falls_through(self, clean_env, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        assert resolve_workers(1000) == max(1, os.cpu_count() or 1)


class TestParallelMap:
    """``run_campaign`` without a service: the order-preserving campaign
    map, serial at width 1 and forked wider."""

    def test_serial_path_preserves_order(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        payloads = [{"value": x} for x in range(10)]
        assert run_campaign(None, "chaos-echo", payloads) == [
            {"echo": x} for x in range(10)
        ]

    def test_pool_path_matches_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        payloads = [{"value": x} for x in range(12)]
        assert run_campaign(None, "chaos-echo", payloads) == [
            {"echo": x} for x in range(12)
        ]

    def test_empty_input(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert run_campaign(None, "chaos-echo", []) == []


class TestCpiTableParallelism:
    CONFIGS = all_configs()[:3]
    SCALE = 5

    def test_populate_matches_lazy_serial_evaluation(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        lazy = CpiTable(scale=self.SCALE)
        for config in self.CONFIGS:
            lazy.cpi(config)
        pooled = CpiTable(scale=self.SCALE)
        with CampaignService(None, workers=2) as service:
            pooled.populate(self.CONFIGS, service=InProcessClient(service))
        assert pooled._records == lazy._records
        for config in self.CONFIGS:
            assert pooled.cpi(config) == lazy.cpi(config)
            assert pooled.stack(config) == lazy.stack(config)

    def test_fingerprint_covers_scale_params_and_configs(self):
        def fingerprint(model="TDX", scale=8, seed=0, params=P):
            return task_fingerprint("suite-run", {
                "model": model, "scale": scale, "seed": seed,
                "params": dataclasses.asdict(params),
            })

        wider = dataclasses.replace(P, num_regs=P.num_regs + 1)
        for model in ("TDX", FUNCTIONAL.name):
            base = fingerprint(model)
            assert fingerprint(model, scale=9) != base
            assert fingerprint(model, seed=1) != base
            assert fingerprint(model, params=wider) != base
            assert fingerprint(model) == base
        assert fingerprint("TD|X") != fingerprint("TDX")
        assert fingerprint(FUNCTIONAL.name) != fingerprint("TDX")

    def test_stale_disk_cache_is_not_loaded(self, cpi_runs, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        CpiTable(scale=self.SCALE, cache_path=path).populate(self.CONFIGS)
        cpi_runs.clear()
        CpiTable(scale=self.SCALE, cache_path=path).populate(self.CONFIGS)
        assert cpi_runs == []
        CpiTable(scale=self.SCALE + 1, cache_path=path).populate(self.CONFIGS)
        assert cpi_runs == [config.name for config in self.CONFIGS]
        cpi_runs.clear()
        CpiTable(scale=self.SCALE, seed=1, cache_path=path).populate(
            self.CONFIGS)
        assert cpi_runs == [config.name for config in self.CONFIGS]


class TestRetryDelay:
    def test_deterministic_for_same_inputs(self):
        a = retry_delay(0.25, 2, cap=5.0, token="pool", seed=0)
        b = retry_delay(0.25, 2, cap=5.0, token="pool", seed=0)
        assert a == b

    def test_jitter_decorrelates_tokens_and_attempts(self):
        base = retry_delay(0.25, 1, token="a")
        assert retry_delay(0.25, 1, token="b") != base
        assert retry_delay(0.25, 1, token="a", seed=1) != base
        assert retry_delay(0.25, 2, token="a") != base

    def test_exponential_growth_within_jitter_bounds(self):
        for attempt in range(1, 6):
            delay = retry_delay(0.1, attempt, token="t")
            exponential = 0.1 * 2 ** (attempt - 1)
            assert exponential <= delay <= exponential * 1.25

    def test_cap_bounds_the_delay(self):
        assert retry_delay(1.0, 10, cap=2.0, token="t") == 2.0


class TestWorkerTracebackChain:
    def test_serial_failure_chains_worker_traceback(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        with pytest.raises(CampaignError) as err:
            run_campaign(None, "chaos-fail", [{"message": "bad item 7"}])
        assert "ValueError" in str(err.value)
        assert "bad item 7" in str(err.value)
        cause = err.value.__cause__
        assert isinstance(cause, WorkerTraceback)
        assert "ValueError: bad item 7" in cause.tb

    def test_pool_failure_chains_worker_traceback(self):
        with CampaignService(None, workers=2) as service:
            with pytest.raises(CampaignError) as err:
                run_campaign(InProcessClient(service), "chaos-fail",
                             [{"message": f"bad item {i}"} for i in range(3)])
        assert isinstance(err.value.__cause__, WorkerTraceback)
        assert err.value.worker_traceback
        assert "ValueError" in err.value.worker_traceback
