"""Campaign service tier: store, admission, supervisor taxonomy, clients.

The supervisor tests run chaos task kinds (:mod:`repro.serve.chaos`)
against *real* forked worker processes — crash-once, hang-once, and
poison tasks — so the kill/respawn/retry/quarantine paths are exercised
end to end, not mocked.  The chaos SIGKILL gate (the acceptance
criterion: a campaign interrupted by kill -9 of the whole service
process group resumes from the durable store byte-identical to an
uninterrupted serial run, with zero duplicated executions) runs the
same orchestrator as ``python -m repro.serve --chaos``, scaled down.
"""

import contextlib
import gc
import json
import multiprocessing
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

import repro
from repro.errors import CampaignError, ConfigError, WorkerTraceback
from repro.serve import (
    AdmissionController,
    AdmissionError,
    CampaignService,
    HttpClient,
    InProcessClient,
    ResultStore,
    Supervisor,
    canonical_json,
    task_fingerprint,
)
from repro.serve import store as store_mod
from repro.serve import supervisor as supervisor_mod
from repro.serve import tasks as task_registry
from repro.serve.admission import TokenBucket
from repro.serve.http import HttpFrontend, _response, serve_in_thread
from repro.serve.tasks import execute, registered_kinds


# ----------------------------------------------------------------------
# Durable result store
# ----------------------------------------------------------------------


class TestResultStore:
    def test_put_get_roundtrip(self):
        with ResultStore() as store:
            fp = task_fingerprint("chaos-echo", {"value": 1})
            assert store.put(fp, "chaos-echo", canonical_json({"value": 1}), {"echo": 1})
            assert store.get(fp) == {"echo": 1}
            assert fp in store
            assert len(store) == 1

    def test_miss_raises_or_defaults(self):
        with ResultStore() as store:
            with pytest.raises(KeyError):
                store.get("absent")
            assert store.get("absent", default=None) is None
            assert store.misses == 2

    def test_duplicate_put_keeps_first_result(self):
        with ResultStore() as store:
            fp = task_fingerprint("chaos-echo", {"value": 1})
            assert store.put(fp, "chaos-echo", canonical_json({"value": 1}), {"echo": 1})
            assert not store.put(fp, "chaos-echo", canonical_json({"value": 1}), {"echo": 99})
            assert store.get(fp) == {"echo": 1}
            assert store.duplicate_puts == 1
            assert store.executions(fp) == 1
            assert store.max_executions() == 1

    def test_persists_across_instances(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        fp = task_fingerprint("chaos-echo", {"value": 7})
        with ResultStore(path) as store:
            store.put(fp, "chaos-echo", canonical_json({"value": 7}), {"echo": 7})
        with ResultStore(path) as store:
            assert store.get(fp) == {"echo": 7}
            assert store.kinds() == {"chaos-echo": 1}

    def test_corrupt_database_recovers_empty(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        with open(path, "w") as handle:
            handle.write("this is not a sqlite database at all")
        with ResultStore(path) as store:
            assert store.recovered_corrupt
            assert len(store) == 0
            fp = task_fingerprint("chaos-echo", {"value": 1})
            store.put(fp, "chaos-echo", canonical_json({"value": 1}), {"echo": 1})
            assert store.get(fp) == {"echo": 1}
        assert os.path.exists(path + ".corrupt")

    def test_unopenable_path_raises_and_moves_nothing(self, tmp_path):
        import sqlite3

        with pytest.raises(sqlite3.OperationalError):
            ResultStore(str(tmp_path / "missing" / "store.sqlite"))
        assert list(tmp_path.iterdir()) == []

    def test_stats_shape(self):
        with ResultStore() as store:
            stats = store.stats()
            assert stats["rows"] == 0
            assert stats["max_executions"] == 0
            assert not stats["recovered_corrupt"]

    def test_lookup_counts_a_hit_or_miss_per_entry(self):
        with ResultStore() as store:
            fp = task_fingerprint("chaos-echo", {"value": 1})
            store.put(fp, "chaos-echo", canonical_json({"value": 1}), {"echo": 1})
            assert store.lookup([fp, "absent", fp]) == {fp}
            assert (store.hits, store.misses) == (2, 1)
            store.read([fp])    # a read-back, not a lookup
            assert (store.hits, store.misses) == (2, 1)

    def test_read_keeps_order_and_decodes_each_entry(self, monkeypatch):
        monkeypatch.setattr(store_mod, "_MAX_PARAMS", 2)   # three chunks
        with ResultStore() as store:
            fps = [task_fingerprint("chaos-echo", {"value": i})
                   for i in range(5)]
            for i, fp in enumerate(fps):
                store.put(fp, "chaos-echo", canonical_json({"value": i}), {"echo": [i]})
            wanted = [fps[4], fps[0], fps[4], fps[2], fps[1], fps[3]]
            rows = store.read(wanted)
            assert rows == [{"echo": [i]} for i in (4, 0, 4, 2, 1, 3)]
            assert rows[0] is not rows[2]
            assert store.lookup(wanted + ["absent"]) == set(fps)
            with pytest.raises(KeyError):
                store.read([fps[0], "absent"])

    def test_lookup_spans_sqlites_parameter_limit(self):
        # Admission allows 50,000-task jobs; one IN (...) query binds at
        # most 32,766 parameters.
        with ResultStore() as store:
            fp = task_fingerprint("chaos-echo", {"value": 1})
            store.put(fp, "chaos-echo", canonical_json({"value": 1}), {"echo": 1})
            fps = [f"{i:064x}" for i in range(40_000)] + [fp]
            assert store.lookup(fps) == {fp}
            assert store.misses == 40_000
            assert store.read(fps[-1:]) == [{"echo": 1}]


class TestFingerprint:
    def test_key_order_invariant(self):
        a = task_fingerprint("k", {"x": 1, "y": 2})
        b = task_fingerprint("k", {"y": 2, "x": 1})
        assert a == b

    def test_kind_and_payload_distinguish(self):
        base = task_fingerprint("k", {"x": 1})
        assert task_fingerprint("other", {"x": 1}) != base
        assert task_fingerprint("k", {"x": 2}) != base

    def test_canonical_json_is_tight_and_sorted(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_code_version_is_folded_in(self, monkeypatch):
        """Other code fingerprints every task differently, so a store
        it wrote serves nothing here; its rows count as stale."""
        version = store_mod.code_version()
        assert len(version) == 64 and version == store_mod.code_version()
        ours = task_fingerprint("k", {"x": 1})
        with ResultStore() as store:
            store.put(ours, "k", canonical_json({"x": 1}), {"y": 1})
            monkeypatch.setattr(store_mod, "code_version", lambda: "edited")
            theirs = task_fingerprint("k", {"x": 1})
            assert theirs != ours
            assert store.lookup([theirs]) == set()
            store.put(theirs, "k", canonical_json({"x": 1}), {"y": 2})
            assert (store.stats()["rows"], store.stats()["stale_rows"]) == (2, 1)

    def test_rows_of_a_store_without_code_are_stale(self, tmp_path):
        """A store file written before rows recorded their code gains the
        column on open, and its rows count as stale."""
        import sqlite3

        path = str(tmp_path / "old.sqlite")
        with contextlib.closing(sqlite3.connect(path)) as conn:
            conn.execute(
                "CREATE TABLE results (fingerprint TEXT PRIMARY KEY, kind TEXT"
                " NOT NULL, payload TEXT NOT NULL, result TEXT NOT NULL,"
                " seconds REAL NOT NULL, created REAL NOT NULL,"
                " executions INTEGER NOT NULL DEFAULT 1)")
            conn.execute("INSERT INTO results VALUES ('f', 'k', '{}', '1', 0, 0, 1)")
            conn.commit()
        with ResultStore(path) as store:
            assert store.get("f") == 1
            assert (store.stats()["rows"], store.stats()["stale_rows"]) == (1, 1)


# ----------------------------------------------------------------------
# Admission control (fake clock: fully deterministic)
# ----------------------------------------------------------------------


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestAdmission:
    def test_job_too_large_rejected(self):
        ctl = AdmissionController(max_job_tasks=10)
        with pytest.raises(AdmissionError) as err:
            ctl.admit(object(), tasks=11)
        assert err.value.reason == "job-too-large"
        assert err.value.retry_after is None

    def test_queue_full_rejected_with_hint(self):
        ctl = AdmissionController(max_queued_jobs=2, rate=1e9, burst=1e9)
        ctl.admit("a", tasks=1)
        ctl.admit("b", tasks=1)
        with pytest.raises(AdmissionError) as err:
            ctl.admit("c", tasks=1)
        assert err.value.reason == "queue-full"
        assert err.value.retry_after is not None

    def test_backlog_bound_spans_active_jobs(self):
        ctl = AdmissionController(max_backlog_tasks=5, rate=1e9, burst=1e9)
        ctl.admit("a", tasks=4)
        assert ctl.next_job() == "a"   # active, still counted
        with pytest.raises(AdmissionError) as err:
            ctl.admit("b", tasks=2)
        assert err.value.reason == "backlog-full"
        ctl.task_finished(3)
        ctl.admit("b", tasks=2)   # now fits

    def test_rate_limit_with_fake_clock(self):
        clock = _FakeClock()
        ctl = AdmissionController(rate=1.0, burst=2.0, clock=clock)
        ctl.admit("a", client="c1", tasks=0)
        ctl.admit("b", client="c1", tasks=0)
        with pytest.raises(AdmissionError) as err:
            ctl.admit("c", client="c1", tasks=0)
        assert err.value.reason == "rate-limited"
        assert 0.0 < err.value.retry_after <= 1.0
        ctl.admit("d", client="c2", tasks=0)   # separate client budget
        clock.now += 1.0                       # bucket refills
        ctl.admit("e", client="c1", tasks=0)
        assert ctl.stats()["rejections"] == {"rate-limited": 1}

    def test_priority_order_with_fifo_tiebreak(self):
        ctl = AdmissionController(rate=1e9, burst=1e9)
        ctl.admit("low", priority=0)
        ctl.admit("high", priority=5)
        ctl.admit("also-low", priority=0)
        assert ctl.next_job() == "high"
        assert ctl.next_job() == "low"
        assert ctl.next_job() == "also-low"
        assert ctl.next_job() is None

    def test_token_bucket_refill_caps_at_burst(self):
        clock = _FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
        assert bucket.try_take(3.0) is None
        clock.now += 100.0
        assert bucket.try_take(3.0) is None      # capped at burst, not 200
        assert bucket.try_take(1.0) == pytest.approx(0.5)


# ----------------------------------------------------------------------
# Service + supervisor failure taxonomy (real forked workers)
# ----------------------------------------------------------------------


def _run(service, kind, payloads, timeout=60.0):
    return InProcessClient(service).map(kind, payloads, timeout=timeout)


class TestServiceBasics:
    def test_echo_roundtrip_order_preserved(self):
        with CampaignService(None, workers=2) as service:
            results = _run(
                service, "chaos-echo", [{"value": i} for i in range(8)]
            )
        assert results == [{"echo": i} for i in range(8)]

    def test_unknown_kind_fails_fast(self):
        with CampaignService(None, workers=1) as service:
            with pytest.raises(ConfigError):
                service.submit("no-such-kind", [{}])

    def test_dedup_within_one_job(self):
        with CampaignService(None, workers=2) as service:
            job = service.submit("chaos-echo", [{"value": 1}] * 4)
            results = service.wait(job, timeout=60.0)
        assert results == [{"echo": 1}] * 4
        assert job.executed == 1
        assert job.shared == 3

    def test_dedup_across_jobs_via_store(self):
        with CampaignService(None, workers=1) as service:
            client = InProcessClient(service)
            client.map("chaos-echo", [{"value": 1}, {"value": 2}])
            second = service.submit("chaos-echo", [{"value": 2}, {"value": 3}])
            service.wait(second, timeout=60.0)
        assert second.from_store == 1
        assert second.executed == 1

    def test_status_and_stats_report_progress(self):
        with CampaignService(None, workers=1) as service:
            job = service.submit("chaos-echo", [{"value": 1}])
            service.wait(job, timeout=60.0)
            status = service.job_status(job.job_id)
            stats = service.stats()
        assert status["state"] == "done"
        assert status["resolved"] == status["total"] == 1
        assert stats["jobs"] == {"done": 1}
        assert stats["store"]["rows"] == 1

    def test_stats_count_jobs_per_state(self):
        with CampaignService(None, serial=True) as service:
            queued = service.submit("chaos-echo", [{"value": 1}])
            assert service.stats()["jobs"] == {"queued": 1}
            service.wait(queued, timeout=60.0)
            assert service.stats()["jobs"] == {"done": 1}
            failed = service.submit("chaos-fail", [{"message": "no"}])
            service.submit("chaos-echo", [{"value": 2}])
            assert service.stats()["jobs"] == {"done": 1, "queued": 2}
            with pytest.raises(CampaignError):
                service.wait(failed, timeout=60.0)
            assert service.stats()["jobs"] == {"done": 2, "failed": 1}

    def test_status_size_does_not_grow_with_the_job(self):
        # GET /jobs/<id> and the SSE snapshot serve this dict, and
        # clients poll it.
        sizes = []
        with CampaignService(None, serial=True) as service:
            for count in (4, 400):
                job = service.submit(
                    "chaos-echo", [{"value": i} for i in range(count)]
                )
                service.wait(job, timeout=60.0)
                sizes.append(len(json.dumps(job.status())))
        assert abs(sizes[1] - sizes[0]) <= 64


class TestFailureTaxonomy:
    def test_crashed_worker_respawns_and_task_retries(self, tmp_path):
        with CampaignService(
            None, workers=1, backoff_base=0.01, backoff_cap=0.05,
        ) as service:
            results = _run(service, "chaos-crash-once", [
                {"marker": str(tmp_path / "crash.marker"), "token": "t"}
            ])
            stats = service.stats()
        assert results == [{"survived": True, "token": "t"}]
        assert stats["supervisor"]["worker_crashes"] >= 1
        assert stats["supervisor"]["task_retries"] >= 1
        assert stats["supervisor"]["worker_spawns"] >= 2   # respawned

    def test_hung_worker_is_killed_and_task_retries(self, tmp_path):
        with CampaignService(
            None, workers=1, task_timeout=0.5,
            backoff_base=0.01, backoff_cap=0.05,
        ) as service:
            results = _run(service, "chaos-hang-once", [
                {"marker": str(tmp_path / "hang.marker"), "token": "t",
                 "hang_seconds": 600.0}
            ])
            stats = service.stats()
        assert results == [{"survived": True, "token": "t"}]
        assert stats["supervisor"]["worker_kills"] >= 1
        assert stats["supervisor"]["task_retries"] >= 1

    def test_poison_task_quarantined_after_max_failures(self):
        with CampaignService(
            None, workers=1, max_task_failures=2,
            backoff_base=0.01, backoff_cap=0.05,
        ) as service:
            job = service.submit("chaos-always-crash", [{"exit_code": 29}])
            with pytest.raises(CampaignError) as err:
                service.wait(job, timeout=60.0)
            status = job.status()
            stats = service.stats()
        assert status["state"] == "failed"
        assert status["quarantined"] == 1
        assert status["failed"] == 0    # quarantine, not a task exception
        assert stats["supervisor"]["tasks_quarantined"] == 1
        [report] = err.value.quarantine_reports
        assert len(report["attempts"]) == 2
        assert {a["failure"] for a in report["attempts"]} == {"crashed"}
        assert report["payload"] == {"exit_code": 29}

    def test_task_exception_fails_immediately_without_retry(self):
        with CampaignService(None, workers=1) as service:
            with pytest.raises(CampaignError) as err:
                _run(service, "chaos-fail", [{"message": "boom"}])
            stats = service.stats()
        assert "ValueError" in str(err.value)
        assert "boom" in str(err.value)
        # Deterministic campaign input: never retried, never quarantined.
        assert stats["supervisor"]["task_retries"] == 0
        assert stats["supervisor"]["tasks_quarantined"] == 0
        assert isinstance(err.value.__cause__, WorkerTraceback)
        assert "ValueError: boom" in err.value.__cause__.tb

    def test_serial_degradation_when_pool_unavailable(self, monkeypatch):
        real = multiprocessing.get_context("fork")

        class _UnstartableProcess:
            def __init__(self, *args, **kwargs):
                pass

            def start(self):
                raise OSError("process spawning disabled for this test")

        class _NoProcessCtx:
            SimpleQueue = staticmethod(real.SimpleQueue)
            Process = _UnstartableProcess

        monkeypatch.setattr(
            multiprocessing, "get_context", lambda method: _NoProcessCtx(),
        )
        with CampaignService(None, workers=2) as service:
            results = _run(
                service, "chaos-echo", [{"value": i} for i in range(4)]
            )
            stats = service.stats()
        assert results == [{"echo": i} for i in range(4)]
        assert stats["serial"] is True
        assert stats["supervisor"]["serial_fallback"] is True
        assert stats["supervisor"]["worker_spawns"] == 0

    def test_serial_job_runs_every_ready_task_without_sleeping(self):
        # A serial pump drains every ready task, so no poll sleep is
        # paid per task (at 0.5 s a sleep per task would take 9.5 s).
        with CampaignService(None, serial=True,
                             poll_interval=0.5) as service:
            started = time.monotonic()
            results = _run(service, "chaos-echo",
                           [{"value": i} for i in range(20)])
            elapsed = time.monotonic() - started
        assert results == [{"echo": i} for i in range(20)]
        assert elapsed < 1.0

    def test_serial_mode_still_quarantines_poison(self):
        # chaos-fail raises (rather than os._exit, which would kill the
        # test process in serial mode); in serial mode that is still an
        # immediate deterministic failure.
        sup = Supervisor(serial=True)
        task = supervisor_mod.SupervisedTask("t0", "chaos-fail", {}, "fp")
        sup.submit(task)
        [outcome] = sup.poll()
        assert outcome.status == "failed"
        sup.close()


class TestResume:
    def test_restart_replays_everything_from_store(self, tmp_path):
        path = str(tmp_path / "resume.sqlite")
        payloads = [{"value": i} for i in range(6)]
        with CampaignService(path, workers=2) as service:
            first = _run(service, "chaos-echo", payloads)
        # Fresh service, same store: zero re-executions.
        with CampaignService(path, workers=2) as service:
            job = service.submit("chaos-echo", payloads)
            replayed = service.wait(job, timeout=60.0)
        assert replayed == first
        assert job.executed == 0
        assert job.from_store == len(payloads)
        with ResultStore(path) as store:
            assert store.max_executions() == 1

    def test_replayed_results_byte_identical_to_fresh(self, tmp_path):
        path = str(tmp_path / "ident.sqlite")
        payloads = [{"workload": "gcd", "config": "TDX", "scale": 4,
                     "seed": 0}]
        with CampaignService(path, workers=1) as service:
            fresh = _run(service, "workload-run", payloads, timeout=120.0)
        with CampaignService(path, workers=1) as service:
            replayed = _run(service, "workload-run", payloads, timeout=120.0)
        assert canonical_json(fresh) == canonical_json(replayed)
        serial = json.loads(canonical_json(
            [execute("workload-run", payloads[0])]
        ))
        assert replayed == serial


class TestStoreHoldsTheResults:
    """A finished job keeps fingerprints and per-slot outcomes; its
    results are read back from the store's rows."""

    def test_stored_payload_is_the_fingerprinted_text(self, tmp_path,
                                                      monkeypatch):
        """The payload column holds, byte for byte, the canonical text
        the job's fingerprint was computed over, and landing a result
        encodes the result alone."""
        import sqlite3

        encoded = []
        canonical = store_mod.canonical_json

        def spy(value):
            encoded.append(value)
            return canonical(value)

        payloads = [{"value": i, "pad": {"b": 2, "a": [i, "é"]}}
                    for i in range(4)]
        path = str(tmp_path / "store.sqlite")
        with CampaignService(path, serial=True) as service:
            job = service.submit("chaos-echo", payloads)
            monkeypatch.setattr(store_mod, "canonical_json", spy)
            results = service.wait(job, timeout=60.0)
        assert encoded == results == [{"echo": i} for i in range(4)]
        with contextlib.closing(sqlite3.connect(path)) as conn:
            rows = dict(conn.execute("SELECT fingerprint, payload FROM results"))
        assert [rows[fp] for fp in job.fingerprints] == [
            canonical(payload) for payload in payloads]

    def test_finished_jobs_retain_no_payloads_or_results(self):
        # Each job has four tasks whose payload and result are ~3 KB
        # each; a job that kept either would retain over 12 KB.
        with CampaignService(None, serial=True) as service:
            service.run_job("chaos-echo", [{"value": "warm-up" * 400}])
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                for job in range(40):
                    service.run_job("chaos-echo", [
                        {"value": f"{job}/{task}:" + "x" * 3000}
                        for task in range(4)
                    ])
                gc.collect()
                retained = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        assert retained / 40 < 4096

    def test_results_are_fresh_copies_of_the_stored_rows(self):
        with CampaignService(None, serial=True) as service:
            job = service.submit(
                "chaos-echo", [{"value": [i]} for i in (1, 2, 1)]
            )
            first = service.wait(job, timeout=60.0)
            second = service.results(job)
            rows = [service.store.get(fp) for fp in job.fingerprints]
        assert first == second == rows == [{"echo": [i]} for i in (1, 2, 1)]
        assert all(a is not b for a, b in zip(first, second))
        assert first[0] is not first[2]
        assert job.payloads is None
        assert bytes(job.outcomes) == b"\x01\x01\x01"

    def test_resubmitted_job_on_a_new_service_reads_the_same_rows(
        self, tmp_path
    ):
        path = str(tmp_path / "rows.sqlite")
        payloads = [{"value": {"b": 0.1, "a": [i, None]}} for i in range(5)]
        with CampaignService(path, serial=True) as service:
            first = service.run_job("chaos-echo", payloads)
        with CampaignService(path, serial=True) as service:
            job = service.submit("chaos-echo", payloads)
            again = service.wait(job, timeout=60.0)
        assert again == first
        assert (job.from_store, job.executed) == (5, 0)

    def test_sharing_and_store_counts_are_unchanged(self):
        # The counts the per-slot lookups gave on the fixtures above.
        with CampaignService(None, serial=True) as service:
            within = service.submit("chaos-echo", [{"value": 1}] * 4)
            service.wait(within, timeout=60.0)
            InProcessClient(service).map(
                "chaos-echo", [{"value": 1}, {"value": 2}]
            )
            across = service.submit("chaos-echo",
                                    [{"value": 2}, {"value": 3}])
            service.wait(across, timeout=60.0)
            store = service.stats()["store"]
        assert (within.from_store, within.executed, within.shared) == (0, 1, 3)
        assert (across.from_store, across.executed, across.shared) == (1, 1, 0)
        assert (store["hits"], store["misses"]) == (2, 6)
        assert (store["puts"], store["rows"]) == (3, 3)

    def test_waiters_get_the_stored_row(self, tmp_path, monkeypatch):
        """A racing process stores its row for a fingerprint while the
        service's execution is in flight: the service's put is the
        duplicate, and the job returns the stored row."""
        path = str(tmp_path / "race.sqlite")
        kind = "test-racing-writer"

        def run(payload):
            with ResultStore(path) as rival:
                rival.put(task_fingerprint(kind, payload), kind,
                          canonical_json(payload), {"writer": "rival"})
            return {"writer": "service"}

        monkeypatch.setitem(task_registry._REGISTRY, kind,
                            task_registry.TaskKind(kind, run))
        with CampaignService(path, serial=True) as service:
            job = service.submit(kind, [{"n": 1}, {"n": 1}])
            results = service.wait(job, timeout=60.0)
            stored = service.store.get(job.fingerprints[0])
            duplicates = service.store.duplicate_puts
        assert stored == {"writer": "rival"}
        assert results == [stored, stored]
        assert duplicates == 1
        assert (job.executed, job.shared) == (1, 1)


# ----------------------------------------------------------------------
# Campaign clients: the in-tree fan-outs routed through the service
# ----------------------------------------------------------------------


class TestCampaignClients:
    """Each campaign's default path (serial, in-process, under
    ``REPRO_WORKERS=1``) against the same campaign on a two-worker
    service."""

    @pytest.fixture(autouse=True)
    def _serial_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")

    def test_fault_campaign_matches_direct_run(self):
        from repro.resilience.campaign import fault_campaign

        kwargs = dict(
            configs=("TDX",), faults=("reg-bit-flip",), workloads=("gcd",),
            trials=2, scale=4, seed=3,
        )
        direct = fault_campaign(**kwargs)
        with CampaignService(None, workers=2) as service:
            served = fault_campaign(
                service=InProcessClient(service), **kwargs
            )
        assert served == direct

    def test_fuzz_run_matches_direct_run(self):
        from repro.verify.runner import fuzz_run

        direct = fuzz_run(2, seed=11, ref_configs=2)
        with CampaignService(None, workers=2) as service:
            served = fuzz_run(
                2, seed=11, ref_configs=2, service=InProcessClient(service)
            )
        assert served == direct

    def test_cpi_populate_matches_direct_run(self):
        from repro.dse.cpi import CpiTable
        from repro.pipeline.config import config_by_name

        configs = [config_by_name("TDX"), config_by_name("T|DX +P")]
        direct = CpiTable(scale=4, seed=0)
        direct.populate(configs)
        with CampaignService(None, workers=2) as service:
            served = CpiTable(scale=4, seed=0)
            served.populate(configs, service=InProcessClient(service))
        for config in configs:
            assert served.cpi(config) == direct.cpi(config)
            assert served.stack(config) == direct.stack(config)

    def test_sweep_matches_direct_run(self):
        from repro.dse.cpi import CpiTable
        from repro.dse.sweep import sweep
        from repro.pipeline.config import config_by_name

        configs = [config_by_name("TDX")]
        direct = sweep(configs, cpi_table=CpiTable(scale=4, seed=0))
        with CampaignService(None, workers=2) as service:
            served = sweep(
                configs, cpi_table=CpiTable(scale=4, seed=0),
                service=InProcessClient(service),
            )
        assert served == direct


# ----------------------------------------------------------------------
# HTTP frontend + client
# ----------------------------------------------------------------------


@pytest.fixture()
def http_service():
    """A live service + HTTP frontend on a background event loop."""
    with CampaignService(None, workers=2, task_timeout=10.0,
                         backoff_base=0.01, backoff_cap=0.05) as service:
        with serve_in_thread(service) as url:
            yield HttpClient(url)


class TestHttpApi:
    def test_healthz_and_stats(self, http_service):
        assert http_service.healthy()
        stats = http_service.stats()
        assert "admission" in stats and "supervisor" in stats

    def test_map_roundtrip(self, http_service):
        results = http_service.map(
            "chaos-echo", [{"value": i} for i in range(4)], timeout=30.0
        )
        assert results == [{"echo": i} for i in range(4)]

    def test_status_reports_progress_fields(self, http_service):
        job_id = http_service.submit("chaos-echo", [{"value": 1}])
        body = http_service.wait(job_id, timeout=30.0)
        assert body["state"] == "done"
        assert body["resolved"] == body["total"] == 1

    def test_unknown_kind_is_client_error(self, http_service):
        with pytest.raises(CampaignError) as err:
            http_service.submit("no-such-kind", [{}])
        assert "HTTP 400" in str(err.value)

    def test_unknown_job_is_not_found(self, http_service):
        with pytest.raises(CampaignError) as err:
            http_service.status("job-9999")
        assert "HTTP 404" in str(err.value)

    def test_failed_job_surfaces_worker_error(self, http_service):
        job_id = http_service.submit("chaos-fail", [{"message": "kaput"}])
        body = http_service.wait(job_id, timeout=30.0)
        assert body["state"] == "failed"
        with pytest.raises(CampaignError) as err:
            http_service.results(job_id)
        assert "kaput" in str(err.value)

    def test_results_bodies_keep_their_bytes(self):
        """The bytes ``GET /jobs/<id>/results`` sent before results were
        read back from the store, for a done and a failed job."""
        value = {"b": 1.5, "a": [1, "\u00e9", None, True], "c": 1e-07}
        with CampaignService(None, serial=True) as service:
            frontend = HttpFrontend(service)
            done = service.submit("chaos-echo",
                                  [{"value": value}, {"value": 2}])
            failed = service.submit("chaos-fail", [{"message": "kaput"}])
            service.pump()   # serial: runs both jobs to the end
            running = service.submit("chaos-echo", [{"value": 3}])

            def get(job):
                return _response(*frontend.handle(
                    "GET", f"/jobs/{job.job_id}/results", b""))

            done_bytes, failed_bytes = get(done), get(failed)
            running_bytes = get(running)
            tb = failed.errors[0][2]
        body = (b'{"kind": "chaos-echo", "results": [{"echo": {"a": [1, '
                b'"\\u00e9", null, true], "b": 1.5, "c": 1e-07}}, '
                b'{"echo": 2}]}')
        assert done_bytes == (
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\nConnection: close\r\n\r\n" % len(body)
        ) + body
        body = (b'{"error": "job job-0002: 1 task(s) failed, 0 quarantined '
                b'(first: slot 0: ValueError: kaput)\\n--- worker '
                b'traceback ---\\n' + json.dumps(tb)[1:-1].encode()
                + b'", "state": "failed"}')
        assert failed_bytes == (
            b"HTTP/1.1 500 Internal Server Error\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\nConnection: close\r\n\r\n" % len(body)
        ) + body
        body = (b'{"error": "job job-0003 still running", "state": "queued", '
                b'"resolved": 0, "total": 1}')
        assert running_bytes.endswith(b"\r\n\r\n" + body)
        assert running_bytes.startswith(b"HTTP/1.1 409 Conflict\r\n")

    def test_rate_limit_maps_to_admission_error(self):
        tiny = AdmissionController(rate=0.0, burst=1.0)
        with CampaignService(None, serial=True, admission=tiny) as service:
            with serve_in_thread(service) as url:
                client = HttpClient(url)
                client.submit("chaos-echo", [{"value": 1}])  # spends the burst
                with pytest.raises(AdmissionError) as err:
                    client.submit("chaos-echo", [{"value": 2}])
        assert err.value.reason == "rate-limited"


# ----------------------------------------------------------------------
# The acceptance gate: kill -9 chaos run (scaled-down --chaos)
# ----------------------------------------------------------------------


class TestChaosKill:
    def test_sigkill_resume_is_byte_identical_with_no_duplicates(
        self, tmp_path
    ):
        """SIGKILL the service process group mid-campaign (twice), then
        verify the store-assembled results are byte-identical to an
        uninterrupted serial run with zero re-executions and zero
        duplicated executions recorded."""
        from repro.serve.__main__ import run_chaos

        assert run_chaos(
            scale=48, seed=0, workdir=str(tmp_path), kill_points=(4, 12),
        ) == 0


class TestImportFootprint:
    """The campaign path stays light: the report and gate entry points
    load no service code until a campaign runs, and a serial campaign
    loads neither ``asyncio``, ``multiprocessing`` nor ``urllib``, nor
    the HTTP frontend or the chaos kinds."""

    @staticmethod
    def _loaded(code: str, **env) -> set[str]:
        src = os.path.dirname(os.path.dirname(repro.__file__))
        script = (code + "\nimport json, sys\n"
                  "print(json.dumps(sorted(sys.modules)))")
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=300, check=True,
            env={**os.environ, "PYTHONPATH": src, **env},
        )
        return set(json.loads(proc.stdout.splitlines()[-1]))

    def test_entry_points_load_no_service(self):
        loaded = self._loaded(
            "import repro.eval.report, repro.verify, repro.analyze"
        )
        assert not {"repro.serve", "sqlite3"} & loaded

    def test_serial_campaigns_load_no_pool_or_http(self):
        loaded = self._loaded(
            "from repro.dse.cpi import CpiTable\n"
            "from repro.pipeline.config import all_configs\n"
            "from repro.verify import fuzz_run\n"
            "CpiTable(scale=2).populate(all_configs()[:2])\n"
            "fuzz_run(2)",
            REPRO_WORKERS="1",
        )
        assert "repro.serve.service" in loaded
        assert not {"asyncio", "multiprocessing", "urllib.request",
                    "repro.serve.http", "repro.serve.chaos"} & loaded


def test_registered_kinds_cover_the_campaign_clients():
    kinds = registered_kinds()
    for expected in ("suite-run", "fault-trial", "fuzz-case",
                     "workload-run", "chaos-echo", "chaos-crash-once",
                     "chaos-hang-once", "chaos-always-crash", "chaos-fail"):
        assert expected in kinds
    # Rows of the retired per-config shape are never decoded.
    assert "cpi-config" not in kinds


# ----------------------------------------------------------------------
# Service observability: spans, /metrics exposition, SSE streams
# ----------------------------------------------------------------------

import re

from repro.obs import ServiceObs


class TestServiceObservability:
    def test_spans_cover_the_job_lifecycle(self):
        obs = ServiceObs()
        with CampaignService(None, workers=1, obs=obs) as service:
            job = service.submit(
                "chaos-echo", [{"value": 1}, {"value": 2}, {"value": 1}]
            )
            service.wait(job, timeout=60.0)
        summary = obs.tracer.summary()
        assert summary["job"] == 1 and summary["admission"] == 1
        # Two distinct fingerprints execute; the third slot shares one.
        assert summary["task"] == 2
        assert summary["queue_wait"] == 2
        assert summary["execute"] == 2
        assert summary["store_commit"] == 2
        assert obs.tracer.check_nesting() == []
        # Every span belongs to the job's trace.
        assert {s.trace_id for s in obs.tracer.spans} == {job.job_id}
        # Worker-side windows landed on the parent timeline.
        for run_span in obs.tracer.by_name("worker_run"):
            assert run_span.seconds >= 0.0

    def test_store_hit_spans_on_replay(self):
        obs = ServiceObs()
        with CampaignService(None, workers=1, obs=obs) as service:
            client = InProcessClient(service)
            client.map("chaos-echo", [{"value": 9}])
            client.map("chaos-echo", [{"value": 9}])   # replayed from store
        assert len(obs.tracer.by_name("store_hit")) == 1
        assert len(obs.tracer.by_name("execute")) == 1

    def test_queue_wait_and_task_latency_histograms(self):
        obs = ServiceObs()
        with CampaignService(None, workers=1, obs=obs) as service:
            _run(service, "chaos-echo", [{"value": i} for i in range(3)])
        snap = obs.metrics.snapshot()["histograms"]
        assert snap["repro_serve_queue_wait_seconds"]["count"] == 3
        assert snap['repro_serve_task_seconds{kind="chaos-echo"}'][
            "count"] == 3

    def test_retry_after_histogram_and_reject_log(self):
        import io as _io

        from repro.obs import JsonLogger

        sink = _io.StringIO()
        obs = ServiceObs(logger=JsonLogger(sink))
        # Nonzero rate: the retry_after hint is finite and histogrammed
        # (rate=0 would hint "inf", which is deliberately not observed).
        tiny = AdmissionController(rate=0.001, burst=1.0)
        with CampaignService(None, workers=1, admission=tiny,
                             obs=obs) as service:
            service.submit("chaos-echo", [{"value": 1}])
            with pytest.raises(AdmissionError):
                service.submit("chaos-echo", [{"value": 2}])
        histograms = obs.metrics.snapshot()["histograms"]
        assert "repro_serve_retry_after_seconds" in histograms
        records = [json.loads(line) for line in
                   sink.getvalue().splitlines()]
        [reject] = [r for r in records if r["event"] == "admission_reject"]
        assert reject["level"] == "warning"
        assert reject["reason"] == "rate-limited"
        # The rejected job's span closed in the rejected state.
        rejected = [s for s in obs.tracer.by_name("job")
                    if s.attrs.get("state") == "rejected"]
        assert len(rejected) == 1

    def test_quarantine_forensics_carry_trace_and_metrics(self):
        obs = ServiceObs()
        with CampaignService(
            None, workers=1, max_task_failures=2,
            backoff_base=0.01, backoff_cap=0.05, obs=obs,
        ) as service:
            job = service.submit("chaos-always-crash", [{"exit_code": 7}])
            with pytest.raises(CampaignError) as err:
                service.wait(job, timeout=60.0)
        [report] = err.value.quarantine_reports
        assert report["trace"]["trace_id"] == job.job_id
        assert report["trace"]["span_id"]
        assert report["supervisor_metrics"]["tasks_quarantined"] == 1
        counters = report["service_metrics"]["counters"]
        assert json.loads(json.dumps(report))   # forensics stay JSON-pure
        # The retry backoffs were spanned on the task's track.
        assert len(obs.tracer.by_name("backoff")) == 1

    def test_logs_carry_correlation_ids(self):
        import io as _io

        from repro.obs import JsonLogger

        sink = _io.StringIO()
        obs = ServiceObs(logger=JsonLogger(sink))
        with CampaignService(None, workers=1, obs=obs) as service:
            job = service.submit("chaos-echo", [{"value": 1}])
            service.wait(job, timeout=60.0)
        records = [json.loads(line) for line in sink.getvalue().splitlines()]
        events = [r["event"] for r in records]
        assert "job_admitted" in events and "job_done" in events
        assert "task_done" in events
        for record in records:
            if record["event"].startswith(("job_", "task_")):
                assert record["trace_id"] == job.job_id


class TestMetricsEndpoint:
    def test_exposition_without_obs(self):
        with CampaignService(None, workers=1) as service:
            _run(service, "chaos-echo", [{"value": 1}])
            text = service.metrics_text()
        assert "# TYPE repro_serve_tasks_done_total counter" in text
        assert "repro_serve_tasks_done_total 1" in text
        assert "repro_serve_store_rows 1" in text
        assert "repro_jit_cache_hits_total" in text
        sample = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? "
            r"(-?\d+(\.\d+)?([eE][+-]?\d+)?|\+Inf|NaN)$"
        )
        for line in text.splitlines():
            assert line.startswith("# TYPE ") or sample.match(line), line

    def test_exposition_gains_histograms_with_obs(self):
        obs = ServiceObs()
        with CampaignService(None, workers=1, obs=obs) as service:
            _run(service, "chaos-echo", [{"value": 1}])
            text = service.metrics_text()
        assert 'repro_serve_queue_wait_seconds_bucket{le="+Inf"} 1' in text
        assert 'repro_serve_task_seconds_bucket{kind="chaos-echo"' in text
        # One exposition: each family name appears in exactly one TYPE.
        families = [line.split()[2] for line in text.splitlines()
                    if line.startswith("# TYPE ")]
        assert len(families) == len(set(families))

    def test_stats_surface_store_audit(self):
        with CampaignService(None, workers=1) as service:
            _run(service, "chaos-echo", [{"value": 1}, {"value": 1}])
            stats = service.stats()
        store = stats["store"]
        assert store["rows"] == 1
        assert store["executions_total"] == 1
        assert store["max_executions"] == 1
        assert store["seconds_total"] >= 0.0
        assert "obs" not in stats   # no obs attached, no obs section

    def test_stats_obs_section_when_attached(self):
        obs = ServiceObs()
        with CampaignService(None, workers=1, obs=obs) as service:
            _run(service, "chaos-echo", [{"value": 1}])
            stats = service.stats()
        assert stats["obs"]["spans"] == len(obs.tracer.spans)
        assert stats["obs"]["spans_dropped"] == 0


class TestSseStreams:
    def test_publish_order_snapshot_to_terminal(self):
        with CampaignService(None, workers=1) as service:
            job = service.submit("chaos-echo", [{"value": i}
                                                for i in range(3)])
            stream = job.subscribe()
            service.wait(job, timeout=60.0)
            events = stream.pop_all()
            job.unsubscribe(stream)
        names = [e["event"] for e in events]
        assert names[0] == "active"
        assert names[-1] == "done"
        assert names.count("progress") == 3
        resolved = [e["resolved"] for e in events]
        assert resolved == sorted(resolved)       # progress is monotone
        assert events[-1]["resolved"] == events[-1]["total"] == 3

    def test_unsubscribed_job_pays_nothing(self):
        with CampaignService(None, workers=1) as service:
            job = service.submit("chaos-echo", [{"value": 1}])
            service.wait(job, timeout=60.0)
        assert job._subscribers == []

    def test_slow_consumer_drops_oldest_not_newest(self):
        with CampaignService(None, workers=1) as service:
            job = service.submit("chaos-echo", [{"value": i}
                                                for i in range(8)])
            stream = job.subscribe(max_buffer=2)
            service.wait(job, timeout=60.0)
            events = stream.pop_all()
            job.unsubscribe(stream)
        # 10 frames published (active + 8 progress + done); 2 kept.
        assert stream.dropped == 8
        assert len(events) == 2
        assert events[-1]["event"] == "done"   # the terminal frame survives

    def test_http_sse_stream_lifecycle(self, http_service):
        job_id = http_service.submit(
            "chaos-echo", [{"value": i} for i in range(4)]
        )
        frames = list(http_service.events(job_id, timeout=60.0))
        names = [f["event"] for f in frames]
        assert names[0] == "snapshot"
        assert names[-1] == "done"
        resolved = [f["resolved"] for f in frames]
        assert resolved == sorted(resolved)
        assert frames[-1]["resolved"] == frames[-1]["total"] == 4

    def test_http_sse_on_finished_job_closes_immediately(self, http_service):
        job_id = http_service.submit("chaos-echo", [{"value": 1}])
        http_service.wait(job_id, timeout=30.0)
        frames = list(http_service.events(job_id, timeout=30.0))
        assert [f["event"] for f in frames] == ["snapshot", "done"]

    def test_http_sse_failed_job_terminates_with_failed(self, http_service):
        job_id = http_service.submit("chaos-fail", [{"message": "nope"}])
        frames = list(http_service.events(job_id, timeout=60.0))
        assert frames[-1]["event"] == "failed"

    def test_http_sse_unknown_job_is_404(self, http_service):
        import urllib.error
        import urllib.request

        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(
                http_service.base_url + "/jobs/job-9999/events", timeout=10.0
            )
        assert err.value.code == 404

    def test_http_metrics_exposition(self, http_service):
        http_service.map("chaos-echo", [{"value": 1}], timeout=30.0)
        text = http_service.metrics_text()
        assert "# TYPE repro_serve_tasks_done_total counter" in text
        assert "repro_serve_store_rows 1" in text
