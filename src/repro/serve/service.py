"""The campaign service: jobs in, durable deduped results out.

:class:`CampaignService` ties the tier together: admission control
(:mod:`repro.serve.admission`) decides whether a campaign gets in, the
durable store (:mod:`repro.serve.store`) decides how little of it needs
to run, and the supervised pool (:mod:`repro.serve.supervisor`) runs
the remainder and survives the workers.  The service itself is a plain
synchronous state machine pumped by :meth:`CampaignService.pump`;
:meth:`~CampaignService.run_job` and the ``async`` surface
(:meth:`~CampaignService.wait`, :meth:`~CampaignService.drive`) are thin
timing loops around it, so the same service instance backs the
in-process client, the HTTP frontend, and the tests' hand-cranked pumps.

It is also the only campaign executor: :func:`run_campaign` is how
:class:`repro.dse.cpi.CpiTable`, :func:`repro.dse.sweep.sweep`,
:func:`repro.resilience.campaign.fault_campaign` and
:func:`repro.verify.runner.fuzz_run` run their tasks — on the caller's
``service=`` client, or on a throwaway in-process service that runs
serially, without forking, when it is one worker wide.

Execution sharing: every task is keyed by its content fingerprint.  A
fingerprint already in the store resolves instantly; one already in
flight attaches the new (job, slot) as a waiter on the single
execution; only genuinely new work reaches the pool.  Fresh results are
committed to the store *before* any job observes them, and jobs consume
the canonical (JSON round-tripped) form — so a result is bit-identical
whether it was computed by this process, a previous (killed) service
run, or another job's identical task.
"""

from __future__ import annotations

import contextlib
import json
import os
import time

from repro.errors import CampaignError, WorkerTraceback
from repro.serve import tasks as task_registry
from repro.serve.admission import AdmissionController
from repro.serve.store import ResultStore, canonical_json, task_fingerprint
from repro.serve.supervisor import SupervisedTask, Supervisor, TaskOutcome

_PENDING = object()


class Job:
    """One admitted campaign: an ordered list of same-kind tasks."""

    QUEUED = "queued"
    ACTIVE = "active"
    DONE = "done"
    FAILED = "failed"

    def __init__(self, job_id: str, kind: str, payloads: list,
                 client: str, priority: int) -> None:
        self.job_id = job_id
        self.kind = kind
        self.payloads = payloads
        self.client = client
        self.priority = priority
        self.fingerprints = [
            task_fingerprint(kind, payload) for payload in payloads
        ]
        self.state = Job.QUEUED
        self.results: list = [_PENDING] * len(payloads)
        #: Slot -> (name, message, traceback, report) for failed tasks.
        self.errors: dict[int, tuple] = {}
        #: Forensic reports for quarantined slots.
        self.quarantined: dict[int, dict] = {}
        self.from_store = 0
        self.executed = 0
        self.shared = 0       # slots resolved by another task's execution
        self.submitted = time.time()
        #: Trace correlation (obs-attached services; ``trace_id == job_id``).
        self.trace_id: str | None = None
        self.span = None              # the job's root span
        self.task_spans: dict = {}    # slot -> open task span
        self._subscribers: list = []

    # -- SSE event fan-out ------------------------------------------------

    def subscribe(self, max_buffer: int = 256):
        """Attach one SSE subscriber (a :class:`repro.obs.svc.JobEventStream`);
        always unsubscribe it."""
        from repro.obs.svc import JobEventStream

        stream = JobEventStream(max_buffer=max_buffer)
        self._subscribers.append(stream)
        return stream

    def unsubscribe(self, stream) -> None:
        with contextlib.suppress(ValueError):
            self._subscribers.remove(stream)

    def publish(self, event: str, **data) -> None:
        """Push one lifecycle event to every subscriber (no-op without
        any — jobs pay nothing for the SSE surface until someone
        listens)."""
        if not self._subscribers:
            return
        frame = {
            "event": event,
            "job_id": self.job_id,
            "state": self.state,
            "resolved": self.resolved,
            "total": self.total,
            **data,
        }
        for stream in self._subscribers:
            stream.push(frame)

    @property
    def total(self) -> int:
        return len(self.payloads)

    @property
    def resolved(self) -> int:
        return sum(1 for value in self.results if value is not _PENDING)

    @property
    def finished(self) -> bool:
        return self.state in (Job.DONE, Job.FAILED)

    def status(self) -> dict:
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "client": self.client,
            "priority": self.priority,
            "state": self.state,
            "total": self.total,
            "resolved": self.resolved,
            "from_store": self.from_store,
            "executed": self.executed,
            "shared": self.shared,
            "failed": len(self.errors) - len(self.quarantined),
            "quarantined": len(self.quarantined),
        }


class CampaignService:
    """Supervised, admission-controlled, durable campaign execution."""

    def __init__(
        self,
        store: ResultStore | str | None = None,
        workers: int = 2,
        *,
        admission: AdmissionController | None = None,
        obs=None,
        poll_interval: float = 0.005,
        **supervisor_kwargs,
    ) -> None:
        self.store = (
            store if isinstance(store, ResultStore) else ResultStore(store)
        )
        #: Optional :class:`repro.obs.svc.ServiceObs`, threaded through
        #: admission and the supervised pool (None-default seam).
        self.obs = obs
        self.admission = admission or AdmissionController()
        if obs is not None and self.admission.obs is None:
            self.admission.obs = obs
        self.supervisor = Supervisor(
            workers=workers, obs=obs, **supervisor_kwargs
        )
        self.poll_interval = poll_interval
        self.jobs: dict[str, Job] = {}
        self._job_seq = 0
        #: fingerprint -> waiters [(job, slot), ...] for in-flight tasks.
        self._inflight: dict[str, list[tuple[Job, int]]] = {}
        self._closed = False

    # -- submission ------------------------------------------------------

    def submit(self, kind: str, payloads: list, *, client: str = "local",
               priority: int = 0) -> Job:
        """Admit one campaign or raise
        :class:`~repro.serve.admission.AdmissionError`."""
        task_registry.get_kind(kind)   # fail fast on unknown kinds
        self._job_seq += 1
        job = Job(
            f"job-{self._job_seq:04d}", kind, list(payloads),
            client=client, priority=priority,
        )
        admission_span = None
        if self.obs is not None:
            job.trace_id = job.job_id
            job.span = self.obs.tracer.begin(
                "job", trace_id=job.trace_id, track="jobs",
                job=job.job_id, kind=kind, tasks=job.total, client=client,
            )
            admission_span = self.obs.tracer.begin(
                "admission", trace_id=job.trace_id,
                parent=job.span.span_id, track="jobs", job=job.job_id,
            )
        try:
            self.admission.admit(
                job, client=client, priority=priority, tasks=job.total
            )
        except Exception as exc:
            if self.obs is not None:
                self.obs.tracer.end(admission_span, rejected=True)
                self.obs.tracer.end(job.span, state="rejected",
                                    error=type(exc).__name__)
            raise
        if self.obs is not None:
            self.obs.tracer.end(admission_span)
            self.obs.log("job_admitted", trace_id=job.trace_id,
                         span_id=job.span.span_id, job=job.job_id,
                         kind=kind, tasks=job.total, client=client,
                         priority=priority)
        self.jobs[job.job_id] = job
        return job

    # -- the pump --------------------------------------------------------

    def pump(self) -> None:
        """One scheduling pass: activate, poll the pool, land results.

        A serial pool runs one task per poll, so the pass polls until no
        ready task is left, landing each result as it completes.
        """
        while True:
            job = self.admission.next_job()
            if job is None:
                break
            self._activate(job)
        while True:
            for outcome in self.supervisor.poll():
                self._land(outcome)
            if not (self.supervisor.serial and self.supervisor.pending):
                break

    def _activate(self, job: Job) -> None:
        job.state = Job.ACTIVE
        for slot, fingerprint in enumerate(job.fingerprints):
            stored = self.store.get(fingerprint, default=_PENDING)
            if stored is not _PENDING:
                job.from_store += 1
                if self.obs is not None and job.trace_id is not None:
                    now = self.obs.tracer.clock()
                    self.obs.tracer.record(
                        "store_hit", now, now, trace_id=job.trace_id,
                        parent=job.span.span_id, track="jobs",
                        category="store", slot=slot,
                    )
                self._resolve(job, slot, stored)
                continue
            waiters = self._inflight.get(fingerprint)
            if waiters is not None:
                waiters.append((job, slot))
                continue
            self._inflight[fingerprint] = [(job, slot)]
            task = SupervisedTask(
                task_id=f"{job.job_id}/{slot}",
                kind=job.kind,
                payload=job.payloads[slot],
                fingerprint=fingerprint,
            )
            if self.obs is not None and job.trace_id is not None:
                span = self.obs.tracer.begin(
                    "task", trace_id=job.trace_id,
                    parent=job.span.span_id, track=f"task {task.task_id}",
                    slot=slot, kind=job.kind,
                )
                job.task_spans[slot] = span
                task.trace_id = job.trace_id
                task.span_id = span.span_id
            self.supervisor.submit(task)
        job.publish("active", from_store=job.from_store)
        self._finish_if_done(job)

    def _land(self, outcome: TaskOutcome) -> None:
        task = outcome.task
        waiters = self._inflight.pop(task.fingerprint, [])
        if outcome.status == TaskOutcome.DONE:
            commit_span = None
            if self.obs is not None and task.trace_id is not None:
                commit_span = self.obs.tracer.begin(
                    "store_commit", trace_id=task.trace_id,
                    parent=task.span_id, track=f"task {task.task_id}",
                    category="store",
                )
            inserted = self.store.put(
                task.fingerprint, task.kind, task.payload,
                outcome.result, outcome.seconds,
            )
            if commit_span is not None:
                self.obs.tracer.end(commit_span, inserted=inserted)
            # Canonical form: identical whether computed now or replayed.
            result = json.loads(canonical_json(outcome.result))
            for index, (job, slot) in enumerate(waiters):
                if index == 0:
                    job.executed += 1
                else:
                    job.shared += 1
                self._close_task_span(job, slot, status="done")
                self._resolve(job, slot, result)
        else:
            for job, slot in waiters:
                if outcome.status == TaskOutcome.QUARANTINED:
                    job.quarantined[slot] = outcome.forensic
                job.errors[slot] = outcome.error
                self._close_task_span(job, slot, status=outcome.status,
                                      error=outcome.error[0])
                self._resolve(job, slot, None)
        for job, _slot in waiters:
            self._finish_if_done(job)

    def _close_task_span(self, job: Job, slot: int, **attrs) -> None:
        span = job.task_spans.pop(slot, None)
        if span is not None:
            self.obs.tracer.end(span, **attrs)

    def _resolve(self, job: Job, slot: int, value) -> None:
        if job.results[slot] is not _PENDING:
            return
        job.results[slot] = value
        self.admission.task_finished()
        job.publish("progress", slot=slot, from_store=job.from_store,
                    executed=job.executed, shared=job.shared)

    def _finish_if_done(self, job: Job) -> None:
        if job.finished or job.resolved < job.total:
            return
        job.state = Job.FAILED if (job.errors or job.quarantined) else Job.DONE
        if self.obs is not None and job.span is not None:
            self.obs.tracer.end(
                job.span, state=job.state, executed=job.executed,
                from_store=job.from_store, shared=job.shared,
                failed=len(job.errors), quarantined=len(job.quarantined),
            )
            self.obs.log(
                "job_done", trace_id=job.trace_id, span_id=job.span.span_id,
                job=job.job_id, state=job.state, executed=job.executed,
                from_store=job.from_store, shared=job.shared,
                failed=len(job.errors), quarantined=len(job.quarantined),
            )
        # Terminal SSE frame; its event name equals the final state, so
        # the HTTP handler (and any client) closes on "done"/"failed".
        job.publish(job.state, executed=job.executed,
                    from_store=job.from_store, shared=job.shared,
                    failed=len(job.errors),
                    quarantined=len(job.quarantined))

    @property
    def idle(self) -> bool:
        return (
            self.admission.queued_jobs == 0
            and not self.supervisor.has_work
        )

    # -- results ---------------------------------------------------------

    def results(self, job: Job | str):
        """Decoded results in submission order; raises on a failed job."""
        if isinstance(job, str):
            job = self.jobs[job]
        if not job.finished:
            raise CampaignError(f"job {job.job_id} is not finished "
                                f"({job.resolved}/{job.total} resolved)")
        if job.state == Job.FAILED:
            slot = min([*job.errors, *job.quarantined])
            error = job.errors.get(slot)
            name, message, tb = (error or ("quarantined", "", ""))[:3]
            exc = CampaignError(
                f"job {job.job_id}: "
                f"{len(job.errors) - len(job.quarantined)} task(s) failed, "
                f"{len(job.quarantined)} quarantined "
                f"(first: slot {slot}: {name}: {message})",
                worker_traceback=tb or None,
            )
            exc.quarantine_reports = list(job.quarantined.values())
            if tb:
                raise exc from WorkerTraceback(tb)
            raise exc
        return [
            task_registry.decode_result(job.kind, value)
            for value in job.results
        ]

    # -- waiting ---------------------------------------------------------

    def _advance(self, job: Job, deadline: float | None) -> bool:
        """Pump once unless ``job`` has finished; True once it has."""
        if job.finished:
            return True
        if deadline is not None and time.monotonic() > deadline:
            raise CampaignError(
                f"timed out waiting for job {job.job_id} "
                f"({job.resolved}/{job.total} resolved)"
            )
        self.pump()
        return job.finished

    def run_job(self, kind: str, payloads: list, *, client: str = "local",
                priority: int = 0, timeout: float | None = None):
        """Synchronous submit-and-wait (the in-process client's core)."""
        return self.wait(
            self.submit(kind, payloads, client=client, priority=priority),
            timeout,
        )

    def wait(self, job: Job | str, timeout: float | None = None):
        """Drive the service until ``job`` finishes; return its results.

        A serial pump runs every ready task, so a serial job never
        sleeps; a pooled one sleeps ``poll_interval`` between pumps.
        """
        if isinstance(job, str):
            job = self.jobs[job]
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._advance(job, deadline):
            time.sleep(self.poll_interval)
        return self.results(job)

    async def drive(self) -> None:
        """Run the pump forever (the HTTP frontend's background task)."""
        import asyncio

        while not self._closed:
            self.pump()
            await asyncio.sleep(self.poll_interval)

    # -- introspection / lifecycle ---------------------------------------

    def job_status(self, job_id: str) -> dict:
        return self.jobs[job_id].status()

    def stats(self) -> dict:
        states: dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        stats = {
            "jobs": states,
            "admission": self.admission.stats(),
            "supervisor": dict(self.supervisor.metrics),
            "store": self.store.stats(),
            "serial": self.supervisor.serial,
            "pending_tasks": len(self.supervisor.pending),
            "in_flight": self.supervisor.in_flight,
        }
        if self.obs is not None:
            stats["obs"] = {
                "spans": len(self.obs.tracer.spans),
                "spans_dropped": self.obs.tracer.dropped,
                "sim_traces": len(self.obs.sim_traces),
            }
        return stats

    def metrics_text(self) -> str:
        """Prometheus text exposition (format 0.0.4) for ``GET /metrics``.

        Works on an uninstrumented service — the counter families are
        derived from :meth:`stats` plus process-wide jit-cache stats —
        and gains the live histogram families (queue wait, per-kind
        task latency, admission ``retry_after``) when a
        :class:`~repro.obs.svc.ServiceObs` is attached.
        """
        from repro.jit.cache import jit_metrics
        from repro.obs.svc import stats_metrics

        text = stats_metrics(self.stats(), jit=jit_metrics()).prometheus_text()
        if self.obs is not None:
            text += self.obs.metrics.prometheus_text()
        return text

    def close(self) -> None:
        self._closed = True
        self.supervisor.close()
        self.store.close()

    def __enter__(self) -> "CampaignService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def resolve_workers(tasks: int) -> int:
    """Width of a campaign's throwaway service: ``REPRO_WORKERS`` (else
    the CPU count), capped at the campaign's task count, at least 1."""
    try:
        workers = int(os.environ.get("REPRO_WORKERS", ""))
    except ValueError:
        workers = os.cpu_count() or 1
    return max(1, min(workers, tasks))


def run_campaign(service, kind: str, payloads: list,
                 store: ResultStore | str | None = None) -> list:
    """Run one campaign's tasks; ordered, decoded results.

    ``service`` is any client with ``map(kind, payloads)`` (an
    :class:`~repro.serve.client.InProcessClient` or
    :class:`~repro.serve.client.HttpClient`).  Without one, the
    campaign gets a throwaway in-process service over ``store``,
    :func:`resolve_workers` wide; one worker wide it runs serially in
    this process, without forking.  Results are identical either way.
    """
    if service is not None:
        return service.map(kind, payloads)
    workers = resolve_workers(len(payloads))
    with CampaignService(store, workers=workers,
                         serial=workers == 1) as local:
        return local.run_job(kind, payloads)
