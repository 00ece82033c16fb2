"""Supervised worker pool: health checks, kill/respawn, retry, quarantine.

Every campaign in the tree runs on this pool, through
:class:`repro.serve.service.CampaignService`.  The :class:`Supervisor`
owns N forked worker processes, each with a private inbox/outbox pair
(``multiprocessing.SimpleQueue``), and is pumped by a non-blocking
:meth:`Supervisor.poll` — every poll drains results, reaps crashed
workers, kills workers whose in-flight task blew its deadline, respawns
capacity, promotes backed-off retries, and dispatches ready tasks to
idle workers.  With ``serial=True`` nothing is forked: each poll runs
one ready task in-process (the mode a one-wide campaign, a debugger or
a profiler uses).

Failure taxonomy (the part tests pin down):

* **task exception** — deterministic campaign input; the task fails
  *immediately* with the worker's traceback (never retried), and the
  worker stays healthy;
* **worker crash** — the process died (``os._exit``, segfault, OOM
  kill) with a task in flight; the task retries on a fresh worker after
  a capped, deterministically jittered exponential backoff
  (:func:`retry_delay`);
* **hung worker** — the in-flight task exceeded ``task_timeout``; the
  worker is SIGKILLed and respawned, and the task retries like a crash;
* **poison task** — a task that crashed/hung workers
  ``max_task_failures`` times is *quarantined*: it stops consuming pool
  capacity and surfaces a forensic report (attempt history, plus the
  structured :class:`~repro.errors.DeadlockError` report when the
  failure carried one) instead of wedging the campaign;
* **pool unavailable** — worker processes cannot be spawned at all
  (restricted sandboxes); the supervisor degrades to in-process serial
  execution and the campaign still completes.

Per-worker queues (not one shared pair) are deliberate: killing a
worker can tear a message mid-write, and private queues make the blast
radius exactly that worker — its queues are discarded with it.
"""

from __future__ import annotations

import collections
import contextlib
import heapq
import random
import time
import traceback

from repro.serve import tasks as task_registry

#: Worker -> supervisor message tag.
_DONE = "done"


def retry_delay(
    base: float,
    attempt: int,
    cap: float | None = None,
    token: str = "",
    seed: int = 0,
) -> float:
    """Capped exponential backoff with *deterministic* seeded jitter.

    The jitter (up to +25% of the exponential delay) decorrelates
    retries that would otherwise stampede in lockstep, but is a pure
    function of ``(seed, token, attempt)`` — replaying a campaign
    replays the exact same sleep schedule, which keeps retry behaviour
    reproducible in tests and chaos runs.  ``attempt`` is 1-based.
    """
    rng = random.Random(f"{seed}:{token}:{attempt}")
    delay = base * (2 ** max(0, attempt - 1))
    delay *= 1.0 + rng.uniform(0.0, 0.25)
    if cap is not None:
        delay = min(delay, cap)
    return delay


def _remote(ctx: dict | None, started: float, sim) -> dict | None:
    """A traced reply's worker-side window and simulator payload."""
    if ctx is None:
        return None
    return {"start": started, "end": time.monotonic(), "sim": sim}


def _worker_main(worker_id: int, inbox, outbox) -> None:
    """Worker process loop: execute tasks from the inbox until ``None``.

    Messages are ``(task_id, kind, payload, ctx)``, where ``ctx`` is the
    trace context (``{"trace", "span", "sim"}``) when a
    :class:`~repro.obs.svc.ServiceObs` is attached and ``None``
    otherwise.  Replies are ``(_DONE, task_id, ok, payload, seconds,
    remote)``, where ``payload`` is the result, or the error tuple when
    ``ok`` is false; for a traced task ``remote`` carries the worker-side
    monotonic window (comparable across ``fork`` on Linux —
    CLOCK_MONOTONIC is system-wide) plus the optional simulator
    stage-track payload, else it is ``None``.
    """
    while True:
        message = inbox.get()
        if message is None:
            return
        task_id, kind, payload, ctx = message
        start = time.perf_counter()
        started = time.monotonic()
        try:
            sim = None
            if ctx is not None and ctx["sim"]:
                result, sim = task_registry.execute_traced(kind, payload)
            else:
                result = task_registry.execute(kind, payload)
            seconds = time.perf_counter() - start
            outbox.put((_DONE, task_id, True, result, seconds,
                        _remote(ctx, started, sim)))
        except Exception as exc:
            # DeadlockError-style exceptions carry a structured forensic
            # report; ride it back for the quarantine/failure record.
            report = getattr(exc, "report", None)
            error = (
                type(exc).__name__,
                str(exc),
                traceback.format_exc(),
                report if isinstance(report, dict) else None,
            )
            seconds = time.perf_counter() - start
            outbox.put((_DONE, task_id, False, error, seconds,
                        _remote(ctx, started, None)))


class SupervisedTask:
    """One unit of work moving through the pool."""

    __slots__ = (
        "task_id", "kind", "payload", "fingerprint",
        "attempts", "failures", "submitted_at",
        "trace_id", "span_id", "queue_span", "enqueued_at",
    )

    def __init__(self, task_id: str, kind: str, payload: dict,
                 fingerprint: str, trace_id: str | None = None,
                 span_id: str | None = None) -> None:
        self.task_id = task_id
        self.kind = kind
        self.payload = payload
        self.fingerprint = fingerprint
        self.attempts = 0
        #: Attempt-history records for the forensic report.
        self.failures: list[dict] = []
        self.submitted_at: float | None = None
        #: Trace context (set by the service when obs is attached); the
        #: span is the parent ``task`` span the pool's spans nest under.
        self.trace_id = trace_id
        self.span_id = span_id
        self.queue_span = None
        self.enqueued_at: float | None = None


class TaskOutcome:
    """Terminal state of one supervised task."""

    __slots__ = ("task", "status", "result", "error", "seconds", "forensic")

    DONE = "done"
    FAILED = "failed"            # deterministic task exception
    QUARANTINED = "quarantined"  # poison task: killed/hung too many workers

    def __init__(self, task: SupervisedTask, status: str, result=None,
                 error: tuple | None = None, seconds: float = 0.0,
                 forensic: dict | None = None) -> None:
        self.task = task
        self.status = status
        self.result = result
        self.error = error
        self.seconds = seconds
        self.forensic = forensic


class _Worker:
    """One supervised worker process plus its private queue pair."""

    __slots__ = ("worker_id", "process", "inbox", "outbox",
                 "current", "deadline", "span")

    def __init__(self, worker_id: int, ctx) -> None:
        self.worker_id = worker_id
        self.inbox = ctx.SimpleQueue()
        self.outbox = ctx.SimpleQueue()
        self.process = ctx.Process(
            target=_worker_main,
            args=(worker_id, self.inbox, self.outbox),
            daemon=True,
            name=f"repro-serve-worker-{worker_id}",
        )
        self.current: SupervisedTask | None = None
        self.deadline: float | None = None
        #: Open ``execute`` span for the in-flight task (obs only).
        self.span = None

    @property
    def idle(self) -> bool:
        return self.current is None

    def close_queues(self) -> None:
        for queue in (self.inbox, self.outbox):
            with contextlib.suppress(OSError):
                queue.close()


class Supervisor:
    """Health-checked worker pool with retry, quarantine, and fallback."""

    def __init__(
        self,
        workers: int = 2,
        *,
        task_timeout: float = 60.0,
        max_task_failures: int = 3,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        seed: int = 0,
        obs=None,
        clock=time.monotonic,
        serial: bool = False,
    ) -> None:
        self.worker_count = max(1, int(workers))
        self.task_timeout = task_timeout
        self.max_task_failures = max_task_failures
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.seed = seed
        #: Optional :class:`repro.obs.svc.ServiceObs`; None-default seam.
        self.obs = obs
        self.clock = clock
        self.serial = serial
        self.pending: collections.deque[SupervisedTask] = collections.deque()
        self._delayed: list[tuple[float, int, SupervisedTask]] = []
        self._delay_seq = 0
        self._workers: dict[int, _Worker] = {}
        self._next_worker_id = 0
        self.metrics = {
            "worker_spawns": 0,
            "worker_kills": 0,
            "worker_crashes": 0,
            "task_retries": 0,
            "tasks_done": 0,
            "tasks_failed": 0,
            "tasks_quarantined": 0,
            "serial_fallback": serial,
        }

    # -- submission ------------------------------------------------------

    def submit(self, task: SupervisedTask) -> None:
        task.submitted_at = self.clock()
        self._enqueue(task)

    def _enqueue(self, task: SupervisedTask) -> None:
        """Queue a task for dispatch, opening its ``queue_wait`` span."""
        task.enqueued_at = self.clock()
        if self.obs is not None and task.trace_id is not None:
            task.queue_span = self.obs.tracer.begin(
                "queue_wait", trace_id=task.trace_id, parent=task.span_id,
                track=f"task {task.task_id}", task=task.task_id,
            )
        self.pending.append(task)

    def _close_queue_span(self, task: SupervisedTask) -> None:
        if self.obs is not None and task.queue_span is not None:
            self.obs.tracer.end(task.queue_span)
            task.queue_span = None
            if task.enqueued_at is not None:
                self.obs.metrics.observe(
                    "repro_serve_queue_wait_seconds",
                    max(0.0, self.clock() - task.enqueued_at),
                )

    @property
    def in_flight(self) -> int:
        return sum(1 for worker in self._workers.values() if not worker.idle)

    @property
    def has_work(self) -> bool:
        return bool(self.pending or self._delayed or self.in_flight)

    # -- worker lifecycle ------------------------------------------------

    def _spawn_worker(self) -> _Worker | None:
        # Imported here: a serial supervisor never pays for it.
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        worker = _Worker(self._next_worker_id, ctx)
        self._next_worker_id += 1
        try:
            worker.process.start()
        except Exception as exc:
            # The pool is unavailable on this host; finish the campaign
            # anyway, in-process.
            worker.close_queues()
            self.serial = True
            self.metrics["serial_fallback"] = True
            if self.obs is not None:
                self.obs.log("serial_fallback", level="warning",
                             error=f"{type(exc).__name__}: {exc}")
            return None
        self.metrics["worker_spawns"] += 1
        self._workers[worker.worker_id] = worker
        if self.obs is not None:
            self.obs.log("worker_spawn", worker=worker.worker_id)
        return worker

    def _ensure_workers(self) -> None:
        while not self.serial and len(self._workers) < self.worker_count:
            if self._spawn_worker() is None:
                return

    def _kill_worker(self, worker: _Worker, reason: str) -> None:
        self.metrics["worker_kills"] += 1
        if self.obs is not None:
            self.obs.log("worker_kill", level="warning",
                         worker=worker.worker_id, reason=reason)
        with contextlib.suppress(OSError, ValueError):
            worker.process.kill()
            worker.process.join(timeout=5.0)
        worker.close_queues()
        self._workers.pop(worker.worker_id, None)

    # -- failure handling ------------------------------------------------

    def _record_failure(self, task: SupervisedTask, failure: str,
                        detail: str, worker_id: int | None,
                        report: dict | None = None) -> TaskOutcome | None:
        """Retry (with backoff) or quarantine a crashed/hung task."""
        task.failures.append({
            "attempt": task.attempts,
            "failure": failure,
            "detail": detail,
            "worker": worker_id,
            "report": report,
        })
        if len(task.failures) >= self.max_task_failures:
            self.metrics["tasks_quarantined"] += 1
            forensic = {
                "task_id": task.task_id,
                "kind": task.kind,
                "fingerprint": task.fingerprint,
                "payload": task.payload,
                "attempts": list(task.failures),
                "max_task_failures": self.max_task_failures,
            }
            if self.obs is not None:
                # Mirror PR 3's deadlock forensics: the quarantine report
                # carries the correlation IDs and a metrics snapshot so a
                # poison-task post-mortem is self-contained.
                forensic["trace"] = {
                    "trace_id": task.trace_id,
                    "span_id": task.span_id,
                }
                forensic["supervisor_metrics"] = dict(self.metrics)
                forensic["service_metrics"] = self.obs.metrics.snapshot()
                self.obs.log("task_quarantined", level="error",
                             trace_id=task.trace_id, span_id=task.span_id,
                             task=task.task_id, kind=task.kind,
                             failure=failure, attempts=len(task.failures))
            return TaskOutcome(
                task, TaskOutcome.QUARANTINED, forensic=forensic,
                error=(failure, detail, "", report),
            )
        self.metrics["task_retries"] += 1
        delay = retry_delay(
            self.backoff_base, len(task.failures), cap=self.backoff_cap,
            token=task.fingerprint, seed=self.seed,
        )
        if self.obs is not None and task.trace_id is not None:
            now = self.clock()
            self.obs.tracer.record(
                "backoff", now, now + delay, trace_id=task.trace_id,
                parent=task.span_id, track=f"task {task.task_id}",
                failure=failure, attempt=len(task.failures),
            )
            self.obs.log("task_retry", level="warning",
                         trace_id=task.trace_id, span_id=task.span_id,
                         task=task.task_id, failure=failure,
                         attempt=len(task.failures),
                         delay=round(delay, 6))
        heapq.heappush(
            self._delayed, (self.clock() + delay, self._delay_seq, task)
        )
        self._delay_seq += 1
        return None

    # -- the pump --------------------------------------------------------

    def poll(self) -> list[TaskOutcome]:
        """One non-blocking supervision pass; returns finished outcomes."""
        if self.serial:
            return self._poll_serial()
        outcomes: list[TaskOutcome] = []
        now = self.clock()
        self._drain(outcomes)
        self._reap(outcomes, now)
        self._check_deadlines(outcomes, now)
        while self._delayed and self._delayed[0][0] <= now:
            self._enqueue(heapq.heappop(self._delayed)[2])
        self._ensure_workers()
        if self.serial:
            # Spawn failed mid-poll: let the serial path make progress.
            outcomes.extend(self._poll_serial())
            return outcomes
        self._dispatch(now)
        return outcomes

    def _poll_serial(self) -> list[TaskOutcome]:
        """Serial mode: run one pending task in-process per poll (the
        service's pump polls again while ready tasks remain)."""
        now = self.clock()
        while self._delayed and self._delayed[0][0] <= now:
            self._enqueue(heapq.heappop(self._delayed)[2])
        if not self.pending:
            return []
        task = self.pending.popleft()
        task.attempts += 1
        self._close_queue_span(task)
        span = None
        traced = False
        if self.obs is not None and task.trace_id is not None:
            span = self.obs.tracer.begin(
                "execute", trace_id=task.trace_id, parent=task.span_id,
                track="worker serial", task=task.task_id,
                kind=task.kind, attempt=task.attempts,
            )
            traced = self.obs.sim_trace
        start = time.perf_counter()
        try:
            sim = None
            if traced:
                result, sim = task_registry.execute_traced(
                    task.kind, task.payload
                )
            else:
                result = task_registry.execute(task.kind, task.payload)
        except Exception as exc:
            if span is not None:
                self.obs.tracer.end(span, ok=False,
                                    error=type(exc).__name__)
            report = getattr(exc, "report", None)
            return [self._task_failed(task, (
                type(exc).__name__, str(exc), traceback.format_exc(),
                report if isinstance(report, dict) else None,
            ), time.perf_counter() - start)]
        if span is not None:
            self.obs.tracer.end(span, ok=True)
            if sim is not None:
                self.obs.add_sim_trace(
                    task.task_id, sim, start=span.start, end=span.end,
                    trace_id=task.trace_id,
                )
        return [self._task_done(task, result, time.perf_counter() - start)]

    def _task_done(self, task: SupervisedTask, result,
                   seconds: float) -> TaskOutcome:
        self.metrics["tasks_done"] += 1
        if self.obs is not None:
            self.obs.metrics.observe("repro_serve_task_seconds", seconds,
                                     kind=task.kind)
            self.obs.log("task_done", trace_id=task.trace_id,
                         span_id=task.span_id, task=task.task_id,
                         kind=task.kind, seconds=round(seconds, 6),
                         attempts=task.attempts)
        return TaskOutcome(task, TaskOutcome.DONE, result=result,
                           seconds=seconds)

    def _task_failed(self, task: SupervisedTask, error: tuple,
                     seconds: float) -> TaskOutcome:
        self.metrics["tasks_failed"] += 1
        if self.obs is not None:
            self.obs.metrics.observe("repro_serve_task_seconds", seconds,
                                     kind=task.kind)
            self.obs.log("task_failed", level="error",
                         trace_id=task.trace_id, span_id=task.span_id,
                         task=task.task_id, kind=task.kind, error=error[0],
                         attempts=task.attempts)
        return TaskOutcome(task, TaskOutcome.FAILED, error=error,
                           seconds=seconds)

    def _drain(self, outcomes: list[TaskOutcome]) -> None:
        """Collect every completed result currently in worker outboxes."""
        for worker in list(self._workers.values()):
            while True:
                try:
                    if worker.outbox.empty():
                        break
                    message = worker.outbox.get()
                except (OSError, EOFError, ValueError):
                    break
                if not (isinstance(message, tuple) and message[0] == _DONE):
                    continue
                __, task_id, ok, payload, seconds, remote = message
                task = worker.current
                if task is None or task.task_id != task_id:
                    continue   # stale result from a superseded dispatch
                worker.current = None
                worker.deadline = None
                span, worker.span = worker.span, None
                if self.obs is not None and span is not None:
                    self.obs.tracer.end(span, ok=ok)
                    if remote is not None:
                        # The worker's own monotonic window: dispatch
                        # latency is visible as the gap to the span edges.
                        self.obs.tracer.record(
                            "worker_run", remote["start"], remote["end"],
                            trace_id=task.trace_id, parent=span.span_id,
                            track=span.track, task=task.task_id,
                        )
                        if remote.get("sim") is not None:
                            self.obs.add_sim_trace(
                                task.task_id, remote["sim"],
                                start=remote["start"], end=remote["end"],
                                trace_id=task.trace_id,
                            )
                if ok:
                    outcomes.append(self._task_done(task, payload, seconds))
                else:
                    outcomes.append(self._task_failed(task, payload, seconds))

    def _reap(self, outcomes: list[TaskOutcome], now: float) -> None:
        """Respawn-and-retry for workers that died on their own."""
        for worker in list(self._workers.values()):
            if worker.process.is_alive():
                continue
            exitcode = worker.process.exitcode
            self.metrics["worker_crashes"] += 1
            task = worker.current
            if self.obs is not None:
                self.obs.tracer.end(worker.span, ok=False, error="crashed",
                                    exitcode=exitcode)
                worker.span = None
                self.obs.log(
                    "worker_crash", level="error",
                    trace_id=task.trace_id if task is not None else None,
                    worker=worker.worker_id, exitcode=exitcode,
                )
            worker.close_queues()
            self._workers.pop(worker.worker_id, None)
            if task is not None:
                task.attempts += 1
                outcome = self._record_failure(
                    task, "crashed",
                    f"worker {worker.worker_id} exited with code {exitcode}",
                    worker.worker_id,
                )
                if outcome is not None:
                    outcomes.append(outcome)

    def _check_deadlines(self, outcomes: list[TaskOutcome],
                         now: float) -> None:
        """Kill workers whose in-flight task exceeded the timeout."""
        for worker in list(self._workers.values()):
            if worker.deadline is None or now < worker.deadline:
                continue
            task = worker.current
            if self.obs is not None:
                self.obs.tracer.end(worker.span, ok=False, error="hung")
                worker.span = None
                self.obs.log(
                    "worker_hung_killed", level="error",
                    trace_id=task.trace_id if task is not None else None,
                    worker=worker.worker_id, timeout=self.task_timeout,
                )
            self._kill_worker(worker, reason="task-timeout")
            if task is not None:
                task.attempts += 1
                outcome = self._record_failure(
                    task, "hung",
                    f"no result within {self.task_timeout}s "
                    f"(worker {worker.worker_id} killed)",
                    worker.worker_id,
                )
                if outcome is not None:
                    outcomes.append(outcome)

    def _dispatch(self, now: float) -> None:
        for worker in self._workers.values():
            if not worker.idle or not self.pending:
                continue
            task = self.pending.popleft()
            task.attempts += 1
            worker.current = task
            worker.deadline = (
                None if self.task_timeout is None
                else now + self.task_timeout
            )
            ctx = None
            if self.obs is not None and task.trace_id is not None:
                self._close_queue_span(task)
                worker.span = self.obs.tracer.begin(
                    "execute", trace_id=task.trace_id, parent=task.span_id,
                    track=f"worker {worker.worker_id}", task=task.task_id,
                    kind=task.kind, attempt=task.attempts,
                )
                ctx = {
                    "trace": task.trace_id,
                    "span": worker.span.span_id,
                    "sim": bool(
                        self.obs.sim_trace
                        and task_registry.get_kind(task.kind).traced
                        is not None
                    ),
                }
            try:
                worker.inbox.put((task.task_id, task.kind, task.payload, ctx))
            except (OSError, ValueError):
                # Worker died between reap and dispatch; next poll reaps.
                worker.current = None
                worker.deadline = None
                if self.obs is not None:
                    self.obs.tracer.end(worker.span, ok=False,
                                        error="dispatch-failed")
                    worker.span = None
                self.pending.appendleft(task)
                task.attempts -= 1

    # -- shutdown --------------------------------------------------------

    def close(self) -> None:
        """Stop every worker (politely, then by force)."""
        for worker in list(self._workers.values()):
            with contextlib.suppress(OSError, ValueError):
                worker.inbox.put(None)
        for worker in list(self._workers.values()):
            worker.process.join(timeout=1.0)
            if worker.process.is_alive():
                self._kill_worker(worker, reason="shutdown")
            else:
                worker.close_queues()
                self._workers.pop(worker.worker_id, None)
