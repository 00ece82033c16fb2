"""The four benchmark workloads; ``run.py`` runs each in a fresh process.

Usage (normally invoked by ``bench/run.py``, with ``src`` importable)::

    python bench/workloads.py --workload NAME --seed S --seconds T \
        --run-dir DIR [--trace] [--setup-only] [--quick] [--width W]

One process sets the workload up, then repeats its operation (a report,
a service job or a gates pass) as many times as take about ``--seconds``
on the reference host (:meth:`Workload.ops_for`), checking every
output.  It writes one JSON result to ``DIR/result.json``.  Set-up,
from process start, and every operation are timed in CPU seconds
(:func:`cpu_seconds`), and the result carries the factor that
normalizes them to the reference host (:func:`reference_seconds`);
each operation is also timed in wall seconds.  With ``--trace`` the
seams of :mod:`tracing` are wrapped before anything forks, and the
result gains the per-layer metrics of the timed operations.

Only public entry points drive the work: ``full_report``,
``CampaignService``/``InProcessClient``, ``fuzz_run``,
``check_program`` and ``bracket_check``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import glob
import hashlib
import json
import math
import os
import re
import resource
import signal
import statistics
import sys
import time
import traceback

import tracing

#: The paper anchors every report must contain: the Table 2 total of
#: 106 bits, +0.301 mW per pipeline register, and 1184 MHz closure.
ANCHORS = (
    re.compile(r"^total\s+106\b", re.MULTILINE),
    re.compile(r"per pipeline register: \+0\.301 mW"),
    re.compile(r"closes at 1184 MHz"),
)


def _read(path: str) -> str:
    try:
        with open(path, encoding="ascii") as handle:
            return handle.read()
    except OSError:          # the thread or process has just ended
        return ""


def children() -> list[int]:
    """Live (and not yet reaped) child processes of this process."""
    return [int(pid)
            for path in glob.glob(f"/proc/{os.getpid()}/task/*/children")
            for pid in _read(path).split()]


def cpu_seconds() -> float:
    """CPU seconds (user + system) this process and its live children,
    such as the service's workers, have used since they started.

    Unlike wall time, it leaves out the time the host gives to other
    processes and virtual machines, so it repeats on a shared host.  A
    child's share is its scheduler run time from /proc, in nanoseconds.
    """
    total = time.process_time()
    for pid in children():
        runtime = _read(f"/proc/{pid}/schedstat").split()
        if runtime:
            total += int(runtime[0]) / 1e9
    return total


class _Accumulator:
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0

    def add(self, value: int) -> None:
        self.total = (self.total + value) & 0xFFFFFF


_TABLE = {key: (key, key * 3, str(key)) for key in range(1024)}
#: Thread CPU seconds :func:`reference_seconds` takes on the 2-CPU Xeon
#: host the benchmark was written on, so normalized times read as CPU
#: seconds there.
REFERENCE_S = 0.01
REFERENCE_ROUNDS = 40
#: Wall seconds between two reference timings, and how far from a span
#: of work the timings that normalize it may lie.
REFERENCE_EVERY_S = 0.2
REFERENCE_NEAR_S = 1.0
#: Reference timings every process takes, after the timer if need be.
MIN_REFERENCES = 20
#: How the repository's CPU times move with the reference loop's when
#: the host slows: as its 0.6th power.  Over 13,000 pairs of loop and
#: simulation timings, taken alternately in one process for 15 minutes,
#: the simulation's log time moved 0.55-0.65 times the loop's.  With a
#: whole factor, slow spells came out faster than calm ones.
HOST_SENSITIVITY = 0.6


def reference_seconds() -> float:
    """Thread CPU seconds of a fixed interpreter loop (dict lookups,
    tuple indexing, method calls), written here so no change to
    ``src/`` can alter it.

    The host's neighbours slow its CPUs by up to a third for minutes at
    a time, and by half for a tenth of a second at a time, which CPU
    time does not leave out.  This loop slows with them, so its mean
    time, taken at timings spread over the same seconds, measures the
    slowdown (:meth:`Pacer.normalize`).  It allocates no containers, so
    the size of the process's heap does not change its cost.
    """
    table, accumulator = _TABLE, _Accumulator()
    started = time.thread_time()
    for _round in range(REFERENCE_ROUNDS):
        for key in range(1024):
            row = table[(key * 2654435761) & 1023]
            accumulator.add(row[1] + len(row[2]))
    return time.thread_time() - started


class Pacer:
    """Times the reference loop every REFERENCE_EVERY_S of wall time on
    the main thread, from a SIGALRM interval timer, so the timings
    spread evenly over an operation however long it is.

    ``cpu`` and ``wall`` total what the timings took, which the
    operations' times leave out.  Forked workers inherit no timer.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.times: list[float] = []
        self.cpu = 0.0
        self.wall = 0.0

    def sample(self, _signum=None, _frame=None) -> None:
        began = time.monotonic()
        took = reference_seconds()
        self.times.append(began)
        self.samples.append(took)
        self.cpu += took
        self.wall += time.monotonic() - began

    def __enter__(self) -> Pacer:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S,
                         REFERENCE_EVERY_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clocks(self) -> tuple[float, float]:
        """Wall and CPU (:func:`cpu_seconds`) clocks less what the
        timings took, read again if a timing ran while they were read."""
        while True:
            taken = len(self.samples)
            wall = time.monotonic() - self.wall
            cpu = cpu_seconds() - self.cpu
            if len(self.samples) == taken:
                return wall, cpu

    def normalize(self, start: float, end: float) -> float:
        """The factor that turns times taken from ``start`` to ``end``
        (``time.monotonic()``) into times on the host REFERENCE_S was
        measured on, from the mean of the timings within
        REFERENCE_NEAR_S of that span (or of all, if fewer than three
        are) raised to HOST_SENSITIVITY."""
        near = [took for at, took in zip(self.times, self.samples)
                if start - REFERENCE_NEAR_S <= at <= end + REFERENCE_NEAR_S]
        mean = statistics.mean(near if len(near) >= 3 else self.samples)
        return (REFERENCE_S / mean) ** HOST_SENSITIVITY


def percentile(values: list[float], q: float) -> float | None:
    """Nearest-rank ``q`` quantile, or None unless at least ten samples
    lie beyond it (a p90 needs 100 samples)."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    if len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


@dataclasses.dataclass(frozen=True)
class Context:
    """What every workload is given: inputs and where it may write."""

    seed: int
    quick: bool
    tmp: str
    width: int
    trace: bool


class Workload:
    """One benchmark workload: set up once, then repeat :meth:`op`."""

    name = ""
    #: Wall seconds one operation takes on the reference host.
    op_estimate_s = 1.0

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def ops_for(self, seconds: float) -> int:
        """Operations in a run of about ``seconds`` on the reference host.

        The count does not depend on how fast this host is at the time,
        so every run of a workload times the same operations.
        """
        return max(1, round(seconds / self.op_estimate_s))

    def setup(self) -> list[str] | None:
        """Prepare; returns problems in a checked set-up output, or None
        when set-up produces nothing to check."""
        return None

    def op(self, index: int):
        raise NotImplementedError

    def check(self, index: int, output) -> list[str]:
        return []

    def close(self) -> None:
        """Release what set-up started (called after the timed window)."""

    def final_check(self) -> list[str] | None:
        """Checks made once after the run; None when there are none."""
        return None

    def metrics(self, op_times: list[float], wall: float) -> dict:
        """Workload-specific end-to-end metrics."""
        return {}

    def serve_layers(self, window: tuple[float, float]) -> dict:
        return {}


class ExhibitsCold(Workload):
    """``full_report`` on a new, empty CPI cache: the whole campaign runs.

    ``full_report`` takes no seed, so the exhibits are the paper's seed
    0 whatever ``--seed`` says.
    """

    name = "exhibits-cold"
    op_estimate_s = 8.5

    def setup(self) -> list[str] | None:
        from repro.eval.report import full_report

        self.full_report = full_report
        self.scale = 4 if self.ctx.quick else 24
        self.sha: str | None = None
        return None

    def _cache(self, label: str) -> str:
        directory = os.path.join(self.ctx.tmp, label)
        os.makedirs(directory)
        return os.path.join(directory, "cpi.json")

    def op(self, index: int) -> str:
        return self.full_report(scale=self.scale,
                                cache_path=self._cache(f"cold-{index}"))

    def check(self, index: int, output: str) -> list[str]:
        problems = [f"report lacks anchor {anchor.pattern!r}"
                    for anchor in ANCHORS if not anchor.search(output)]
        sha = hashlib.sha256(output.encode("utf-8")).hexdigest()
        if self.sha is None:
            self.sha = sha
        elif sha != self.sha:
            problems.append(f"report_sha256 {sha} differs from {self.sha}")
        return problems


class ExhibitsWarm(ExhibitsCold):
    """``full_report`` on a CPI cache filled during set-up (the re-run)."""

    name = "exhibits-warm"
    op_estimate_s = 0.55

    def setup(self) -> list[str] | None:
        super().setup()
        self.cache = self._cache("warm")
        return self.check(-1, self.full_report(scale=self.scale,
                                               cache_path=self.cache))

    def op(self, index: int) -> str:
        return self.full_report(scale=self.scale, cache_path=self.cache)


class ServiceCampaign(Workload):
    """One closed-loop client submitting 16-task jobs to the service.

    The 320 (kernel, config) pairs are taken in order; job ``j`` of a
    pass is ``pairs[8j:8j+16]``, so half its tasks were stored by the
    previous job and half execute.  Pass ``p`` uses Table 3 data seed
    ``seed + p``, so every pass executes afresh.  Jobs cost from 0.03 to
    0.6 CPU seconds, by kernel, so a run times whole passes.
    """

    name = "service-campaign"
    #: Wall seconds of one pass on the reference host.
    PASS_S = 2.5
    JOB_TASKS = 16
    STRIDE = 8
    #: One task of every SAMPLE_EVERY-th job is re-run in-process after
    #: the window and must equal the service's result.
    SAMPLE_EVERY = 8

    def setup(self) -> list[str] | None:
        from repro.obs.svc import ServiceObs
        from repro.pipeline.config import all_configs
        from repro.serve.admission import AdmissionError
        from repro.serve.client import InProcessClient
        from repro.serve.service import CampaignService
        from repro.workloads.suite import WORKLOADS

        self.AdmissionError = AdmissionError
        self.pairs = [(kernel, config.name) for kernel in WORKLOADS()
                      for config in all_configs()]
        self.jobs_per_pass = (len(self.pairs) - self.JOB_TASKS) // self.STRIDE + 1
        self.scale = 4 if self.ctx.quick else 8
        self.obs = ServiceObs() if self.ctx.trace else None
        self.service = CampaignService(
            os.path.join(self.ctx.tmp, "store.db"), workers=self.ctx.width,
            obs=self.obs,
        )
        self.client = InProcessClient(self.service)
        self.refused = 0
        self.tasks = 0
        self.samples: list[tuple[dict, dict]] = []
        self.stats: dict = {}
        # Fork the workers before the clock starts, on a payload no
        # timed job repeats (another scale).
        self._map([{"workload": self.pairs[0][0], "config": self.pairs[0][1],
                    "scale": self.scale + 1, "seed": 0}])
        if len(children()) < self.ctx.width:
            raise RuntimeError("the service's workers are not listed under "
                               "/proc, so their CPU time cannot be measured")
        return None

    def ops_for(self, seconds: float) -> int:
        if seconds <= 0:                  # --quick: one job
            return 1
        return max(1, round(seconds / self.PASS_S)) * self.jobs_per_pass

    def _map(self, payloads: list[dict]) -> list:
        """Submit one job, waiting out admission refusals."""
        while True:
            try:
                return self.client.map("workload-run", payloads)
            except self.AdmissionError as exc:
                if exc.retry_after is None or math.isinf(exc.retry_after):
                    raise
                self.refused += 1
                time.sleep(exc.retry_after)

    def op(self, index: int):
        pass_index, job = divmod(index, self.jobs_per_pass)
        chunk = self.pairs[self.STRIDE * job:self.STRIDE * job + self.JOB_TASKS]
        payloads = [
            {"workload": kernel, "config": config, "scale": self.scale,
             "seed": self.ctx.seed + pass_index}
            for kernel, config in chunk
        ]
        return payloads, self._map(payloads)

    def check(self, index: int, output) -> list[str]:
        payloads, results = output
        self.tasks += len(results)
        if [(r["workload"], r["config"]) for r in results] != \
                [(p["workload"], p["config"]) for p in payloads]:
            return [f"job {index}: results do not match its payloads"]
        if index % self.SAMPLE_EVERY == 0:
            slot = (index // self.SAMPLE_EVERY) % len(payloads)
            self.samples.append((payloads[slot], results[slot]))
        return []

    def close(self) -> None:
        self.stats = self.service.stats()
        self.service.close()

    def final_check(self) -> list[str] | None:
        from repro.serve.store import canonical_json
        from repro.serve.tasks import execute

        return [
            f"service result for {payload} differs from in-process execute"
            for payload, result in self.samples
            if json.loads(canonical_json(execute("workload-run", payload)))
            != result
        ]

    def metrics(self, op_times: list[float], wall: float) -> dict:
        return {
            "job_p90_s": percentile(op_times, 0.9),
            "tasks_per_s": self.tasks / wall,
        }

    def serve_layers(self, window: tuple[float, float]) -> dict:
        if self.obs is None:
            return {}
        start, end = window
        spans = [span for span in self.obs.tracer.spans
                 if span.end is not None and start <= span.start <= end]
        seconds: dict[str, float] = {}
        counts: dict[str, int] = {}
        for span in spans:
            seconds[span.name] = seconds.get(span.name, 0.0) + span.seconds
            counts[span.name] = counts.get(span.name, 0) + 1
        return {
            "serve.admission_s": seconds.get("admission", 0.0),
            "serve.queue_wait_s": seconds.get("queue_wait", 0.0),
            # The supervisor's execute span runs from dispatch to the
            # result landing; the worker's own window is worker_run.
            "serve.dispatch_ipc_s": (seconds.get("execute", 0.0)
                                     - seconds.get("worker_run", 0.0)),
            "serve.execute_s": seconds.get("worker_run", 0.0),
            "serve.store_commit_s": seconds.get("store_commit", 0.0),
            "serve.store_hits": counts.get("store_hit", 0),
            "serve.store_misses": counts.get("task", 0),
            "serve.refused": self.refused,
            "serve.retries": self.stats["supervisor"]["task_retries"],
        }


class VerifyGates(Workload):
    """One pass: ``fuzz_run``, ``check_program`` on gcd/stream/udiv at
    queue capacity 2, then ``bracket_check`` on the same three."""

    name = "verify-gates"
    op_estimate_s = 10.5

    def setup(self) -> list[str] | None:
        from repro.analyze import (
            CheckBounds,
            bracket_check,
            check_program,
            checkable_workloads,
        )
        from repro.pipeline.config import all_configs
        from repro.verify import fuzz_run, real_divergences

        self.fuzz_run = fuzz_run
        self.real_divergences = real_divergences
        self.check_program = check_program
        self.bracket_check = bracket_check
        self.bounds = CheckBounds(queue_capacity=2)
        self.programs = checkable_workloads()
        self.cases = 120
        self.configs = None          # all 48
        if self.ctx.quick:
            self.cases = 4
            self.programs = self.programs[:1]
            self.configs = all_configs(include_padded=True)[:4]
        self.kernels = [name for name, *_rest in self.programs]
        self.fuzz_s = self.check_s = 0.0
        self.config_runs = self.states = 0
        return None

    def op(self, index: int):
        seed = self.ctx.seed * 1000 + index
        # The gates run serially on this thread.
        started = time.thread_time()
        fuzz = self.fuzz_run(self.cases, seed * self.cases)
        fuzzed = time.thread_time()
        reports = [
            self.check_program(program, streams, params, configs=self.configs,
                               bounds=self.bounds, name=name)
            for name, program, streams, params in self.programs
        ]
        checked = time.thread_time()
        rows, findings = self.bracket_check(self.kernels, configs=self.configs,
                                            scale=8, seed=seed)
        self.fuzz_s += fuzzed - started
        self.check_s += checked - fuzzed
        return fuzz, reports, rows, findings

    def check(self, index: int, output) -> list[str]:
        fuzz, reports, _rows, findings = output
        self.config_runs += sum(result["configs_checked"] for result in fuzz)
        self.states += sum(report.states_total for report in reports)
        problems = [f"fuzz {result['name']}: {divergence['kind']}"
                    for result in fuzz
                    for divergence in self.real_divergences(result)]
        problems += [f"check {report.name}: {report.verdict}"
                     for report in reports if report.verdict != "proved"]
        problems += [finding.message for finding in findings]
        return problems

    def metrics(self, op_times: list[float], wall: float) -> dict:
        return {
            "fuzz_config_runs_per_s": self.config_runs / self.fuzz_s,
            "check_states_per_s": self.states / self.check_s,
        }


WORKLOADS = {cls.name: cls for cls in
             (ExhibitsCold, ExhibitsWarm, ServiceCampaign, VerifyGates)}


def _measure(workload: Workload, ops: int, pacer: Pacer) -> dict:
    """Run the operation ``ops`` times; returns wall and CPU times,
    counts and problems.  Times leave out the pacer's reference timings.
    """
    op_times: list[float] = []
    op_cpu: list[float] = []
    op_spans: list[tuple[float, float]] = []
    problems: list[str] = []
    failed = 0
    start = time.monotonic()
    start_clock, _cpu = pacer.clocks()
    for index in range(ops):
        began, began_cpu = pacer.clocks()
        span_start = time.monotonic()
        try:
            output = workload.op(index)
            op_spans.append((span_start, time.monotonic()))
            ended, ended_cpu = pacer.clocks()
            op_times.append(ended - began)
            op_cpu.append(ended_cpu - began_cpu)
            found = workload.check(index, output)
        except Exception as exc:   # one failed operation must not end the run
            traceback.print_exc()
            found = [f"operation {index}: {type(exc).__name__}: {exc}"]
        if found:
            failed += 1
            problems.extend(found)
    end_clock, _cpu = pacer.clocks()
    return {"window": (start, time.monotonic()), "wall_s": end_clock - start_clock,
            "op_times": op_times, "op_cpu": op_cpu, "op_spans": op_spans,
            "ops": ops, "failed": failed, "problems": problems}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--width", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    started = time.monotonic()
    spans_dir = os.path.join(args.run_dir, "spans")
    tracer = tracing.install(spans_dir) if args.trace else None
    pacer = Pacer()
    tmp = os.path.join(args.run_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    workload = WORKLOADS[args.workload](
        Context(args.seed, args.quick, tmp, args.width, args.trace))
    # A traced run times the layers, and the reference timings would
    # land inside their spans.
    with pacer if tracer is None else contextlib.nullcontext():
        setup_problems = workload.setup()
        result: dict = {"setup_s": pacer.clocks()[1]}
        setup_span = (started, time.monotonic())
        if not args.setup_only:
            if tracer is not None:
                tracer.take()       # set-up's counts stay out of the window
            run = _measure(workload, workload.ops_for(args.seconds), pacer)
    while len(pacer.samples) < MIN_REFERENCES:
        pacer.sample()
    result["setup_normalized"] = result["setup_s"] * pacer.normalize(*setup_span)
    result["references"] = len(pacer.samples)
    if args.setup_only:
        workload.close()
    else:
        result["op_normalized"] = [
            cpu * pacer.normalize(*span)
            for cpu, span in zip(run["op_cpu"], run["op_spans"])]
        main_record = tracer.take() if tracer is not None else None
        wall = run["wall_s"]
        workload.close()
        final = workload.final_check()
        checked = [found for found in (setup_problems, final)
                   if found is not None]
        usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        result.update({
            "ops": run["ops"],
            "op_times": run["op_times"],
            "op_cpu": run["op_cpu"],
            "wall_s": wall,
            "attempted": run["ops"] + len(checked),
            "failed": run["failed"] + sum(1 for found in checked if found),
            "problems": (run["problems"]
                         + [p for found in checked for p in found])[:20],
            "peak_rss_mb": usage / 1024.0,
            "metrics": workload.metrics(run["op_times"], wall),
            "report_sha256": getattr(workload, "sha", None),
        })
        if tracer is not None:
            spans, records = tracing.merge(spans_dir)
            spans = tracing.in_window(spans + tracer.spans, run["window"])
            records = tracing.in_window(records, run["window"])
            records.append(main_record)
            layers, unattributed = tracing.main_breakdown(
                spans, tracer.main_pid, wall)
            result["layers"] = tracing.layer_metrics(
                spans, records, main_pid=tracer.main_pid, wall=wall,
                ops=run["ops"], width=args.width,
                serve=workload.serve_layers(run["window"]))
            result["main_self_s"] = layers
            result["main_unattributed_s"] = unattributed
            result["seams_fired"] = sorted(tracing.seams_fired(spans, records))
            tracing.chrome_trace(spans, os.path.join(
                os.path.dirname(args.run_dir), "trace.json"))
    with open(os.path.join(args.run_dir, "result.json"), "w",
              encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
