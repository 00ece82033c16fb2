"""CLI: campaign-service smoke gate, kill -9 chaos run, HTTP server.

``python -m repro.serve --smoke`` is the CI gate: an in-process client
runs a tiny simulation campaign with forced worker crashes and hangs,
and the gate asserts (1) results are byte-identical to serial
in-process execution, (2) a second service over the same store resumes
entirely from durable results (zero re-executions), (3) the store
records exactly one execution per task, and (4) admission control sheds
load when saturated.

``python -m repro.serve --chaos`` is the EXPERIMENTS.md kill -9 run: a
48-config campaign executes in a child service process (its own process
group) that is SIGKILLed — process tree and all — mid-campaign,
restarted, killed again, and finally allowed to finish; the gate then
proves the store-assembled results are byte-identical to an
uninterrupted serial run with zero duplicated executions recorded.

``python -m repro.serve --serve [--port P] [--store PATH]`` runs the
local HTTP/JSON frontend; add ``--obs`` for spans + /metrics histograms
+ JSON logs, ``--sim-trace`` to also ship simulator stage tracks back
from workers, and ``--trace-out PATH`` to write the unified campaign
Perfetto timeline on shutdown.  ``--run-child SPEC.json`` is the chaos
run's child entry point (not for interactive use).
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

from repro.serve.admission import AdmissionController, AdmissionError
from repro.serve.client import InProcessClient
from repro.serve.service import CampaignService
from repro.serve.store import ResultStore, canonical_json
from repro.serve.tasks import execute


def _digest(results: list) -> str:
    """Byte-identity digest over a campaign's ordered results."""
    return hashlib.sha256(
        canonical_json(results).encode("utf-8")
    ).hexdigest()[:16]


def _workload_payloads(configs: list[str], workloads: list[str],
                       scale: int, seed: int) -> list[dict]:
    return [
        {"workload": workload, "config": config, "scale": scale, "seed": seed}
        for config in configs
        for workload in workloads
    ]


def _fail(message: str) -> int:
    print(f"FAIL: {message}", file=sys.stderr)
    return 1


# ----------------------------------------------------------------------
# --smoke
# ----------------------------------------------------------------------

def run_smoke(scale: int, seed: int, workdir: str) -> int:
    from repro.obs.svc import JsonLogger, ServiceObs
    from repro.pipeline.config import config_by_name  # noqa: F401 (validates)

    configs = ["TDX", "T|DX +P", "TD|X +Q", "T|D|X1|X2 +P+Q"]
    workloads = ["gcd", "stream"]
    payloads = _workload_payloads(configs, workloads, scale, seed)
    print(f"serve smoke: {len(payloads)} workload-run tasks "
          f"({len(configs)} configs x {len(workloads)} workloads, "
          f"scale={scale} seed={seed})")

    print("\n[1/5] serial in-process reference...")
    reference = [execute("workload-run", payload) for payload in payloads]
    reference = json.loads(canonical_json(reference))
    print(f"reference digest {_digest(reference)}")

    print("\n[2/5] supervised campaign with forced worker crash + hang...")
    store_path = os.path.join(workdir, "serve-smoke.sqlite")
    log = io.StringIO()
    with CampaignService(
        store_path, workers=2, obs=ServiceObs(logger=JsonLogger(log)),
        task_timeout=5.0, backoff_base=0.01, backoff_cap=0.1,
    ) as service:
        client = InProcessClient(service)
        chaos_payloads = [
            {"marker": os.path.join(workdir, "crash.marker"), "token": "c"},
        ]
        hang_payloads = [
            {"marker": os.path.join(workdir, "hang.marker"), "token": "h",
             "hang_seconds": 60.0},
        ]
        chaos_job = service.submit("chaos-crash-once", chaos_payloads)
        hang_job = service.submit("chaos-hang-once", hang_payloads)
        results = client.map("workload-run", payloads, timeout=600.0)
        service.wait(chaos_job, timeout=120.0)
        service.wait(hang_job, timeout=120.0)
        stats = service.stats()
    if results != reference:
        return _fail("supervised results differ from serial reference")
    print(f"campaign digest {_digest(results)} == reference; "
          f"kills={stats['supervisor']['worker_kills']} "
          f"crashes={stats['supervisor']['worker_crashes']} "
          f"retries={stats['supervisor']['task_retries']} "
          f"spawns={stats['supervisor']['worker_spawns']}")
    if stats["supervisor"]["worker_crashes"] < 1:
        return _fail("forced worker crash did not register")
    if stats["supervisor"]["worker_kills"] < 1:
        return _fail("hung worker was never killed")
    if stats["supervisor"]["task_retries"] < 2:
        return _fail("crash/hang retries did not happen")
    events = [json.loads(line)["event"]
              for line in log.getvalue().splitlines()]
    if "worker_spawn" not in events:
        return _fail("no worker_spawn record in the service log")

    print("\n[3/5] resume: fresh service over the same store...")
    with CampaignService(store_path, workers=2) as resumed_service:
        job = resumed_service.submit("workload-run", payloads)
        resumed = resumed_service.wait(job, timeout=600.0)
        status = job.status()
    if resumed != reference:
        return _fail("resumed results differ from serial reference")
    if status["executed"] != 0 or status["from_store"] != len(payloads):
        return _fail(
            f"resume re-executed work: executed={status['executed']} "
            f"from_store={status['from_store']} (want 0/{len(payloads)})"
        )
    print(f"resume replayed {status['from_store']}/{len(payloads)} results "
          f"from the store, executed 0")

    print("\n[4/5] dedup audit over the durable store...")
    with ResultStore(store_path) as store:
        max_exec = store.max_executions()
        rows = len(store)
    if max_exec != 1:
        return _fail(f"duplicated executions recorded (max={max_exec})")
    print(f"{rows} stored results, max executions per fingerprint = 1")

    print("\n[5/5] admission control sheds load when saturated...")
    tiny = AdmissionController(max_queued_jobs=1, max_backlog_tasks=4,
                               rate=1000.0, burst=1000.0)
    with CampaignService(None, workers=1, admission=tiny) as shed_service:
        shed_service.submit("chaos-echo", [{"value": 1}] * 2)
        try:
            shed_service.submit("chaos-echo", [{"value": 2}] * 100)
        except AdmissionError as exc:
            print(f"shed as expected: {exc.reason} (retry_after="
                  f"{exc.retry_after})")
        else:
            return _fail("oversized backlog was admitted")

    print("\nserve smoke gate OK")
    return 0


# ----------------------------------------------------------------------
# --chaos (parent orchestrator) and --run-child (the victim)
# ----------------------------------------------------------------------

def run_child(spec_path: str) -> int:
    """Chaos child: run the spec's jobs to completion, print a digest."""
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    with CampaignService(
        spec["store"], workers=spec.get("workers", 2),
        task_timeout=spec.get("task_timeout", 30.0),
        backoff_base=0.01, backoff_cap=0.1,
    ) as service:
        jobs = [
            service.submit(entry["kind"], entry["payloads"])
            for entry in spec["jobs"]
        ]
        all_results = [
            service.wait(job, timeout=3600.0) for job in jobs
        ]
    print(json.dumps({
        "digests": [_digest(results) for results in all_results],
        "stats": {
            "executed": sum(job.executed for job in jobs),
            "from_store": sum(job.from_store for job in jobs),
        },
    }))
    return 0


def _store_rows(path: str) -> int:
    import sqlite3

    if not os.path.exists(path):
        return 0
    try:
        conn = sqlite3.connect(path, timeout=1.0)
        try:
            return conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]
        finally:
            conn.close()
    except sqlite3.Error:
        return 0


def _spawn_child(spec_path: str) -> subprocess.Popen:
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))
    ))
    env["PYTHONPATH"] = os.pathsep.join(
        [p for p in [src_root, env.get("PYTHONPATH", "")] if p]
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--run-child", spec_path],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        start_new_session=True,   # own process group: SIGKILL takes workers too
        env=env,
    )


def _kill_tree(child: subprocess.Popen) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(child.pid, signal.SIGKILL)
    child.wait()


def run_chaos(scale: int, seed: int, workdir: str,
              kill_points: tuple[int, ...] = (6, 20),
              workload: str = "string_search") -> int:
    from repro.pipeline.config import all_configs

    configs = [config.name for config in all_configs(include_padded=True)]
    payloads = _workload_payloads(configs, [workload], scale, seed)
    print(f"chaos run: {len(payloads)}-config campaign "
          f"(workload={workload} scale={scale} seed={seed}); "
          f"SIGKILL at {list(kill_points)} stored results")

    print("\n[1/3] uninterrupted serial reference...")
    reference = json.loads(canonical_json(
        [execute("workload-run", payload) for payload in payloads]
    ))
    expected = _digest(reference)
    print(f"reference digest {expected}")

    store_path = os.path.join(workdir, "serve-chaos.sqlite")
    spec_path = os.path.join(workdir, "chaos-spec.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump({
            "store": store_path,
            "workers": 2,
            "jobs": [
                {"kind": "workload-run", "payloads": payloads},
                {"kind": "chaos-crash-once", "payloads": [{
                    "marker": os.path.join(workdir, "chaos-crash.marker"),
                    "token": "worker-kill",
                }]},
            ],
        }, handle)

    print("\n[2/3] supervised campaign under SIGKILL...")
    interruptions = 0
    final_output = ""
    for attempt, kill_at in enumerate([*kill_points, None]):
        child = _spawn_child(spec_path)
        if kill_at is None:
            final_output = child.communicate()[0]
            if child.returncode != 0:
                print(final_output, file=sys.stderr)
                return _fail(f"final run exited {child.returncode}")
            break
        deadline = time.monotonic() + 600.0
        killed = False
        while time.monotonic() < deadline:
            if child.poll() is not None:
                break   # finished before we could interrupt it
            if _store_rows(store_path) >= kill_at:
                _kill_tree(child)
                killed = True
                interruptions += 1
                print(f"  SIGKILLed service process group at "
                      f">={kill_at} stored results (attempt {attempt + 1})")
                break
            time.sleep(0.005)
        if not killed and child.poll() is None:
            _kill_tree(child)
            return _fail("chaos child never reached the kill point")
        if not killed:
            print(f"  run {attempt + 1} finished before reaching "
                  f"{kill_at} results (campaign too fast); continuing")

    print("\n[3/3] verifying resume, byte-identity, and dedup...")
    with CampaignService(store_path, workers=1) as service:
        job = service.submit("workload-run", payloads)
        results = service.wait(job, timeout=600.0)
        status = job.status()
    if status["executed"] != 0:
        return _fail(f"resume executed {status['executed']} tasks "
                     f"(want 0: every result must come from the store)")
    if results != reference:
        return _fail("chaos-run results differ from uninterrupted serial run")
    with ResultStore(store_path) as store:
        max_exec = store.max_executions()
    if max_exec != 1:
        return _fail(f"store recorded duplicated executions (max={max_exec})")
    print(f"digest {_digest(results)} == serial reference {expected}; "
          f"{interruptions} SIGKILL interruption(s); "
          f"max executions per fingerprint = 1")
    print("\nchaos gate OK")
    return 0


# ----------------------------------------------------------------------
# --serve
# ----------------------------------------------------------------------

def run_server(host: str, port: int, store: str | None, workers: int,
               obs: bool = False, sim_trace: bool = False,
               trace_out: str | None = None) -> int:
    from repro.serve.http import serve_forever

    service_obs = None
    if obs or sim_trace or trace_out:
        from repro.obs import JsonLogger, ServiceObs

        service_obs = ServiceObs(sim_trace=sim_trace, logger=JsonLogger())
    service = CampaignService(store, workers=workers, obs=service_obs)

    def announce(bound) -> None:
        print(f"repro.serve listening on http://{bound[0]}:{bound[1]} "
              f"(store={store or ':memory:'}, workers={workers}, "
              f"obs={'on' if service_obs else 'off'})",
              flush=True)

    try:
        asyncio.run(serve_forever(service, host=host, port=port,
                                  ready=announce))
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
        if service_obs is not None and trace_out:
            from repro.obs import export_campaign_trace

            trace = export_campaign_trace(service_obs, trace_out)
            print(f"wrote {len(trace['traceEvents'])} campaign trace "
                  f"events to {trace_out} (open in Perfetto)", flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="supervised campaign service: smoke gate, chaos run, "
                    "HTTP server",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="run the CI smoke gate")
    parser.add_argument("--chaos", action="store_true",
                        help="run the kill -9 chaos gate")
    parser.add_argument("--serve", action="store_true",
                        help="run the HTTP/JSON frontend")
    parser.add_argument("--run-child", metavar="SPEC",
                        help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=int, default=None,
                        help="workload scale (default: REPRO_BENCH_SCALE or "
                             "8 for --smoke; 64 for --chaos, so tasks are "
                             "slow enough to interrupt mid-flight)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8734)
    parser.add_argument("--store", default=None,
                        help="durable result store path (sqlite)")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--obs", action="store_true",
                        help="--serve: attach service observability "
                             "(spans, /metrics histograms, JSON logs on "
                             "stderr)")
    parser.add_argument("--sim-trace", action="store_true",
                        help="--serve: also ship simulator stage tracks "
                             "back from traced task kinds (implies --obs)")
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="--serve: write the unified campaign Perfetto "
                             "timeline to PATH on shutdown (implies --obs)")
    args = parser.parse_args(argv)

    if args.run_child:
        return run_child(args.run_child)
    if args.smoke:
        scale = args.scale or int(os.environ.get("REPRO_BENCH_SCALE", "8"))
        with tempfile.TemporaryDirectory(prefix="repro-serve-") as workdir:
            return run_smoke(scale, args.seed, workdir)
    if args.chaos:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as workdir:
            return run_chaos(args.scale or 64, args.seed, workdir)
    if args.serve:
        return run_server(args.host, args.port, args.store, args.workers,
                          obs=args.obs, sim_trace=args.sim_trace,
                          trace_out=args.trace_out)
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
