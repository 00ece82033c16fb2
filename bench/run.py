"""The repo benchmark: regenerate the exhibits, drive the campaign service,
run the verification gates, and report end-to-end and per-layer metrics.

Usage (from the repository root)::

    python bench/run.py [--workload NAME ...] [--seed S] [--seconds T]
                        [--trace [0|1]] [--repeat N] [--quick]
                        [--out PATH] [--compare OLD.json]

Each workload runs in fresh Python processes (``bench/workloads.py``):
set-up is repeated in separate processes and its median reported, then
one process runs as many operations as take ``--seconds`` on the
reference host.  Set-up and operation times are CPU seconds normalized
by a reference loop timed in the same process, which repeat on a
shared host where wall times do not; raw CPU and wall times are
recorded beside them.  ``--trace`` adds a traced
process that repeats the same number of operations with every seam of
``bench/tracing.py`` wrapped, for the per-layer metrics.  The metrics
are printed by name and unit, written with host information to
``--out``, and the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--compare`` gives
one verdict per (metric, workload) against an earlier ``--out`` file
and exits 1 on any regression.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import tracing

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

#: Service workers: the host's CPUs, at most two, so the load is the
#: same on any host and memory stays small.  Campaigns run serially in
#: the measuring process, whose CPU time then covers all their work.
WIDTH = min(2, len(os.sched_getaffinity(0)))
#: Set-up runs per measurement (the last one also measures).
SETUP_REPEATS = 3
#: Seconds one workload run (all its processes) may take.
RUN_BUDGET_S = 170.0

#: Metrics not in BENCHMARK.json, which lists the normalized CPU-time
#: metrics every workload reports: (unit, better, bound).  Raw CPU and
#: wall times drift by up to two thirds between runs minutes apart on a
#: shared host (see README.md), so they are recorded and compared but
#: do not gate.
WORKLOAD_METRICS = {
    "op_cpu_s": ("s", "lower", 0.25),
    "op_wall_s": ("s", "lower", 0.25),
    "job_p90_s": ("s", "lower", 0.25),
    "tasks_per_s": ("1/s", "higher", 0.25),
    "fuzz_config_runs_per_s": ("1/s", "higher", 0.25),
    "check_states_per_s": ("1/s", "higher", 0.25),
}


class BenchError(Exception):
    """A benchmark process failed to produce a result."""


def rel_iqr(values: list[float]) -> float:
    """Distance between the first and third quartile over the median."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


def verdict(old: list[float], new: list[float], better: str,
            bound: float) -> str:
    """improved / unchanged / regressed / unresolved for one metric.

    Unresolved when either side's run-to-run spread exceeds the bound,
    unless every new run beats every old run.
    """
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(old)
    change = sign * (statistics.median(new) - base) / base if base else 0.0
    all_better = all(sign * (n - o) < 0 for n in new for o in old)
    if max(rel_iqr(old), rel_iqr(new)) > bound:
        return "improved" if all_better else "unresolved"
    if change > bound:
        return "regressed"
    if change < -bound:
        return "improved"
    return "unchanged"


def compare(old_doc: dict, new_doc: dict, spec: dict) -> list[dict]:
    """One verdict per (metric, workload) both documents measured.

    Rows of BENCHMARK.json's metrics and of ``failed_ratio`` gate; the
    raw times of WORKLOAD_METRICS drift with the host and only inform.
    """
    bounds = {m["name"]: (m["better"], m["bound"], True)
              for m in spec["end_to_end"]}
    bounds.update({name: (better, bound, False) for name, (_unit, better, bound)
                   in WORKLOAD_METRICS.items()})
    rows = []
    for workload, new_entry in new_doc["workloads"].items():
        old_entry = old_doc["workloads"].get(workload)
        if old_entry is None:
            continue
        for name, (better, bound, gates) in bounds.items():
            old = [run["metrics"][name] for run in old_entry["runs"]
                   if run["metrics"].get(name) is not None]
            new = [run["metrics"][name] for run in new_entry["runs"]
                   if run["metrics"].get(name) is not None]
            if old and new:
                rows.append({
                    "workload": workload, "metric": name,
                    "old": statistics.median(old),
                    "new": statistics.median(new), "bound": bound,
                    "verdict": verdict(old, new, better, bound), "gates": gates,
                })
        old_ratio = _failed_ratio(old_entry["runs"])
        new_ratio = _failed_ratio(new_entry["runs"])
        rows.append({
            "workload": workload, "metric": "failed_ratio",
            "old": old_ratio, "new": new_ratio, "bound": 0.0,
            "verdict": ("regressed" if new_ratio > old_ratio else
                        "improved" if new_ratio < old_ratio else "unchanged"),
            "gates": True,
        })
    return rows


def _failed_ratio(runs: list[dict]) -> float:
    return (sum(run["failed"] for run in runs)
            / max(1, sum(run["attempted"] for run in runs)))


# ----------------------------------------------------------------------
# Running the workload processes
# ----------------------------------------------------------------------


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of a child's process group and wait for it."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _child(workload: str, label: str, args, deadline: float, *,
           setup_only: bool = False, trace: bool = False) -> dict:
    run_dir = os.path.join(OUT, workload, label)
    os.makedirs(os.path.join(run_dir, "tmp"))
    env = {key: value for key, value in os.environ.items()
           if key not in ("REPRO_SERIAL", "REPRO_JIT")}
    env["REPRO_WORKERS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    env["TMPDIR"] = os.path.join(run_dir, "tmp")
    command = [
        sys.executable, os.path.join(BENCH, "workloads.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--run-dir", run_dir,
        "--width", str(WIDTH),
    ]
    command += ["--setup-only"] * setup_only + ["--trace"] * trace
    command += ["--quick"] * args.quick
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=sys.stderr,
                            start_new_session=True)
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} ({label}) ran past its budget") from None
    finally:
        _stop_group(proc)
    if proc.returncode != 0:
        raise BenchError(f"{workload} ({label}) exited with {proc.returncode}")
    with open(os.path.join(run_dir, "result.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def run_workload(workload: str, args) -> dict:
    """One run: repeated set-ups, the measurement, and the traced pass."""
    shutil.rmtree(os.path.join(OUT, workload), ignore_errors=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    repeats = 1 if (args.quick or args.trace) else SETUP_REPEATS
    results = [_child(workload, f"setup-{k}", args, deadline, setup_only=True)
               for k in range(repeats - 1)]
    measured = _child(workload, "measure", args, deadline)
    results.append(measured)
    setups = [result["setup_normalized"] for result in results]
    op_cpu = measured["op_cpu"]
    run = {
        "metrics": {
            "setup_s": statistics.median(setups),
            "op_s": _median(measured["op_normalized"]),
            "op_cpu_s": _median(op_cpu),
            "op_wall_s": _median(measured["op_times"]),
            "peak_rss_mb": measured["peak_rss_mb"],
            **measured["metrics"],
        },
        "n": {"setup_s": len(setups), "op_s": len(op_cpu)},
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "problems": measured["problems"],
        "report_sha256": measured["report_sha256"],
    }
    if args.trace:
        traced = _child(workload, "trace", args, deadline, trace=True)
        layers = traced["layers"]
        layers["trace.overhead_ratio"] = (
            statistics.median(traced["op_cpu"]) / run["metrics"]["op_cpu_s"])
        run["layers"] = layers
        for key in ("main_self_s", "main_unattributed_s", "wall_s",
                    "seams_fired"):
            run[key] = traced[key]
        run["attempted"] += traced["attempted"]
        run["failed"] += traced["failed"]
        run["problems"] += traced["problems"]
        if traced["report_sha256"] != run["report_sha256"]:
            run["failed"] += 1
            run["problems"].append("traced report_sha256 differs")
    run["metrics"]["failed_ratio"] = run["failed"] / max(1, run["attempted"])
    return run


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def host_info() -> dict:
    cpu = None
    with contextlib.suppress(OSError), \
            open("/proc/cpuinfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "width": WIDTH,
        "platform": platform.platform(),
        "git_sha": _git_sha(),
    }


def _git_sha() -> str | None:
    """HEAD's commit, read from .git without running git (None outside
    a clone)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        with contextlib.suppress(FileNotFoundError), \
                open(os.path.join(git, ref), encoding="utf-8") as handle:
            return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def _summarize(runs: list[dict], key: str) -> tuple[dict, dict]:
    """Median and relative IQR of every metric under ``run[key]``."""
    names = {name for run in runs for name in run.get(key, {})}
    medians, spreads = {}, {}
    for name in sorted(names):
        values = [run[key][name] for run in runs
                  if run.get(key, {}).get(name) is not None]
        medians[name] = statistics.median(values) if values else None
        spreads[name] = rel_iqr(values)
    return medians, spreads


def _units(spec: dict) -> dict[str, str]:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update({name: unit for name, (unit, *_r) in WORKLOAD_METRICS.items()})
    units["failed_ratio"] = "ratio"
    units.update(tracing.LAYER_METRICS)
    return units


def _print_table(doc: dict, spec: dict) -> None:
    units = _units(spec)
    for workload, entry in doc["workloads"].items():
        n = entry["runs"][-1]["n"]
        print(f"{workload}  ({len(entry['runs'])} run(s); "
              f"n: {n['op_s']} ops, {n['setup_s']} set-ups)")
        for section in ("median", "layers"):
            for name, value in entry.get(section, {}).items():
                shown = "null" if value is None else f"{value:.6g}"
                spread = entry.get(f"{section}_spread", {}).get(name, 0.0)
                print(f"  {name:<28} {shown:>14} {units.get(name, 'count'):<6}"
                      f"  spread {spread:.3f}")
        for problem in entry["problems"]:
            print(f"  PROBLEM: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repo benchmark (see bench/README.md).")
    parser.add_argument("--workload", nargs="+", action="extend")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, one operation per workload")
    parser.add_argument("--out", default=os.path.join(OUT, "bench.json"))
    parser.add_argument("--compare", metavar="OLD.json")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"bench: no repro package under {ROOT}/src; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as handle:
        spec = json.load(handle)
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {known}")
    if args.seconds is None:
        args.seconds = 0.0 if args.quick else float(spec["run_seconds"])

    doc = {"host": host_info(), "seed": args.seed, "seconds": args.seconds,
           "quick": args.quick, "trace": bool(args.trace), "workloads": {}}
    try:
        for workload in workloads:
            runs = [run_workload(workload, args) for _ in range(args.repeat)]
            median, spread = _summarize(runs, "metrics")
            entry = {"runs": runs, "median": median, "median_spread": spread,
                     "problems": [p for run in runs for p in run["problems"]]}
            if args.trace:
                entry["layers"], entry["layers_spread"] = _summarize(
                    runs, "layers")
            doc["workloads"][workload] = entry
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    runs = [run for entry in doc["workloads"].values() for run in entry["runs"]]
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    shas = {run["report_sha256"] for run in runs if run["report_sha256"]}
    if len(shas) > 1:
        failed += 1
        doc["workloads"][workloads[0]]["problems"].append(
            f"report_sha256 differs across runs: {sorted(shas)}")
    doc.update(report_sha256=min(shas) if len(shas) == 1 else None,
               attempted=attempted, failed=failed, correct=failed == 0)

    exit_code = 0
    if args.compare:
        with open(args.compare, encoding="utf-8") as handle:
            rows = compare(json.load(handle), doc, spec)
        doc["compare"] = {"against": args.compare, "verdicts": rows}
        for row in rows:
            print(f"{row['workload']:<17} {row['metric']:<24} "
                  f"{row['verdict']:<10} {row['old']} -> {row['new']}"
                  + ("" if row["gates"] else "  (informs)"))
        if any(row["verdict"] == "regressed" and row["gates"] for row in rows):
            exit_code = 1

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
    _print_table(doc, spec)

    section, names = (("layers", [m["name"] for m in spec["per_layer"]])
                      if args.trace else
                      ("median", [m["name"] for m in spec["end_to_end"]]))
    units = _units(spec)
    metrics = {}
    for workload, entry in doc["workloads"].items():
        prefix = f"{workload}/" if len(workloads) > 1 else ""
        for name in names:
            value = entry[section].get(name)
            metrics[prefix + name] = {
                "value": None if value is None or math.isnan(value) else value,
                "unit": units[name],
            }
    print(json.dumps({"correct": doc["correct"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
