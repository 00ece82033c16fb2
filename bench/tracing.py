"""Span and hot-call tracing installed around repro's seams from outside.

:func:`install` wraps a fixed list of repro functions and methods (the
seams in :data:`SPANS` and :data:`HOT`); nothing under ``src/`` knows it
is traced.  Coarse calls become spans carrying name, start, end, parent
and pid.  Hot calls, which run hundreds of thousands of times per
report, only add to a per-process call count and seconds total, and to
the hot time of the innermost open span (so a span's own loop time can
be separated from the hot calls it makes).

Worker processes forked by repro's process pool or campaign service
inherit the wrappers.  Each worker appends its spans and counters to
``<spans_dir>/<pid>.jsonl`` whenever its outermost wrapped call returns,
so nothing a worker finished is lost when it is later stopped;
:func:`merge` reads the files back for :func:`layer_metrics`.
"""

from __future__ import annotations

import functools
import glob
import importlib
import json
import os
import sys
import time

_EVAL_EXHIBITS = ("table1", "table2", "table3", "figure3", "figure4",
                  "figure5", "figure6", "figure7", "figure8", "overheads")


def _populate_attrs(args, kwargs) -> dict:
    configs = args[1] if len(args) > 1 else kwargs["configs"]
    return {"requested": len(configs)}


#: Coarse seams: (module, attribute path, span name, args -> attrs,
#: result -> attrs).  Functions imported elsewhere with ``from ... import``
#: are also replaced wherever a loaded repro module holds them.
SPANS = [
    *[(f"repro.eval.{name}", "render", f"eval.{name}.render", None, None)
      for name in _EVAL_EXHIBITS],
    ("repro.dse.cpi", "CpiTable.populate", "dse.populate",
     _populate_attrs, None),
    # Every simulated CPI config passes through here: the pool worker,
    # the lazy in-process path and the service's cpi-config task.
    ("repro.dse.cpi", "_campaign", "dse.config_campaign", None, None),
    ("repro.dse.sweep", "sweep", "dse.sweep", None, None),
    ("repro.dse.sweep", "close_grid", "dse.close_grid", None, None),
    ("repro.vlsi.synthesis", "synthesize", "vlsi.synthesize", None, None),
    ("repro.workloads.base", "Workload.run", "workloads.run", None, None),
    ("repro.fabric.system", "System.run", "fabric.run", None,
     lambda cycles: {"cycles": cycles}),
    ("repro.serve.client", "InProcessClient.map", "serve.client_map",
     None, None),
    ("repro.verify.runner", "fuzz_run", "verify.fuzz_run", None, None),
    ("repro.verify.generator", "generate_case", "verify.generate_case",
     None, None),
    ("repro.verify.harness", "check_case", "verify.check_case", None,
     lambda result: {"config_runs": result["configs_checked"]}),
    ("repro.analyze.check", "check_program", "analyze.check_program", None,
     lambda report: {"states": report.states_total,
                     "verdict": report.verdict}),
    ("repro.analyze.perf", "PerfAnalyzer.bounds", "analyze.bounds",
     None, None),
    ("repro.analyze.perf", "bracket_check", "analyze.bracket_check", None,
     lambda result: {"pairs": len(result[0])}),
]

#: Hot seams: (module, attribute path, counter name).  The load-store
#: queue is not listed: no Table 3 workload builds one, so its counter
#: would always read zero.
HOT = [
    ("repro.pipeline.core", "PipelinedPE.step", "pipeline.step"),
    ("repro.arch.functional", "FunctionalPE.step", "arch.step"),
    ("repro.fabric.memory", "MemoryReadPort.step", "fabric.read_port_step"),
    ("repro.fabric.memory", "MemoryWritePort.step", "fabric.write_port_step"),
    ("repro.arch.queue", "TaggedQueue.commit", "fabric.queue_commit"),
]

#: Every per-layer metric, with its unit.  Values in ``s`` and ``count``
#: are per operation (per report, job or gates pass); ratios and
#: nanoseconds per simulated cycle are not.
LAYER_METRICS = {
    "eval.render_s": "s",
    "eval.table3_s": "s",
    "eval.figure4_s": "s",
    "dse.populate_s": "s",
    "dse.configs_simulated": "count",
    "dse.cache_hit_ratio": "ratio",
    "dse.close_s": "s",
    "vlsi.synthesize_calls": "count",
    "vlsi.synthesize_s": "s",
    "workloads.runs": "count",
    "workloads.build_s": "s",
    "workloads.check_s": "s",
    "fabric.run_s": "s",
    "fabric.sim_cycles": "count",
    "fabric.host_ns_per_cycle": "ns",
    "fabric.loop_self_s": "s",
    "fabric.port_steps": "count",
    "fabric.port_step_s": "s",
    "fabric.queue_commits": "count",
    "fabric.queue_commit_s": "s",
    "pipeline.step_calls": "count",
    "pipeline.step_s": "s",
    "arch.step_calls": "count",
    "arch.step_s": "s",
    "jit.compiles": "count",
    "jit.cache_hits": "count",
    "jit.compile_s": "s",
    "campaign.worker_busy_s": "s",
    "campaign.utilization": "ratio",
    "serve.admission_s": "s",
    "serve.queue_wait_s": "s",
    "serve.dispatch_ipc_s": "s",
    "serve.execute_s": "s",
    "serve.store_commit_s": "s",
    "serve.store_hits": "count",
    "serve.store_misses": "count",
    "serve.hit_ratio": "ratio",
    "serve.refused": "count",
    "serve.retries": "count",
    "verify.cases": "count",
    "verify.config_runs": "count",
    "verify.generate_s": "s",
    "verify.harness_s": "s",
    "analyze.check_states": "count",
    "analyze.check_s": "s",
    "analyze.bounds_s": "s",
    "analyze.bracket_pairs": "count",
    "analyze.bracket_sim_s": "s",
    "unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _jit_counters() -> dict[str, float]:
    from repro.jit.cache import jit_metrics

    metrics = jit_metrics()
    counters = {
        "jit.compiles": metrics["misses"],
        "jit.cache_hits": metrics["hits"],
        "jit.compile_s": metrics["compile_seconds"],
    }
    for reason, count in metrics["block_exits"].items():
        counters[f"jit.block_exits.{reason}"] = count
    return counters


class Tracer:
    """Per-process span buffer and hot-call counters.

    One tracer is installed per benchmark process; after a fork the
    child starts with empty buffers and zeroed counters, so a worker
    reports only its own work.
    """

    def __init__(self, spans_dir: str) -> None:
        self.spans_dir = spans_dir
        self.main_pid = os.getpid()
        #: counter name -> [calls, seconds], mutated in place because
        #: the hot wrappers hold the lists.
        self.hot: dict[str, list] = {}
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._next_id = 0
        #: Hot seconds of the innermost open span (or of no span).
        self.acc = [0.0]
        for cell in self.hot.values():
            cell[0] = 0
            cell[1] = 0.0
        self._last = self._snapshot()

    # -- wrappers -------------------------------------------------------

    def span(self, name: str, fn, args_attrs=None, result_attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span_id = self._next_id
            self._next_id += 1
            self._stack.append(span_id)
            outer, self.acc = self.acc, [0.0]
            attrs = args_attrs(args, kwargs) if args_attrs else {}
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                if result_attrs is not None:
                    attrs.update(result_attrs(result))
                return result
            except BaseException as exc:
                attrs["error"] = type(exc).__name__
                raise
            finally:
                end = time.monotonic()
                self._stack.pop()
                hot_s, self.acc = self.acc[0], outer
                self.spans.append({
                    "name": name, "pid": self.pid, "id": span_id,
                    "parent": parent, "start": start, "end": end,
                    "hot_s": hot_s, "attrs": attrs,
                })
                if not self._stack and self.pid != self.main_pid:
                    self.flush(start)

        return wrapper

    def hot_call(self, name: str, fn):
        cell = self.hot.setdefault(name, [0, 0.0])
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                cell[0] += 1
                cell[1] += elapsed
                tracer.acc[0] += elapsed

        return wrapper

    # -- output ---------------------------------------------------------

    def _snapshot(self) -> dict[str, float]:
        counters = _jit_counters()
        for name, (calls, seconds) in self.hot.items():
            counters[f"{name}.calls"] = calls
            counters[f"{name}.s"] = seconds
        return counters

    def take(self, start: float | None = None) -> dict:
        """Counter record: what this process counted since the last take.

        ``start`` dates the record (a worker passes the start of the
        outermost span that just ended); it defaults to now.
        """
        current = self._snapshot()
        delta = {key: value - self._last.get(key, 0)
                 for key, value in current.items()}
        self._last = current
        return {"pid": self.pid,
                "start": time.monotonic() if start is None else start,
                "counters": delta}

    def flush(self, start: float) -> None:
        """Append buffered spans and a counter record to this pid's file."""
        lines = [json.dumps({"span": span}) for span in self.spans]
        lines.append(json.dumps({"record": self.take(start)}))
        path = os.path.join(self.spans_dir, f"{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        self.spans = []


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _replace(owner, attr: str, wrapper) -> None:
    original = getattr(owner, attr)
    setattr(owner, attr, wrapper)
    if isinstance(owner, type):
        return
    # ``from module import name`` copies: replace them where the caller
    # looks the name up (e.g. repro.eval.report.sweep).
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def install(spans_dir: str) -> Tracer:
    """Wrap every seam; call before anything forks."""
    import repro.analyze  # noqa: F401  (load every alias holder first)
    import repro.eval.report  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.verify  # noqa: F401
    from repro.workloads.suite import WORKLOADS, get_workload

    os.makedirs(spans_dir, exist_ok=True)
    tracer = Tracer(spans_dir)
    seams = list(SPANS)
    for name in WORKLOADS():
        cls = type(get_workload(name))
        seams.append((cls.__module__, f"{cls.__name__}.build",
                      "workloads.build", None, None))
        seams.append((cls.__module__, f"{cls.__name__}.check",
                      "workloads.check", None, None))
    for module_name, path, name, args_attrs, result_attrs in seams:
        owner, attr = _resolve(module_name, path)
        original = getattr(owner, attr)
        _replace(owner, attr,
                 tracer.span(name, original, args_attrs, result_attrs))
    for module_name, path, name in HOT:
        owner, attr = _resolve(module_name, path)
        _replace(owner, attr, tracer.hot_call(name, getattr(owner, attr)))
    return tracer


def seam_names() -> list[str]:
    """Every span and counter name a full set of workloads must fire."""
    names = {name for _m, _p, name, _a, _r in SPANS}
    names |= {"workloads.build", "workloads.check"}
    names |= {name for _m, _p, name in HOT}
    return sorted(names)


# ----------------------------------------------------------------------
# Merging and per-layer metrics
# ----------------------------------------------------------------------


def merge(spans_dir: str) -> tuple[list[dict], list[dict]]:
    """Every span and counter record the worker processes appended."""
    spans: list[dict] = []
    records: list[dict] = []
    for path in sorted(glob.glob(os.path.join(spans_dir, "*.jsonl"))):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                entry = json.loads(line)
                if "span" in entry:
                    spans.append(entry["span"])
                else:
                    records.append(entry["record"])
    return spans, records


def self_times(spans: list[dict]) -> dict[tuple[int, int], float]:
    """Span duration minus the durations of its direct children."""
    children: dict[tuple[int, int], float] = {}
    for span in spans:
        if span["parent"] is not None:
            key = (span["pid"], span["parent"])
            children[key] = children.get(key, 0.0) + span["end"] - span["start"]
    return {
        (span["pid"], span["id"]):
            span["end"] - span["start"]
            - children.get((span["pid"], span["id"]), 0.0)
        for span in spans
    }


def main_breakdown(spans: list[dict], main_pid: int,
                     wall: float) -> tuple[dict[str, float], float]:
    """Self time per layer in the main process, and what is left.

    The layer self times plus the returned ``unattributed`` add up to
    ``wall`` (the measured window the spans were taken from).
    """
    mine = [span for span in spans if span["pid"] == main_pid]
    selfs = self_times(mine)
    layers: dict[str, float] = {}
    for span in mine:
        layer = span["name"].split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + selfs[(span["pid"], span["id"])]
    return layers, wall - sum(layers.values())


def in_window(entries: list[dict], window: tuple[float, float]) -> list[dict]:
    """Spans or counter records that started inside the timed operations."""
    start, end = window
    return [entry for entry in entries if start <= entry["start"] <= end]


def layer_metrics(spans: list[dict], records: list[dict], *,
                  main_pid: int, wall: float, ops: int, width: int,
                  serve: dict | None = None) -> dict:
    """Every :data:`LAYER_METRICS` value (bar ``trace.overhead_ratio``).

    ``spans`` and counter ``records`` are the in-window ones of every
    process and ``wall`` the window's length.  ``serve`` carries the
    ``serve.*`` totals, which come from the service's own spans and
    statistics, not from wrappers.
    """
    by_key = {(span["pid"], span["id"]): span for span in spans}
    selfs = self_times(spans)
    count: dict[str, int] = {}
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    hot_in: dict[str, float] = {}
    attr_sum: dict[str, float] = {}
    busy = 0.0
    bracket_sim = 0.0
    for span in spans:
        name = span["name"]
        duration = span["end"] - span["start"]
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + duration
        key = (span["pid"], span["id"])
        self_total[name] = self_total.get(name, 0.0) + selfs[key]
        hot_in[name] = hot_in.get(name, 0.0) + span["hot_s"]
        for attr, value in span["attrs"].items():
            if isinstance(value, (int, float)):
                label = f"{name}.{attr}"
                attr_sum[label] = attr_sum.get(label, 0.0) + value
        parent = by_key.get((span["pid"], span["parent"]))
        if span["pid"] != main_pid and parent is None:
            busy += duration
        if name == "workloads.run":
            while parent is not None and parent["name"] != "analyze.bracket_check":
                parent = by_key.get((parent["pid"], parent["parent"]))
            if parent is not None:
                bracket_sim += duration
    summed: dict[str, float] = {}
    for record in records:
        for name, value in record["counters"].items():
            summed[name] = summed.get(name, 0) + value

    def hot_of(*names: str) -> tuple[int, float]:
        return (sum(summed.get(f"{name}.calls", 0) for name in names),
                sum(summed.get(f"{name}.s", 0.0) for name in names))

    requested = attr_sum.get("dse.populate.requested", 0.0)
    simulated = count.get("dse.config_campaign", 0)
    cycles = attr_sum.get("fabric.run.cycles", 0.0)
    port_calls, port_s = hot_of("fabric.read_port_step",
                                "fabric.write_port_step")
    commit_calls, commit_s = hot_of("fabric.queue_commit")
    step_calls, step_s = hot_of("pipeline.step")
    arch_calls, arch_s = hot_of("arch.step")
    _layers, unattributed = main_breakdown(spans, main_pid, wall)
    totals = {
        "eval.render_s": sum(value for name, value in self_total.items()
                             if name.startswith("eval.")),
        "eval.table3_s": total.get("eval.table3.render", 0.0),
        "eval.figure4_s": total.get("eval.figure4.render", 0.0),
        "dse.populate_s": total.get("dse.populate", 0.0),
        "dse.configs_simulated": simulated,
        "dse.close_s": total.get("dse.close_grid", 0.0),
        "vlsi.synthesize_calls": count.get("vlsi.synthesize", 0),
        "vlsi.synthesize_s": total.get("vlsi.synthesize", 0.0),
        "workloads.runs": count.get("workloads.run", 0),
        "workloads.build_s": total.get("workloads.build", 0.0),
        "workloads.check_s": total.get("workloads.check", 0.0),
        "fabric.run_s": total.get("fabric.run", 0.0),
        "fabric.sim_cycles": cycles,
        "fabric.loop_self_s": (self_total.get("fabric.run", 0.0)
                               - hot_in.get("fabric.run", 0.0)),
        "fabric.port_steps": port_calls,
        "fabric.port_step_s": port_s,
        "fabric.queue_commits": commit_calls,
        "fabric.queue_commit_s": commit_s,
        "pipeline.step_calls": step_calls,
        "pipeline.step_s": step_s,
        "arch.step_calls": arch_calls,
        "arch.step_s": arch_s,
        "jit.compiles": summed.get("jit.compiles", 0),
        "jit.cache_hits": summed.get("jit.cache_hits", 0),
        "jit.compile_s": summed.get("jit.compile_s", 0.0),
        "campaign.worker_busy_s": busy,
        "verify.cases": count.get("verify.check_case", 0),
        "verify.config_runs": attr_sum.get("verify.check_case.config_runs", 0),
        "verify.generate_s": total.get("verify.generate_case", 0.0),
        "verify.harness_s": total.get("verify.check_case", 0.0),
        "analyze.check_states": attr_sum.get("analyze.check_program.states", 0),
        "analyze.check_s": total.get("analyze.check_program", 0.0),
        "analyze.bounds_s": total.get("analyze.bounds", 0.0),
        "analyze.bracket_pairs": attr_sum.get("analyze.bracket_check.pairs", 0),
        "analyze.bracket_sim_s": bracket_sim,
        "unattributed_s": unattributed,
    }
    serve = serve or {}
    for name, unit in LAYER_METRICS.items():
        if name.startswith("serve.") and unit != "ratio":
            totals[name] = serve.get(name, 0)
    metrics = {
        name: (value / ops if LAYER_METRICS[name] in ("s", "count") else value)
        for name, value in totals.items()
    }
    metrics["dse.cache_hit_ratio"] = (
        1.0 - simulated / requested if requested else 0.0)
    metrics["fabric.host_ns_per_cycle"] = (
        total.get("fabric.run", 0.0) / cycles * 1e9 if cycles else 0.0)
    metrics["campaign.utilization"] = busy / (wall * width) if wall else 0.0
    lookups = serve.get("serve.store_hits", 0) + serve.get("serve.store_misses", 0)
    metrics["serve.hit_ratio"] = (
        serve.get("serve.store_hits", 0) / lookups if lookups else 0.0)
    for name, value in summed.items():
        if name.startswith("jit.block_exits."):
            metrics[name] = value / ops
    return metrics


def seams_fired(spans: list[dict], records: list[dict]) -> set[str]:
    """Span and counter names that recorded at least one call."""
    fired = {span["name"] for span in spans}
    for record in records:
        fired |= {name[:-len(".calls")]
                  for name, calls in record["counters"].items()
                  if name.endswith(".calls") and calls}
    return fired


def chrome_trace(spans: list[dict], path: str) -> None:
    """Write spans as a Chrome trace (open it in ui.perfetto.dev)."""
    origin = min((span["start"] for span in spans), default=0.0)
    events = [
        {
            "name": span["name"], "cat": span["name"].split(".")[0],
            "ph": "X", "pid": span["pid"], "tid": span["pid"],
            "ts": round((span["start"] - origin) * 1e6, 3),
            "dur": round((span["end"] - span["start"]) * 1e6, 3),
            "args": span["attrs"],
        }
        for span in spans
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)

