"""Static CPI bounds: cycle means, graph weights, bracket validation."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.analyze.graph import (
    Edge,
    FIRING,
    FiringGraph,
    PREDICATE,
    SPECULATION,
    _writer_gap_ok,
    build_firing_graph,
    cycle_mean,
)
from repro.analyze.abstract import explore
from repro.analyze.perf import (
    PerfAnalyzer,
    bracket_check,
    config_lower_bounds,
    program_bounds,
    workload_bounds,
)
from repro.asm import assemble
from repro.errors import ReproError
from repro.fabric.system import System
from repro.arch import FunctionalPE
from repro.params import DEFAULT_PARAMS as P
from repro.pipeline.config import all_configs, config_by_name


# ----------------------------------------------------------------------
# Cycle-mean analysis (Karp).
# ----------------------------------------------------------------------

def _fraction_karp(nodes, edges, maximize):
    """Karp's minimum cycle mean walked over exact Fractions: the oracle
    for :func:`cycle_mean`, which walks scaled integers."""
    if not nodes or not edges:
        return None
    index = {node: i for i, node in enumerate(nodes)}
    sign = -1 if maximize else 1
    adj = [[] for _ in nodes]
    for edge in edges:
        adj[index[edge.src]].append(
            (index[edge.dst],
             sign * Fraction(edge.weight).limit_denominator()))
    n = len(nodes)
    table = [[Fraction(0)] * n]
    for _ in range(n):
        cur = [None] * n
        for u, du in enumerate(table[-1]):
            if du is None:
                continue
            for v, w in adj[u]:
                if cur[v] is None or du + w < cur[v]:
                    cur[v] = du + w
        table.append(cur)
    best = None
    for v in range(n):
        if table[n][v] is None:
            continue
        means = [(table[n][v] - table[k][v]) / (n - k)
                 for k in range(n) if table[k][v] is not None]
        if means and (best is None or max(means) < best):
            best = max(means)
    return None if best is None else float(sign * best)


class TestCycleMean:
    def test_two_node_cycle(self):
        edges = [Edge(0, 1, 1.0), Edge(1, 0, 4.0)]
        assert cycle_mean([0, 1], edges) == pytest.approx(2.5)
        assert cycle_mean([0, 1], edges, maximize=True) == pytest.approx(2.5)

    def test_min_and_max_pick_different_cycles(self):
        edges = [
            Edge(0, 0, 1.0),              # cheap self-loop
            Edge(0, 1, 2.0), Edge(1, 0, 6.0),   # heavy two-cycle, mean 4
        ]
        assert cycle_mean([0, 1], edges) == pytest.approx(1.0)
        assert cycle_mean([0, 1], edges, maximize=True) == pytest.approx(4.0)

    def test_acyclic_is_none(self):
        edges = [Edge(0, 1, 3.0), Edge(1, 2, 5.0)]
        assert cycle_mean([0, 1, 2], edges) is None
        assert cycle_mean([0, 1, 2], edges, maximize=True) is None

    def test_empty(self):
        assert cycle_mean([], []) is None
        assert cycle_mean([0], []) is None

    def test_exact_on_rational_tie(self):
        # Two cycles with the same mean must not wobble on float noise.
        edges = [Edge(0, 1, 1.0), Edge(1, 0, 2.0),
                 Edge(0, 2, 2.0), Edge(2, 0, 1.0)]
        assert cycle_mean([0, 1, 2], edges) == pytest.approx(1.5)

    @given(st.data())
    def test_integer_karp_equals_exact_rationals(self, data):
        nodes = sorted(data.draw(
            st.sets(st.integers(0, 30), min_size=1, max_size=7)))
        weight = st.one_of(
            st.integers(-3, 12).map(float),
            st.fractions(-3, 12, max_denominator=7).map(float),
            st.sampled_from([1 / 3, 2 / 3, 0.1, 1.5, 5 / 7]),
        )
        edges = data.draw(st.lists(
            st.builds(Edge, st.sampled_from(nodes), st.sampled_from(nodes),
                      weight),
            max_size=14))
        for maximize in (False, True):
            assert (cycle_mean(nodes, edges, maximize=maximize)
                    == _fraction_karp(nodes, edges, maximize))

    def test_graph_helpers(self):
        graph = FiringGraph(nodes=[0, 1],
                            edges=[Edge(0, 1, 1.0, FIRING),
                                   Edge(1, 0, 4.0, PREDICATE)])
        assert graph.min_cycle_mean() == pytest.approx(2.5)
        relaxed = graph.relaxed(PREDICATE)
        assert relaxed.min_cycle_mean() == pytest.approx(1.0)
        # The original graph is untouched.
        assert graph.min_cycle_mean() == pytest.approx(2.5)


# ----------------------------------------------------------------------
# The speculation-soundness gate.
# ----------------------------------------------------------------------

class TestWriterGap:
    def test_tight_writer_loop_fails(self):
        # writer(0) -> 1 -> writer(0): refire distance 2 <= window 3.
        pairs = [(0, 1), (1, 0)]
        assert not _writer_gap_ok(pairs, {0}, window=3)

    def test_long_loop_passes(self):
        pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
        assert _writer_gap_ok(pairs, {0}, window=3)

    def test_window_one_is_always_sound(self):
        assert _writer_gap_ok([(0, 0)], {0}, window=1)

    def test_two_writers_close_fails(self):
        pairs = [(0, 1), (1, 2), (2, 3), (3, 0)]
        assert not _writer_gap_ok(pairs, {0, 2}, window=3)


# ----------------------------------------------------------------------
# Firing-graph weights per mechanism.
# ----------------------------------------------------------------------

#: A predicate writer whose watcher fires right after it: the non-+P
#: lower graph must carry a depth-weight PREDICATE edge.
WATCHER_LOOP = """
.start %p = 00000000
when %p == X0000000:
    ult %p7, %r0, %r1; set %p = Z0000001;
when %p == 0XXXXXX1:
    add %r0, %r0, $1; set %p = Z0000000;
"""

#: A five-slot loop: +P speculation weight is sound (no writer refires
#: inside any result window) and the dequeue sits right in the window.
SPEC_LOOP = """
.start %p = 00000000
when %p == X0000000 with %i0.0:
    ult %p7, %r0, %r1; set %p = Z0000001;
when %p == X0000001 with %i0.0:
    mov %r2, %i0; deq %i0; set %p = Z0000010;
when %p == X0000010:
    add %r0, %r0, $1; set %p = Z0000011;
when %p == X0000011:
    add %r1, %r1, $1; set %p = Z0000100;
when %p == X0000100:
    add %r3, %r3, $1; set %p = Z0000000;
"""


def _graph(source, config, bound):
    program = assemble(source, P)
    reach = explore(program.instructions, program.initial_predicates, P)
    return program.instructions, build_firing_graph(
        program.instructions, reach, config, bound=bound)


class TestGraphWeights:
    def test_nonspeculative_watcher_carries_depth(self):
        config = config_by_name("T|D|X1|X2")         # depth 4, no +P
        _, graph = _graph(WATCHER_LOOP, config, "lower")
        kinds = {(e.src, e.dst): (e.weight, e.kind) for e in graph.edges}
        assert kinds[(0, 1)] == (float(config.depth), PREDICATE)
        assert graph.min_cycle_mean() == pytest.approx((config.depth + 1) / 2)

    def test_shallow_pipeline_has_no_penalty(self):
        _, graph = _graph(WATCHER_LOOP, config_by_name("TDX"), "lower")
        assert graph.min_cycle_mean() == pytest.approx(1.0)

    def test_speculation_weight_when_writers_are_far_apart(self):
        config = config_by_name("T|D|X1|X2 +P")
        _, graph = _graph(SPEC_LOOP, config, "lower")
        spec = [e for e in graph.edges if e.kind == SPECULATION]
        assert spec and spec[0].src == 0 and spec[0].dst == 1
        assert spec[0].weight == pytest.approx(
            max(1, config.result_stage(False)))
        assert graph.min_cycle_mean() > 1.0

    def test_speculation_weight_withheld_for_adjacent_writers(self):
        # Back-to-back predicate writers: the second issues while the
        # first's speculation may still be unresolved, so it does not
        # predict and its dependent dequeue can slip in early — the
        # lower bound must not charge the serialization.
        source = """
        .start %p = 00000000
        when %p == X0000000 with %i0.0:
            ult %p7, %r0, %r1; set %p = Z0000001;
        when %p == X0000001 with %i0.0:
            ult %p6, %r2, %i0; deq %i0; set %p = ZZ000000;
        """
        config = config_by_name("T|D|X1|X2 +P")
        _, graph = _graph(source, config, "lower")
        assert [e for e in graph.edges if e.kind == SPECULATION] == []
        assert graph.min_cycle_mean() == pytest.approx(1.0)

    def test_speculation_weight_kept_at_exact_window_distance(self):
        # A writer that refires exactly `window` firings later is still
        # sound: the previous speculation resolves (phase 2) before the
        # next write issues (phase 3) in the same cycle.
        source = """
        .start %p = 00000000
        when %p == X0000000 with %i0.0:
            ult %p7, %r0, %r1; set %p = Z0000001;
        when %p == X0000001 with %i0.0:
            mov %r2, %i0; deq %i0; set %p = Z0000000;
        """
        config = config_by_name("T|D|X1|X2 +P")
        _, graph = _graph(source, config, "lower")
        spec = [e for e in graph.edges if e.kind == SPECULATION]
        assert spec and spec[0].weight == pytest.approx(
            max(1, config.result_stage(False)))

    def test_upper_weights_dominate_lower(self):
        for name in ("TDX", "T|D|X +P", "T|D|X1|X2 +P+Q"):
            config = config_by_name(name)
            _, lower = _graph(SPEC_LOOP, config, "lower")
            _, upper = _graph(SPEC_LOOP, config, "upper")
            lo = {(e.src, e.dst): e.weight for e in lower.edges}
            up = {(e.src, e.dst): e.weight for e in upper.edges}
            assert set(lo) == set(up)
            for pair, weight in lo.items():
                assert up[pair] >= weight

    def test_bound_arg_is_checked(self):
        program = assemble(WATCHER_LOOP, P)
        reach = explore(program.instructions, program.initial_predicates, P)
        with pytest.raises(ValueError):
            build_firing_graph(program.instructions, reach,
                               config_by_name("TDX"), bound="middle")


# ----------------------------------------------------------------------
# Program-level bounds cross-validated against the pipelined simulator.
# ----------------------------------------------------------------------

class TestProgramBounds:
    CONFIG_NAMES = ("TDX", "TD|X +Q", "T|D|X +P", "T|D|X1|X2",
                    "T|D|X1|X2 +P+pad")

    def test_lower_bound_holds_on_corpus(self):
        """The proved floor must never exceed measured CPI — for every
        corpus case, under every sampled config, in the cooperative
        environment the bound's premises assume."""
        from repro.verify.generator import case_source
        from repro.verify.harness import measured_case_cpi

        corpus = sorted((Path(__file__).parent / "corpus").glob("*.json"))
        assert corpus, "fuzz corpus is missing"
        checked = 0
        for path in corpus:
            case = json.loads(path.read_text())
            try:
                program = assemble(case_source(case), P, name=case["name"])
            except ReproError:
                continue      # shrunk cases may not assemble
            for name in self.CONFIG_NAMES:
                config = config_by_name(name)
                measured = measured_case_cpi(case, config, P)
                if measured is None:
                    continue
                bounds = program_bounds(program, config, P)
                assert bounds.lower <= measured + 1e-9, (
                    f"{case['name']} under {name}: static floor "
                    f"{bounds.lower} > measured {measured}")
                checked += 1
        assert checked >= 10

    def test_bounds_are_ordered(self):
        program = assemble(SPEC_LOOP, P)
        for config in all_configs(include_padded=True):
            bounds = program_bounds(program, config, P)
            assert 1.0 <= bounds.lower <= bounds.upper
            assert bounds.width >= 0
            assert bounds.brackets(bounds.lower)
            assert bounds.brackets(bounds.upper)
            assert not bounds.brackets(bounds.upper + 1.0)


# ----------------------------------------------------------------------
# System-level bounds on the Table 3 workloads.
# ----------------------------------------------------------------------

class TestWorkloadBounds:
    SAMPLE = ("TDX", "TD|X +P+Q", "T|D|X", "T|D|X1|X2 +P")

    def test_brackets_simulator(self):
        configs = [config_by_name(n) for n in self.SAMPLE]
        rows, violations = bracket_check(
            workloads=["gcd", "stream"], configs=configs, scale=8)
        assert violations == [], [f.message for f in violations]
        assert len(rows) == 2 * len(configs)
        for row in rows:
            assert row["bracketed"]
            assert row["lower"] <= row["measured"] <= row["upper"]

    def test_deeper_pipelines_raise_the_gcd_floor(self):
        shallow = workload_bounds("gcd", config_by_name("TDX"), scale=8)
        deep = workload_bounds("gcd", config_by_name("T|D|X1|X2"), scale=8)
        assert deep.lower > shallow.lower

    def test_config_lower_bounds_cover_and_floor(self):
        configs = [config_by_name(n) for n in self.SAMPLE]
        bounds = config_lower_bounds(configs, P, workloads=["gcd", "stream"],
                                     scale=8)
        assert set(bounds) == {c.name for c in configs}
        assert all(value >= 1.0 for value in bounds.values())

    def test_oracle_mean_under_measured_mean(self, cpi_table):
        """The pruning oracle's contract: workload-mean static floor
        <= workload-mean measured CPI (the quantity CpiTable records)."""
        configs = [config_by_name("TDX"), config_by_name("T|D|X1|X2")]
        bounds = config_lower_bounds(configs, P, scale=cpi_table.scale)
        for config in configs:
            assert bounds[config.name] <= cpi_table.cpi(config) + 1e-9


# ----------------------------------------------------------------------
# The three perf finding rules.
# ----------------------------------------------------------------------

def _solo_system(source, name="solo"):
    system = System()
    pe = FunctionalPE(P, name=name)
    system.add_pe(pe)
    assemble(source, P).configure(pe)
    return system


class TestPerfFindings:
    def test_partition_bound_on_gcd(self):
        from repro.analyze.perf import workload_analyzer

        analyzer, worker = workload_analyzer("gcd", scale=8)
        findings = analyzer.findings(worker)
        by_rule = {f.rule: f for f in findings}
        partition = by_rule["partition-bound"]
        assert partition.severity.label == "note"
        assert partition.slot is not None and partition.line is not None
        assert "CPI floor" in partition.message
        assert by_rule["throughput-capped-by-queue-depth"].pe.startswith("gcd")

    def test_speculation_serialized_on_long_loop(self):
        analyzer = PerfAnalyzer(_solo_system(SPEC_LOOP))
        findings = analyzer.findings("solo")
        rules = {f.rule for f in findings}
        assert "speculation-serialized" in rules
        finding = next(f for f in findings
                       if f.rule == "speculation-serialized")
        assert finding.slot == 0
        assert "+P" in finding.message

    def test_clean_program_has_no_perf_findings(self):
        analyzer = PerfAnalyzer(_solo_system(
            "when %p == XXXXXXXX:\n    add %r0, %r0, $1;"))
        assert analyzer.findings("solo") == []

    def test_findings_flow_through_sarif(self):
        from repro.analyze.findings import render_sarif

        analyzer = PerfAnalyzer(_solo_system(SPEC_LOOP))
        log = json.loads(render_sarif(analyzer.findings("solo")))
        results = log["runs"][0]["results"]
        assert any(r["ruleId"] == "speculation-serialized" for r in results)
        for result in results:
            assert result["level"] == "note"
            assert result["message"]["text"]
