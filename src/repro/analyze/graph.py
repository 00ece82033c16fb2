"""Firing-transition dependence graphs and cycle-mean analysis.

The static performance analyzer (:mod:`repro.analyze.perf`) reduces
"how fast can this program run on this pipeline?" to a cycle-mean
problem over a small directed graph:

* **nodes** are instruction slots the reachability pass
  (:func:`repro.analyze.abstract.explore`) proves can fire;
* **edges** connect consecutive-firing pairs — slot ``b`` can be the
  next firing after slot ``a`` when some predicate successor state of
  ``a`` satisfies ``b``'s trigger under priority semantics;
* **weights** bound the issue interval between the two firings under
  one :class:`~repro.pipeline.config.PipelineConfig`.

Two weightings share the graph structure:

``bound="lower"``
    Every weight is a *proved* minimum interval, so the minimum cycle
    mean (Karp) lower-bounds the steady-state issue interval — and CPI,
    since at most one instruction issues (and retires) per cycle.  Only
    three mechanisms are counted, each derived from the simulator's
    phase ordering: consecutive issues are one cycle apart; a datapath
    predicate write without +P is pending from issue to retirement, so
    a watcher of that bit waits exactly the pipeline depth; with +P a
    pre-retirement side effect (a dequeue) is forbidden while the
    writer's speculation is unresolved, which lasts until the writer's
    result stage computes.  The speculation weight is applied only when
    no predicate writer can refire inside the result window (checked by
    edge-count distances), because a writer issuing under an exhausted
    speculation depth does not predict and its dependents can slip in
    a cycle early.

``bound="upper"``
    Weights are generous worst cases per mechanism (misprediction
    flushes, register RAW capture stalls, conservative queue-status
    serialization), so the *maximum* cycle mean tracks the worst
    sustained interval the program's own structure can impose.  The
    environment's contribution (queue starvation, memory round trips)
    is layered on top by :mod:`repro.analyze.perf`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from repro.analyze.abstract import Reachability
from repro.isa.instruction import DestinationType, Instruction, OperandType
from repro.pipeline.config import PipelineConfig, QueuePolicy

#: Edge kinds, used by the finding rules to attribute a bound to a
#: mechanism (``perf.py`` recomputes cycle means with one kind relaxed
#: to decide whether that mechanism is what binds the bound).
FIRING = "firing"            # plain consecutive issue, weight 1
PREDICATE = "predicate"      # non-+P datapath predicate write -> watcher
SPECULATION = "speculation"  # +P speculation window -> forbidden dequeue
RAW = "raw"                  # register read-after-write capture stall
QUEUE_STATUS = "queue-status"  # conservative in-flight queue accounting


@dataclass(frozen=True)
class Edge:
    """One weighted consecutive-firing edge."""

    src: int
    dst: int
    weight: float
    kind: str = FIRING


@dataclass
class FiringGraph:
    """Weighted firing-transition graph for one program on one config."""

    nodes: list[int] = field(default_factory=list)
    edges: list[Edge] = field(default_factory=list)

    def successors(self) -> dict[int, list[Edge]]:
        out: dict[int, list[Edge]] = {node: [] for node in self.nodes}
        for edge in self.edges:
            out[edge.src].append(edge)
        return out

    def min_cycle_mean(self) -> float | None:
        """Karp minimum cycle mean, or None when the graph is acyclic."""
        return cycle_mean(self.nodes, self.edges, maximize=False)

    def max_cycle_mean(self) -> float | None:
        """Maximum cycle mean (Karp on negated weights)."""
        return cycle_mean(self.nodes, self.edges, maximize=True)

    def relaxed(self, kind: str) -> "FiringGraph":
        """The same graph with every ``kind`` edge's weight cut to 1.

        Comparing cycle means before and after tells whether that edge
        class is what binds the bound (the edge itself must stay — the
        firing order it records is real either way).
        """
        return FiringGraph(
            nodes=list(self.nodes),
            edges=[
                Edge(e.src, e.dst, 1.0, e.kind) if e.kind == kind else e
                for e in self.edges
            ],
        )


# ----------------------------------------------------------------------
# Cycle-mean analysis (Karp 1978)
# ----------------------------------------------------------------------

def cycle_mean(
    nodes: list[int], edges: list[Edge], maximize: bool = False
) -> float | None:
    """Minimum (or maximum) mean weight over all directed cycles.

    Karp's theorem: with ``d_k(v)`` the extremal weight of a *k*-edge
    walk ending at ``v`` (from any start, the multi-source variant),
    the minimum cycle mean is ``min_v max_k (d_n(v) - d_k(v))/(n-k)``.
    Weights are turned into exact fractions (every weight here is a
    small rational) and scaled by their common denominator, so the walk
    runs on integers and means compare by cross-multiplication: ties
    never wobble on float rounding, and only the result is a fraction.
    """
    if not nodes or not edges:
        return None
    index = {node: i for i, node in enumerate(nodes)}
    exact = {weight: Fraction(weight).limit_denominator()
             for weight in {edge.weight for edge in edges}}
    scale = lcm(*(weight.denominator for weight in exact.values()))
    sign = -1 if maximize else 1
    scaled = {weight: sign * rational.numerator
              * (scale // rational.denominator)
              for weight, rational in exact.items()}
    adj: list[list[tuple[int, int]]] = [[] for _ in nodes]
    for edge in edges:
        adj[index[edge.src]].append((index[edge.dst], scaled[edge.weight]))
    n = len(nodes)
    inf = None
    # d[k][v]: min scaled weight of a k-edge walk ending at v (None = no
    # walk).
    prev: list[int | None] = [0] * n
    table: list[list[int | None]] = [prev]
    for _ in range(n):
        cur: list[int | None] = [inf] * n
        for u in range(n):
            du = prev[u]
            if du is inf:
                continue
            for v, w in adj[u]:
                cand = du + w
                if cur[v] is inf or cand < cur[v]:
                    cur[v] = cand
        table.append(cur)
        prev = cur
    # Means are kept as (numerator, length) pairs with length > 0.
    best: tuple[int, int] | None = None
    final = table[n]
    for v in range(n):
        dn = final[v]
        if dn is inf:
            continue
        worst: tuple[int, int] | None = None
        for k in range(n):
            dk = table[k][v]
            if dk is inf:
                continue
            num, length = dn - dk, n - k
            if worst is None or num * worst[1] > worst[0] * length:
                worst = (num, length)
        if worst is not None and (
                best is None or worst[0] * best[1] < best[0] * worst[1]):
            best = worst
    if best is None:
        return None
    return float(Fraction(sign * best[0], best[1] * scale))


# ----------------------------------------------------------------------
# Graph construction
# ----------------------------------------------------------------------

def _consecutive_pairs(
    instructions: list[Instruction], reach: Reachability
) -> list[tuple[int, int]]:
    """(a, b) pairs where b can be the next firing after a.

    ``reach.successors[a]`` holds every predicate state reachable right
    after ``a`` commits (both outcomes of a datapath predicate write are
    forked, so states where the write is still in flight are covered
    too); ``reach.fire_states[b]`` holds the states in which ``b`` may
    fire under priority semantics.  Any overlap makes the pair feasible.
    """
    pairs = []
    for a, after in reach.successors.items():
        for b, when in reach.fire_states.items():
            if after & when:
                pairs.append((a, b))
    return pairs


def _writer_gap_ok(
    pairs: list[tuple[int, int]], writers: set[int], window: int
) -> bool:
    """Whether every firing path between predicate writers spans more
    than ``window`` firings.

    Each firing takes at least one cycle, so a writer-to-writer edge
    distance above the speculation window proves every writer issues
    with the previous speculation already resolved — the precondition
    for charging the full speculation-serialization weight on the lower
    bound (an unpredicted write lets a forbidden dequeue slip in up to
    a cycle earlier).
    """
    if window <= 1 or not writers:
        return True
    succ: dict[int, list[int]] = {}
    for a, b in pairs:
        succ.setdefault(a, []).append(b)
    for start in writers:
        # BFS over edge counts from just after `start` fires.
        seen = {start: 0}
        frontier = deque([start])
        while frontier:
            node = frontier.popleft()
            hops = seen[node]
            if hops >= window:
                continue
            for nxt in succ.get(node, ()):
                if nxt in writers and 0 < hops + 1 <= window - 1:
                    return False
                if nxt not in seen:
                    seen[nxt] = hops + 1
                    frontier.append(nxt)
    return True


def build_firing_graph(
    instructions: list[Instruction],
    reach: Reachability,
    config: PipelineConfig,
    bound: str = "lower",
    speculation_pairs: set[tuple[int, int]] | None = None,
) -> FiringGraph:
    """The weighted firing-transition graph for one (program, config).

    ``bound`` selects the proved-minimum or worst-case weighting (see
    the module docstring).  ``speculation_pairs`` narrows which
    (writer, dequeuer) pairs carry speculation weights to the lint's
    over-approximation (:func:`repro.analyze.lints.speculation_pairs`);
    when None, every writer->dequeuer pair is considered.
    """
    if bound not in ("lower", "upper"):
        raise ValueError(f"bound must be 'lower' or 'upper', not {bound!r}")
    pairs = _consecutive_pairs(instructions, reach)
    depth = config.depth
    writers = {
        slot for slot in reach.fire_states
        if instructions[slot].dp.writes_predicate
    }
    spec_sound = True
    if bound == "lower" and config.predicate_prediction and writers:
        window = max(
            config.result_stage(instructions[w].dp.op.late_result)
            for w in writers
        )
        spec_sound = _writer_gap_ok(pairs, writers, window)

    edges = []
    for a, b in pairs:
        a_ins, b_ins = instructions[a], instructions[b]
        weight, kind = 1.0, FIRING
        writes = a_ins.dp.writes_predicate
        result_stage = config.result_stage(a_ins.dp.op.late_result)
        if writes and not config.predicate_prediction:
            bit = 1 << a_ins.dp.dst.index
            if (b_ins.trigger.watched_predicates & bit) or bound == "upper":
                # Pending from issue to retirement: exactly `depth`.  For
                # the upper bound even a non-watcher pays it — a
                # *higher-priority* watcher can hazard-stall the whole
                # scheduler walk.
                weight, kind = float(depth), PREDICATE
        elif writes and config.predicate_prediction:
            if bound == "lower":
                if (
                    spec_sound
                    and b_ins.dp.has_side_effects_before_retire
                    and (speculation_pairs is None
                         or (a, b) in speculation_pairs)
                ):
                    weight = float(max(1, result_stage))
                    kind = SPECULATION
            else:
                # Worst case: the prediction is wrong every traversal —
                # detect at the result stage, flush, reissue the path.
                weight = float(1 + depth + result_stage)
                kind = SPECULATION
        if bound == "upper":
            if (a_ins.dp.dst.kind is DestinationType.REG
                    and any(s.kind is OperandType.REG
                            and s.index == a_ins.dp.dst.index
                            for s in b_ins.dp.srcs)
                    and weight < 1.0 + result_stage):
                weight, kind = 1.0 + result_stage, RAW
            if config.queue_policy is QueuePolicy.CONSERVATIVE:
                deq = set(a_ins.dp.deq)
                shared = bool(deq & set(b_ins.required_input_queues)) or (
                    a_ins.output_queue is not None
                    and a_ins.output_queue == b_ins.output_queue
                )
                # In-flight dequeues read as empty (and enqueues as
                # full) until the owner retires.
                if shared and weight < depth:
                    weight, kind = float(depth), QUEUE_STATUS
        edges.append(Edge(a, b, weight, kind))
    return FiringGraph(nodes=sorted(reach.fire_states), edges=edges)
