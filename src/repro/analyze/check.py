"""Bounded explicit-state equivalence checker.

The differential fuzzer samples one claim — every pipelined
microarchitecture retires identically to the single-cycle reference —
under one *canonical* environment schedule (inputs topped up whenever
capacity frees, outputs drained every cycle).  This module proves the
claim per program for **all** bounded environment schedules: each cycle
the environment may deliver anywhere from zero tokens up to the free
capacity of every input queue, and drain any number of entries from
every output queue.  Both models are internally deterministic, so the
schedule is the *only* source of nondeterminism; exploring every
schedule at a small queue depth is an exhaustive proof at that bound.

The algorithm is a BFS over canonical product states
(:mod:`repro.analyze.encode`):

1. Explore the golden :class:`~repro.arch.FunctionalPE` under all
   schedules.  Every halting path must reach the *same* architectural
   fingerprint (registers, predicates, scratchpad, committed output
   streams, unconsumed inputs) — otherwise the program itself is
   schedule-nondeterministic and equivalence is not well defined
   (``golden-nondet``).  Hangs (states from which no schedule reaches a
   halt) make it ``golden-stuck``.
2. Explore each pipelined configuration the same way, checking every
   committed output against the golden stream as it appears (a short
   witness the moment the prefix diverges) and every halting state
   against the golden fingerprint.  A state from which no continuation
   can halt is a hang divergence.

Divergences come back as :class:`~repro.analyze.witness.Witness`
schedules that replay through :func:`repro.verify.harness.check_witness`
and minimize through the fuzzer's shrinker.  The checker also records
every *forbidden cycle* it observes (a dequeue held back by outstanding
speculation, Section 5.2) as ``(writer slot, held slot)`` pairs — the
ground truth that hardens the ``speculation-window`` lint.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product

from repro.analyze.encode import node_key
from repro.analyze.witness import Witness, schedule_step
from repro.arch import FunctionalPE
from repro.arch.scheduler import TriggerKind
from repro.params import ArchParams, DEFAULT_PARAMS
from repro.pipeline import PipelinedPE, all_configs


@dataclass(frozen=True)
class CheckBounds:
    """Knobs bounding the explored space.

    ``queue_capacity`` is the architectural queue depth of the checked
    world (the fuzzer's default world is depth 4; depth 1 and 2 are
    where conservatism and visibility-window corners live and keep the
    space small).  ``max_states`` caps visited states per model
    exploration; exceeding it yields ``inconclusive``, never a false
    proof.  ``max_stream_tokens`` refuses pathologically long inputs.
    """

    queue_capacity: int = 2
    max_states: int = 20_000
    max_stream_tokens: int = 32


DEFAULT_BOUNDS = CheckBounds()


@dataclass
class ConfigVerdict:
    """Outcome of one configuration's exploration."""

    config: str
    verdict: str               # "proved" | "diverged" | "inconclusive"
    states: int
    transitions: int
    witness: Witness | None = None
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "config": self.config,
            "verdict": self.verdict,
            "states": self.states,
            "transitions": self.transitions,
            "witness": self.witness.as_dict() if self.witness else None,
            "detail": self.detail,
        }


@dataclass
class CheckReport:
    """Outcome of checking one program across configurations."""

    name: str
    verdict: str    # "proved" | "diverged" | "inconclusive" |
                    # "golden-nondet" | "golden-stuck" | "not-checkable"
    bounds: CheckBounds
    golden_states: int = 0
    configs: list[ConfigVerdict] = field(default_factory=list)
    forbidden_pairs: frozenset = frozenset()
    detail: str = ""

    @property
    def divergences(self) -> list[ConfigVerdict]:
        return [c for c in self.configs if c.verdict == "diverged"]

    @property
    def states_total(self) -> int:
        return self.golden_states + sum(c.states for c in self.configs)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "queue_capacity": self.bounds.queue_capacity,
            "golden_states": self.golden_states,
            "states_total": self.states_total,
            "configs": [c.as_dict() for c in self.configs],
            "forbidden_pairs": sorted(self.forbidden_pairs),
            "detail": self.detail,
        }


class _Diverged(Exception):
    """Internal control flow: exploration found a counterexample."""

    def __init__(self, kind: str, detail: str, path: list[tuple]) -> None:
        super().__init__(detail)
        self.kind = kind
        self.detail = detail
        self.path = path


class _Explorer:
    """BFS over one PE's schedule-induced state space."""

    def __init__(self, pe, streams: tuple[tuple, ...], capacity: int,
                 bounds: CheckBounds, reference: dict | None) -> None:
        self.pe = pe
        self.streams = streams
        self.capacity = capacity
        self.bounds = bounds
        #: Golden fingerprint dict, or None while exploring the golden
        #: model itself.
        self.reference = reference
        self.num_inputs = len(pe.inputs)
        self.num_outputs = len(pe.outputs)
        self.out_index = 6 if isinstance(pe, PipelinedPE) else 5
        # Nodes are numbered in the order they are first reached, which
        # is BFS order, and are expanded in that order: every list below
        # is indexed by node id.
        self.ids: dict[tuple, int] = {}             # node key -> id
        self.keys: list[tuple] = []
        #: (parent id, action) of the edge that first reached a node;
        #: None for the root.
        self.parents: list[tuple | None] = []
        self.children: list[list[int]] = []         # per expanded node
        self.halted: list[int] = []
        self.fingerprints: dict[tuple, int] = {}    # fingerprint -> node
        self.transitions = 0
        self.complete = False
        self.forbidden_pairs: set[tuple[int, int]] = set()
        #: The snapshot of the state the PE is in, or None once it has
        #: been touched since the last snapshot.
        self.held: tuple | None = None

    # -- state plumbing -------------------------------------------------

    def _root(self) -> int:
        """Number the initial state as node 0."""
        self.held = self.pe.snapshot_arch_state()
        key = node_key(
            self.held,
            (0,) * self.num_inputs,
            ((),) * self.num_outputs,
        )
        self.ids[key] = 0
        self.keys.append(key)
        self.parents.append(None)
        return 0

    def _fingerprint(self, state: tuple, delivered: tuple,
                     produced: tuple) -> tuple:
        leftovers = tuple(                  # live entries + backlog
            live + self.streams[q][delivered[q]:]
            for q, (live, _) in enumerate(state[self.out_index - 1])
        )
        return (
            state[0],                       # regs
            state[1],                       # preds
            state[2],                       # scratchpad (non-zero words)
            produced,                       # committed output streams
            leftovers,                      # unconsumed inputs
        )

    def _deliver_options(self, state: tuple, delivered: tuple) -> list:
        """Per-queue 0..min(free, remaining) token counts, as a product."""
        per_queue = []
        for q in range(self.num_inputs):
            live, staged = state[self.out_index - 1][q]
            free = self.capacity - len(live) - len(staged)
            remaining = len(self.streams[q]) - delivered[q]
            per_queue.append(range(0, min(free, remaining) + 1))
        return list(product(*per_queue))

    def _path(self, node: int, action: tuple | None) -> list[tuple]:
        """Action list from the root to ``node`` (plus a final action)."""
        actions: list[tuple] = [] if action is None else [action]
        parents = self.parents
        while (link := parents[node]) is not None:
            node, step = link
            actions.append(step)
        actions.reverse()
        return actions

    def _observe_forbidden(self) -> None:
        """Record (writer slot, held slot) for a live forbidden cycle."""
        pe = self.pe
        outcome = pe.scheduler.evaluate(
            pe.instructions, pe.preds.state, pe._view,
            pending_predicates=pe._pending_predicates(),
            forbid_side_effects=True,
            compiled=pe._compiled,
        )
        if outcome.kind is not TriggerKind.FORBIDDEN:
            return
        for spec in pe._specs:
            for entry in pe._pipe:
                if entry is not None and entry.seq == spec.owner_seq:
                    self.forbidden_pairs.add((entry.slot, outcome.index))

    # -- the search -----------------------------------------------------

    def run(self) -> None:
        """Explore until exhaustion, budget, or a divergence
        (:class:`_Diverged`)."""
        frontier = [self._root()]
        visited = 1
        while frontier:
            if visited > self.bounds.max_states:
                return      # incomplete; self.complete stays False
            next_frontier: list[int] = []
            for node in frontier:
                fresh = self._expand(node)
                visited += len(fresh)
                next_frontier.extend(fresh)
            frontier = next_frontier
        self.complete = True

    def _expand(self, node: int) -> list[int]:
        """Step once from ``node``, then derive every successor.

        Tokens delivered before a step are only staged, and a step reads
        only live input entries, so one step serves every delivery
        option: an option's successor appends its tokens to the stepped
        state's live inputs, as a drain trims its outputs.  A crash or a
        wrong output happens whatever is delivered, so its witness
        delivers nothing.  Returns the ids of the nodes first reached.
        """
        state, delivered, produced = self.keys[node]
        if state[3]:            # halted: terminal node
            self.children.append([])
            return []
        pe = self.pe
        in_index, out_index = self.out_index - 1, self.out_index
        idle = ((0,) * self.num_inputs, (0,) * self.num_outputs)
        pe.restore_arch_state(state, held=self.held)
        self.held = None
        if getattr(pe, "_specs", None):
            self._observe_forbidden()
        try:
            pe.step()
            pe.commit_queues()
        except Exception as exc:    # noqa: BLE001 — a model crash is
            # itself the counterexample (queue accounting bugs often
            # surface as exceptions before they surface as state).
            raise _Diverged(
                "crash", f"{type(exc).__name__}: {exc}",
                self._path(node, idle),
            ) from None
        stepped = self.held = pe.snapshot_arch_state()
        # Record (and prefix-check) entries committed this cycle.
        new_produced = []
        for q, (live, _) in enumerate(stepped[out_index]):
            log = produced[q]
            fresh = live[len(state[out_index][q][0]):]
            if self.reference is not None and fresh:
                ref = self.reference["produced"][q]
                for offset, entry in enumerate(fresh):
                    position = len(log) + offset
                    if position >= len(ref) or ref[position] != entry:
                        raise _Diverged(
                            "output",
                            f"output %o{q} entry {position}: produced "
                            f"{entry}, golden stream has "
                            f"{ref[position] if position < len(ref) else '<nothing>'}",
                            self._path(node, idle),
                        )
            new_produced.append(log + fresh)
        new_produced = tuple(new_produced)
        # Drain combinations are free derivations of the encoded state
        # too: trimming k entries off an output queue's head needs no
        # re-simulation.
        out_states = stepped[out_index]
        drains = list(product(*(
            range(0, len(live) + 1) for live, _ in out_states)))
        # Each successor key is hashed once: setdefault numbers it if it
        # is new, and len(keys) is then its id.
        ids, keys, parents = self.ids, self.keys, self.parents
        successors: list[int] = []
        edges: list[int] = []
        for deliver in self._deliver_options(state, delivered):
            if any(deliver):
                new_delivered = tuple(
                    start + count for start, count in zip(delivered, deliver))
                inputs = tuple(
                    (live + self.streams[q][delivered[q]:new_delivered[q]],
                     staged)
                    for q, (live, staged) in enumerate(stepped[in_index])
                )
                new_state = (stepped[:in_index] + (inputs,)
                             + stepped[out_index:])
            else:
                new_state, new_delivered = stepped, delivered
            if pe.halted:
                fingerprint = self._fingerprint(
                    new_state, new_delivered, new_produced)
                action = (deliver, idle[1])
                key = node_key(new_state, new_delivered, new_produced)
                count = len(keys)
                succ = ids.setdefault(key, count)
                if succ == count:
                    keys.append(key)
                    parents.append((node, action))
                    successors.append(succ)
                if self.reference is not None:
                    fields = _diff_fingerprints(
                        self.reference["fingerprint"], fingerprint)
                    if fields:
                        raise _Diverged(
                            "state", "; ".join(fields),
                            self._path(node, action),
                        )
                self.fingerprints.setdefault(fingerprint, succ)
                self.halted.append(succ)
                edges.append(succ)
                continue
            for drain in drains:
                if any(drain):
                    trimmed = tuple(
                        (live[drain[q]:], staged)
                        for q, (live, staged) in enumerate(out_states)
                    )
                    drained_state = (new_state[:out_index] + (trimmed,)
                                     + new_state[out_index + 1:])
                else:
                    drained_state = new_state
                key = node_key(drained_state, new_delivered, new_produced)
                count = len(keys)
                succ = ids.setdefault(key, count)
                if succ == count:
                    keys.append(key)
                    parents.append((node, (deliver, drain)))
                    successors.append(succ)
                edges.append(succ)
        self.transitions += len(edges)
        self.children.append(edges)
        return successors

    # -- hang analysis --------------------------------------------------

    def hang_witness(self) -> int | None:
        """A node from which no schedule can reach a halt, or None.

        Only sound after a *complete* exploration: with the whole graph
        in hand, backward reachability from the halting states marks
        everything that can still converge; anything else is a hang (the
        environment is fair — delivery and drain actions are always
        eventually available — so unreachability of halt is livelock or
        deadlock, not starvation).  The first such node in BFS order is
        returned."""
        if not self.complete:
            return None
        reverse: list[list[int]] = [[] for _ in self.keys]
        for parent, kids in enumerate(self.children):
            for kid in kids:
                reverse[kid].append(parent)
        can_halt = bytearray(len(self.keys))
        for node in self.halted:
            can_halt[node] = 1
        frontier = list(self.halted)
        while frontier:
            for parent in reverse[frontier.pop()]:
                if not can_halt[parent]:
                    can_halt[parent] = 1
                    frontier.append(parent)
        hang = can_halt.find(0)
        return None if hang < 0 else hang


def _diff_fingerprints(golden: tuple, candidate: tuple) -> list[str]:
    fields = []
    for index, label in enumerate(
            ("regs", "preds", "scratchpad", "outputs", "inputs_left")):
        if golden[index] != candidate[index]:
            fields.append(f"{label}: golden={golden[index]!r} "
                          f"candidate={candidate[index]!r}")
    return fields


def _normalize_streams(streams: dict[int, list[tuple[int, int]]],
                       num_inputs: int) -> tuple[tuple, ...]:
    return tuple(
        tuple((int(v), int(t)) for v, t in streams.get(q, []))
        for q in range(num_inputs)
    )


def _witness_from(exp: _Explorer, config_name: str, bounds: CheckBounds,
                  kind: str, detail: str, path: list[tuple]) -> Witness:
    return Witness(
        kind=kind,
        config=config_name,
        queue_capacity=bounds.queue_capacity,
        schedule=[schedule_step(deliver, drain) for deliver, drain in path],
        detail=detail,
    )


def _explore(pe, streams: tuple[tuple, ...], capacity: int,
             bounds: CheckBounds, reference: dict | None,
             config_name: str) -> tuple[_Explorer, ConfigVerdict]:
    """Run one exploration; fold the outcome into a ConfigVerdict."""
    exp = _Explorer(pe, streams, capacity, bounds, reference)
    try:
        exp.run()
    except _Diverged as div:
        witness = _witness_from(exp, config_name, bounds, div.kind,
                                div.detail, div.path)
        return exp, ConfigVerdict(
            config=config_name, verdict="diverged",
            states=len(exp.keys), transitions=exp.transitions,
            witness=witness, detail=f"{div.kind}: {div.detail}",
        )
    if exp.complete:
        hang = exp.hang_witness()
        if hang is not None:
            path = exp._path(hang, None)
            witness = _witness_from(
                exp, config_name, bounds, "hang",
                "no environment schedule can reach a halt from this state",
                path)
            return exp, ConfigVerdict(
                config=config_name, verdict="diverged",
                states=len(exp.keys), transitions=exp.transitions,
                witness=witness,
                detail="hang: unreachable halt after "
                       f"{len(path)} scheduled cycles",
            )
        return exp, ConfigVerdict(
            config=config_name, verdict="proved",
            states=len(exp.keys), transitions=exp.transitions,
        )
    return exp, ConfigVerdict(
        config=config_name, verdict="inconclusive",
        states=len(exp.keys), transitions=exp.transitions,
        detail=f"state budget of {bounds.max_states} exhausted",
    )


def check_program(program, streams: dict[int, list[tuple[int, int]]],
                  params: ArchParams = DEFAULT_PARAMS,
                  configs=None, bounds: CheckBounds = DEFAULT_BOUNDS,
                  name: str = "program",
                  backend: str | None = None) -> CheckReport:
    """Prove (or refute) retirement equivalence for one program.

    ``program`` is an assembled :class:`~repro.asm.program.Program`;
    ``streams`` the input-token plan (queue index -> [(value, tag)...]).
    ``configs`` defaults to the full 48-configuration matrix.
    ``backend`` selects the pipelined PE's executor: by default the
    compiled step every fast-path PE runs, or ``"interp"`` for the
    interpreter.
    """
    cparams = replace(params, queue_capacity=bounds.queue_capacity)
    streams_t = _normalize_streams(streams, cparams.num_input_queues)
    total_tokens = sum(len(s) for s in streams_t)
    if total_tokens > bounds.max_stream_tokens:
        return CheckReport(
            name=name, verdict="not-checkable", bounds=bounds,
            detail=f"{total_tokens} stream tokens exceed the "
                   f"{bounds.max_stream_tokens}-token bound",
        )
    if configs is None:
        configs = all_configs(include_padded=True)

    golden = FunctionalPE(cparams, name=f"{name}-golden")
    program.configure(golden)
    gexp, gverdict = _explore(golden, streams_t, bounds.queue_capacity,
                              bounds, None, "golden")
    report = CheckReport(name=name, verdict="proved", bounds=bounds,
                         golden_states=len(gexp.keys))
    if gverdict.verdict == "diverged":
        kind = gverdict.witness.kind if gverdict.witness else "crash"
        report.verdict = ("golden-stuck" if kind == "hang"
                          else "not-checkable")
        report.detail = f"golden model: {gverdict.detail}"
        return report
    if gverdict.verdict == "inconclusive":
        report.verdict = "inconclusive"
        report.detail = f"golden model: {gverdict.detail}"
        return report
    if len(gexp.fingerprints) != 1:
        report.verdict = "golden-nondet"
        report.detail = (
            f"golden model reaches {len(gexp.fingerprints)} distinct final "
            "states under different schedules — equivalence is not well "
            "defined for this program"
        )
        return report
    fingerprint = next(iter(gexp.fingerprints))
    reference = {"fingerprint": fingerprint, "produced": fingerprint[3]}

    forbidden: set[tuple[int, int]] = set()
    for config in configs:
        pe = PipelinedPE(config, cparams, name=f"{name}-{config.name}",
                         backend=backend)
        program.configure(pe)
        exp, verdict = _explore(pe, streams_t, bounds.queue_capacity,
                                bounds, reference, config.name)
        forbidden |= exp.forbidden_pairs
        report.configs.append(verdict)
    report.forbidden_pairs = frozenset(forbidden)
    if any(c.verdict == "diverged" for c in report.configs):
        report.verdict = "diverged"
    elif any(c.verdict == "inconclusive" for c in report.configs):
        report.verdict = "inconclusive"
    return report


def check_case(case: dict, params: ArchParams = DEFAULT_PARAMS,
               configs=None,
               bounds: CheckBounds = DEFAULT_BOUNDS) -> CheckReport:
    """Check one fuzzer/corpus case (see :mod:`repro.verify.generator`)."""
    from repro.asm.assembler import assemble
    from repro.verify.generator import case_source, case_streams

    name = case.get("name", "case")
    try:
        program = assemble(case_source(case, params), params, name=name)
    except Exception as exc:    # noqa: BLE001 — shrinker reductions leave
        # dangling states; such cases are not checkable, not divergent.
        return CheckReport(
            name=name, verdict="not-checkable", bounds=bounds,
            detail=f"case does not assemble: {exc!r}",
        )
    return check_program(program, case_streams(case), params,
                         configs=configs, bounds=bounds, name=name)


def confirm_speculation_window(program, streams,
                               params: ArchParams = DEFAULT_PARAMS,
                               bounds: CheckBounds = DEFAULT_BOUNDS,
                               configs=None) -> dict:
    """Validate the speculation-window lint against observed reality.

    Runs the checker (collecting every *observed* forbidden cycle as a
    ``(writer slot, held slot)`` pair) and the static lint with the
    stream-derived tag sets, then compares:

    * ``unflagged`` — pairs the checker observed but the lint missed:
      lint false negatives, always a lint bug (the checker exhibits a
      concrete reachable cycle).
    * ``unconfirmed`` — lint pairs the checker never observed under
      these streams at this bound: not necessarily false positives (the
      lint quantifies over all streams), but candidates for downgrading
      when no stream confirms them.
    * ``confirmed`` — lint pairs backed by a reachable forbidden cycle.
    """
    from repro.analyze.crossval import stream_tag_sets
    from repro.analyze.lints import speculation_pairs

    if configs is None:
        configs = [config for config in all_configs(include_padded=True)
                   if config.predicate_prediction]
    report = check_program(program, streams, params, configs=configs,
                           bounds=bounds, name=program.name or "program")
    tags = stream_tag_sets(
        {q: list(s) for q, s in streams.items()},
        params.num_input_queues)
    lint = speculation_pairs(program, params, tags)
    observed = set(report.forbidden_pairs)
    return {
        "verdict": report.verdict,
        "observed": sorted(observed),
        "lint": sorted(lint),
        "confirmed": sorted(lint & observed),
        "unconfirmed": sorted(lint - observed),
        "unflagged": sorted(observed - lint),
    }


def checkable_workloads(params: ArchParams = DEFAULT_PARAMS) -> list[tuple]:
    """Bounded Table 3 workload instances the checker can afford.

    Returns ``(name, program, streams, params)`` tuples.  Workloads run
    inside a :class:`~repro.fabric.system.System`; the checker strips
    the fabric and plays the environment itself, feeding what the memory
    ports would have produced as input streams and absorbing requests as
    output streams.  ``udiv`` is scaled down to an 8-bit word so one
    division fits the state budget (the division loop's shape is
    word-width-independent)."""
    from repro.workloads.common import counter_producer
    from repro.workloads.gcd import gcd_program
    from repro.workloads.udiv import divider_program

    udiv_params = replace(params, word_width=8)
    return [
        # gcd requests addresses 0 and 1 on %o0, then consumes the two
        # operands from %i0; gcd(5, 3) converges in four subtractions.
        ("gcd", gcd_program(params), {0: [(5, 0), (3, 0)]}, params),
        # stream's worker: the pure sequential emit loop, no inputs.
        ("stream", counter_producer(0, 4, params, eos="none"), {}, params),
        # One 8-bit restoring division (11 / 3) plus the EOS sentinel.
        ("udiv", divider_program(udiv_params, 8),
         {0: [(11, 0), (3, 0), (0, 1)]}, udiv_params),
    ]


def checker_oracle(params: ArchParams = DEFAULT_PARAMS, configs=None,
                   bounds: CheckBounds = DEFAULT_BOUNDS):
    """A shrinker oracle: is this (reduced) case checker-divergent?

    Passed to :func:`repro.verify.shrinker.shrink_case` so entry/token
    deletions keep only reductions under which the *checker* still finds
    a counterexample — the checker re-derives a fresh schedule for every
    candidate, so witness validity under reduction is automatic.
    """
    def divergent(candidate: dict) -> bool:
        return check_case(candidate, params, configs=configs,
                          bounds=bounds).verdict == "diverged"
    return divergent
