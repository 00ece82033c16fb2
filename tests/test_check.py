"""Tests for the bounded equivalence checker (``repro.analyze.check``)."""

import copy
import json
import os
from dataclasses import replace
from itertools import product

import repro.pipeline.queue_status as qs
from repro.analyze.check import (
    CheckBounds,
    _Explorer,
    _normalize_streams,
    check_case,
    check_program,
    checkable_workloads,
    checker_oracle,
    confirm_speculation_window,
)
from repro.analyze.encode import (
    describe_pe_state,
    node_digest,
    node_key,
    roundtrips,
)
from repro.analyze.lints import speculation_pairs
from repro.analyze.witness import Witness, replay_witness, schedule_step
from repro.analyze.crossval import crossval_case, stream_tag_sets
from repro.arch import FunctionalPE, Scratchpad, TaggedQueue
from repro.asm.assembler import assemble
from repro.params import DEFAULT_PARAMS
from repro.pipeline import PipelinedPE, all_configs, config_by_name
from repro.verify.corpus import load_case, load_corpus
from repro.verify.generator import case_source, case_streams, generate_case
from repro.verify.shrinker import shrink_case

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")

#: Small bounds shared by most tests: depth-1 queues keep every space
#: under a few thousand states.
BOUNDS = CheckBounds(queue_capacity=1, max_states=20_000)
BOUNDS2 = CheckBounds(queue_capacity=2, max_states=30_000)

ALL_CONFIGS = all_configs(include_padded=True)


def _corpus_case(name):
    for _, case in load_corpus(CORPUS_DIR):
        if case["name"] == name:
            return case
    raise AssertionError(f"corpus case {name!r} missing")


def _inject_effective_tag_bug(monkeypatch):
    """Revert the Section 5.3 fix: +Q tag inspection reads the physical
    position, ignoring in-flight dequeues and the visibility window."""
    def bugged(self, queue, position=0):
        q = self.inputs[queue]
        if position >= q.occupancy:
            return None
        return q.peek(position).tag
    monkeypatch.setattr(qs.EffectiveQueueView, "input_tag", bugged)


def _inject_conservative_suppression_bug(monkeypatch):
    """Conservative view loses its scheduled-dequeue suppression."""
    def bugged_tag(self, queue, position=0):
        q = self.inputs[queue]
        if position >= q.occupancy:
            return None
        return q.peek(position).tag
    monkeypatch.setattr(qs.ConservativeQueueView, "input_tag", bugged_tag)
    monkeypatch.setattr(qs.ConservativeQueueView, "input_count",
                        lambda self, queue: self.inputs[queue].occupancy)


class TestCanonicalState:
    """The snapshot/restore seam the whole checker stands on."""

    def test_functional_roundtrip_mid_run(self):
        case = _corpus_case("neck-tag-visibility")
        program = assemble(case_source(case, DEFAULT_PARAMS),
                           DEFAULT_PARAMS, name=case["name"])
        pe = FunctionalPE(DEFAULT_PARAMS, name="rt")
        program.configure(pe)
        for q, tokens in case_streams(case).items():
            for value, tag in tokens[:1]:
                pe.inputs[q].enqueue(value, tag)
        pe.commit_queues()
        pe.step()
        assert roundtrips(pe)

    def test_pipelined_roundtrip_every_config(self):
        case = _corpus_case("neck-tag-visibility")
        program = assemble(case_source(case, DEFAULT_PARAMS),
                           DEFAULT_PARAMS, name=case["name"])
        streams = case_streams(case)
        for config in ALL_CONFIGS:
            pe = PipelinedPE(config, DEFAULT_PARAMS, name="rt")
            program.configure(pe)
            for q, tokens in streams.items():
                for value, tag in tokens:
                    pe.inputs[q].enqueue(value, tag)
            pe.commit_queues()
            for _ in range(3):      # leave work genuinely in flight
                pe.step()
                pe.commit_queues()
            assert roundtrips(pe), config.name

    def test_restore_then_replay_is_deterministic(self):
        """Continuing from a restored snapshot matches the original
        run cycle for cycle — restore must be exact, not just
        fingerprint-equal."""
        case = _corpus_case("fuzz-125-min")
        program = assemble(case_source(case, DEFAULT_PARAMS),
                           DEFAULT_PARAMS, name=case["name"])
        streams = case_streams(case)
        config = next(c for c in ALL_CONFIGS if c.name == "T|D|X +P+Q")
        pe = PipelinedPE(config, DEFAULT_PARAMS, name="a")
        program.configure(pe)
        for q, tokens in streams.items():
            for value, tag in tokens:
                pe.inputs[q].enqueue(value, tag)
        pe.commit_queues()
        pe.step()
        pe.commit_queues()
        snap = pe.snapshot_arch_state()
        trace_a = []
        for _ in range(6):
            pe.step()
            pe.commit_queues()
            trace_a.append(pe.snapshot_arch_state())
        pe.restore_arch_state(snap)
        trace_b = []
        for _ in range(6):
            pe.step()
            pe.commit_queues()
            trace_b.append(pe.snapshot_arch_state())
        assert trace_a == trace_b

    def test_restore_with_held_is_exact(self):
        """Restoring B onto a PE that holds A, told so, leaves exactly
        B: the same snapshot, and the same next cycles as a full
        restore of B on a fresh PE.  A is reached by stepping, as in
        the checker, so the PE's own sequence numbers are not the
        snapshot's relative ones."""
        case = _corpus_case("fuzz-125-min")
        params = replace(DEFAULT_PARAMS, queue_capacity=2)
        program = assemble(case_source(case, params), params,
                           name=case["name"])
        streams = case_streams(case)
        for name in ("T|D|X", "T|D|X +Q", "T|D|X +P", "T|D|X +P+Q"):
            config = next(c for c in ALL_CONFIGS if c.name == name)
            transitions = _short_exploration(program, config, params,
                                             streams)
            states = list(dict.fromkeys(
                child for _, _, child in transitions))
            assert len(states) > 10, name
            expected = {}
            for state in states:
                fresh = PipelinedPE(config, params, name="fresh")
                program.configure(fresh)
                fresh.restore_arch_state(state)
                expected[state] = _next_cycles(fresh)
            pe = PipelinedPE(config, params, name="held")
            program.configure(pe)
            for parent, deliver, child in transitions[::4]:
                for state in states[::5]:
                    pe.restore_arch_state(parent)
                    _deliver(pe, streams, deliver)
                    pe.step()
                    pe.commit_queues()
                    held = pe.snapshot_arch_state()
                    assert held == child, name
                    pe.restore_arch_state(state, held=held)
                    assert pe.snapshot_arch_state() == state, name
                    assert _next_cycles(pe) == expected[state], name
            # The same pipe under other speculation records: the two
            # share sequence numbers, so both must be rewritten.
            for parent, deliver, child in transitions:
                if not child[9]:
                    continue
                (rank, index, predicted, fallback, forced), *rest = child[9]
                state = child[:9] + (
                    ((rank, index, predicted, fallback ^ 1, forced),
                     *rest),) + child[10:]
                fresh = PipelinedPE(config, params, name="fresh")
                program.configure(fresh)
                fresh.restore_arch_state(state)
                pe.restore_arch_state(parent)
                _deliver(pe, streams, deliver)
                pe.step()
                pe.commit_queues()
                pe.restore_arch_state(state, held=pe.snapshot_arch_state())
                assert pe.snapshot_arch_state() == state, name
                assert _next_cycles(pe) == _next_cycles(fresh), name

    def test_describe_and_digest(self):
        pe = FunctionalPE(DEFAULT_PARAMS, name="d")
        state = pe.snapshot_arch_state()
        view = describe_pe_state(state)
        assert view["halted"] is False and view["regs"] == [0] * 8
        digest = node_digest((state, (0,) * 4, ((),) * 4))
        assert len(digest) == 12 and digest == node_digest(
            (state, (0,) * 4, ((),) * 4))


def _deliver(pe, streams, deliver):
    """Enqueue the next ``deliver[q]`` stream tokens onto each input."""
    for q, (start, count) in deliver.items():
        for value, tag in streams[q][start:start + count]:
            pe.inputs[q].enqueue(value, tag)


def _short_exploration(program, config, params, streams, depth=6):
    """``(parent, deliver, child)`` transitions of a small BFS: each
    cycle delivers nothing or the next token of one stream."""
    pe = PipelinedPE(config, params, name="explore")
    program.configure(pe)
    root = (pe.snapshot_arch_state(), tuple(0 for _ in streams))
    queues = sorted(streams)
    seen = {root}
    frontier = [root]
    transitions = []
    for _ in range(depth):
        successors = []
        for state, delivered in frontier:
            for pick in [None, *range(len(queues))]:
                deliver = {}
                if pick is not None:
                    q = queues[pick]
                    if (delivered[pick] >= len(streams[q])
                            or pe.inputs[q].capacity
                            - len(state[5][q][0]) - len(state[5][q][1]) < 1):
                        continue
                    deliver = {q: (delivered[pick], 1)}
                pe.restore_arch_state(state)
                _deliver(pe, streams, deliver)
                pe.step()
                pe.commit_queues()
                child = pe.snapshot_arch_state()
                transitions.append((state, deliver, child))
                now = tuple(d + (pick == i) for i, d in enumerate(delivered))
                if (child, now) not in seen and not pe.halted:
                    seen.add((child, now))
                    successors.append((child, now))
        frontier = successors
    return transitions


def _next_cycles(pe, cycles=6):
    trace = []
    for _ in range(cycles):
        pe.step()
        pe.commit_queues()
        trace.append(pe.snapshot_arch_state())
    return trace


class TestStateMemos:
    """The memoized encodings snapshots read must never go stale."""

    @staticmethod
    def _encoded(queue):
        return (tuple((e.value, e.tag) for e in queue._live),
                tuple((e.value, e.tag) for e in queue._staged))

    def test_every_queue_mutation_changes_arch_state(self):
        q = TaggedQueue(4)
        mutations = [
            lambda: q.enqueue(1, 0),
            q.commit,
            lambda: q.enqueue(2, 1),
            q.commit,
            q.dequeue,
            lambda: q.enqueue(3, 0),
            q.commit,
            lambda: q.inject_tag_flip(0, 0),
            lambda: q.inject_value_flip(1, 2),
            lambda: q.inject_duplicate(0),
            lambda: q.inject_drop(1),
            q.drain,
            lambda: q.restore_arch((((7, 1), (8, 0)), ((9, 1),))),
            q.reset,
        ]
        before = q.arch_state()
        for mutate in mutations:
            mutate()
            after = q.arch_state()
            assert after != before
            assert after == self._encoded(q)
            before = after

    def test_every_scratchpad_write_changes_nonzero(self):
        pad = Scratchpad(DEFAULT_PARAMS)
        writes = [
            lambda: pad.store(3, 5),
            lambda: pad.store(3, 6),
            lambda: pad.preload([1, 2], base=10),
            lambda: pad.store(10, 0),
            lambda: pad.restore(((0, 9),), pad.nonzero()),
            lambda: pad.restore(((1, 4), (7, 7))),
            pad.reset,
        ]
        before = pad.nonzero()
        for write in writes:
            write()
            after = pad.nonzero()
            assert after != before
            assert after == tuple(
                (address, word)
                for address, word in enumerate(pad.dump()) if word)
            before = after


class TestProofs:
    def test_workload_state_counts_pinned(self):
        """The checker explores exactly the states and transitions it
        always has on the workloads at queue capacity 2: skipping
        unchanged components on restore must not change the search."""
        totals = {
            name: check_program(program, streams, params,
                                bounds=CheckBounds(queue_capacity=2),
                                name=name)
            for name, program, streams, params in checkable_workloads()
        }
        assert {
            name: (report.verdict, report.states_total,
                   sum(c.transitions for c in report.configs))
            for name, report in totals.items()
        } == {
            "gcd": ("proved", 7_239, 17_800),
            "stream": ("proved", 2_671, 4_342),
            "udiv": ("proved", 10_056, 15_286),
        }

    def test_known_equivalent_microprogram_proves(self):
        """A corpus case (already fuzz-clean) must prove outright on the
        full 48-configuration matrix."""
        report = check_case(_corpus_case("neck-tag-visibility"),
                            DEFAULT_PARAMS, bounds=BOUNDS2)
        assert report.verdict == "proved"
        assert len(report.configs) == 48
        assert all(c.verdict == "proved" for c in report.configs)
        assert report.states_total > 48     # actually explored something

    def test_workloads_prove(self):
        for name, program, streams, params in checkable_workloads():
            report = check_program(program, streams, params,
                                   bounds=BOUNDS, name=name)
            assert report.verdict == "proved", (name, report.detail)

    def test_depth_knob_changes_the_world(self):
        """Raising the queue-capacity bound grows the explored space —
        the knob is real, not decorative."""
        case = _corpus_case("neck-tag-visibility")
        shallow = check_case(case, DEFAULT_PARAMS, bounds=BOUNDS)
        deep = check_case(case, DEFAULT_PARAMS, bounds=BOUNDS2)
        assert shallow.verdict == deep.verdict == "proved"
        assert deep.states_total > shallow.states_total

    def test_state_budget_yields_inconclusive_not_false_proof(self):
        report = check_case(_corpus_case("neck-tag-visibility"),
                            DEFAULT_PARAMS,
                            bounds=CheckBounds(queue_capacity=2,
                                               max_states=5))
        assert report.verdict == "inconclusive"

    def test_stream_bound_refuses_not_checkable(self):
        case = copy.deepcopy(_corpus_case("neck-tag-visibility"))
        case["streams"]["1"] = [[1, 0]] * 40
        report = check_case(case, DEFAULT_PARAMS, bounds=BOUNDS)
        assert report.verdict == "not-checkable"

    def test_deterministic_across_runs(self):
        case = _corpus_case("rotate-edges")
        a = check_case(case, DEFAULT_PARAMS, bounds=BOUNDS)
        b = check_case(case, DEFAULT_PARAMS, bounds=BOUNDS)
        assert a.as_dict() == b.as_dict()


#: The gcd program of checkable_workloads() as a fuzzer case, so a
#: checker witness on it replays through the fuzzer's harness.
GCD_CASE = {
    "name": "gcd", "seed": -1, "start": "req_a",
    "entries": [
        {"op": "mov %o0.0, $0", "state": "req_a", "next": "req_b"},
        {"op": "mov %o0.0, $1", "state": "req_b", "next": "recv_a"},
        {"op": "mov %r0, %i0", "state": "recv_a", "next": "recv_b",
         "deq": ["%i0"]},
        {"op": "mov %r1, %i0", "state": "recv_b", "next": "test",
         "deq": ["%i0"]},
        {"op": "eq %p1, %r0, %r1", "state": "test", "next": "br"},
        {"op": "mov %o1.0, $2", "state": "br", "next": "store",
         "flags": {"1": True}},
        {"op": "mov %o2.0, %r0", "state": "store", "next": "done"},
        {"op": "halt", "state": "done"},
        {"op": "ult %p2, %r0, %r1", "state": "br", "next": "sub",
         "flags": {"1": False}},
        {"op": "sub %r1, %r1, %r0", "state": "sub", "next": "test",
         "flags": {"2": True}},
        {"op": "sub %r0, %r0, %r1", "state": "sub", "next": "test",
         "flags": {"2": False}},
    ],
    "streams": {"0": [[5, 0], [3, 0]]},
}


class TestHangAnalysis:
    """``_Explorer.hang_witness``: backward reachability from the halted
    nodes over a complete exploration."""

    def test_golden_stuck_without_an_operand(self):
        """gcd consumes two operands; with one delivered no schedule
        reaches its halt, so the golden model itself is stuck."""
        name, program, _, params = checkable_workloads()[0]
        assert name == "gcd"
        report = check_program(program, {0: [(5, 0)]}, params,
                               bounds=BOUNDS2, name=name)
        assert report.verdict == "golden-stuck"
        assert report.golden_states == 14
        assert report.configs == []
        assert report.detail.startswith("golden model: hang")

    def test_hang_witness_replays_through_the_harness(self, monkeypatch):
        """A conservative view that reads a queue holding two live
        entries as empty starves gcd once both operands are delivered at
        once: the checker's hang witness is that one delivery, and the
        fuzzer's harness replays it as a hang."""
        from repro.isa.encoding import encode_instruction
        from repro.verify.harness import check_witness

        name, program, streams, params = checkable_workloads()[0]
        case_program = assemble(case_source(GCD_CASE, params), params,
                                name="gcd")
        assert ([encode_instruction(ins, params)
                 for ins in case_program.instructions]
                == [encode_instruction(ins, params)
                    for ins in program.instructions])
        assert case_streams(GCD_CASE) == streams

        real = qs.ConservativeQueueView.input_count

        def blind_at_two(self, queue):
            if len(self.inputs[queue]._live) == 2:
                return 0
            return real(self, queue)
        monkeypatch.setattr(qs.ConservativeQueueView, "input_count",
                            blind_at_two)
        report = check_program(program, streams, params,
                               configs=[config_by_name("T|D|X")],
                               bounds=BOUNDS2, name=name)
        assert report.verdict == "diverged"
        (verdict,) = report.configs
        assert (verdict.verdict, verdict.states, verdict.transitions) \
            == ("diverged", 199, 486)
        assert verdict.witness.kind == "hang"
        assert verdict.witness.schedule == [{"deliver": {0: 2}, "drain": {}}]
        replay = check_witness(GCD_CASE, verdict.witness, DEFAULT_PARAMS)
        assert replay["reproduced"]
        assert replay["divergence"]["kind"] == "hang"


def _resimulated_successors(pe, streams, key):
    """Successor keys of ``key`` with one restore and one step per
    delivery option, its tokens staged before the step, in the
    explorer's order: the oracle for ``_Explorer._expand``, which steps
    once and derives every option's successor from that step."""
    state, delivered, produced = key
    if state[3]:            # halted: terminal node
        return []
    out_index = 6 if isinstance(pe, PipelinedPE) else 5
    capacity = pe.inputs[0].capacity
    successors = []
    for deliver in product(*(
            range(min(capacity - len(live) - len(staged),
                      len(streams[q]) - delivered[q]) + 1)
            for q, (live, staged) in enumerate(state[out_index - 1]))):
        pe.restore_arch_state(state)
        for q, count in enumerate(deliver):
            for value, tag in streams[q][delivered[q]:delivered[q] + count]:
                pe.inputs[q].enqueue(value, tag)
        pe.step()
        pe.commit_queues()
        after = pe.snapshot_arch_state()
        now = tuple(start + count for start, count in zip(delivered, deliver))
        outputs = after[out_index]
        log = tuple(produced[q] + live[len(state[out_index][q][0]):]
                    for q, (live, _) in enumerate(outputs))
        if pe.halted:
            successors.append(node_key(after, now, log))
            continue
        for drain in product(*(range(len(live) + 1) for live, _ in outputs)):
            trimmed = tuple((live[k:], staged)
                            for k, (live, staged) in zip(drain, outputs))
            successors.append(node_key(
                after[:out_index] + (trimmed,) + after[out_index + 1:],
                now, log))
    return successors


class TestOneStepPerState:
    """The explorer steps once per state and derives each delivery
    option's successor from that step; re-simulating every option must
    give the same successors in the same order."""

    CONFIGS = ("TDX +P", "TD|X +Q", "T|DX +pad", "T|D|X1|X2 +P+Q",
               "TDX1|X2")

    @staticmethod
    def _programs():
        for name, program, streams, params in checkable_workloads():
            yield name, program, streams, params
        for case_name in ("neck-tag-visibility", "speculation-forbidden"):
            case = _corpus_case(case_name)
            program = assemble(case_source(case, DEFAULT_PARAMS),
                               DEFAULT_PARAMS, name=case_name)
            yield case_name, program, case_streams(case), DEFAULT_PARAMS

    def test_derived_successors_match_resimulation(self):
        bounds = CheckBounds(queue_capacity=2)
        checked = derived = 0
        for name, program, streams, params in self._programs():
            cparams = replace(params, queue_capacity=2)
            streams_t = _normalize_streams(streams,
                                           cparams.num_input_queues)
            models = [lambda: FunctionalPE(cparams, name="golden")] + [
                lambda config=config: PipelinedPE(
                    config_by_name(config), cparams, name=config)
                for config in self.CONFIGS
            ]
            for make in models:
                explored, oracle = make(), make()
                program.configure(explored)
                program.configure(oracle)
                exp = _Explorer(explored, streams_t, 2, bounds, None)
                frontier = [exp._root()]
                for _ in range(300):
                    if not frontier:
                        break
                    node = frontier.pop(0)
                    key = exp.keys[node]
                    frontier += exp._expand(node)
                    assert [exp.keys[kid] for kid in exp.children[node]] \
                        == _resimulated_successors(oracle, streams_t, key), \
                        (name, explored.name)
                    assert all(exp.ids[exp.keys[kid]] == kid
                               for kid in exp.children[node])
                    checked += 1
                    derived += len(exp._deliver_options(*key[:2])) > 1
        # Hundreds of the expansions offered more than one delivery.
        assert checked > 2_000 and derived > 500, (checked, derived)


class TestMutationWitnesses:
    """Deliberately broken models must yield replayable witnesses —
    mutation-testing the checker itself."""

    def test_effective_tag_bug_caught_and_replayed(self, monkeypatch):
        _inject_effective_tag_bug(monkeypatch)
        case = _corpus_case("neck-tag-visibility")
        report = check_case(case, DEFAULT_PARAMS, bounds=BOUNDS2)
        assert report.verdict == "diverged"
        assert all("+Q" in c.config for c in report.divergences)
        for verdict in report.divergences:
            replay = replay_witness(case, verdict.witness)
            assert replay["reproduced"], verdict.config

    def test_conservative_suppression_bug_caught(self, monkeypatch):
        _inject_conservative_suppression_bug(monkeypatch)
        case = _corpus_case("neck-tag-visibility")
        report = check_case(case, DEFAULT_PARAMS, bounds=BOUNDS)
        assert report.verdict == "diverged"
        assert all("+Q" not in c.config for c in report.divergences)
        replay = replay_witness(case, report.divergences[0].witness)
        assert replay["reproduced"]

    def test_checker_beats_fuzzer_on_occupancy(self, monkeypatch):
        """The historical neck-tag bug needed occupancy >= 3: the fuzzer
        found it only at capacity 4, but adversarial schedules build the
        occupancy at capacity 3 too."""
        _inject_effective_tag_bug(monkeypatch)
        report = check_case(_corpus_case("neck-tag-visibility"),
                            DEFAULT_PARAMS,
                            bounds=CheckBounds(queue_capacity=3,
                                               max_states=60_000))
        assert report.verdict == "diverged"

    def test_witness_json_roundtrip(self, monkeypatch):
        _inject_effective_tag_bug(monkeypatch)
        case = _corpus_case("neck-tag-visibility")
        report = check_case(case, DEFAULT_PARAMS, bounds=BOUNDS2)
        witness = report.divergences[0].witness
        back = Witness.from_dict(json.loads(json.dumps(witness.as_dict())))
        assert back == witness
        assert replay_witness(case, back)["reproduced"]


class TestCrossValidation:
    """Bidirectional gate: fuzzer-visible divergences are checker-visible
    and checker witnesses reproduce through the fuzzer harness."""

    def test_agreement_on_clean_corpus(self):
        verdict = crossval_case(_corpus_case("rotate-edges"),
                                DEFAULT_PARAMS, bounds=BOUNDS)
        assert verdict["agreed"], verdict["problems"]
        assert verdict["checker_verdict"] == "proved"
        assert verdict["fuzzer_divergences"] == 0

    def test_agreement_on_injected_bug(self, monkeypatch):
        """With a real model bug injected, both tools must see it — and
        the witnesses must replay."""
        _inject_effective_tag_bug(monkeypatch)
        verdict = crossval_case(_corpus_case("neck-tag-visibility"),
                                DEFAULT_PARAMS, bounds=BOUNDS2)
        assert verdict["agreed"], verdict["problems"]
        assert verdict["checker_verdict"] == "diverged"
        assert verdict["fuzzer_divergences"] > 0

    def test_historical_divergence_seed_rediscovered(self, monkeypatch):
        """Fuzzer-found seed 125 (the tag-visibility detector) must be
        rediscoverable by the checker when the old bug is re-injected."""
        _inject_effective_tag_bug(monkeypatch)
        report = check_case(_corpus_case("fuzz-125-min"), DEFAULT_PARAMS,
                            bounds=CheckBounds(queue_capacity=3,
                                               max_states=80_000))
        assert report.verdict == "diverged"
        assert all("+Q" in c.config for c in report.divergences)


class TestWitnessShrinking:
    def test_shrinker_minimizes_checker_witness(self, monkeypatch):
        """shrink_case with the checker oracle minimizes a witness case
        and is idempotent on the result."""
        _inject_effective_tag_bug(monkeypatch)
        case = _corpus_case("neck-tag-visibility")
        oracle = checker_oracle(DEFAULT_PARAMS, bounds=BOUNDS2)
        assert oracle(case)
        small = shrink_case(copy.deepcopy(case), DEFAULT_PARAMS,
                            oracle=oracle, max_checks=200)
        assert small["name"].endswith("-min")
        assert len(small["entries"]) <= len(case["entries"])
        assert oracle(small)
        again = shrink_case(copy.deepcopy(small), DEFAULT_PARAMS,
                            oracle=oracle, max_checks=200)
        assert again == small
        # The minimal case still yields a replayable witness.
        report = check_case(small, DEFAULT_PARAMS, bounds=BOUNDS2)
        assert report.verdict == "diverged"
        assert replay_witness(small,
                              report.divergences[0].witness)["reproduced"]


class TestSpeculationWindowHardening:
    """The speculation-window lint is checker-backed: every forbidden
    cycle the checker observes must be flagged by the lint."""

    def test_observed_pairs_are_flagged(self):
        for seed in (3, 32, 55):
            case = generate_case(seed, DEFAULT_PARAMS)
            program = assemble(case_source(case, DEFAULT_PARAMS),
                               DEFAULT_PARAMS, name=case["name"])
            verdict = confirm_speculation_window(
                program, case_streams(case), DEFAULT_PARAMS, bounds=BOUNDS)
            assert verdict["verdict"] == "proved"
            assert verdict["observed"], seed  # the seeds actually forbid
            assert verdict["unflagged"] == [], (seed, verdict)

    def test_lint_catches_unwatched_side_effects(self):
        """Fail-on-pre-fix regression: the pre-fix lint only flagged
        dequeues *watching* the written bit, but the pipeline forbids
        every side-effecting issue during any speculation
        (``forbid = bool(self._specs)``).  Seed 3's observed pairs
        (5, 0) and (12, 0) don't watch the written bits at all."""
        case = generate_case(3, DEFAULT_PARAMS)
        program = assemble(case_source(case, DEFAULT_PARAMS),
                           DEFAULT_PARAMS, name=case["name"])
        tags = stream_tag_sets(case_streams(case),
                               DEFAULT_PARAMS.num_input_queues)
        pairs = speculation_pairs(program, DEFAULT_PARAMS, tags)
        assert (5, 0) in pairs and (12, 0) in pairs

    def test_lint_follows_window_drift(self):
        """Fail-on-pre-fix regression: seed 32's pair (3, 6) is only
        reachable after a pure issue moves the predicate state inside
        the window — the closure must follow it."""
        case = generate_case(32, DEFAULT_PARAMS)
        program = assemble(case_source(case, DEFAULT_PARAMS),
                           DEFAULT_PARAMS, name=case["name"])
        tags = stream_tag_sets(case_streams(case),
                               DEFAULT_PARAMS.num_input_queues)
        assert (3, 6) in speculation_pairs(program, DEFAULT_PARAMS, tags)


class TestCheckerCorpusProbes:
    """The two corpus cases added alongside the checker stay pinned to
    the behaviour that motivated them."""

    def test_speculation_forbidden_probe(self):
        """A minimal mispredicted window: slot 1's ``ult`` writes %p1
        (actual 1, predicted 0 by the weak-not-taken counter), and the
        mispredicted path's dequeue at slot 2 must be held — the
        checker observes the forbidden cycle, proves equivalence, and
        the hardened lint flags exactly the observed pair."""
        case = _corpus_case("speculation-forbidden")
        report = check_case(case, DEFAULT_PARAMS, bounds=BOUNDS)
        assert report.verdict == "proved"
        assert (1, 2) in report.forbidden_pairs
        program = assemble(case_source(case, DEFAULT_PARAMS),
                           DEFAULT_PARAMS, name=case["name"])
        verdict = confirm_speculation_window(
            program, case_streams(case), DEFAULT_PARAMS, bounds=BOUNDS)
        assert verdict["confirmed"] == [(1, 2)]
        assert verdict["unflagged"] == [] and verdict["unconfirmed"] == []

    def test_deep_tag_occupancy_probe(self):
        """Tag check at position 1 behind a pending dequeue, with
        enough stream tokens to fill three queue slots — proved at
        capacity 3 where the wrap actually happens."""
        case = _corpus_case("deep-tag-occupancy")
        report = check_case(
            case, DEFAULT_PARAMS,
            bounds=CheckBounds(queue_capacity=3, max_states=60_000))
        assert report.verdict == "proved"
        assert report.states_total > 0


class TestScheduleStep:
    def test_sparse_encoding(self):
        step = schedule_step((0, 2, 0, 0), (1, 0, 0, 0))
        assert step == {"deliver": {1: 2}, "drain": {0: 1}}
