"""Tests for the differential fuzzing subsystem (``repro.verify``)."""

import copy
import os

from repro.isa.opcodes import OPS
from repro.params import DEFAULT_PARAMS
from repro.serve.client import InProcessClient
from repro.serve.service import CampaignService
from repro.verify.corpus import load_corpus
from repro.verify.generator import case_source, generate_case
from repro.verify.harness import check_case, real_divergences
from repro.verify.runner import fuzz_run, summarize_run
from repro.verify.shrinker import shrink_case
import repro.pipeline.queue_status as qs

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")

#: The unminimized Section 5.3 probe: a non-dequeuing tag-checked pair
#: evaluated while a late-result-dependent consume holds its dequeue in
#: flight.  The corpus holds its shrunk form; the tests shrink this one.
NECK_TAG_CASE = {
    "name": "hand-neck-tag", "seed": -1, "start": "s0",
    "entries": [
        {"op": "mul %r2, %r7, %r7", "state": "s0", "next": "s1"},
        {"op": "add %r0, %i1, %r2", "state": "s1", "next": "s2",
         "checks": ["%i1.0"], "deq": ["%i1"]},
        {"op": "add %r0, %i1, %r2", "state": "s1", "next": "s2",
         "checks": ["%i1.1"], "deq": ["%i1"]},
        {"op": "mov %o0.0, $111", "state": "s2", "next": "s3",
         "checks": ["%i1.0"]},
        {"op": "mov %o0.0, $222", "state": "s2", "next": "s3",
         "checks": ["%i1.1"]},
        {"op": "mov %r1, %i1", "state": "s3", "next": "s4", "deq": ["%i1"]},
        {"op": "halt", "state": "s4"},
    ],
    "streams": {"1": [[5, 0], [7, 1]]},
}


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


class TestGenerator:
    def test_same_seed_same_case(self):
        assert generate_case(7) == generate_case(7)
        assert generate_case(7) != generate_case(8)

    def test_cases_are_valid_and_equivalent(self):
        """Every generated case assembles, round-trips, terminates on
        the golden model, and matches it on all 48 microarchitectures."""
        for seed in range(18):
            case = generate_case(seed, DEFAULT_PARAMS)
            result = check_case(case, DEFAULT_PARAMS, ref_configs=1)
            assert result["divergences"] == [], (seed, result["divergences"])
            assert result["configs_checked"] == 48

    def test_case_source_is_assembly_text(self):
        source = case_source(generate_case(3, DEFAULT_PARAMS))
        assert "halt" in source


class TestRunner:
    def test_results_identical_at_any_worker_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        serial = fuzz_run(6, seed=50, ref_configs=1)
        with CampaignService(None, workers=2) as service:
            pooled = fuzz_run(6, seed=50, ref_configs=1,
                              service=InProcessClient(service))
        assert serial == pooled
        summary = summarize_run(serial)
        assert summary["cases"] == 6
        assert summary["divergent_cases"] == []
        assert summary["generator_bugs"] == []


class TestRoundtrip:
    """``harness._roundtrip_divergences`` encodes each instruction of
    the case once and packs the binary from those words; every
    divergence kind still fires."""

    @staticmethod
    def _program():
        from repro.asm.assembler import assemble

        case = generate_case(5, DEFAULT_PARAMS)
        return assemble(case_source(case, DEFAULT_PARAMS), DEFAULT_PARAMS,
                        name=case["name"])

    def test_clean_case_encodes_each_instruction_three_times(self,
                                                             monkeypatch):
        import repro.isa.encoding as encoding
        from repro.verify import harness

        program = self._program()
        calls = []
        real = encoding.encode_instruction

        def counted(ins, params):
            calls.append(ins)
            return real(ins, params)
        monkeypatch.setattr(encoding, "encode_instruction", counted)
        monkeypatch.setattr(harness, "encode_instruction", counted)
        assert harness._roundtrip_divergences(program, DEFAULT_PARAMS) == []
        # The case, its reassembly and the decoded binary: once each.
        assert len(calls) == 3 * len(program.instructions)
        words = [real(ins, DEFAULT_PARAMS) for ins in program.instructions]
        blob = encoding.pack_program(words, DEFAULT_PARAMS)
        assert blob == encoding.encode_program(program.instructions,
                                               DEFAULT_PARAMS)
        assert len(blob) == 16 * len(words)    # 106 bits padded to 128

    def test_each_divergence_kind_fires(self, monkeypatch):
        from dataclasses import replace

        from repro.asm.assembler import assemble
        from repro.isa.encoding import decode_program
        from repro.verify import harness

        program = self._program()

        def reassembly(change):
            def reassemble(source, params, name=""):
                again = assemble(source, params, name=name)
                change(again)
                return again
            monkeypatch.setattr(harness, "assemble", reassemble)

        def new_immediate(again):
            ins = again.instructions[0]
            again.instructions[0] = replace(
                ins, dp=replace(ins.dp, imm=ins.dp.imm ^ 1))

        def new_start(again):
            again.initial_predicates ^= 1

        cases = [
            (lambda: reassembly(new_immediate), "roundtrip-asm",
             "assemble -> disassemble -> assemble changed encodings"),
            (lambda: reassembly(new_start), "roundtrip-asm",
             "round trip changed the .start predicate state"),
            (lambda: monkeypatch.setattr(
                harness, "decode_program",
                lambda blob, params: decode_program(
                    bytes([blob[0] ^ 1]) + blob[1:], params)),
             "roundtrip-binary",
             "encode -> decode -> encode changed the binary"),
        ]
        for inject, kind, detail in cases:
            monkeypatch.undo()
            inject()
            assert harness._roundtrip_divergences(
                program, DEFAULT_PARAMS) == [
                    {"kind": kind, "config": None, "detail": detail}]

    def test_overlong_program_is_generator_invalid(self):
        case = copy.deepcopy(generate_case(5, DEFAULT_PARAMS))
        case["entries"] += [
            {"op": f"mov %r0, ${index}"}
            for index in range(DEFAULT_PARAMS.num_instructions + 1)]
        result = check_case(case, DEFAULT_PARAMS)
        assert [d["kind"] for d in result["divergences"]] \
            == ["generator-invalid"]
        assert "PE holds" in result["divergences"][0]["detail"]
        assert result["configs_checked"] == 0


class TestCorpus:
    def test_corpus_replays_clean(self):
        pairs = load_corpus(CORPUS_DIR)
        assert pairs, "the landed corpus must not be empty"
        for path, case in pairs:
            result = check_case(case, DEFAULT_PARAMS, ref_configs=2)
            assert result["divergences"] == [], (path, result["divergences"])

    def test_corpus_covers_every_opcode(self):
        """The round-trip corpus cases exercise the full 42-op ISA."""
        used = set()
        for _, case in load_corpus(CORPUS_DIR):
            for entry in case["entries"]:
                used.add(entry["op"].split()[0])
        assert {op.mnemonic for op in OPS} <= used


class TestShrinker:
    def test_non_divergent_case_unchanged(self):
        case = generate_case(3, DEFAULT_PARAMS)
        assert shrink_case(case, DEFAULT_PARAMS, ref_configs=0) == case

    def test_minimizes_and_is_idempotent(self, monkeypatch):
        _inject_effective_tag_bug(monkeypatch)
        case = copy.deepcopy(NECK_TAG_CASE)
        small = shrink_case(case, DEFAULT_PARAMS, ref_configs=0)
        assert small["name"].endswith("-min")
        assert len(small["entries"]) < len(NECK_TAG_CASE["entries"])
        assert real_divergences(
            check_case(small, DEFAULT_PARAMS, ref_configs=0))
        assert shrink_case(small, DEFAULT_PARAMS, ref_configs=0) == small


class TestSensitivity:
    """The harness must actually catch queue-status fidelity bugs: each
    injected regression diverges on the landed corpus probes."""

    def _corpus_case(self, name):
        for path, case in load_corpus(CORPUS_DIR):
            if case["name"] == name:
                return case
        raise AssertionError(f"corpus case {name!r} missing")

    def test_detects_effective_tag_visibility_regression(self, monkeypatch):
        _inject_effective_tag_bug(monkeypatch)
        case = self._corpus_case("neck-tag-visibility")
        divs = real_divergences(check_case(case, DEFAULT_PARAMS,
                                           ref_configs=0))
        assert divs, "reverting the Section 5.3 fix must diverge"
        assert all("+Q" in d["config"] for d in divs)

    def test_detects_conservative_suppression_regression(self, monkeypatch):
        _inject_conservative_suppression_bug(monkeypatch)
        case = self._corpus_case("neck-tag-visibility")
        divs = real_divergences(check_case(case, DEFAULT_PARAMS,
                                           ref_configs=0))
        assert divs, "losing in-flight dequeue suppression must diverge"
        assert all("+Q" not in d["config"] for d in divs)

    def test_fuzzer_finds_the_injected_regression(self, monkeypatch):
        """The generated stream itself (not just hand probes) exposes
        the injected bug: seed 125 is a fuzzer-found detector."""
        _inject_effective_tag_bug(monkeypatch)
        case = generate_case(125, DEFAULT_PARAMS)
        divs = real_divergences(check_case(case, DEFAULT_PARAMS,
                                           ref_configs=0))
        assert divs
