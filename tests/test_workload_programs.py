"""Cross-cutting checks on the real workload programs.

The ten Table 3 programs are the most demanding artifacts in the repo:
they exercise every ISA feature, fill PEs to capacity, and must encode,
decode and disassemble faithfully.  Each is built once per process and
handed out as a copy, so the copies must equal a fresh build and stay
independent of one another.
"""

import importlib
import inspect
import pkgutil
import sys
from dataclasses import replace
from operator import is_

import pytest

from repro import workloads
from repro.arch import FunctionalPE, trigger_cache
from repro.asm import assemble, assembler
from repro.asm.disassembler import disassemble
from repro.isa.encoding import decode_program
from repro.params import DEFAULT_PARAMS as P
from repro.pipeline import PipelinedPE, config_by_name
from repro.workloads import WORKLOADS, run_workload
from repro.workloads import builder
from repro.workloads.arg_max import arg_max_program
from repro.workloads.bst import bst_program
from repro.workloads.common import counter_producer, memory_streamer
from repro.workloads.dot_product import mac_program
from repro.workloads.filter import filter_worker_program, threshold_program
from repro.workloads.gcd import gcd_program
from repro.workloads.mean import mean_program
from repro.workloads.merge import merge_program
from repro.workloads.string_search import dfa_program, splitter_program
from repro.workloads.udiv import divider_program, feeder_program


def _all_programs():
    return {
        "bst": bst_program(P, 32, 64),
        "gcd": gcd_program(P),
        "mean": mean_program(P, 64),
        "arg_max": arg_max_program(P, 100),
        "dot_product": mac_program(P, 100),
        "threshold": threshold_program(P, 1 << 20),
        "filter_worker": filter_worker_program(P, 100, 200),
        "merge": merge_program(P, 100),
        "splitter": splitter_program(P),
        "string_search": dfa_program(P, 100, 5),
        "udiv": divider_program(P),
        "udiv_feeder": feeder_program(P, 16, 100),
        "streamer_last": memory_streamer(0, 16, P, eos="last"),
        "streamer_sentinel": memory_streamer(0, 16, P, eos="sentinel"),
        "streamer_none": memory_streamer(0, 16, P, eos="none"),
        "counter": counter_producer(0, 16, P, eos="sentinel"),
    }


@pytest.mark.parametrize("name,program", _all_programs().items(),
                         ids=_all_programs().keys())
class TestProgramArtifacts:
    def test_fits_the_pe(self, name, program):
        assert 1 <= len(program) <= P.num_instructions

    def test_binary_round_trip(self, name, program):
        blob = program.binary(P)
        decoded = decode_program(blob, P)
        for original, back in zip(program.instructions, decoded):
            assert back.trigger == original.trigger
            assert back.dp == original.dp

    def test_disassembly_reassembles_identically(self, name, program):
        text = disassemble(program.instructions, P, program.initial_predicates)
        again = assemble(text)
        assert again.binary(P) == program.binary(P)
        assert again.initial_predicates == program.initial_predicates


def test_bst_and_udiv_fill_the_pe_exactly():
    """Both are written to use all 16 instruction slots — the paper's
    point about each slot being a scarce resource."""
    assert len(bst_program(P, 32, 64)) == P.num_instructions
    assert len(divider_program(P)) == P.num_instructions


def test_every_program_obeys_max_check():
    for name, program in _all_programs().items():
        for ins in program.instructions:
            assert len(ins.trigger.tag_checks) <= P.max_check, (name, ins.label)


def test_udiv_feeder_fits_with_room_for_none():
    assert len(feeder_program(P, 16, 100)) <= P.num_instructions


# ----------------------------------------------------------------------
# One build per process
# ----------------------------------------------------------------------

#: udiv's checkable params (``repro.analyze.check``): an 8-bit word.
NARROW = replace(P, word_width=8)


def _builder_calls(n, params):
    """One call of each of the 14 builders, shaped as the workloads make
    them at scale ``n``."""
    return [
        (memory_streamer, (n, n, params), {"eos": "sentinel"}),
        (counter_producer, (16, n, params), {"eos": "none"}),
        (arg_max_program, (params, n), {}),
        (bst_program, (params, n, 2 * n), {}),
        (mac_program, (params, 2 * n), {}),
        (filter_worker_program, (params, 2 * n, 3 * n), {}),
        (threshold_program, (params, 1 << 29), {}),
        (gcd_program, (params,), {}),
        (mean_program, (params, n), {}),
        (merge_program, (params, 2 * n), {}),
        (dfa_program, (params, n, 5), {}),
        (splitter_program, (params,), {}),
        (divider_program, (params, params.word_width), {}),
        (feeder_program, (params, n, 2 * n), {}),
    ]


def _count_builds(monkeypatch) -> dict[str, int]:
    """Count ``assemble`` and ``lower_program`` calls from here on."""
    calls = {"assemble": 0, "lower_program": 0}
    for name, real in (("assemble", assembler.assemble),
                       ("lower_program", trigger_cache.lower_program)):
        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
    return calls


def _program_builders() -> set:
    """Every function of a ``repro.workloads`` module that builds a
    program with a :class:`ProgramBuilder`."""
    found = set()
    for info in pkgutil.iter_modules(workloads.__path__):
        module = importlib.import_module(f"{workloads.__name__}.{info.name}")
        for function in vars(module).values():
            if (inspect.isfunction(function)
                    and function.__module__ == module.__name__
                    and "ProgramBuilder(" in inspect.getsource(function)):
                found.add(function)
    return found


def test_every_program_builder_is_cached_and_in_the_table():
    builders = _program_builders()
    assert len(builders) == 14
    assert builders == {build for build, _, _ in _builder_calls(4, P)}
    assert all(hasattr(build, "__wrapped__") for build in builders)


@pytest.mark.parametrize("kernel", WORKLOADS())
def test_a_second_run_assembles_and_lowers_nothing(kernel, monkeypatch):
    calls = _count_builds(monkeypatch)
    config = config_by_name("TDX")
    run_workload(kernel, lambda name: PipelinedPE(config, P, name=name),
                 scale=4, seed=0)
    assert calls["assemble"] == calls["lower_program"] >= 1
    calls.update(assemble=0, lower_program=0)
    other = config_by_name("T|D|X1|X2 +P+Q")
    run_workload(kernel, lambda name: PipelinedPE(other, P, name=name),
                 scale=4, seed=3)
    assert calls == {"assemble": 0, "lower_program": 0}


@pytest.mark.parametrize("params", [P, NARROW], ids=["32-bit", "8-bit"])
@pytest.mark.parametrize("scale", [4, 8, 24, 48])
def test_a_handed_out_program_equals_a_fresh_build(scale, params):
    calls = _builder_calls(scale, params)
    for build, args, kwargs in calls:
        build(*args, **kwargs)
    hits = builder._built.cache_info().hits
    handed = [build(*args, **kwargs) for build, args, kwargs in calls]
    assert builder._built.cache_info().hits == hits + len(calls)
    builder.clear_program_cache()
    for (build, args, kwargs), program in zip(calls, handed):
        fresh = build(*args, **kwargs)
        assert fresh.instructions == program.instructions, build.__name__
        assert fresh.initial_predicates == program.initial_predicates
        assert fresh.name == program.name
        assert fresh.source == program.source
        assert fresh.instructions[0] is not program.instructions[0]


def test_replacing_an_instruction_reaches_no_later_caller(monkeypatch):
    first = gcd_program(P)
    original = list(first.instructions)
    lowering = first.lowered(P)
    first.instructions[0] = original[1]
    first.configure(FunctionalPE(P))
    assert first.lowered(P) is not lowering
    calls = _count_builds(monkeypatch)
    later = gcd_program(P)
    assert all(map(is_, later.instructions, original))
    assert later.lowered(P) is lowering
    pe = PipelinedPE(params=P)
    later.configure(pe)
    assert pe.instructions is lowering.instructions
    assert calls == {"assemble": 0, "lower_program": 0}


def test_the_cache_never_holds_more_than_its_bound():
    size = builder.PROGRAM_CACHE_SIZE
    for count in range(1, size + 20):
        counter_producer(0, count, P)
        assert builder._built.cache_info().currsize <= size
    assert builder._built.cache_info().currsize == size
