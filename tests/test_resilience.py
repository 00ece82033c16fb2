"""The resilience layer: fault injection, invariants, forensics, and
fault campaigns on the campaign service."""

import dataclasses
import os
import signal

import pytest

from repro.arch import FunctionalPE
from repro.arch.queue import QueueEntry, TaggedQueue
from repro.asm import assemble
from repro.errors import (
    DeadlockError,
    InvariantViolation,
    SimulationError,
)
from repro.fabric import System
from repro.pipeline.config import config_by_name
from repro.pipeline.core import PipelinedPE
from repro.resilience import (
    FaultClass,
    FaultSpec,
    FaultTrial,
    InvariantChecker,
    fault_campaign,
    format_summary,
    inject,
    plan_faults,
    run_trial,
    summarize,
)
from repro.resilience.campaign import (
    CORRUPTED,
    DETECTED,
    HUNG,
    MASKED,
    NOT_APPLIED,
)
from repro.resilience.forensics import forensic_report, format_report
from repro.serve.client import InProcessClient
from repro.serve.service import CampaignService
from repro.serve.tasks import get_kind, register
from repro.workloads.suite import get_workload

OUTCOMES = {DETECTED, HUNG, CORRUPTED, MASKED, NOT_APPLIED}


# ---------------------------------------------------------------------------
# A task kind that kills its first worker (registered before any fork)
# ---------------------------------------------------------------------------

def _trial_kill_once(payload):
    """Run one fault trial, SIGKILLing the first worker that tries."""
    flag = os.path.join(payload["flag_dir"], "killed")
    if not os.path.exists(flag):
        open(flag, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return get_kind("fault-trial").run(payload["trial"])


register("test-fault-trial-kill-once", _trial_kill_once,
         decode=get_kind("fault-trial").decode)


# ---------------------------------------------------------------------------
# Shared builders
# ---------------------------------------------------------------------------

def _pipelined_system(config_name: str, scale: int = 4, seed: int = 0):
    workload = get_workload("gcd")
    config = config_by_name(config_name)

    def factory(name):
        return PipelinedPE(config, workload.params, name=name)

    system = workload.build(factory, scale, seed)
    return system, system.pe(workload.worker_name), workload


def _deadlocked_pair() -> System:
    """Two PEs, each waiting forever on a token the other never sends."""
    system = System()
    source = """
    when %p == XXXXXXX0 with %i0.0:
        mov %r0, %i0; deq %i0; set %p = ZZZZZZZ1;
    when %p == XXXXXXX1:
        halt;
    """
    a = FunctionalPE(name="a")
    b = FunctionalPE(name="b")
    assemble(source).configure(a)
    assemble(source).configure(b)
    system.add_pe(a)
    system.add_pe(b)
    system.connect(a, 0, b, 0)
    system.connect(b, 0, a, 0)
    return system


# ---------------------------------------------------------------------------
# Fault planning and injection
# ---------------------------------------------------------------------------

class TestFaultInjection:
    def test_plans_are_deterministic(self):
        plan = plan_faults(FaultClass.REG_BIT_FLIP, 7, key="k", count=3)
        again = plan_faults(FaultClass.REG_BIT_FLIP, 7, key="k", count=3)
        assert plan == again
        assert plan != plan_faults(FaultClass.REG_BIT_FLIP, 7, key="j", count=3)

    def test_plans_respect_window(self):
        plan = plan_faults(FaultClass.QUEUE_DROP, 0, key="w",
                           count=16, window=(3, 9))
        assert all(3 <= spec.cycle <= 9 for spec in plan)

    def test_register_flip_lands(self):
        pe = FunctionalPE(name="x")
        assemble("""
        when %p == XXXXXXX0:
            mov %r1, $5;
        """).configure(pe)
        injector = inject(pe, [FaultSpec(FaultClass.REG_BIT_FLIP,
                                         cycle=1, index=0, bit=3)])
        for _ in range(3):
            pe.step()
        assert injector.applied
        assert pe.regs.read(0) == 1 << 3

    def test_predicate_flip_lands(self):
        pe = FunctionalPE(name="x")
        assemble("""
        when %p == XXXXXXX0:
            mov %r1, $5;
        """).configure(pe)
        inject(pe, [FaultSpec(FaultClass.PRED_BIT_FLIP,
                              cycle=1, index=2, bit=0)])
        pe.step()
        assert pe.preds.read_bit(2) == 1

    def test_queue_fault_against_empty_queues_does_not_land(self):
        pe = FunctionalPE(name="x")
        assemble("""
        when %p == XXXXXXX0:
            mov %r1, $5;
        """).configure(pe)
        injector = inject(pe, [FaultSpec(FaultClass.QUEUE_DROP, cycle=1)])
        pe.step()
        assert not injector.applied
        assert injector.log == [(injector.specs[0], False)]

    def test_forced_mispredict_is_architecturally_invisible(self):
        """Rollback completeness: inverting a +P prediction never changes
        the architectural result."""
        system, pe, workload = _pipelined_system("T|DX +P")
        injector = inject(pe, [FaultSpec(FaultClass.FORCE_MISPREDICT, cycle=2)])
        system.run()
        assert injector.applied
        workload.check(system, 4, 0)

    def test_forced_mispredict_excluded_from_accuracy(self):
        """Minimized repro: an injected inversion rolls back like a real
        misprediction but must not count as one — the genuine prediction
        stream here is perfectly predictable, so accuracy stays 1.0."""
        pe = PipelinedPE(config_by_name("T|DX +P"), name="forced")
        # eqz on nonzero inputs writes p1 := 0 forever; the two-bit
        # counter starts at weak-not, so every real prediction is correct.
        assemble("""
        when %p == XXXXXXX0 with %i0.0:
            eqz %p1, %i0; deq %i0;
        when %p == XXXXXXX0 with %i0.1:
            halt;
        """).configure(pe)
        backlog = [(5, 0), (5, 0), (5, 0), (5, 0), (0, 1)]
        injector = inject(pe, [FaultSpec(FaultClass.FORCE_MISPREDICT, cycle=2)])
        for _ in range(200):
            if pe.halted:
                break
            while backlog and not pe.inputs[0].is_full:
                value, tag = backlog.pop(0)
                pe.inputs[0].enqueue(value, tag)
            pe.step()
            pe.commit_queues()
        assert pe.halted and injector.applied
        assert pe.counters.forced_predictions == 1
        assert pe.predictor.forced == 1
        assert pe.counters.mispredictions == 0
        assert pe.counters.predictions > 0
        assert pe.counters.prediction_accuracy == 1.0
        assert pe.predictor.accuracy == 1.0

    def test_disarm(self):
        pe = FunctionalPE(name="x")
        injector = inject(pe, [FaultSpec(FaultClass.REG_BIT_FLIP, cycle=1)])
        assert pe.fault_hook is not None
        injector.disarm(pe)
        assert pe.fault_hook is None


class TestQueueMutators:
    def _loaded(self):
        queue = TaggedQueue(4, "q")
        queue.enqueue(1, tag=0)
        queue.enqueue(2, tag=1)
        queue.commit()
        return queue

    def test_tag_flip(self):
        queue = self._loaded()
        before = queue.version
        assert queue.inject_tag_flip(0, 1)
        assert queue.peek(0).tag == 2
        assert queue.peek(0).value == 1
        assert queue.version > before

    def test_value_flip(self):
        queue = self._loaded()
        assert queue.inject_value_flip(1, 4)
        assert queue.peek(1).value == 2 ^ (1 << 4)

    def test_drop(self):
        queue = self._loaded()
        assert queue.inject_drop(0)
        assert queue.occupancy == 1
        assert queue.peek(0).value == 2

    def test_duplicate(self):
        queue = self._loaded()
        assert queue.inject_duplicate(0)
        assert queue.occupancy == 3
        assert queue.peek(0).value == queue.peek(1).value == 1

    def test_duplicate_refused_when_full(self):
        queue = self._loaded()
        queue.enqueue(3)
        queue.enqueue(4)
        queue.commit()
        assert queue.is_full
        assert not queue.inject_duplicate(0)

    def test_mutators_refuse_empty_queue(self):
        queue = TaggedQueue(4, "q")
        assert not queue.inject_tag_flip(0, 0)
        assert not queue.inject_value_flip(0, 0)
        assert not queue.inject_drop(0)
        assert not queue.inject_duplicate(0)


# ---------------------------------------------------------------------------
# Invariant checking and forensics
# ---------------------------------------------------------------------------

class TestInvariantChecker:
    def test_clean_pe_passes(self):
        __, pe, __ = _pipelined_system("TD|X +Q")
        checker = InvariantChecker()
        checker.check_pe(pe)
        assert checker.checks == 1
        assert not checker.violations

    def test_corrupted_bookkeeping_is_caught(self):
        __, pe, __ = _pipelined_system("TD|X +Q")
        pe._queue_state.pending_enqs[0] = 99
        checker = InvariantChecker()
        with pytest.raises(InvariantViolation, match="pending_enqs"):
            checker.check_pe(pe, cycle=0)
        assert checker.violations

    def test_predicate_overflow_is_caught(self):
        __, pe, __ = _pipelined_system("TD|X +Q")
        pe.preds.state = 1 << pe.params.num_preds
        with pytest.raises(InvariantViolation, match="NPreds"):
            InvariantChecker().check_pe(pe)

    def test_queue_overflow_is_caught(self):
        __, pe, __ = _pipelined_system("TDX")
        queue = pe.inputs[0]
        for _ in range(queue.capacity + 1):    # bypass enqueue's guard
            queue._live.append(QueueEntry(0, 0))
        with pytest.raises(InvariantViolation, match="capacity"):
            InvariantChecker().check_pe(pe)

    def test_attached_checker_runs_every_cycle(self):
        system, __, workload = _pipelined_system("T|DX +P")
        checker = InvariantChecker()
        system.attach_invariant_checker(checker)
        system.run()
        assert checker.checks >= system.cycles
        assert not checker.violations
        workload.check(system, 4, 0)

    def test_violation_carries_pe_and_cycle(self):
        system, pe, __ = _pipelined_system("TD|X +Q")
        checker = InvariantChecker()
        system.attach_invariant_checker(checker)
        pe._queue_state.pending_enqs[0] = 99
        with pytest.raises(InvariantViolation) as info:
            system.run()
        assert info.value.pe_name == pe.name
        assert info.value.cycle is not None


class TestForensics:
    def test_deadlock_raises_structured_report(self):
        system = _deadlocked_pair()
        with pytest.raises(DeadlockError, match="deadlock") as info:
            system.run(stall_limit=50)
        report = info.value.report
        assert isinstance(report, dict)
        assert {pe["name"] for pe in report["pes"]} == {"a", "b"}
        assert report["cycle"] >= 50
        assert not report["all_halted"]

    def test_deadlock_error_is_a_simulation_error(self):
        system = _deadlocked_pair()
        with pytest.raises(SimulationError):
            system.run(stall_limit=50)

    def test_format_report_renders(self):
        system = _deadlocked_pair()
        try:
            system.run(stall_limit=50)
        except DeadlockError as exc:
            text = format_report(exc.report)
        assert text.startswith("forensic dump at cycle")
        assert "a (" in text and "b (" in text

    def test_report_includes_pipeline_state(self):
        system, __, __ = _pipelined_system("T|D|X1|X2 +P+Q")
        for _ in range(3):
            system.step()
        report = forensic_report(system)
        worker = next(pe for pe in report["pes"] if pe["name"] == "worker")
        assert worker["model"] == "pipelined"
        assert "pipeline" in worker and "speculations" in worker
        assert all("occupancy" in queue for queue in worker["inputs"])


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------

CAMPAIGN_KWARGS = dict(
    configs=("TDX", "T|DX +P"),
    faults=(FaultClass.REG_BIT_FLIP, FaultClass.PRED_BIT_FLIP,
            FaultClass.QUEUE_DROP),
    workloads=("gcd",),
    trials=1,
    scale=4,
    seed=1,
    # Hung trials cost stall_limit extra cycles each; keep them cheap.
    stall_limit=500,
    max_cycles=60_000,
)

SMALL_CAMPAIGN_KWARGS = dict(
    CAMPAIGN_KWARGS,
    configs=("TDX",),
    faults=(FaultClass.REG_BIT_FLIP, FaultClass.QUEUE_DROP),
)


class TestFaultCampaign:
    def test_bit_identical_across_runs_and_worker_counts(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        serial = fault_campaign(**CAMPAIGN_KWARGS)
        rerun = fault_campaign(**CAMPAIGN_KWARGS)
        with CampaignService(None, workers=2) as service:
            pooled = fault_campaign(service=InProcessClient(service),
                                    **CAMPAIGN_KWARGS)
        assert serial == rerun
        assert serial == pooled
        assert len(serial) == 6
        assert all(result.outcome in OUTCOMES for result in serial)

    def test_killed_worker_retried_with_identical_results(self, tmp_path):
        tasks = [
            FaultTrial(config="T|DX +P", workload="gcd",
                       fault="reg-bit-flip", trial=i, scale=4, seed=0)
            for i in range(3)
        ]
        serial = [run_trial(trial) for trial in tasks]
        with CampaignService(None, workers=2, backoff_base=0.01,
                             backoff_cap=0.05) as service:
            survived = InProcessClient(service).map(
                "test-fault-trial-kill-once",
                [{"trial": dataclasses.asdict(trial), "flag_dir": str(tmp_path)}
                 for trial in tasks],
            )
            stats = service.stats()
        assert os.path.exists(tmp_path / "killed")    # a worker really died
        assert stats["supervisor"]["worker_crashes"] >= 1
        assert survived == serial

    def test_summary_covers_every_cell(self):
        results = fault_campaign(**SMALL_CAMPAIGN_KWARGS)
        summary = summarize(results)
        assert set(summary) == {
            (config, fault.value)
            for config in SMALL_CAMPAIGN_KWARGS["configs"]
            for fault in SMALL_CAMPAIGN_KWARGS["faults"]
        }
        text = format_summary(results)
        assert "reg-bit-flip" in text and "TDX" in text

    def test_file_store_resumes_without_reexecution(self, tmp_path):
        path = str(tmp_path / "campaign.sqlite")
        with CampaignService(path, serial=True) as service:
            first = fault_campaign(service=InProcessClient(service),
                                   **SMALL_CAMPAIGN_KWARGS)
        with CampaignService(path, serial=True) as service:
            resumed = fault_campaign(service=InProcessClient(service),
                                     **SMALL_CAMPAIGN_KWARGS)
            stats = service.stats()
        assert resumed == first
        assert stats["supervisor"]["tasks_done"] == 0

    def test_trial_key_is_stable(self):
        trial = FaultTrial(config="TDX", workload="gcd",
                           fault="queue-drop", trial=3, scale=4, seed=0)
        assert trial.key == "TDX/gcd/queue-drop/t3"
