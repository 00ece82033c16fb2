"""Deterministic, seeded fault injection for triggered PEs.

The paper's two hazard mechanisms — predicate-prediction rollback
(Section 5.2) and effective queue status (Section 5.3) — are the logic
most likely to harbor silent state-corruption bugs.  This module turns
that concern into an experiment: flip register, predicate, and queue-tag
bits, drop or replay queue tokens, and force predictor mispredictions at
chosen cycles, then let the campaign layer classify whether each fault
class is *detected* (an error or invariant fires), *masked* (the golden
model still validates), *corrupted* (silent wrong answer), or *hung*.

Everything is derived from seeds via :func:`plan_faults`, so a campaign
is bit-identical across runs and worker counts.  Injectors attach to the
``fault_hook`` seam that both :class:`~repro.arch.functional.FunctionalPE`
and :class:`~repro.pipeline.core.PipelinedPE` call at the top of every
live cycle.
"""

from __future__ import annotations

import enum
import hashlib
import random
from dataclasses import dataclass


class FaultClass(enum.Enum):
    """The modeled upset classes."""

    REG_BIT_FLIP = "reg-bit-flip"          # register-file storage upset
    PRED_BIT_FLIP = "pred-bit-flip"        # predicate register upset
    QUEUE_TAG_FLIP = "queue-tag-flip"      # tag bits of a live queue entry
    QUEUE_VALUE_FLIP = "queue-value-flip"  # data bits of a live queue entry
    QUEUE_DROP = "queue-drop"              # a token silently lost
    QUEUE_DUP = "queue-dup"                # a token replayed
    FORCE_MISPREDICT = "force-mispredict"  # invert the next +P prediction


ALL_FAULT_CLASSES = tuple(FaultClass)


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: what to corrupt, where, and when.

    ``cycle`` counts the target PE's local cycles (its ``counters.cycles``
    after the increment at the top of ``step``).  ``index`` selects the
    register / predicate / queue, ``bit`` the bit to flip; both are taken
    modulo the PE's actual parameters at apply time so one plan is valid
    for every microarchitecture.
    """

    fault: FaultClass
    cycle: int
    index: int = 0
    bit: int = 0


def _stable_seed(*parts) -> int:
    """Platform-stable integer seed from arbitrary key parts."""
    blob = "\x1f".join(str(part) for part in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def plan_faults(
    fault: FaultClass,
    seed: int,
    key: str,
    count: int = 1,
    window: tuple[int, int] = (1, 2000),
) -> list[FaultSpec]:
    """Derive a deterministic fault plan for one campaign trial.

    ``key`` names the trial (config, workload, trial index, ...); the
    plan is a pure function of ``(fault, seed, key, count, window)``,
    which is what makes campaigns reproducible across worker counts.
    """
    rng = random.Random(_stable_seed(fault.value, seed, key, count, *window))
    lo, hi = window
    return [
        FaultSpec(
            fault=fault,
            cycle=rng.randint(lo, hi),
            index=rng.randrange(1 << 16),
            bit=rng.randrange(1 << 8),
        )
        for _ in range(count)
    ]


class FaultInjector:
    """Applies a fault plan to one PE through its ``fault_hook`` seam.

    ``applied`` records the faults that physically landed (a queue fault
    against an empty queue cannot land); ``log`` records every attempt
    with its outcome, for campaign accounting.
    """

    def __init__(self, specs: list[FaultSpec]) -> None:
        self.specs = sorted(specs, key=lambda spec: spec.cycle)
        self.applied: list[FaultSpec] = []
        self.log: list[tuple[FaultSpec, bool]] = []
        self._next = 0

    def arm(self, pe) -> None:
        """Attach to a PE (functional or pipelined)."""
        pe.fault_hook = self._fire

    def disarm(self, pe) -> None:
        # == not `is`: accessing a bound method builds a fresh object.
        if pe.fault_hook == self._fire:
            pe.fault_hook = None

    def _fire(self, pe) -> None:
        cycle = pe.counters.cycles
        while self._next < len(self.specs) and self.specs[self._next].cycle <= cycle:
            spec = self.specs[self._next]
            self._next += 1
            landed = self._apply(pe, spec)
            self.log.append((spec, landed))
            if landed:
                self.applied.append(spec)

    # ------------------------------------------------------------------
    # Per-class application
    # ------------------------------------------------------------------

    def _apply(self, pe, spec: FaultSpec) -> bool:
        fault = spec.fault
        if fault is FaultClass.REG_BIT_FLIP:
            index = spec.index % pe.params.num_regs
            bit = spec.bit % pe.params.word_width
            pe.regs.write(index, pe.regs.read(index) ^ (1 << bit))
            return True
        if fault is FaultClass.PRED_BIT_FLIP:
            index = spec.index % pe.params.num_preds
            pe.preds.write_bit(index, pe.preds.read_bit(index) ^ 1)
            return True
        if fault is FaultClass.QUEUE_TAG_FLIP:
            queue = self._pick_queue(pe, spec)
            if queue is None:
                return False
            return queue.inject_tag_flip(0, spec.bit % pe.params.tag_width)
        if fault is FaultClass.QUEUE_VALUE_FLIP:
            queue = self._pick_queue(pe, spec)
            if queue is None:
                return False
            return queue.inject_value_flip(0, spec.bit % pe.params.word_width)
        if fault is FaultClass.QUEUE_DROP:
            queue = self._pick_queue(pe, spec)
            if queue is None:
                return False
            return queue.inject_drop(0)
        if fault is FaultClass.QUEUE_DUP:
            queue = self._pick_queue(pe, spec)
            if queue is None:
                return False
            return queue.inject_duplicate(0)
        if fault is FaultClass.FORCE_MISPREDICT:
            predictor = getattr(pe, "predictor", None)
            if predictor is None or not getattr(pe, "_predicts", False):
                return False
            predictor.force_invert_next = True
            return True
        raise ValueError(f"unknown fault class {fault!r}")

    @staticmethod
    def _pick_queue(pe, spec: FaultSpec):
        """Choose a *non-empty* queue near the indexed one, inputs first.

        Scanning from the indexed position keeps the choice deterministic
        while letting most planned queue faults land on real tokens.
        """
        queues = list(pe.inputs) + list(pe.outputs)
        if not queues:
            return None
        start = spec.index % len(queues)
        for offset in range(len(queues)):
            queue = queues[(start + offset) % len(queues)]
            if queue.occupancy:
                return queue
        return None


def inject(pe, specs: list[FaultSpec]) -> FaultInjector:
    """Convenience: build an injector for ``specs`` and arm it on ``pe``."""
    injector = FaultInjector(specs)
    injector.arm(pe)
    return injector
