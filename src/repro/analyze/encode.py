"""Canonical state encoding for the bounded equivalence checker.

The checker (:mod:`repro.analyze.check`) explores the state space of one
PE under every bounded environment schedule.  A *node* of that space is
not just the PE's microarchitectural state: two paths that delivered
different numbers of input tokens, or committed different output
prefixes, must never be merged even if the PE itself looks identical —
their futures differ.  So a node key is the triple

``(pe_state, delivered, produced)``

where ``pe_state`` is the PE's own canonical snapshot (the
``snapshot_arch_state()`` seam on :class:`~repro.arch.FunctionalPE` and
:class:`~repro.pipeline.PipelinedPE` — registers, predicates,
scratchpad, queue contents and tags, in-flight pipeline entries with
relative sequence numbers, speculation records, predictor counters),
``delivered`` counts tokens fed to each input queue so far, and
``produced`` is the full committed output log per output queue.

Everything is plain nested tuples — hashable, comparable, and cheap to
build — so the checker numbers nodes through an ordinary dict keyed on
them, hashing each reached key once, and keeps its graph in lists
indexed by those numbers.
"""

from __future__ import annotations

import hashlib


def node_key(pe_state: tuple, delivered: tuple[int, ...],
             produced: tuple[tuple, ...]) -> tuple:
    """One canonical product-state node (hashable)."""
    return (pe_state, delivered, produced)


def node_digest(key: tuple) -> str:
    """Short stable digest of a node, for witness dumps and logs."""
    return hashlib.sha256(repr(key).encode()).hexdigest()[:12]


def describe_pe_state(pe_state: tuple) -> dict:
    """Human-readable view of a canonical PE snapshot.

    Works for both models: the functional snapshot is a 6-tuple, the
    pipelined one an 11-tuple (see the two ``snapshot_arch_state``
    implementations), so a counterexample state is reviewable without
    re-simulating.
    """
    common = {
        "regs": list(pe_state[0]),
        "preds": pe_state[1],
        "scratchpad": {address: word for address, word in pe_state[2]},
        "halted": pe_state[3],
    }
    if len(pe_state) == 6:
        _, _, _, _, inputs, outputs = pe_state
        common["inputs"] = [list(live) for live, _ in inputs]
        common["outputs"] = [list(live) for live, _ in outputs]
        return common
    (_, _, _, _, halt_pending, inputs, outputs, queue_state, pipe, specs,
     predictor) = pe_state
    common.update({
        "halt_pending": halt_pending,
        "inputs": [list(live) for live, _ in inputs],
        "outputs": [list(live) for live, _ in outputs],
        "pending_deqs": list(queue_state[0]),
        "sched_deqs": list(queue_state[1]),
        "pending_enqs": list(queue_state[2]),
        "pipe": [
            None if entry is None else {
                "slot": entry[0], "seq": entry[1], "captured": entry[2],
                "result_ready": entry[5],
            }
            for entry in pipe
        ],
        "speculations": [
            {"owner_seq": s[0], "pred_index": s[1], "predicted": s[2]}
            for s in specs
        ],
        "predictor": list(predictor[0]),
    })
    return common


def roundtrips(pe) -> bool:
    """Whether ``pe``'s canonical state survives a restore round trip.

    The checker's soundness rests on restore being exact; tests (and the
    paranoid) can assert this on any reachable state.
    """
    state = pe.snapshot_arch_state()
    pe.restore_arch_state(state)
    return pe.snapshot_arch_state() == state
