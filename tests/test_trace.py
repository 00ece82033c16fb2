"""Per-cycle pipeline trace: the Telemetry outcome rows of one PE."""

from collections import Counter

from repro.asm import assemble
from repro.fabric import System
from repro.obs import Telemetry
from repro.pipeline import PipelinedPE, config_by_name

LOOP = """
when %p == XXXXXXX0:
    ult %p1, %r0, $5; set %p = ZZZZZZZ1;
when %p == XXXXXX11:
    add %r0, %r0, $1; set %p = ZZZZZZ00;
when %p == XXXXXX01:
    halt;
"""


def traced(config_name, limit=1 << 20):
    """The LOOP program run to its halt on ``config_name`` in a one-PE
    system, sampled."""
    pe = PipelinedPE(config_by_name(config_name), name="t")
    assemble(LOOP).configure(pe)
    system = System()
    system.add_pe(pe)
    telemetry = Telemetry(limit=limit)
    telemetry.attach_system(system)
    system.run(max_cycles=1_000)
    assert pe.halted
    return telemetry, pe


def test_records_every_cycle():
    telemetry, pe = traced("T|D|X")
    rows = telemetry.cycle_rows(pe.name)
    assert len(rows) == pe.counters.cycles
    assert [row[0] for row in rows] == list(range(1, pe.counters.cycles + 1))


def test_event_histogram_tiles_cycles():
    telemetry, pe = traced("T|D|X")
    histogram = Counter(row[1] for row in telemetry.cycle_rows(pe.name))
    assert sum(histogram.values()) == pe.counters.cycles
    assert histogram["issued"] == pe.counters.issued
    assert histogram["predicate hazard"] == pe.counters.pred_hazard_cycles


def test_histogram_accurate_past_the_limit():
    """Cycle sampling continues after event storage stops, so the
    outcome histogram tiles the whole run even on a truncated trace."""
    telemetry, pe = traced("T|D|X", limit=3)
    assert telemetry.truncated and len(telemetry.events) == 3
    histogram = Counter(row[1] for row in telemetry.cycle_rows(pe.name))
    assert sum(histogram.values()) == pe.counters.cycles
    assert histogram["issued"] == pe.counters.issued
