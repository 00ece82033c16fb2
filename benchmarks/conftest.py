"""Benchmark fixtures.

The CPI campaign (32 microarchitectures x 10 workloads on the
cycle-accurate simulator) backs Figures 5-8; it runs once per session at
a moderate workload scale and is cached on disk next to the benchmarks
(a sqlite result store) so repeated runs skip straight to the analysis.
Table 3 and Figure 4 keep their suite records, at their own scales, in
the same store.

``REPRO_BENCH_SCALE`` overrides the campaign scale (smaller for smoke
runs, larger for publication-grade numbers).  Every cached config is
keyed by a fingerprint over its scale, seed and architectural
parameters, so results from different scales never alias.
"""

from __future__ import annotations

import os

import pytest

from repro.dse.cpi import CpiTable
from repro.dse.sweep import sweep

BENCH_SCALE = int(os.environ.get("REPRO_BENCH_SCALE", "24"))
_CACHE = os.path.join(os.path.dirname(__file__), ".cpi_cache.sqlite")


@pytest.fixture(scope="session")
def bench_scale() -> int:
    return BENCH_SCALE


@pytest.fixture(scope="session")
def cpi_table() -> CpiTable:
    return CpiTable(scale=BENCH_SCALE, cache_path=_CACHE)


@pytest.fixture(scope="session")
def design_points(cpi_table):
    return sweep(cpi_table=cpi_table)
