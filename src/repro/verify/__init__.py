"""Differential fuzzing of the pipelined PE models (``repro.verify``).

The paper's equivalence claim — every pipelined microarchitecture is
observably identical to the single-cycle PE — is checked generatively:
a seeded program generator emits well-formed triggered-assembly cases,
a differential harness runs each on the golden functional model and on
all 48 microarchitectures (8 partitions × ±P × 3 queue policies, fast
path and reference walk), and a shrinker minimizes any divergence into
a self-contained repro for ``tests/corpus/``.

Entry points::

    python -m repro.verify --smoke          # the CI gate
    python -m repro.verify --fuzz N --seed S
"""

from repro.verify.corpus import (
    DEFAULT_CORPUS,
    load_case,
    load_corpus,
    save_case,
)
from repro.verify.generator import (
    case_builder,
    case_source,
    case_streams,
    generate_case,
)
from repro.verify.harness import (
    CONFIG_NAMES,
    CONFIGS,
    check_case,
    real_divergences,
    reference_config_names,
)
from repro.verify.runner import fuzz_run, summarize_run
from repro.verify.shrinker import shrink_case

__all__ = [
    "CONFIGS",
    "CONFIG_NAMES",
    "DEFAULT_CORPUS",
    "case_builder",
    "case_source",
    "case_streams",
    "check_case",
    "fuzz_run",
    "generate_case",
    "load_case",
    "load_corpus",
    "real_divergences",
    "reference_config_names",
    "save_case",
    "shrink_case",
    "summarize_run",
]
