"""Registry of the ten Table 3 workloads."""

from __future__ import annotations

from repro.errors import ConfigError
from repro.params import ArchParams, DEFAULT_PARAMS
from repro.workloads.base import PEFactory, Workload, WorkloadRun

WORKLOAD_CLASSES: dict[str, type] = {}
"""Populated lazily to avoid import cycles during module construction."""


def _load_classes() -> dict[str, type]:
    if WORKLOAD_CLASSES:
        return WORKLOAD_CLASSES
    from repro.workloads.bst import BstWorkload
    from repro.workloads.gcd import GcdWorkload
    from repro.workloads.mean import MeanWorkload
    from repro.workloads.arg_max import ArgMaxWorkload
    from repro.workloads.dot_product import DotProductWorkload
    from repro.workloads.filter import FilterWorkload
    from repro.workloads.merge import MergeWorkload
    from repro.workloads.stream import StreamWorkload
    from repro.workloads.string_search import StringSearchWorkload
    from repro.workloads.udiv import UdivWorkload

    for cls in (
        BstWorkload, GcdWorkload, MeanWorkload, ArgMaxWorkload,
        DotProductWorkload, FilterWorkload, MergeWorkload, StreamWorkload,
        StringSearchWorkload, UdivWorkload,
    ):
        WORKLOAD_CLASSES[cls.name] = cls
    return WORKLOAD_CLASSES


def WORKLOADS() -> list[str]:
    """Names of the ten workloads, in the paper's Table 3 order."""
    return list(_load_classes())


def get_workload(name: str, params: ArchParams = DEFAULT_PARAMS) -> Workload:
    classes = _load_classes()
    if name not in classes:
        raise ConfigError(f"unknown workload {name!r}; choose from {sorted(classes)}")
    return classes[name](params)


def run_workload(
    name: str,
    make_pe: PEFactory | None = None,
    scale: int | None = None,
    seed: int = 0,
    params: ArchParams = DEFAULT_PARAMS,
    telemetry=None,
) -> WorkloadRun:
    """Convenience: instantiate, run and validate one workload."""
    return get_workload(name, params).run(
        make_pe=make_pe, scale=scale, seed=seed, telemetry=telemetry
    )
