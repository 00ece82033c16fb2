"""Fuzz campaigns: run a batch of fuzz cases on the campaign service.

The per-case check is pure (a seed fully determines the case and its
result), so a campaign is one ``fuzz-case`` task per seed on the
campaign service (:func:`repro.serve.service.run_campaign`) — identical
results at any worker count, with the supervisor's crash, hang and
retry handling for free.
"""

from __future__ import annotations

from repro.params import DEFAULT_PARAMS
from repro.verify.generator import generate_case
from repro.verify.harness import check_case, real_divergences


def _check_seed(task: tuple[int, int, bool]) -> dict:
    """The ``fuzz-case`` task body: generate and check one seed."""
    seed, ref_configs, jit = task
    case = generate_case(seed, DEFAULT_PARAMS)
    return check_case(case, DEFAULT_PARAMS, ref_configs=ref_configs, jit=jit)


def fuzz_run(count: int, seed: int = 0, ref_configs: int = 4,
             jit: bool = False, service=None) -> list[dict]:
    """Check ``count`` generated cases; returns per-case result dicts.

    ``service`` (a :mod:`repro.serve` client) runs the batch on that
    service, deduped against its durable store, so re-fuzzing an
    overlapping seed range only executes the new seeds; without one, a
    throwaway in-process service runs it.
    """
    from repro.serve.service import run_campaign

    return run_campaign(service, "fuzz-case", [
        {"seed": seed + index, "ref_configs": ref_configs, "jit": jit}
        for index in range(count)
    ])


def summarize_run(results: list[dict]) -> dict:
    """Aggregate a campaign: totals plus the divergent cases."""
    divergent = [r for r in results if real_divergences(r)]
    generator_bugs = [
        r for r in results
        if any(d["kind"] in ("golden-timeout", "generator-invalid")
               for d in r["divergences"])
    ]
    return {
        "cases": len(results),
        "configs_checked": sum(r["configs_checked"] for r in results),
        "divergent_cases": [r["name"] for r in divergent],
        "divergences": [d for r in divergent for d in real_divergences(r)],
        "generator_bugs": [r["name"] for r in generator_bugs],
    }
