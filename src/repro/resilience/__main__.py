"""CLI: the resilience smoke gate run by CI on every push.

``python -m repro.resilience --smoke`` runs, at a small scale, a
fault-injection campaign over the default microarchitecture set
(single-cycle, +P, +Q, and +P+Q at full depth) twice — serially
in-process and on a two-worker campaign service — and fails unless the
two result lists are bit-identical (campaign determinism).  The
fast-path vs reference sweep lives in the tier-1 suite
(``tests/test_pipeline_equivalence.py``).

Exit status is non-zero on any failure, so the gate works as a CI step
with no extra plumbing.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.resilience.campaign import (
    DEFAULT_FAULTS,
    fault_campaign,
    format_summary,
)
from repro.serve.client import InProcessClient
from repro.serve.service import CampaignService


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience",
        description="fault-injection smoke campaign",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the CI smoke gate (campaign determinism)",
    )
    parser.add_argument(
        "--scale", type=int,
        default=int(os.environ.get("REPRO_BENCH_SCALE", "8")),
        help="workload scale (default: REPRO_BENCH_SCALE or 8)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=2,
                        help="trials per campaign cell")
    parser.add_argument("--workloads", nargs="+", default=["gcd", "stream"])
    parser.add_argument("--checkpoint", default=None,
                        help="result store (sqlite file) the serial "
                             "campaign resumes from")
    args = parser.parse_args(argv)

    print(
        f"resilience gate: scale={args.scale} seed={args.seed} "
        f"trials={args.trials} workloads={args.workloads}"
    )

    print("\nfault-injection campaign (serial vs 2 workers)...")
    common = dict(
        workloads=tuple(args.workloads),
        trials=args.trials,
        scale=args.scale,
        seed=args.seed,
    )
    with CampaignService(args.checkpoint, serial=True) as service:
        serial = fault_campaign(service=InProcessClient(service), **common)
    with CampaignService(None, workers=2) as service:
        pooled = fault_campaign(service=InProcessClient(service), **common)
    print(format_summary(serial))
    if serial != pooled:
        print("FAIL: campaign results differ between worker counts",
              file=sys.stderr)
        for left, right in zip(serial, pooled):
            if left != right:
                print(f"  serial: {left}\n  pooled: {right}", file=sys.stderr)
        return 1
    print(f"campaign deterministic across worker counts "
          f"({len(serial)} trials)")

    detected = sum(r.outcome in ("detected", "hung") for r in serial)
    corrupted = sum(r.outcome == "corrupted" for r in serial)
    masked = sum(r.outcome == "masked" for r in serial)
    print(
        f"\nfault classes: {len(DEFAULT_FAULTS)}; "
        f"outcomes: {detected} detected/hung, {corrupted} silently "
        f"corrupted, {masked} masked (of {len(serial)} trials)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
