"""CLI: differential fuzzing of the pipelined PE models.

``python -m repro.verify --smoke`` is the CI gate: replay the whole
``tests/corpus/`` (every landed regression must stay clean), then fuzz
a fixed-seed batch of generated cases across all 48 microarchitectures
(8 stage partitions x {-P, +P} x {conservative, effective, padded}
queue policies), with a reference trigger walk on a per-case config
subset.  Exit status is non-zero on any divergence, hang, or corpus
regression, so the gate works as a CI step with no extra plumbing.

``python -m repro.verify --fuzz N --seed S`` runs an open-ended
campaign; any divergent case is minimized by the shrinker and written
into the corpus directory for triage.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time

from repro.params import DEFAULT_PARAMS
from repro.verify.corpus import DEFAULT_CORPUS, load_corpus, save_case
from repro.verify.harness import CONFIGS, check_case, real_divergences
from repro.verify.runner import fuzz_run, summarize_run
from repro.verify.shrinker import shrink_case

#: Cases checked by ``--smoke``; sized so the gate stays inside a small
#: CI wall-clock budget while still crossing the 200-case floor.
SMOKE_CASES = 240
SMOKE_SEED = 20260806


def _print_divergences(results: list[dict], limit: int = 5) -> None:
    shown = 0
    for result in results:
        for div in real_divergences(result):
            if shown >= limit:
                print("  ...", file=sys.stderr)
                return
            print(f"  {result['name']} [{div['config']}] {div['kind']}: "
                  f"{div['detail']}", file=sys.stderr)
            shown += 1


def _replay_corpus(directory: str, ref_configs: int, jit: bool = False) -> int:
    pairs = load_corpus(directory)
    failures = 0
    for path, case in pairs:
        result = check_case(case, DEFAULT_PARAMS, ref_configs=ref_configs,
                            jit=jit)
        bad = result["divergences"]
        if bad:
            failures += 1
            print(f"FAIL corpus {path}:", file=sys.stderr)
            for div in bad:
                print(f"  [{div['config']}] {div['kind']}: {div['detail']}",
                      file=sys.stderr)
    print(f"corpus: {len(pairs)} cases replayed, {failures} failures")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="differential fuzzing of the pipelined PE models",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"run the CI gate (corpus replay + {SMOKE_CASES} fixed-seed "
             f"fuzz cases)",
    )
    parser.add_argument("--fuzz", type=int, default=0, metavar="N",
                        help="fuzz N generated cases")
    parser.add_argument("--seed", type=int, default=0,
                        help="first case seed (cases use seed..seed+N-1)")
    parser.add_argument(
        "--workers", type=int, default=None,
        help="campaign service workers; 1 runs serially in-process "
             "(default: REPRO_WORKERS, else one per CPU)",
    )
    parser.add_argument("--ref-configs", type=int, default=2,
                        help="configs per case that also run the reference "
                             "trigger walk")
    parser.add_argument("--jit", action="store_true",
                        help="additionally run every config on the "
                             "interpreter fast path, holding the compiled "
                             "default bit-identical to it")
    parser.add_argument("--corpus", default=DEFAULT_CORPUS,
                        help="corpus directory to replay / shrink into")
    parser.add_argument("--no-shrink", action="store_true",
                        help="report divergent cases without minimizing")
    args = parser.parse_args(argv)

    if not args.smoke and not args.fuzz:
        parser.error("nothing to do: pass --smoke and/or --fuzz N")

    count = SMOKE_CASES if args.smoke else args.fuzz
    seed = SMOKE_SEED if args.smoke else args.seed
    if args.smoke and args.fuzz:
        count = args.fuzz
        seed = args.seed

    started = time.monotonic()
    failures = 0
    suffix = " (+jit leg)" if args.jit else ""
    if args.smoke:
        print(f"[1/2] corpus replay ({args.corpus}){suffix}...")
        failures += _replay_corpus(args.corpus, args.ref_configs, jit=args.jit)
        print(f"\n[2/2] fuzz {count} cases, seed {seed}, "
              f"{len(CONFIGS)} configs each{suffix}...")
    else:
        print(f"fuzz {count} cases, seed {seed}, "
              f"{len(CONFIGS)} configs each{suffix}...")

    with contextlib.ExitStack() as stack:
        client = None
        if args.workers is not None:
            from repro.serve.client import InProcessClient
            from repro.serve.service import CampaignService

            client = InProcessClient(stack.enter_context(CampaignService(
                None, workers=args.workers, serial=args.workers <= 1,
            )))
        results = fuzz_run(count, seed=seed, ref_configs=args.ref_configs,
                           jit=args.jit, service=client)
    summary = summarize_run(results)
    elapsed = time.monotonic() - started
    print(f"checked {summary['cases']} cases / "
          f"{summary['configs_checked']} config runs in {elapsed:.1f}s")

    if summary["generator_bugs"]:
        failures += len(summary["generator_bugs"])
        print(f"FAIL: {len(summary['generator_bugs'])} generator-invalid "
              f"or never-halting cases: {summary['generator_bugs'][:5]}",
              file=sys.stderr)

    divergent = [r for r in results if real_divergences(r)]
    if divergent:
        failures += len(divergent)
        print(f"FAIL: {len(divergent)} divergent cases", file=sys.stderr)
        _print_divergences(divergent)
        if not args.no_shrink:
            from repro.verify.generator import generate_case
            for result in divergent:
                case = generate_case(result["seed"], DEFAULT_PARAMS)
                small = shrink_case(case, DEFAULT_PARAMS,
                                    ref_configs=args.ref_configs,
                                    jit=args.jit)
                path = save_case(small, args.corpus)
                print(f"  minimized repro written to {path}",
                      file=sys.stderr)

    if failures:
        print(f"\nverify gate FAILED ({failures} failures)", file=sys.stderr)
        return 1
    print("\nverify gate passed: zero divergences")
    return 0


if __name__ == "__main__":
    sys.exit(main())
