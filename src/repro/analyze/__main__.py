"""Command-line front end: ``python -m repro.analyze``.

Modes (combinable; findings are concatenated):

* positional ``file.s`` arguments — assemble and lint each program;
* ``--workloads [NAME ...]`` — build the named Table 3 workloads (all
  ten when no names are given) and run the full program + fabric
  analysis over each system;
* ``--corpus DIR`` — cross-validate analyzer reachability against a
  golden-model run for every saved fuzz case in a corpus directory;
* ``--fuzz N`` — generate ``N`` fresh cases (``--seed`` selects the
  stream) and cross-validate each the same way;
* ``--perf`` — static CPI/throughput bounds and the performance finding
  rules per workload worker (``--perf --smoke`` runs the CI validation
  gate: measured CPI must fall inside the static bounds on three
  workloads across all 48 configs);
* ``--smoke`` — the CI battery: all workloads plus a small fuzz sweep,
  failing on any warning-or-worse finding.

``--format`` selects text, JSON, or SARIF output; ``--fail-on`` sets
the severity at which findings flip the exit status (default
``warning``, so speculation-window notes never fail a build).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analyze.crossval import stream_tag_sets, unreachable_retirements
from repro.analyze.fabric import analyze_system
from repro.analyze.findings import (
    Finding,
    Severity,
    fails_build,
    render_json,
    render_sarif,
    render_text,
)
from repro.analyze.lints import analyze_program
from repro.asm.assembler import assemble_file
from repro.errors import ReproError
from repro.params import DEFAULT_PARAMS


def _workload_findings(names: list[str]) -> list[Finding]:
    from repro.workloads.suite import WORKLOADS, get_workload

    findings = []
    for name in names or WORKLOADS():
        workload = get_workload(name)
        system = workload.build(workload.default_pe_factory(),
                                workload.default_scale, seed=0)
        for finding in analyze_system(system, workload.params):
            findings.append(Finding(
                rule=finding.rule, severity=finding.severity,
                message=finding.message,
                pe=f"{name}/{finding.pe}" if finding.pe else name,
                slot=finding.slot, line=finding.line, column=finding.column,
                snippet=finding.snippet,
            ))
    return findings


def _case_findings(case: dict) -> list[Finding]:
    """Cross-validate one fuzz case.

    Generated programs are not linted (the generator explores
    odd-but-legal shapes); a retirement from an analyzer-unreachable
    slot is always an error — it falsifies either the interpreter or
    the scheduler.
    """
    from repro.arch import FunctionalPE
    from repro.asm.assembler import assemble
    from repro.verify.generator import case_source, case_streams
    from repro.verify.harness import GOLDEN_WATCHDOG, _run_model

    name = case.get("name", "case")
    try:
        program = assemble(case_source(case), DEFAULT_PARAMS, name=name)
    except ReproError:
        # Shrinker reductions can leave dangling states; not analyzable.
        return []
    findings = []
    streams = case_streams(case)
    pe = FunctionalPE(DEFAULT_PARAMS, name=name)
    program.configure(pe)
    if _run_model(pe, streams, GOLDEN_WATCHDOG) is None:
        return findings          # generator bug, not an analyzer claim
    tag_sets = stream_tag_sets(streams, DEFAULT_PARAMS.num_input_queues)
    for problem in unreachable_retirements(program, pe.counters,
                                           DEFAULT_PARAMS, tag_sets):
        findings.append(Finding(
            rule="crossval-unreachable-retire", severity=Severity.ERROR,
            message=problem, pe=name,
        ))
    return findings


def _corpus_findings(directory: str) -> list[Finding]:
    findings = []
    paths = sorted(Path(directory).glob("*.json"))
    if not paths:
        raise ReproError(f"no corpus cases (*.json) under {directory!r}")
    for path in paths:
        case = json.loads(path.read_text())
        findings += _case_findings(case)
    return findings


def _fuzz_findings(count: int, seed: int) -> list[Finding]:
    from repro.verify.generator import generate_case

    findings = []
    for index in range(count):
        findings += _case_findings(generate_case(seed + index))
    return findings


def _report_findings(report, subject: str) -> list[Finding]:
    """Fold one CheckReport into findings (problems only; proofs are
    silent so ``--fail-on note`` still passes on a fully proved run)."""
    findings = []
    if report.verdict == "diverged":
        for verdict in report.divergences:
            findings.append(Finding(
                rule="check-divergence", severity=Severity.ERROR,
                message=f"{verdict.config}: {verdict.detail} "
                        f"[witness: {verdict.witness.cycles()} cycles, "
                        f"capacity {report.bounds.queue_capacity}]",
                pe=subject,
            ))
    elif report.verdict in ("inconclusive", "not-checkable"):
        findings.append(Finding(
            rule=f"check-{report.verdict}", severity=Severity.NOTE,
            message=report.detail or "state budget exhausted", pe=subject,
        ))
    elif report.verdict in ("golden-nondet", "golden-stuck"):
        findings.append(Finding(
            rule=f"check-{report.verdict}", severity=Severity.WARNING,
            message=report.detail, pe=subject,
        ))
    return findings


#: The --perf --smoke battery: three workloads with distinct binding
#: mechanisms (predicate loop, streaming channel chain, long +P loop
#: body) x all 48 configs, simulated at a scale that keeps the gate
#: under the CI job's 30-second budget.
_PERF_SMOKE_WORKLOADS = ["gcd", "stream", "udiv"]
_PERF_SMOKE_SCALE = 8


def _perf_findings(args) -> list[Finding]:
    """The ``--perf`` mode: static CPI bounds and their finding rules.

    Plain ``--perf`` reports the three performance rules per workload
    worker (bounds summary on stderr, findings through the ordinary
    emitters); ``--perf --smoke`` instead runs the validation gate —
    simulate (workload x config) pairs and emit a
    ``perf-bound-violated`` error for any measured CPI outside the
    static bounds.
    """
    from repro.analyze.perf import bracket_check, workload_analyzer
    from repro.pipeline.config import all_configs
    from repro.workloads.suite import WORKLOADS

    findings: list[Finding] = []
    if args.smoke:
        names = args.workloads or _PERF_SMOKE_WORKLOADS
        rows, violations = bracket_check(
            workloads=names, scale=_PERF_SMOKE_SCALE, seed=args.seed)
        bracketed = sum(1 for row in rows if row["bracketed"])
        print(f"perf: {bracketed}/{len(rows)} (workload, config) pairs "
              f"bracketed by static bounds", file=sys.stderr)
        return findings + violations

    configs = all_configs(include_padded=True)
    for name in args.workloads or WORKLOADS():
        analyzer, worker = workload_analyzer(name)
        bounds = [analyzer.bounds(worker, config) for config in configs]
        lows = [b.lower for b in bounds]
        ups = [b.upper for b in bounds]
        print(f"perf: {name}/{worker}: static CPI lower "
              f"{min(lows):.2f}-{max(lows):.2f}, upper "
              f"{min(ups):.2f}-{max(ups):.2f} over {len(configs)} configs",
              file=sys.stderr)
        findings += analyzer.findings(worker, configs)
    return findings


def _check_findings(args) -> list[Finding]:
    """The ``--check`` mode: bounded equivalence proofs + the
    bidirectional checker-vs-fuzzer cross-validation gate."""
    from repro.analyze.check import (
        CheckBounds,
        check_case,
        check_program,
        checkable_workloads,
    )
    from repro.analyze.crossval import crossval_case
    from repro.verify.generator import generate_case

    bounds = CheckBounds(queue_capacity=args.check_depth,
                         max_states=args.check_states)
    findings: list[Finding] = []

    wanted = args.workloads
    if args.smoke:
        wanted = ["gcd", "stream"]      # the sub-minute CI pair
    if wanted is not None:
        available = {name: (program, streams, params)
                     for name, program, streams, params
                     in checkable_workloads()}
        names = list(available) if not wanted else wanted
        for name in names:
            if name not in available:
                findings.append(Finding(
                    rule="check-not-checkable", severity=Severity.NOTE,
                    message=f"workload {name!r} has no bounded checker "
                            f"instance (available: {sorted(available)})",
                    pe=name,
                ))
                continue
            program, streams, params = available[name]
            report = check_program(program, streams, params,
                                   bounds=bounds, name=name)
            print(f"check: workload {name}: {report.verdict} "
                  f"({report.states_total} states)", file=sys.stderr)
            findings += _report_findings(report, f"workload/{name}")

    corpus_cases: list[dict] = []
    if args.corpus:
        paths = sorted(Path(args.corpus).glob("*.json"))
        if not paths:
            raise ReproError(f"no corpus cases (*.json) under "
                             f"{args.corpus!r}")
        corpus_cases = [json.loads(path.read_text()) for path in paths]
    for case in corpus_cases:
        name = case.get("name", "case")
        report = check_case(case, DEFAULT_PARAMS, bounds=bounds)
        print(f"check: corpus {name}: {report.verdict} "
              f"({report.states_total} states)", file=sys.stderr)
        findings += _report_findings(report, f"corpus/{name}")

    for index in range(args.fuzz):
        case = generate_case(args.seed + index)
        report = check_case(case, DEFAULT_PARAMS, bounds=bounds)
        print(f"check: fuzz {case['name']}: {report.verdict} "
              f"({report.states_total} states)", file=sys.stderr)
        findings += _report_findings(report, f"fuzz/{case['name']}")

    # Cross-validation gate: fuzzer and checker must agree on the
    # corpus (one case suffices for the smoke battery's time budget —
    # the full matrix runs in the test suite).
    gate_cases = corpus_cases[:1] if args.smoke else corpus_cases
    for case in gate_cases:
        verdict = crossval_case(case, DEFAULT_PARAMS, bounds=bounds)
        for problem in verdict["problems"]:
            findings.append(Finding(
                rule="check-crossval", severity=Severity.ERROR,
                message=problem, pe=f"corpus/{case.get('name')}",
            ))
    return findings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analyze",
        description="Static analyzer for triggered-assembly programs.",
    )
    parser.add_argument("files", nargs="*", metavar="file.s",
                        help="assembly sources to lint")
    parser.add_argument("--workloads", nargs="*", metavar="NAME",
                        default=None,
                        help="analyze built workload systems "
                             "(all ten when no names given)")
    parser.add_argument("--corpus", metavar="DIR",
                        help="cross-validate saved fuzz cases")
    parser.add_argument("--fuzz", type=int, metavar="N", default=0,
                        help="generate and cross-validate N fresh cases")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed for --fuzz (default 0)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI battery: all workloads + 25 fuzz cases "
                             "(with --check: corpus + gcd + stream proofs)")
    parser.add_argument("--check", action="store_true",
                        help="run the bounded equivalence checker instead "
                             "of the lint/crossval pass")
    parser.add_argument("--perf", action="store_true",
                        help="static CPI/throughput bounds per workload "
                             "(with --smoke: validate bounds bracket the "
                             "simulator on 3 workloads x 48 configs)")
    parser.add_argument("--check-depth", type=int, default=2,
                        metavar="CAP",
                        help="queue capacity bound for --check (default 2)")
    parser.add_argument("--check-states", type=int, default=20_000,
                        metavar="N",
                        help="state budget per exploration for --check "
                             "(default 20000)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text")
    parser.add_argument("--fail-on", default="warning",
                        choices=("error", "warning", "note", "never"),
                        help="severity that flips the exit status "
                             "(default: warning)")
    args = parser.parse_args(argv)

    if args.check and args.perf:
        parser.error("--check and --perf are separate modes; pick one")
    if args.smoke:
        if args.check or args.perf:
            if args.check and not args.corpus:
                args.corpus = "tests/corpus"
        else:
            if args.workloads is None:
                args.workloads = []
            if not args.fuzz:
                args.fuzz = 25
    if (not args.files and args.workloads is None and not args.corpus
            and not args.fuzz and not args.perf):
        parser.error("nothing to analyze: give files, --workloads, "
                     "--corpus, --fuzz, or --perf")

    findings: list[Finding] = []
    try:
        if args.check:
            if args.files:
                parser.error("--check works on --workloads/--corpus/"
                             "--fuzz, not assembly files")
            findings += _check_findings(args)
        elif args.perf:
            if args.files or args.corpus or args.fuzz:
                parser.error("--perf works on --workloads (Table 3 "
                             "systems), not files/--corpus/--fuzz")
            findings += _perf_findings(args)
        else:
            for path in args.files:
                program = assemble_file(path)
                findings += analyze_program(
                    program, DEFAULT_PARAMS,
                    pe=program.name or Path(path).name)
            if args.workloads is not None:
                findings += _workload_findings(args.workloads)
            if args.corpus:
                findings += _corpus_findings(args.corpus)
            if args.fuzz:
                findings += _fuzz_findings(args.fuzz, args.seed)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    renderer = {"text": render_text, "json": render_json,
                "sarif": render_sarif}[args.format]
    print(renderer(findings))

    return 1 if fails_build(findings, args.fail_on) else 0


if __name__ == "__main__":
    sys.exit(main())
