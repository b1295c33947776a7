"""``python -m repro check`` — the static-analysis command surface.

``check lint PATH... [--strict] [--rule RULE]``
    Run the repo-invariant AST linter.  Findings print one per line as
    ``path:line:col: [rule] message``; ``--strict`` exits 1 when any
    finding survives suppressions (the CI mode), otherwise findings are
    reported and the exit code stays 0.

``check proof CERT.json``
    Replay an UNSAT certificate: every theory lemma's negative-cycle
    witness is summed, every learned clause is checked by reverse unit
    propagation, and the proof must derive the empty clause.

``check model CERT.json``
    Evaluate a SAT certificate's model against every input clause.

``check units PATH... [--strict] [--json] [--rule RULE]``
    Time-unit dimensional analysis over ``_ns``/``_us``/``_ms``/``_s``/
    ``_ppb``/``_hz``/``_bps`` suffixes.  The pedantic ``unit-literal``
    rule is off unless selected with ``--rule``.  Findings honor
    ``# repro: units-ok[rule]`` suppressions; ``--json`` emits the
    machine-readable report.

Lock order is not a static check: :mod:`repro.check.locks` enforces it
on every acquire at runtime.
"""

from __future__ import annotations

import sys

from repro.check.lint import ALL_RULES, lint_paths
from repro.check.proof import CertificateError, verify_certificate
from repro.check.units_analysis import DEFAULT_RULES, UNITS_RULES, analyze_units
from repro.smt.proof import load_certificate


def add_check_parser(subparsers) -> None:
    """Attach the ``check`` subcommand to the top-level CLI parser."""
    check = subparsers.add_parser(
        "check", help="static analysis: repo lint and solver certificates"
    )
    check_sub = check.add_subparsers(dest="check_command", required=True)

    lint = check_sub.add_parser(
        "lint", help="run the repo-invariant AST linter"
    )
    lint.add_argument("paths", nargs="+",
                      help="python files or directory trees")
    lint.add_argument("--strict", action="store_true",
                      help="exit 1 on any finding (CI mode)")
    lint.add_argument("--rule", action="append", dest="rules",
                      choices=ALL_RULES, metavar="RULE",
                      help=f"restrict to specific rules "
                           f"(choices: {', '.join(ALL_RULES)})")

    proof = check_sub.add_parser(
        "proof", help="replay an UNSAT proof certificate"
    )
    proof.add_argument("certificate", help="certificate JSON file")

    model = check_sub.add_parser(
        "model", help="evaluate a SAT certificate's model"
    )
    model.add_argument("certificate", help="certificate JSON file")

    units = check_sub.add_parser(
        "units", help="time-unit dimensional analysis"
    )
    units.add_argument("paths", nargs="+",
                       help="python files or directory trees")
    units.add_argument("--strict", action="store_true",
                       help="exit 1 on any finding (CI mode)")
    units.add_argument("--json", action="store_true",
                       help="emit the full report as JSON")
    units.add_argument("--rule", action="append", dest="rules",
                       choices=UNITS_RULES, metavar="RULE",
                       help=f"restrict to specific rules "
                            f"(choices: {', '.join(UNITS_RULES)}; default "
                            f"{', '.join(DEFAULT_RULES)})")


def run_check(args) -> int:
    if args.check_command == "lint":
        return _run_lint(args)
    if args.check_command == "proof":
        return _run_certificate(args, expect="unsat")
    if args.check_command == "model":
        return _run_certificate(args, expect="sat")
    if args.check_command == "units":
        return _run_units(args)
    raise SystemExit(f"unknown check command {args.check_command!r}")


def _run_units(args) -> int:
    rules = tuple(args.rules) if args.rules else DEFAULT_RULES
    try:
        report = analyze_units(args.paths, rules=rules)
    except (OSError, SyntaxError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(report.to_json())
    else:
        for finding in report.findings:
            print(finding.render())
        print(
            f"{len(report.findings)} findings "
            f"({report.functions_analyzed} functions, rules: "
            f"{', '.join(report.rules)})",
            file=sys.stderr,
        )
    return 1 if args.strict and report.findings else 0


def _run_lint(args) -> int:
    try:
        findings = lint_paths(args.paths, rules=args.rules)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for finding in findings:
        print(finding.render())
    if findings:
        noun = "finding" if len(findings) == 1 else "findings"
        print(f"{len(findings)} {noun}", file=sys.stderr)
        return 1 if args.strict else 0
    return 0


def _run_certificate(args, expect: str) -> int:
    try:
        certificate = load_certificate(args.certificate)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot load certificate: {exc}", file=sys.stderr)
        return 2
    if certificate.status != expect:
        print(
            f"error: certificate status is {certificate.status!r}; "
            f"this command checks {expect!r} certificates",
            file=sys.stderr,
        )
        return 2
    try:
        checked = verify_certificate(certificate)
    except CertificateError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    unit = "proof steps replayed" if expect == "unsat" else "clauses evaluated"
    print(
        f"OK: {certificate.status} certificate verified "
        f"({checked} {unit}, {len(certificate.cnf)} input clauses, "
        f"{len(certificate.atoms)} atoms)"
    )
    return 0
