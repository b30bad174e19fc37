"""Command-line front end for the CDSS static analyzer.

Lints network specs and datalog programs without running anything::

    python -m repro.lint network.spec rules.dl
    python -m repro.lint specs/ --json
    python -m repro.lint --figure2

``.dl``/``.datalog`` files are parsed as datalog programs (with
``validate=False`` so every problem is reported, not just the first) and run
through the program analyses: safety (``CDSS001``), stratifiability
(``CDSS002``) and arity consistency (``CDSS004``).  Everything else is treated as a network spec and gets the
full network analysis on top: chase termination (``CDSS003``), schema and
mapping structure (``CDSS004``–``CDSS007``), topology (``CDSS008``/``009``),
and trust lints (``CDSS010``–``012``).

Directories are walked recursively for ``*.spec``, ``*.dl`` and
``*.datalog`` files.  Exit status is 1 when any file has an error-severity
diagnostic (or, with ``--strict``, any warning), 2 on usage errors, and 0
otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .analysis.diagnostics import DiagnosticReport

PROGRAM_SUFFIXES = (".dl", ".datalog")
SPEC_SUFFIXES = (".spec",)
LINTABLE_SUFFIXES = PROGRAM_SUFFIXES + SPEC_SUFFIXES

FIGURE2_SOURCE = "<FIGURE2_SPEC>"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Static analysis for CDSS network specs and datalog programs.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="spec/program files, or directories to walk for *.spec, *.dl, *.datalog",
    )
    parser.add_argument(
        "--figure2",
        action="store_true",
        help="also lint the built-in Figure 2 bioinformatics spec",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit one JSON object with per-file diagnostics instead of text",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as fatal (exit 1 on any warning)",
    )
    return parser


def lint_program_text(text: str, source: str) -> DiagnosticReport:
    """Lint datalog program text, downgrading parse failures to CDSS014."""
    from .analysis import analyze_program
    from .analysis import codes
    from .analysis.diagnostics import message_of
    from .datalog.parser import parse_program
    from .errors import ReproError

    try:
        program = parse_program(text, validate=False)
    except ReproError as error:
        report = DiagnosticReport()
        report.add(
            getattr(error, "code", None) or codes.MALFORMED_SPEC,
            message_of(error),
            span=getattr(error, "span", None),
        )
        return report.with_source(source)
    return analyze_program(program, source=source)


def lint_spec_text(text: str, source: str) -> DiagnosticReport:
    """Lint network-spec text (full network analysis)."""
    from .analysis import analyze_network_spec

    return analyze_network_spec(text, source_name=source)


def lint_path(path: Path) -> DiagnosticReport:
    """Lint one file, choosing the analysis by suffix."""
    text = path.read_text(encoding="utf-8")
    if path.suffix in PROGRAM_SUFFIXES:
        return lint_program_text(text, str(path))
    return lint_spec_text(text, str(path))


def collect_targets(paths: Sequence[Path]) -> Tuple[List[Path], List[str]]:
    """Expand files and directories into lintable files, reporting misses."""
    targets: List[Path] = []
    problems: List[str] = []
    for path in paths:
        if path.is_dir():
            found = sorted(
                candidate
                for candidate in path.rglob("*")
                if candidate.is_file() and candidate.suffix in LINTABLE_SUFFIXES
            )
            if not found:
                problems.append(f"{path}: no *.spec, *.dl or *.datalog files found")
            targets.extend(found)
        elif path.is_file():
            targets.append(path)
        else:
            problems.append(f"{path}: no such file or directory")
    return targets, problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.paths and not args.figure2:
        parser.error("nothing to lint: pass at least one path or --figure2")

    targets, problems = collect_targets(args.paths)
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        return 2

    reports: List[Tuple[str, DiagnosticReport]] = []
    for path in targets:
        reports.append((str(path), lint_path(path)))
    if args.figure2:
        from .workloads.bioinformatics import FIGURE2_SPEC

        reports.append((FIGURE2_SOURCE, lint_spec_text(FIGURE2_SPEC, FIGURE2_SOURCE)))

    errors = sum(len(report.errors()) for _, report in reports)
    warnings = sum(len(report.warnings()) for _, report in reports)

    if args.as_json:
        payload = {
            "files": {source: report.to_dict() for source, report in reports},
            "errors": errors,
            "warnings": warnings,
            "ok": errors == 0 and (warnings == 0 or not args.strict),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for _source, report in reports:
            for diagnostic in report:
                print(diagnostic.render())
        checked = len(reports)
        summary = f"{checked} file(s) checked: {errors} error(s), {warnings} warning(s)"
        print(summary)

    if errors:
        return 1
    if warnings and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
