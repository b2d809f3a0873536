"""Command-line interface.

Subcommands: table, coeffs, sally, check (one entry file each) and corpus
(a directory of .nfilt files, defaulting to the bundled corpus). Exit codes:
0 all good, 1 a statement was refuted, 2 parse/validation error, 3 a
mathematical precondition failed, 4 the computation horizon was too small.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import inputs, reports
from .errors import HorizonError, InputError, PreconditionError
from .theorems import CHECKS, analyze, run_checks

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_HORIZON = 4

# exit code and message label of each error class a command reports
FAILURES = {
    InputError: (EXIT_INPUT, "input"),
    HorizonError: (EXIT_HORIZON, "horizon"),
    PreconditionError: (EXIT_PRECONDITION, "precondition"),
}


def _failure(exc) -> tuple[int, str]:
    return next(v for cls, v in FAILURES.items() if isinstance(exc, cls))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normfilt",
        description="exact tables, coefficients and statement checks for "
        "integral-closure filtrations of monomial and semigroup-ring ideals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_checks=False):
        p.add_argument("--nmax", type=int, default=None,
                       help="table horizon (default: max(dim + 5, dim + window) "
                       "with the fit window dim + 2)")
        p.add_argument("--format", choices=("json", "csv", "md"), default="json",
                       dest="fmt", help="output format (default: json)")
        if with_checks:
            p.add_argument("--checks", default=None,
                           help="comma-separated check ids (default: all); "
                           "known ids: " + ", ".join(CHECKS))

    for name, help_text in (
        ("table", "print the exact colength tables"),
        ("coeffs", "print the fitted Hilbert coefficients and certificates"),
        ("sally", "print the Sally-module lengths and coefficients"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="entry file (.nfilt format)")
        common(p)

    p = sub.add_parser("check", help="run statement checkers on one entry")
    p.add_argument("file", help="entry file (.nfilt format)")
    common(p, with_checks=True)
    p.add_argument("--tamper-normal", type=int, default=None, metavar="INDEX",
                   help="add 1 to the normal colength table at INDEX "
                   "(negative-path testing; exits 1 only if a checker refutes)")

    p = sub.add_parser("corpus", help="run statement checkers over a corpus directory")
    p.add_argument("directory", nargs="?", default=None,
                   help="directory of .nfilt files (default: bundled corpus)")
    common(p, with_checks=True)
    return parser


def _split_checks(arg):
    if arg is None:
        return None
    ids = tuple(t for t in arg.replace(",", " ").split())
    if not ids:
        raise InputError("--checks needs at least one check id")
    return ids


def _load_entry(path, *, nmax, checks, tamper_normal=None):
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return inputs.build_entry(
        inputs.parse_input(text), default_name=Path(path.name).stem, nmax=nmax,
        checks=checks, tamper_normal=tamper_normal,
    )


def _corpus_files(directory):
    root = Path(__file__).parent / "corpus" if directory is None else Path(directory)
    if not root.is_dir():
        raise InputError(f"corpus directory {root} does not exist")
    return sorted(root.glob("*.nfilt"))


def _verdicts_code(verdicts) -> int:
    return EXIT_REFUTED if any(v.is_refutation for v in verdicts) else EXIT_OK


def _run(args) -> int:
    checks = _split_checks(getattr(args, "checks", None))
    if args.command == "corpus":
        entries = []
        exit_code = EXIT_OK
        for f in _corpus_files(args.directory):
            try:
                analysis = analyze(_load_entry(f, nmax=args.nmax, checks=checks))
                verdicts = run_checks(analysis)
                payload = reports.check_payload(analysis, verdicts)
                code = _verdicts_code(verdicts)
            except tuple(FAILURES) as exc:
                code = _failure(exc)[0]
                payload = reports.error_record(code, exc)
            entries.append((f.name, payload))
            exit_code = max(exit_code, code)
        sys.stdout.write(reports.render(reports.corpus_payload(entries), args.fmt))
        return exit_code

    entry = _load_entry(
        Path(args.file), nmax=args.nmax, checks=checks,
        tamper_normal=getattr(args, "tamper_normal", None),
    )
    analysis = analyze(entry)
    if args.command == "table":
        payload = reports.table_payload(analysis)
    elif args.command == "coeffs":
        payload = reports.coeffs_payload(analysis)
    elif args.command == "sally":
        payload = reports.sally_payload(analysis)
    else:
        verdicts = run_checks(analysis)
        payload = reports.check_payload(analysis, verdicts)
        sys.stdout.write(reports.render(payload, args.fmt))
        return _verdicts_code(verdicts)
    sys.stdout.write(reports.render(payload, args.fmt))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except tuple(FAILURES) as exc:
        code, label = _failure(exc)
        print(f"normfilt: {label} error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
