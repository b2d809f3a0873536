"""Command-line interface, parsed from the COMMANDS and OPTIONS tables below.

Subcommands: table, coeffs, sally, check (one entry file each) and corpus
(a directory of .nfilt files, defaulting to the bundled corpus). Exit codes:
0 all good, 1 a statement was refuted, 2 parse/validation error, 3 a
mathematical precondition failed, 4 the computation horizon was too small.
"""

from __future__ import annotations

import sys
from pathlib import Path

from . import inputs, reports
from .analysis import analyze
from .errors import HorizonError, InputError, PreconditionError

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


SYNOPSIS = """\
normfilt table  FILE [--nmax N] [--format json|csv|md]
normfilt coeffs FILE [--nmax N] [--format json|csv|md]
normfilt sally  FILE [--nmax N] [--format json|csv|md]
normfilt check  FILE [--nmax N] [--format ...] [--checks LIST] [--tamper-normal INDEX]
normfilt corpus [DIR] [--nmax N] [--format ...] [--checks LIST]
"""


def _format(value):
    if value not in ("json", "csv", "md"):
        raise InputError(f"--format must be json, csv or md, got {value!r}")
    return value


def _checks(value):
    ids = tuple(value.replace(",", " ").split())
    if not ids:
        raise InputError("--checks needs at least one check id")
    return ids


# option -> (keyword of _run, converter); a converter's ValueError means "not an integer"
OPTIONS = {
    "--nmax": ("nmax", int),
    "--format": ("fmt", _format),
    "--checks": ("checks", _checks),
    "--tamper-normal": ("tamper_normal", int),
}
# command -> (whether its path is required, the options it takes)
COMMON = ("--nmax", "--format")
COMMANDS = {"table": (True, COMMON), "coeffs": (True, COMMON), "sally": (True, COMMON),
            "check": (True, (*COMMON, "--checks", "--tamper-normal")),
            "corpus": (False, (*COMMON, "--checks"))}


def _help(command) -> str:
    """The synopsis, and for check and corpus each check id with its description."""
    if command not in ("check", "corpus"):
        return SYNOPSIS
    from .theorems import CHECKS

    ids = "".join(f"  {check}: {description}\n" for check, (_, description) in CHECKS.items())
    return f"{SYNOPSIS}\ncheck ids for --checks LIST (comma-separated; default: all):\n{ids}"


def _parse(argv):
    """(command, path or None, keyword options of _run) of a command line;
    an option takes its value as `--opt value` or `--opt=value`."""
    command, rest = (argv[0], argv[1:]) if argv else (None, [])
    if command not in COMMANDS:
        raise InputError(f"expected a command ({', '.join(COMMANDS)}) or --help, got "
                         + ("nothing" if command is None else repr(command)))
    path_required, allowed = COMMANDS[command]
    paths, opts, tokens = [], {}, iter(rest)
    for token in tokens:
        if not token.startswith("-") or token == "-":
            paths.append(token)
            continue
        option, eq, value = token.partition("=")
        if option not in allowed:
            raise InputError(f"{command} has no option {option}")
        if not eq and (value := next(tokens, None)) is None:
            raise InputError(f"{option} needs a value")
        key, convert = OPTIONS[option]
        try:
            opts[key] = convert(value)
        except ValueError:
            raise InputError(f"{option} needs an integer, got {value!r}") from None
    if len(paths) > 1 or path_required and not paths:
        raise InputError(f"{command} takes {'one FILE' if path_required else 'at most one DIR'}, "
                         f"got {len(paths)} paths")
    return command, paths[0] if paths else None, opts


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


def _run(command, path, nmax=None, fmt="json", checks=None, tamper_normal=None) -> int:
    if command == "corpus":
        from .theorems import run_checks

        entries = []
        exit_code = EXIT_OK
        for f in _corpus_files(path):
            try:
                analysis = analyze(_load_entry(f, nmax=nmax, checks=checks))
                verdicts = run_checks(analysis)
                payload = reports.check_payload(analysis, verdicts)
                code = _verdicts_code(verdicts)
            except tuple(FAILURES) as exc:
                code = _failure(exc)[0]
                payload = reports.error_record(code, exc)
            entries.append((f.name, payload))
            exit_code = max(exit_code, code)
        sys.stdout.write(reports.render(reports.corpus_payload(entries), fmt))
        return exit_code

    entry = _load_entry(Path(path), nmax=nmax, checks=checks, tamper_normal=tamper_normal)
    analysis = analyze(entry)
    if command != "check":
        sys.stdout.write(reports.render(getattr(reports, f"{command}_payload")(analysis), fmt))
        return EXIT_OK
    from .theorems import run_checks

    verdicts = run_checks(analysis)
    sys.stdout.write(reports.render(reports.check_payload(analysis, verdicts), fmt))
    return _verdicts_code(verdicts)


def main(argv=None) -> int:
    """Run one command line (default: sys.argv[1:]) and return its exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(_help(argv[0]))
        return EXIT_OK
    try:
        command, path, opts = _parse(argv)
        return _run(command, path, **opts)
    except tuple(FAILURES) as exc:
        code, label = _failure(exc)
        print(f"normfilt: {label} error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
