"""Plain-text entry format: parsing, canonical printing, and entry building.

An entry file looks like:

    # optional comments and blank lines
    name cubes
    ring polynomial vars=x,y,z
    ideal x^3 y^3 z^3
    reduction auto
    nmax 8

The ring line must precede the ideal and reduction lines. Supported rings:
  ring polynomial vars=x,y,z        (or dim=3 for default names x,y,z,w)
  ring semigroup gens=4,5,11 adjoin=U,V   (or adjoin=2 for default names)
Ideal and reduction generators are monomial tokens like x^2*y or t^4; they
may be separated by spaces or commas. `ideal maximal` selects the maximal
ideal, `reduction auto` (the default) asks for an automatic certificate.
Parse and validation problems raise InputError with line/column positions;
dimension limits propagate as precondition errors.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import backends
from .errors import InputError, PreconditionError, UnsupportedDimension
from .theorems import CHECKS, EntryData

DEFAULT_POLY_NAMES = ("x", "y", "z", "w")
DEFAULT_ADJOIN_NAMES = ("U", "V", "W")
DIRECTIVES = ("name", "ring", "ideal", "reduction", "nmax", "window", "checks")


@dataclass(frozen=True)
class ParsedEntry:
    kind: str  # "polynomial" | "semigroup"
    names: tuple[str, ...]  # variable names (adjoined names for semigroup)
    sg_gens: tuple[int, ...] | None
    ideal_gens: object  # "maximal" | tuple of exponent tuples
    reduction: object = "auto"  # "auto" | tuple of exponent tuples
    name: str | None = None
    nmax: int | None = None
    window: int | None = None
    checks: tuple[str, ...] | None = None


def _fail(msg, line_no, line, token=None):
    column = 1
    if token is not None:
        pos = line.find(token)
        column = pos + 1 if pos >= 0 else 1
    raise InputError(msg, line=line_no, column=column)


def parse_monomial(token, names, line_no, line):
    """Exponent vector of a token like x, x^3, or t^4*U^2 (1 = unit monomial)."""
    exps = [0] * len(names)
    if token == "1":
        return tuple(exps)
    for factor in token.split("*"):
        base, sep, exp = factor.partition("^")
        if base not in names:
            _fail(f"unknown variable {base!r} (expected one of {', '.join(names)})",
                  line_no, line, token)
        if sep:
            if not exp.isdigit() or int(exp) <= 0:
                _fail(f"exponent in {factor!r} must be a positive integer", line_no, line, token)
            exps[names.index(base)] += int(exp)
        else:
            exps[names.index(base)] += 1
    return tuple(exps)


def _parse_kv(fields, allowed, line_no, line):
    out = {}
    for f in fields:
        key, sep, value = f.partition("=")
        if not sep or key not in allowed:
            _fail(f"expected key=value with key in {{{', '.join(allowed)}}}, got {f!r}",
                  line_no, line, f)
        if key in out:
            _fail(f"duplicate key {key!r}", line_no, line, f)
        out[key] = value
    return out


def _int_list(value, what, line_no, line):
    parts = [p for p in value.split(",") if p]
    if not parts or not all(p.isdigit() for p in parts):
        _fail(f"{what} must be a comma-separated list of positive integers, got {value!r}",
              line_no, line, value)
    return tuple(int(p) for p in parts)


def _parse_ring(fields, line_no, line):
    if not fields:
        _fail("ring line needs a ring kind", line_no, line)
    kind, rest = fields[0], fields[1:]
    if kind == "polynomial":
        kv = _parse_kv(rest, ("dim", "vars"), line_no, line)
        if "vars" in kv:
            names = tuple(v for v in kv["vars"].split(",") if v)
            if not names or len(set(names)) != len(names):
                _fail("vars must be distinct names", line_no, line, kv["vars"])
            if "dim" in kv and (not kv["dim"].isdigit() or int(kv["dim"]) != len(names)):
                _fail(f"dim={kv['dim']} disagrees with {len(names)} variable names",
                      line_no, line, kv["dim"])
        elif "dim" in kv:
            if not kv["dim"].isdigit() or int(kv["dim"]) < 1:
                _fail("dim must be a positive integer", line_no, line, kv["dim"])
            d = int(kv["dim"])
            if d > len(DEFAULT_POLY_NAMES):
                raise UnsupportedDimension(
                    f"polynomial backend supports dimension 1..{len(DEFAULT_POLY_NAMES)}, got {d}"
                )
            names = DEFAULT_POLY_NAMES[:d]
        else:
            _fail("polynomial ring needs vars= or dim=", line_no, line)
        return "polynomial", names, None
    if kind == "semigroup":
        kv = _parse_kv(rest, ("gens", "adjoin"), line_no, line)
        if "gens" not in kv:
            _fail("semigroup ring needs gens=", line_no, line)
        gens = _int_list(kv["gens"], "gens", line_no, line)
        adjoin = kv.get("adjoin", "")
        if not adjoin:
            names = ()
        elif adjoin.isdigit():
            v = int(adjoin)
            if v > len(DEFAULT_ADJOIN_NAMES):
                raise UnsupportedDimension(
                    f"semigroup backend supports 0..{len(DEFAULT_ADJOIN_NAMES)} adjoined "
                    f"variables, got {v}"
                )
            names = DEFAULT_ADJOIN_NAMES[:v]
        else:
            names = tuple(v for v in adjoin.split(",") if v)
            if not names or len(set(names)) != len(names) or "t" in names:
                _fail("adjoin must be a count or distinct names other than t",
                      line_no, line, adjoin)
        return "semigroup", names, gens
    _fail(f"unknown ring kind {kind!r} (expected polynomial or semigroup)",
          line_no, line, kind)


def parse_input(text: str) -> ParsedEntry:
    """Parse the entry format; raises InputError with line/column on bad input."""
    seen = {}
    ring = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        directive, rest = fields[0], fields[1:]
        if directive not in DIRECTIVES:
            _fail(f"unknown directive {directive!r} (expected one of {', '.join(DIRECTIVES)})",
                  line_no, raw, directive)
        if directive in seen:
            _fail(f"duplicate directive {directive!r}", line_no, raw, directive)
        if directive == "ring":
            ring = _parse_ring(rest, line_no, raw)
            seen["ring"] = True
            continue
        if directive in ("ideal", "reduction"):
            if ring is None:
                _fail(f"{directive} line must come after the ring line", line_no, raw, directive)
            kind, names, sg_gens = ring
            all_names = names if kind == "polynomial" else ("t",) + names
            joined = " ".join(rest).replace(",", " ").split()
            if directive == "ideal" and joined == ["maximal"]:
                seen["ideal"] = "maximal"
            elif directive == "reduction" and joined == ["auto"]:
                seen["reduction"] = "auto"
            else:
                if not joined:
                    _fail(f"{directive} line needs at least one generator", line_no, raw)
                gens = tuple(sorted(
                    parse_monomial(tok, all_names, line_no, raw) for tok in joined
                ))
                if any(all(e == 0 for e in g) for g in gens):
                    _fail(f"{directive} generators must be non-units", line_no, raw)
                seen[directive] = gens
            continue
        if directive in ("nmax", "window"):
            value = rest[0] if len(rest) == 1 else ""
            if not value.isdigit() or int(value) < 1:
                _fail(f"{directive} needs one positive integer", line_no, raw)
            seen[directive] = int(value)
            continue
        if directive == "checks":
            ids = tuple(t for t in " ".join(rest).replace(",", " ").split())
            if not ids:
                _fail("checks line needs at least one check id", line_no, raw)
            seen["checks"] = ids
            continue
        if directive == "name":
            if not rest:
                _fail("name line needs a value", line_no, raw)
            seen["name"] = "_".join(rest)
    if ring is None:
        raise InputError("missing ring line", line=1, column=1)
    if "ideal" not in seen:
        raise InputError("missing ideal line", line=1, column=1)
    kind, names, sg_gens = ring
    return ParsedEntry(
        kind=kind,
        names=names,
        sg_gens=sg_gens,
        ideal_gens=seen["ideal"],
        reduction=seen.get("reduction", "auto"),
        name=seen.get("name"),
        nmax=seen.get("nmax"),
        window=seen.get("window"),
        checks=seen.get("checks"),
    )


def _to_backend_gens(kind, gens):
    """Entry files write t first; ring elements keep the S-axis last."""
    if kind == "polynomial":
        return gens
    return tuple(g[1:] + g[:1] for g in gens)


def build_entry(parsed: ParsedEntry, default_name: str = "entry", *,
                nmax: int | None = None, checks=None, tamper_normal=None) -> EntryData:
    """Construct the backend and ideals for one parsed entry."""
    try:
        if parsed.kind == "polynomial":
            backend = backends.PolynomialBackend(parsed.names)
        else:
            backend = backends.SemigroupBackend(
                parsed.sg_gens, adjoin=len(parsed.names), names=parsed.names
            )
        if parsed.ideal_gens == "maximal":
            ideal = backend.maximal()
        else:
            ideal = backend.ideal(_to_backend_gens(parsed.kind, parsed.ideal_gens))
        if parsed.reduction == "auto":
            reduction = "auto"
        else:
            reduction = backend.ideal(_to_backend_gens(parsed.kind, parsed.reduction))
    except UnsupportedDimension:
        raise
    except PreconditionError as exc:
        raise InputError(f"invalid entry: {exc}", line=1, column=1) from exc
    entry_checks = checks if checks is not None else parsed.checks
    if entry_checks is not None:
        unknown = [c for c in entry_checks if c not in CHECKS]
        if unknown:
            raise InputError(
                f"unknown check ids: {', '.join(unknown)} "
                f"(known: {', '.join(CHECKS)})",
                line=1, column=1,
            )
        entry_checks = tuple(entry_checks)
    return EntryData(
        name=parsed.name or default_name,
        backend=backend,
        ideal=ideal,
        reduction=reduction,
        nmax=nmax if nmax is not None else parsed.nmax,
        window=parsed.window,
        tamper_normal=tamper_normal,
        checks=entry_checks,
    )
