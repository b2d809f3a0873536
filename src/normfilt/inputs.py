"""The rings and the plain-text entry format, parsed straight into a ring and its ideals.

Both kinds of rings are monoid rings k[N^v x S]: k[x_1..x_d] is the case
S = N with v = d - 1, and the numerical semigroup ring k[[S]], optionally
with variables adjoined, keeps S on the last axis. Ideal arithmetic lives in
`monomial` and reductions in `analysis`; what is proved for regular rings
keys on the ideal's semigroup (S = N), so k[[t]][U] takes the polynomial
ring's shortcuts. Elements are exponent vectors in the order `axes`, the
S-axis last: (x_1..x_d), or (U, V, .., t) for a semigroup ring with adjoined
U, V, ...; they print in the order `shown`, t first.

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
Variable names are identifiers; counts and exponents are decimal digits.
Ideal and reduction generators are monomial tokens like x^2*y or t^4*U; they
may be separated by spaces or commas. `ideal maximal` selects the maximal
ideal, `reduction auto` (the default) asks for an automatic certificate.

`parse_input` builds the ring and each ideal at its own line, so the ring
rules live only in the ring constructors; what they reject becomes an
InputError at the line and column of its directive. Dimension limits raise
UnsupportedDimension, every other error an InputError with its line and
column. `build_entry` fills in the default name and the overrides.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from functools import cached_property
from typing import NamedTuple

from . import monomial as mono
from .errors import InputError, PreconditionError, UnsupportedDimension
from .newton import MAX_DIM

DEFAULT_POLY_NAMES = ("x", "y", "z", "w")
DIRECTIVES = ("name", "ring", "ideal", "reduction", "nmax", "checks")


def format_monomial(names, exps) -> str:
    parts = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e > 0]
    return "*".join(parts) if parts else "1"


class MonoidRing:
    """k[N^v x S] with its axes named in kernel order; kind ("polynomial" or
    "semigroup") only picks the description and the source of the type."""

    def __init__(self, kind: str, sg: mono.NumericalSemigroup, names: tuple[str, ...],
                 axes: tuple[str, ...]):
        self.kind, self.sg, self.names, self.axes = kind, sg, names, axes
        self.dim = len(axes)
        # the axes as elements print: t, the S-axis of a semigroup ring, first
        self.shown = axes[len(names):] + names

    def describe(self) -> str:
        if self.kind == "polynomial":
            return f"polynomial ring k[{','.join(self.names)}]"
        base = f"semigroup ring k[[t^{{{','.join(str(g) for g in self.sg.gens)}}}]]"
        return base + (f"[{','.join(self.names)}]" if self.names else "")

    def ideal(self, vectors) -> mono.Ideal:
        return mono.ideal(self.sg, self.dim, vectors)

    def maximal(self) -> mono.Ideal:
        return self._maximal

    # one ideal per ring, built on first use
    _maximal = cached_property(lambda self: mono.maximal_ideal(self.sg, self.dim))

    def element_str(self, v) -> str:
        n = len(self.names)  # v rotated as `shown` rotates `axes`
        return format_monomial(self.shown, (*v[n:], *v[:n]))

    @property
    def type_source(self) -> str:
        """Where the Cohen-Macaulay type `sg.type` comes from."""
        if self.kind == "polynomial":
            return "regular ring; the maximal ideal is generated by a regular sequence"
        return "pseudo-Frobenius count of the semigroup"


def PolynomialBackend(names) -> MonoidRing:
    """k[x_1..x_d]: the monoid ring of N^d, its last variable on the S-axis."""
    names = tuple(str(n) for n in names)
    if not 1 <= len(names) <= MAX_DIM:
        raise UnsupportedDimension(
            f"polynomial backend supports 1..{MAX_DIM} variables, got {len(names)}"
        )
    if len(set(names)) != len(names):
        raise PreconditionError("variable names must be distinct")
    return MonoidRing("polynomial", mono.NumericalSemigroup((1,)), names, names)


def SemigroupBackend(generators, adjoin: int = 0, names=None) -> MonoidRing:
    """k[[S]] for the numerical semigroup S = <generators>, with adjoin variables."""
    if adjoin < 0 or 1 + adjoin > MAX_DIM:
        raise UnsupportedDimension(
            f"semigroup backend supports 0..{MAX_DIM - 1} adjoined variables, got {adjoin}"
        )
    sg = mono.NumericalSemigroup(generators)
    if names is None:
        names = ("U", "V", "W")[:adjoin]
    names = tuple(str(n) for n in names)
    if len(names) != adjoin or len(set(names)) != adjoin or "t" in names:
        raise PreconditionError("adjoined variable names must be distinct and not 't'")
    return MonoidRing("semigroup", sg, names, names + ("t",))


class EntryData(NamedTuple):
    """One analysis request: a ring backend, an ideal, and run parameters."""

    name: str | None  # None until build_entry fills in the default
    backend: object
    ideal: object
    reduction: object = "auto"  # "auto" or a prebuilt ideal
    nmax: int | None = None
    tamper_normal: int | None = None
    checks: tuple[str, ...] | None = None


def _fail(msg, line_no, line, token=None, nth=0):
    """InputError at field nth (from 0) of line equal to token; fields end at spaces, commas, =."""
    found = [] if token is None else [
        *re.finditer(rf"(?<![^\s,=]){re.escape(token)}(?![^\s,=])", line)][nth:nth + 1]
    raise InputError(msg, line=line_no, column=found[0].start() + 1 if found else 1)


@contextmanager
def _located(line_no, line, token):
    """Report a constructor's PreconditionError at token; dimension limits pass."""
    try:
        yield
    except UnsupportedDimension:
        raise
    except PreconditionError as exc:
        _fail(f"invalid entry: {exc}", line_no, line, token)


def parse_monomial(token, names, line_no, line, shown=None):
    """Exponent vector over the axes `names` of a token like x, x^3 or t^4*U^2
    (1 = unit monomial); an unknown name is reported with the names in `shown`."""
    exps = [0] * len(names)
    if token == "1":
        return tuple(exps)
    for factor in token.split("*"):
        base, sep, exp = factor.partition("^")
        if base not in names:
            _fail(f"unknown variable {base!r} (expected one of {', '.join(shown or names)})",
                  line_no, line, token)
        if sep:
            if not exp.isdecimal() or int(exp) <= 0:
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
    if not parts or not all(p.isdecimal() for p in parts):
        _fail(f"{what} must be a comma-separated list of positive integers, got {value!r}",
              line_no, line, value)
    return tuple(int(p) for p in parts)


def _names(value, what, line_no, line):
    names = tuple(v for v in value.split(",") if v)
    if not names or not all(n.isidentifier() for n in names):
        _fail(f"{what} must list at least one name, each an identifier like x or U1, got {value!r}",
              line_no, line, value)
    return names


def _parse_ring(fields, line_no, line):
    if not fields:
        _fail("ring line needs a ring kind", line_no, line)
    kind, rest = fields[0], fields[1:]
    if kind == "polynomial":
        kv = _parse_kv(rest, ("dim", "vars"), line_no, line)
        if "vars" in kv:
            names = _names(kv["vars"], "vars", line_no, line)
            if "dim" in kv and (not kv["dim"].isdecimal() or int(kv["dim"]) != len(names)):
                _fail(f"dim={kv['dim']} disagrees with {len(names)} variable names",
                      line_no, line, kv["dim"])
        elif "dim" in kv:
            if not kv["dim"].isdecimal() or int(kv["dim"]) < 1:
                _fail("dim must be a positive integer", line_no, line, kv["dim"])
            d = int(kv["dim"])
            if d > len(DEFAULT_POLY_NAMES):
                raise UnsupportedDimension(
                    f"polynomial backend supports dimension 1..{len(DEFAULT_POLY_NAMES)}, got {d}"
                )
            names = DEFAULT_POLY_NAMES[:d]
        else:
            _fail("polynomial ring needs vars= or dim=", line_no, line)
        with _located(line_no, line, "ring"):
            return PolynomialBackend(names)
    if kind == "semigroup":
        kv = _parse_kv(rest, ("gens", "adjoin"), line_no, line)
        if "gens" not in kv:
            _fail("semigroup ring needs gens=", line_no, line)
        gens = _int_list(kv["gens"], "gens", line_no, line)
        adjoin = kv.get("adjoin", "")
        if adjoin.isdecimal():
            count, names = int(adjoin), None  # the backend's default names
        else:
            names = _names(adjoin, "adjoin", line_no, line) if adjoin else ()
            count = len(names)
        with _located(line_no, line, "ring"):
            return SemigroupBackend(gens, count, names)
    _fail(f"unknown ring kind {kind!r} (expected polynomial or semigroup)",
          line_no, line, kind)


def _check_ids(ids, line_no=None, line=""):
    """ids as a tuple; an unknown or repeated id fails at line_no (unplaced if None)."""
    from .theorems import CHECKS  # only an entry that names checks loads the checkers

    ids = tuple(ids)
    unknown = [c for c in ids if c not in CHECKS]
    if unknown:
        _fail(f"unknown check ids: {', '.join(unknown)} (known: {', '.join(CHECKS)})",
              line_no, line, unknown[0])
    repeated = [c for i, c in enumerate(ids) if c in ids[:i]]
    if repeated:
        _fail(f"duplicate check id {repeated[0]!r}", line_no, line, repeated[0], nth=1)
    return ids


def parse_input(text: str) -> EntryData:
    """Parse the entry format into a ring and its ideals; the name is None
    unless a `name` line gives one. Raises InputError with line/column."""
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
            seen["ring"] = ring
            continue
        if directive in ("ideal", "reduction"):
            if ring is None:
                _fail(f"{directive} line must come after the ring line", line_no, raw, directive)
            joined = " ".join(rest).replace(",", " ").split()
            if directive == "ideal" and joined == ["maximal"]:
                seen["ideal"] = ring.maximal()
            elif directive == "reduction" and joined == ["auto"]:
                seen["reduction"] = "auto"
            else:
                if not joined:
                    _fail(f"{directive} line needs at least one generator", line_no, raw)
                gens = [parse_monomial(tok, ring.axes, line_no, raw, ring.shown) for tok in joined]
                if not all(any(g) for g in gens):
                    _fail(f"{directive} generators must be non-units", line_no, raw)
                with _located(line_no, raw, directive):
                    seen[directive] = ring.ideal(gens)
            continue
        if directive == "nmax":
            value = rest[0] if len(rest) == 1 else ""
            if not value.isdecimal() or int(value) < 1:
                k = min(len(rest), 2)  # at the value, the second value, or the directive
                _fail("nmax needs one positive integer", line_no, raw, fields[k],
                      fields[:k].count(fields[k]))
            seen["nmax"] = int(value)
            continue
        if directive == "checks":
            ids = " ".join(rest).replace(",", " ").split()
            if not ids:
                _fail("checks line needs at least one check id", line_no, raw)
            seen["checks"] = _check_ids(ids, line_no, raw)
            continue
        if directive == "name":
            if not rest:
                _fail("name line needs a value", line_no, raw)
            seen["name"] = "_".join(rest)
    if ring is None:
        raise InputError("missing ring line", line=1, column=1)
    if "ideal" not in seen:
        raise InputError("missing ideal line", line=1, column=1)
    return EntryData(
        name=seen.get("name"),
        backend=ring,
        ideal=seen["ideal"],
        reduction=seen.get("reduction", "auto"),
        nmax=seen.get("nmax"),
        checks=seen.get("checks"),
    )


def build_entry(entry: EntryData, default_name: str = "entry", *,
                nmax: int | None = None, checks=None, tamper_normal=None) -> EntryData:
    """The parsed entry with its default name and the command-line overrides."""
    return entry._replace(
        name=entry.name or default_name,
        nmax=entry.nmax if nmax is None else nmax,
        checks=entry.checks if checks is None else _check_ids(checks),
        tamper_normal=entry.tamper_normal if tamper_normal is None else tamper_normal,
    )
