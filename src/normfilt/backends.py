"""The ring class shared by the two supported kinds of rings.

Both are monoid rings k[N^v x S]: the polynomial ring k[x_1..x_d] is the
case S = N with v = d - 1 (its last variable on the S-axis), and the
numerical semigroup ring k[[S]], optionally with variables adjoined, keeps
S on the last axis. Ideal arithmetic lives in `monomial`, so the filtration
engine and the statement checkers never branch on the ring class. A ring
adds only what depends on it: its description, how elements print, the
source of its Cohen-Macaulay type, and the coefficient ring of dimension one.

Elements are exponent vectors with the S-axis last: (x_1..x_d) for the
polynomial ring, (U, V, .., s) for a semigroup ring with adjoined U, V, ...
"""

from __future__ import annotations

from functools import cached_property

from . import monomial as mono
from .errors import NotMPrimary, PreconditionError, UnsupportedDimension
from .newton import MAX_DIM
from .semigroup import NumericalSemigroup


def format_monomial(names, exps) -> str:
    parts = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e > 0]
    return "*".join(parts) if parts else "1"


class MonoidRing:
    """k[N^v x S] with named variables; kind is "polynomial" or "semigroup"."""

    def __init__(self, kind: str, sg: NumericalSemigroup, names: tuple[str, ...]):
        self.kind = kind
        self.sg = sg
        self.names = names
        self.dim = len(names) if kind == "polynomial" else 1 + len(names)

    def describe(self) -> str:
        if self.kind == "polynomial":
            return f"polynomial ring k[{','.join(self.names)}]"
        base = f"semigroup ring k[[t^{{{','.join(str(g) for g in self.sg.gens)}}}]]"
        return base + (f"[{','.join(self.names)}]" if self.names else "")

    def ideal(self, vectors, box=None) -> mono.Ideal:
        return mono.ideal(self.sg, self.dim, vectors, box)

    def maximal(self) -> mono.Ideal:
        return self._maximal

    # one ideal per ring, built on first use
    _maximal = cached_property(lambda self: mono.maximal_ideal(self.sg, self.dim))

    def element_str(self, v) -> str:
        if self.kind == "polynomial":
            return format_monomial(self.names, v)
        t_part = f"t^{v[-1]}" if v[-1] else ""
        x_part = format_monomial(self.names, v[:-1])
        if t_part and x_part != "1":
            return f"{t_part}*{x_part}"
        return t_part or x_part

    # --- reductions ---------------------------------------------------------
    def auto_reduction(self, a) -> mono.Ideal | None:
        """The least pure power along each axis, when it is a reduction of a;
        built on a's box."""
        if not mono.is_m_primary(a):
            raise NotMPrimary("automatic reduction requires an m-primary ideal")
        exps = mono.pure_power_exponents(a)
        j = self.ideal([tuple(e * (k == i) for k in range(self.dim)) for i, e in enumerate(exps)],
                       a.cap)
        # j ⊆ a by construction, so j is a reduction iff NP(j) = NP(a)
        return j if mono.ideal_contains(mono.closure_power(j, 1, a.cap), a) else None

    def certify(self, a, j) -> mono.Ideal:
        """j, once it is one pure power of each variable with j ⊆ a ⊆ closure(j)."""
        supports = sorted(tuple(i for i, x in enumerate(g) if x) for g in j.gens)
        if supports != [(i,) for i in range(self.dim)]:
            raise PreconditionError("reduction must be generated by one pure power of each variable")
        if not mono.ideal_contains(a, j):
            raise PreconditionError("the given reduction ideal is not contained in the input ideal")
        if not mono.ideal_contains(mono.closure_power(j, 1, a.cap), a):  # e0 is computed only here
            raise PreconditionError(f"the given ideal is not a reduction: multiplicity {j.e0} != {a.e0}")
        return j

    # --- ring invariants ----------------------------------------------------
    @property
    def type_source(self) -> str:
        """Where the Cohen-Macaulay type `sg.type` comes from."""
        if self.kind == "polynomial":
            return "regular ring; the maximal ideal is generated by a regular sequence"
        return "pseudo-Frobenius count of the semigroup"

    def base_ring(self) -> "MonoidRing":
        """k[[S]] itself, the coefficient ring with no variables adjoined."""
        return MonoidRing("semigroup", self.sg, ())


def PolynomialBackend(names) -> MonoidRing:
    """k[x_1..x_d]: the monoid ring of N^d, its last variable on the S-axis."""
    names = tuple(str(n) for n in names)
    if not 1 <= len(names) <= MAX_DIM:
        raise UnsupportedDimension(
            f"polynomial backend supports 1..{MAX_DIM} variables, got {len(names)}"
        )
    if len(set(names)) != len(names):
        raise PreconditionError("variable names must be distinct")
    return MonoidRing("polynomial", NumericalSemigroup((1,)), names)


def SemigroupBackend(generators, adjoin: int = 0, names=None) -> MonoidRing:
    """k[[S]] for the numerical semigroup S = <generators>, with adjoin variables."""
    if adjoin < 0 or 1 + adjoin > MAX_DIM:
        raise UnsupportedDimension(
            f"semigroup backend supports 0..{MAX_DIM - 1} adjoined variables, got {adjoin}"
        )
    sg = NumericalSemigroup(generators)
    if names is None:
        names = ("U", "V", "W")[:adjoin]
    names = tuple(str(n) for n in names)
    if len(names) != adjoin or len(set(names)) != adjoin or "t" in names:
        raise PreconditionError("adjoined variable names must be distinct and not 't'")
    return MonoidRing("semigroup", sg, names)
