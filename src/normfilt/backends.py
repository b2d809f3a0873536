"""The ring class shared by the two supported kinds of rings: a presentation.

Both are monoid rings k[N^v x S]: the polynomial ring k[x_1..x_d] is the
case S = N with v = d - 1 (its last variable on the S-axis), and the
numerical semigroup ring k[[S]], optionally with variables adjoined, keeps
S on the last axis. Ideal arithmetic lives in `monomial` and reductions in
`analysis`; what is proved for regular rings keys on the ideal's semigroup
(S = N), so k[[t]][U] takes the polynomial ring's shortcuts. A ring names
its axes, builds ideals from exponent vectors, prints elements and
describes itself and its type's source.

Elements are exponent vectors in the order `axes`, the S-axis last:
(x_1..x_d), or (U, V, .., t) for a semigroup ring with adjoined U, V, ...;
they print in the order `shown`, t first.
"""

from __future__ import annotations

from functools import cached_property

from . import monomial as mono
from .errors import PreconditionError, UnsupportedDimension
from .newton import MAX_DIM
from .semigroup import NumericalSemigroup


def format_monomial(names, exps) -> str:
    parts = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e > 0]
    return "*".join(parts) if parts else "1"


class MonoidRing:
    """k[N^v x S] with its axes named in kernel order; kind ("polynomial" or
    "semigroup") only picks the description and the source of the type."""

    def __init__(self, kind: str, sg: NumericalSemigroup, names: tuple[str, ...],
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

    def ideal(self, vectors, box=None) -> mono.Ideal:
        return mono.ideal(self.sg, self.dim, vectors, box)

    def maximal(self) -> mono.Ideal:
        return self._maximal

    # one ideal per ring, built on first use
    _maximal = cached_property(lambda self: mono.maximal_ideal(self.sg, self.dim))

    def element_str(self, v) -> str:
        n = len(self.names)  # v rotated as `shown` rotates `axes`
        return format_monomial(self.shown, (*v[n:], *v[:n]))

    # --- ring invariants ----------------------------------------------------
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
    return MonoidRing("polynomial", NumericalSemigroup((1,)), names, names)


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
    return MonoidRing("semigroup", sg, names, names + ("t",))
