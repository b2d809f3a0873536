"""Exact arithmetic on monomial ideals of the monoid rings k[N^v x S].

Both ring classes are such monoid rings: k[x_1..x_d] is the case S = N with
v = d - 1 free axes, and k[[S]][x_1..x_v] puts a numerical semigroup S on
the last axis. A monomial is an exponent vector (b_1..b_v, s) with s in S,
and an ideal is a set of monomials closed under adding monoid elements.

An ideal is stored as a Python-int bitset over the box [0, cap] in row-major
order, the S-axis varying fastest. The top slice along each axis stands for
every point beyond it. Each ideal also carries `need`, a box past which its
membership is known to be constant along every axis, so that every cap >=
need holds the same ideal. For an ideal built from generators, need is their
extent plus the conductor on the S-axis; a product adds the shift to it, and
an intersection takes the larger need of its operands. Every box holds
need plus the largest atom (a generator of the monoid) along each axis, so
an ideal finds its minimal generators on its own box. The cap may be larger:
each reader of an `analysis.Analysis` lays the ideals it multiplies on one
box, large enough for every term it reads, so that its operands share a cap
and no operand is laid onto a larger one.

Containment and equality are bitwise on the common cap. An ideal
reaches a larger box only through `lay`, which generates it there from its
minimal generators. A product is the union of the shifts of the factor with
the larger need by the minimal generators of the other, or the other way round
when only that fits on the shifted factor's box, which must hold need plus the
shift plus the largest atom, else it grows: no result depends on the box
chosen. The socle length of a counts the points outside a that every atom
moves into a; they lie below a's need, so they are counted on a's own box and
(a : m) is never built. A colength is a popcount, finite exactly when no
counted point lies in a top slice. The colengths of the integral closures of
powers are counted row by row along the S-axis against the halfspaces of the
Newton polyhedron (`Ideal.closure_counts`), as every halfspace of an m-primary
ideal has a positive S-coefficient; no closure power is built.

S is a cofinite additive submonoid of the nonnegative integers, and k[[S]]
is a one-dimensional complete local domain whose normalization is k[[t]];
S = N gives k[[t]] itself. A `NumericalSemigroup` holds the membership bits
of S below its conductor c (every s >= c lies in S), its gaps, its minimal
generators, the least of which is the multiplicity e, and its pseudo-Frobenius
numbers, the gaps x (with -1 for S = N) such that x + g lies in S for every
generator g; their count is the type of k[[S]].
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import gcd, prod
from operator import add, mul

from .errors import DimensionMismatch, InfiniteLength, PreconditionError
from .newton import (Exponent, NewtonPolyhedron, closure_count, hilbert_values, multiplicity,
                     newton_polyhedron)


class NumericalSemigroup:
    """Additive submonoid of the nonnegative integers with finite complement."""

    def __init__(self, generators):
        gens = sorted(set(int(g) for g in generators))
        if not gens or gens[0] <= 0:
            raise PreconditionError("semigroup generators must be positive integers")
        if gcd(*gens) != 1:
            raise PreconditionError(
                f"semigroup generators {tuple(gens)} must have greatest common divisor 1"
            )
        a1 = gens[0]
        # membership up to the first run of a1 members, which starts at the
        # conductor; gcd 1 makes S cofinite, so the run exists
        member, run = [1], 1
        while run < a1:
            i = len(member)
            member.append(1 if any(i >= g and member[i - g] for g in gens) else 0)
            run = run + 1 if member[-1] else 0
        conductor = len(member) - a1
        self.multiplicity = a1
        self.conductor = conductor
        # bit s set exactly for the members s of S below the conductor
        self.member_bits = sum(1 << i for i in range(conductor) if member[i])
        self.gaps = tuple(i for i in range(conductor) if not member[i])
        # a given generator is minimal unless it is a smaller one plus a nonzero member
        self.gens = tuple(g for g in gens if not any(h < g and g - h in self for h in gens))
        # F(N) = -1 is the only pseudo-Frobenius number below zero: a1 - 1 is a
        # gap whenever a1 > 1, so scanning from -1 adds it for N alone
        self.pseudo_frobenius = tuple(
            x for x in (-1,) + self.gaps if all(x + g in self for g in self.gens)
        )
        self.type = len(self.pseudo_frobenius)

    def __contains__(self, n: int) -> bool:
        return n >= self.conductor or (n >= 0 and bool(self.member_bits >> n & 1))

    @cached_property
    def tangent_cone_failure(self) -> tuple[int, int] | None:
        """(n, s), the least degree n and then the least s with t^s in m^n ∩ (t^e)
        outside t^e·m^(n-1), m the maximal ideal of k[[S]]: the first failure of
        the Valabrega-Valla test; None when G(m) is Cohen-Macaulay. t^s lies in
        m^n iff ord(s) >= n, ord(s) the most generators summing to s. Only n <=
        e - 1 can fail: t^e·m^n ⊆ m^(n+1) and lambda(m^n/t^e·m^n) = e, so HF(n) =
        lambda(m^n/m^(n+1)) <= e, with equality iff m^(n+1) = t^e·m^n; as mu(m^e)
        = HF(e) <= e, Eakin-Sathaye (J. Algebra 41, 1976) give m^e = x·m^(e-1)
        for a reduction x of m, so HF(e - 1) = e, and m^n = t^e·m^(n-1) ⊆ (t^e)
        for n >= e. At degree n only s <= e + (n - 2)·max(gens) can fail: x =
        s - e, a sum of ord(x) <= n - 2 generators, is at most ord(x)·max(gens)."""
        e, top = self.multiplicity, self.gens[-1]
        order = [0]  # order[s] = ord(s), and -1 off S
        for s in range(1, e + (e - 3) * top + 1):
            order.append(max([order[s - g] + 1 for g in self.gens if s - g in self] or [-1]))
        return next(((n, s) for n in range(1, e) for s in range(e, e + (n - 2) * top + 1)
                     if order[s] >= n and 0 <= order[s - e] < n - 1), None)

    def __eq__(self, other):
        return isinstance(other, NumericalSemigroup) and self.gens == other.gens

    def __hash__(self):
        return hash(self.gens)

    def __repr__(self):
        return f"NumericalSemigroup{self.gens}"


class Ideal:
    """A monomial ideal: membership bits over the box [0, cap] of its monoid,
    valid on every box that contains [0, need]."""

    def __init__(self, sg: NumericalSemigroup, cap: tuple[int, ...], bits: int,
                 need: tuple[int, ...]):
        self.sg, self.cap, self.bits, self.need = sg, cap, bits, need

    def __eq__(self, other) -> bool:
        return isinstance(other, Ideal) and equal(self, other)

    @cached_property
    def gens(self) -> tuple[Exponent, ...]:
        """Minimal generators in lexicographic order: the points outside m*I,
        found on the ideal's own box, which holds need plus every atom."""
        x = self.bits
        return _points(x & ~_shift_union(x, self.cap, _atoms(self.sg, len(self.cap))), self.cap)

    @cached_property
    def hull(self) -> NewtonPolyhedron:
        """Newton polyhedron of the generators, computed once per ideal."""
        return newton_polyhedron(self.gens)

    @cached_property
    def _counts(self) -> list[int]:
        return [0]  # H(0): no point lies outside 0*NP

    def closure_counts(self, upto: int) -> list[int]:
        """The colength of closure(a^k) for k = 0..upto, each counted at most
        once per ideal by `newton.closure_count`. For S = N it is H(k), a
        polynomial of degree d, so past d it follows from H(0..d)."""
        h, top = self._counts, (upto if self.sg.gaps else len(self.cap))
        while len(h) <= min(upto, top):
            h.append(closure_count(self.hull, len(h), self.sg.gaps))
        return hilbert_values(h, upto) if upto > top else h[:upto + 1]

    @cached_property
    def e0(self) -> int:
        """Multiplicity e_0, computed once per ideal."""
        return multiplicity(self.hull)


def _check_vector(v, dim: int) -> Exponent:
    v = tuple(int(x) for x in v)
    if len(v) != dim:
        raise DimensionMismatch(f"exponent vector {v} does not have length {dim}")
    if any(x < 0 for x in v):
        raise PreconditionError(f"negative exponent in {v}")
    return v


def _check_same(a: Ideal, b: Ideal):
    if len(a.cap) != len(b.cap) or a.sg != b.sg:
        raise DimensionMismatch(f"ideals live in different rings ({len(a.cap)} and {len(b.cap)} axes)")


# --- boxes --------------------------------------------------------------------

@lru_cache(maxsize=64)
def _grid(cap: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The widths of the box [0, cap] and its row-major strides."""
    widths = tuple(c + 1 for c in cap)
    strides = [1] * len(widths)
    for i in range(len(widths) - 2, -1, -1):
        strides[i] = strides[i + 1] * widths[i + 1]
    return widths, tuple(strides)


def _repeat(pattern: int, period: int, count: int) -> int:
    """count copies of pattern, period bits apart."""
    done = 1
    while done < count:
        step = min(done, count - done)
        pattern |= pattern << (step * period)
        done += step
    return pattern


@lru_cache(maxsize=256)
def _slab(widths: tuple[int, ...], axis: int, lo: int, hi: int) -> int:
    """Mask of the points whose coordinate along axis lies in [lo, hi); the
    masks of a reader's box are built once."""
    inner = prod(widths[axis + 1:])
    block = ((1 << ((hi - lo) * inner)) - 1) << (lo * inner)
    return _repeat(block, widths[axis] * inner, prod(widths[:axis]))


@lru_cache(maxsize=64)
def _monoid(sg: NumericalSemigroup, cap: tuple[int, ...]) -> int:
    """Mask of the monoid points of the box; its top S-slice lies in S."""
    width = cap[-1] + 1
    row = (sg.member_bits | -(1 << sg.conductor)) & ((1 << width) - 1)
    return _repeat(row, width, prod(c + 1 for c in cap[:-1]))


def _shift_union(bits: int, cap, vectors) -> int:
    """Union of the shifts of bits by each vector, within the box [0, cap].

    The box must hold the shifts: bits is valid on [0, cap - v] for every v,
    so points pushed past the cap repeat what the top slice already gets.
    """
    widths, strides = _grid(cap)
    out = 0
    for v in vectors:
        x = bits
        for axis in range(1, len(v)):  # axis 0 overflows past the box end
            if v[axis]:
                x &= _slab(widths, axis, 0, widths[axis] - v[axis])
        out |= x << sum(map(mul, v, strides))
    return out & _slab(widths, 0, 0, widths[0])


def _points(bits: int, cap) -> tuple[Exponent, ...]:
    """The points whose bits are set, in index (lexicographic) order."""
    strides = _grid(cap)[1]
    text = format(bits, "b")  # scanned from the right: bit k is text[top - k]
    top = len(text) - 1
    out = []
    i = text.rfind("1")
    while i >= 0:
        rest, point = top - i, []
        for s in strides:
            q, rest = divmod(rest, s)
            point.append(q)
        out.append(tuple(point))
        i = text.rfind("1", 0, i)
    return tuple(out)


def _room(a: Ideal, shift) -> tuple[int, ...]:
    """A box for a shifted by up to shift along each axis: `_on` of need +
    shift, so the result finds its generators in place, grown to contain a's box."""
    return _on(tuple(map(add, a.need, shift)), a.sg, a.cap)


def _extent(vectors) -> tuple[int, ...]:
    """The largest entry of the vectors along each axis."""
    return tuple(map(max, zip(*vectors)))


def lay(a: Ideal, box) -> Ideal:
    """a on the box [0, max(cap, box)]: a itself when box fits in its own,
    else a generated there from its minimal generators, which it hands over,
    with its need kept. This is the one way an ideal reaches a larger box."""
    cap = tuple(map(max, a.cap, box))
    if cap == a.cap:
        return a
    out = Ideal(a.sg, cap, _shift_union(_monoid(a.sg, cap), cap, a.gens), a.need)
    out.gens = a.gens
    return out


def power_box(a: Ideal, n: int) -> tuple[int, ...]:
    """A box for the terms of degree up to n built from a and a reduction of
    it: `_on` of n times a's generator extent, plus the conductor on the
    S-axis, which closure(a^n), a^n and J·closure(a^(n-1)) need at most."""
    c = a.sg.conductor
    return _on(tuple(n * e for e in a.need[:-1]) + (n * (a.need[-1] - c) + c,), a.sg)


def _joint(a: Ideal, b: Ideal):
    _check_same(a, b)
    cap = tuple(map(max, a.cap, b.cap))
    return cap, lay(a, cap).bits, lay(b, cap).bits


def _atoms(sg: NumericalSemigroup, dim: int) -> list[Exponent]:
    """Generators of the monoid: the free unit vectors and the semigroup generators."""
    units = [tuple(int(j == i) for j in range(dim)) for i in range(dim - 1)]
    return units + [(0,) * (dim - 1) + (g,) for g in sg.gens]


# --- construction ---------------------------------------------------------------

def _on(need: tuple[int, ...], sg: NumericalSemigroup, box=None) -> tuple[int, ...]:
    """The cap need plus the largest atom (1, .., 1, the largest generator of
    S), the least box on which an ideal finds its generators; given a target
    box, the larger of the two along each axis."""
    cap = tuple(map(add, need, (1,) * (len(need) - 1) + (sg.gens[-1],)))
    return cap if box is None else tuple(map(max, cap, box))


def ideal(sg: NumericalSemigroup, dim: int, vectors, box=None) -> Ideal:
    """The ideal generated by the monomials with the given exponent vectors,
    on its natural box `_on(need)` or, given box, on the larger of the two."""
    vectors = [_check_vector(v, dim) for v in vectors]
    for v in vectors:
        if v[-1] not in sg:
            raise PreconditionError(f"valuation {v[-1]} is not in the semigroup")
    need = tuple(max((v[i] for v in vectors), default=0) for i in range(dim))
    need = need[:-1] + (need[-1] + sg.conductor,)
    cap = _on(need, sg, box)
    return Ideal(sg, cap, _shift_union(_monoid(sg, cap), cap, vectors), need)


def maximal_ideal(sg: NumericalSemigroup, dim: int) -> Ideal:
    return ideal(sg, dim, _atoms(sg, dim))


# --- arithmetic -------------------------------------------------------------------

def equal(a: Ideal, b: Ideal) -> bool:
    _, x, y = _joint(a, b)
    return x == y


def ideal_contains(a: Ideal, b: Ideal) -> bool:
    """Whether b is a subideal of a."""
    _, x, y = _joint(a, b)
    return not y & ~x


def multiply(a: Ideal, b: Ideal) -> Ideal:
    """The product: a shifted by each generator of b, the factor with the
    smaller need, whose generators are the cheaper to find, unless only the
    other order stays on its factor's box."""
    _check_same(a, b)
    if prod(n + 1 for n in b.need) > prod(n + 1 for n in a.need):
        a, b = b, a
    if not b.bits:
        return b
    shift = _extent(b.gens)
    cap = _room(a, shift)
    if a.bits and cap != a.cap and _room(b, other := _extent(a.gens)) == b.cap:
        a, b, shift, cap = b, a, other, b.cap
    x = _shift_union(lay(a, cap).bits, cap, b.gens)
    return Ideal(a.sg, cap, x, tuple(map(add, a.need, shift)))


def _finite_count(diff: int, cap) -> int:
    """The number of points in diff, which must miss every top slice of the box."""
    widths = _grid(cap)[0]
    if any(diff & _slab(widths, axis, w - 1, w) for axis, w in enumerate(widths)):
        raise InfiniteLength("quotient has infinite length: the difference reaches a top slice")
    return diff.bit_count()


def colength(b: Ideal) -> int:
    """Length of R/b: the monoid points of b's box outside b."""
    return _finite_count(_monoid(b.sg, b.cap) & ~b.bits, b.cap)


def socle_length(a: Ideal) -> int:
    """Length of (a : m)/a: the monoid points outside a that every atom moves
    into a. Such a point p lies below need along every axis, as at or past
    need p and p plus an atom along that axis agree. So p plus any atom stays
    on a's own box, which holds need plus the largest atom: nothing is built."""
    widths, strides = _grid(a.cap)
    out = _monoid(a.sg, a.cap) & ~a.bits
    for axis, top in enumerate(a.need):
        out &= _slab(widths, axis, 0, top)
    for g in _atoms(a.sg, len(a.cap)):
        out &= a.bits >> sum(map(mul, g, strides))
    return out.bit_count()


# --- membership and shape -----------------------------------------------------------

def is_m_primary(a: Ideal) -> bool:
    """Proper and containing a pure power along every axis: the point at the
    cap of each axis, which stands for every point beyond it."""
    strides = _grid(a.cap)[1]
    return not a.bits & 1 and all(a.bits >> c * s & 1 for c, s in zip(a.cap, strides))

