"""Exact arithmetic on monomial ideals of the monoid rings k[N^v x S].

Both ring classes are such monoid rings: k[x_1..x_d] is the case S = N with
v = d - 1 free axes, and k[[S]][x_1..x_v] puts a numerical semigroup S on
the last axis. A monomial is an exponent vector (b_1..b_v, s) with s in S,
and an ideal is a set of monomials closed under adding monoid elements.

An ideal is stored as a Python-int bitset over the box [0, cap] in row-major
order, the S-axis varying fastest. The top slice along each axis stands for
every point beyond it, so a box is valid for an ideal when membership stays
constant past the cap along every axis. Boxes are not canonical, and they
only grow: operations first lay their operands onto a common box, each axis
that grows repeating its top slice. Sum, intersection, containment and
equality are bitwise; a product is the union of the shifts of one factor by
the minimal generators of the other; a colon intersects shifts back on the
grown box and refills it past the dividend's cap from the dividend's top
slices, instead of cutting back to that cap; a colength is a popcount,
finite exactly when no counted point lies in a top slice. Integral closures
of powers are cut out row by row along the S-axis by the halfspaces of the
Newton polyhedron, as every halfspace of an m-primary ideal has a positive
S-coefficient.
"""

from __future__ import annotations

from functools import cached_property
from math import prod

from .errors import DimensionMismatch, InfiniteLength, PreconditionError
from .newton import (Exponent, NewtonPolyhedron, closure_count, hilbert_values, least_pure_powers,
                     multiplicity, newton_polyhedron, row_cuts)
from .semigroup import NumericalSemigroup


class Ideal:
    """A monomial ideal: membership bits over the box [0, cap] of its monoid."""

    def __init__(self, sg: NumericalSemigroup, cap: tuple[int, ...], bits: int):
        self.sg, self.cap, self.bits = sg, cap, bits

    def __eq__(self, other) -> bool:
        return isinstance(other, Ideal) and equal(self, other)

    @cached_property
    def gens(self) -> tuple[Exponent, ...]:
        """Minimal generators in lexicographic order: the points outside m*I."""
        atoms = _atoms(self.sg, len(self.cap))
        cap = tuple(c + max(a[i] for a in atoms) for i, c in enumerate(self.cap))
        x = _reshape(self.bits, self.cap, cap)
        return _points(x & ~_shift_union(x, cap, atoms), cap)

    @cached_property
    def hull(self) -> NewtonPolyhedron:
        """Newton polyhedron of the generators, computed once per ideal."""
        return newton_polyhedron(self.gens)

    @cached_property
    def _counts(self) -> list[int]:
        return [0]  # H(0): no point lies outside 0*NP

    def closure_counts(self, upto: int) -> list[int]:
        """H(k) of `newton.closure_count` for k = 0..upto; for S = N, H(k) is
        the colength of closure(a^k). Each H(k) with k <= d is counted at most
        once per ideal, and past d the values follow from H(0..d)."""
        h, d = self._counts, len(self.cap)
        while len(h) <= min(upto, d):
            h.append(closure_count(self.hull, len(h)))
        return hilbert_values(h, upto) if upto > d else h[:upto + 1]

    @cached_property
    def e0(self) -> int:
        """Multiplicity e_0 from the counts H(0..d), computed once per ideal."""
        return multiplicity(self.hull, self.closure_counts(len(self.cap)))


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

def _strides(widths) -> list[int]:
    out = [1] * len(widths)
    for i in range(len(widths) - 2, -1, -1):
        out[i] = out[i + 1] * widths[i + 1]
    return out


def _repeat(pattern: int, period: int, count: int) -> int:
    """count copies of pattern, period bits apart."""
    done = 1
    while done < count:
        step = min(done, count - done)
        pattern |= pattern << (step * period)
        done += step
    return pattern


def _slab(widths, axis: int, lo: int, hi: int) -> int:
    """Mask of the points whose coordinate along axis lies in [lo, hi)."""
    inner = prod(widths[axis + 1:])
    block = ((1 << ((hi - lo) * inner)) - 1) << (lo * inner)
    return _repeat(block, widths[axis] * inner, prod(widths[:axis]))


def _monoid(sg: NumericalSemigroup, cap) -> int:
    """Mask of the monoid points of the box; its top S-slice lies in S."""
    width = cap[-1] + 1
    row = (sg.member_bits | -(1 << sg.conductor)) & ((1 << width) - 1)
    return _repeat(row, width, prod(c + 1 for c in cap[:-1]))


def _fill(bits: int, widths, axis: int, top: int) -> int:
    """Copy slice top along axis into the empty slices above it (at least one)."""
    inner = prod(widths[axis + 1:])
    upper = bits & _slab(widths, axis, top, top + 1)
    return bits | _repeat(upper, inner, widths[axis] - 1 - top) << inner


def _reshape(bits: int, old, new) -> int:
    """Lay bits from the box [0, old] onto the box [0, new] >= old: an axis
    that grows repeats its top slice.

    Along a growing axis, block q of the outer axes moves from q*w*inner to
    q*width*inner, one bit of q per masked move, the highest bit first: the
    blocks whose bit is set form the upper half of each group of blocks that
    agree above it, and move by that bit times the growth.
    """
    if old == new or not bits:
        return bits
    widths = [c + 1 for c in old]
    for axis, width in enumerate(c + 1 for c in new):
        w = widths[axis]
        if w == width:
            continue
        outer, inner = prod(widths[:axis]), prod(widths[axis + 1:])
        for b in reversed(range((outer - 1).bit_length())):
            half = (1 << b) * w * inner  # the old span of half a group
            groups = -(-outer >> (b + 1))
            mask = _repeat(((1 << half) - 1) << half, (2 << b) * width * inner, groups)
            moved = bits & mask
            bits ^= moved ^ moved << (1 << b) * (width - w) * inner
        widths[axis] = width
        bits = _fill(bits, widths, axis, w - 1)
    return bits


def _shift_union(bits: int, cap, vectors) -> int:
    """Union of the shifts of bits by each vector, within the box [0, cap].

    The box must hold the shifts: bits is valid on [0, cap - v] for every v,
    so points pushed past the cap repeat what the top slice already gets.
    """
    widths = [c + 1 for c in cap]
    strides = _strides(widths)
    masks: dict[tuple[int, int], int] = {}
    out = 0
    for v in vectors:
        x = bits
        for axis in range(1, len(v)):  # axis 0 overflows past the box end
            if v[axis]:
                key = (axis, v[axis])
                if key not in masks:
                    masks[key] = _slab(widths, axis, 0, widths[axis] - v[axis])
                x &= masks[key]
        out |= x << sum(c * s for c, s in zip(v, strides))
    return out & ((1 << prod(widths)) - 1)


def _points(bits: int, cap) -> tuple[Exponent, ...]:
    """The points whose bits are set, in index (lexicographic) order."""
    strides = _strides([c + 1 for c in cap])
    text = format(bits, "b")[::-1]
    out = []
    i = text.find("1")
    while i >= 0:
        rest, point = i, []
        for s in strides:
            q, rest = divmod(rest, s)
            point.append(q)
        out.append(tuple(point))
        i = text.find("1", i + 1)
    return tuple(out)


def _joint(a: Ideal, b: Ideal):
    _check_same(a, b)
    cap = tuple(map(max, a.cap, b.cap))
    return cap, _reshape(a.bits, a.cap, cap), _reshape(b.bits, b.cap, cap)


def _atoms(sg: NumericalSemigroup, dim: int) -> list[Exponent]:
    """Generators of the monoid: the free unit vectors and the semigroup generators."""
    units = [tuple(int(j == i) for j in range(dim)) for i in range(dim - 1)]
    return units + [(0,) * (dim - 1) + (g,) for g in sg.gens]


# --- construction ---------------------------------------------------------------

def ideal(sg: NumericalSemigroup, dim: int, vectors) -> Ideal:
    """The ideal generated by the monomials with the given exponent vectors."""
    vectors = [_check_vector(v, dim) for v in vectors]
    for v in vectors:
        if not sg.contains(v[-1]):
            raise PreconditionError(f"valuation {v[-1]} is not in the semigroup")
    cap = tuple(max((v[i] for v in vectors), default=0) for i in range(dim))
    cap = cap[:-1] + (cap[-1] + sg.conductor,)
    return Ideal(sg, cap, _shift_union(_monoid(sg, cap), cap, vectors))


def unit_ideal(sg: NumericalSemigroup, dim: int) -> Ideal:
    return ideal(sg, dim, [(0,) * dim])


def maximal_ideal(sg: NumericalSemigroup, dim: int) -> Ideal:
    return ideal(sg, dim, _atoms(sg, dim))


# --- arithmetic -------------------------------------------------------------------

def ideal_sum(a: Ideal, b: Ideal) -> Ideal:
    cap, x, y = _joint(a, b)
    return Ideal(a.sg, cap, x | y)


def intersect(a: Ideal, b: Ideal) -> Ideal:
    cap, x, y = _joint(a, b)
    return Ideal(a.sg, cap, x & y)


def equal(a: Ideal, b: Ideal) -> bool:
    _, x, y = _joint(a, b)
    return x == y


def ideal_contains(a: Ideal, b: Ideal) -> bool:
    """Whether b is a subideal of a."""
    _, x, y = _joint(a, b)
    return not y & ~x


def _shift_box(a: Ideal, gens) -> tuple[int, ...]:
    """A box that holds a shifted by any of gens: a's cap plus their largest entries."""
    return tuple(c + max(g[i] for g in gens) for i, c in enumerate(a.cap))


def multiply(a: Ideal, b: Ideal) -> Ideal:
    """The product: a shifted by each generator of b, the factor with the smaller box."""
    _check_same(a, b)
    if prod(c + 1 for c in b.cap) > prod(c + 1 for c in a.cap):
        a, b = b, a
    if not b.bits:
        return b
    cap = _shift_box(a, b.gens)
    return Ideal(a.sg, cap, _shift_union(_reshape(a.bits, a.cap, cap), cap, b.gens))


def colon(a: Ideal, b: Ideal) -> Ideal:
    """The ideal quotient (a : b): the points that every generator of b moves into a."""
    _check_same(a, b)
    if not b.bits:
        raise PreconditionError("colon by the zero ideal")
    cap = _shift_box(a, b.gens)
    x = _reshape(a.bits, a.cap, cap)
    widths = [c + 1 for c in cap]
    strides = _strides(widths)
    out = (1 << prod(widths)) - 1
    for g in b.gens:
        out &= x >> sum(c * s for c, s in zip(g, strides))
    # shifts that crossed an inner axis land beyond a's cap: each axis is cut
    # there and refilled from a's top slice, as (a : b) is constant past a's cap
    for axis, top in enumerate(a.cap):
        if top < cap[axis]:
            out = _fill(out & _slab(widths, axis, 0, top + 1), widths, axis, top)
    return Ideal(a.sg, cap, out & _monoid(a.sg, cap))


def _finite_count(diff: int, cap) -> int:
    """The number of points in diff, which must miss every top slice of the box."""
    widths = [c + 1 for c in cap]
    if any(diff & _slab(widths, axis, w - 1, w) for axis, w in enumerate(widths)):
        raise InfiniteLength("quotient has infinite length: the difference reaches a top slice")
    return diff.bit_count()


def quotient_length(a: Ideal, b: Ideal) -> int:
    """Length of a/b as a k-vector space: the number of monomials in a but not in b."""
    cap, x, y = _joint(a, b)
    if y & ~x:
        raise PreconditionError("quotient_length: second ideal is not contained in the first")
    return _finite_count(x & ~y, cap)


def colength(b: Ideal) -> int:
    """Length of R/b: the monoid points of b's box outside b."""
    return _finite_count(_monoid(b.sg, b.cap) & ~b.bits, b.cap)


# --- membership and shape -----------------------------------------------------------

def contains(a: Ideal, v) -> bool:
    """Whether the monomial with exponent vector v lies in the ideal a."""
    v = _check_vector(v, len(a.cap))
    strides = _strides([c + 1 for c in a.cap])
    return bool(a.bits >> sum(min(x, c) * s for x, c, s in zip(v, a.cap, strides)) & 1)


def pure_power_exponents(a: Ideal) -> list[int | None]:
    """For each axis, the least e with e times the unit vector in a (None if absent)."""
    return least_pure_powers(a.gens, len(a.cap))


def is_m_primary(a: Ideal) -> bool:
    """Proper and containing a pure power along every axis."""
    return not a.bits & 1 and None not in pure_power_exponents(a)


def closure_power(a: Ideal, n: int) -> Ideal:
    """Integral closure of a^n: per row b, the members s of S with (b, s) in n*NP(a).

    Row b keeps the members s >= tau(b), the least s inside every halfspace
    (c, t): tau(b) = max(0, ceil((n*t - <c', b>) / c_last)) over the
    halfspaces. `newton.row_cuts` sweeps each halfspace over all rows at once,
    one free axis at a time, and keeps the running maximum; each distinct
    cut's row string is built once.
    """
    if n < 0:
        raise PreconditionError("negative closure power")
    dim = len(a.cap)
    if n == 0:
        return unit_ideal(a.sg, dim)
    hull = a.hull  # raises NotMPrimary unless a is m-primary
    tops = [n * e for e in hull.box]
    cap = tuple(tops[:-1]) + (max(tops[-1], a.sg.conductor),)
    width = cap[-1] + 1
    row = format(_monoid(a.sg, (cap[-1],)), f"0{width}b")
    taus = row_cuts(hull.halfspaces, cap[:-1], n)
    rows = {tau: row[:width - tau] + "0" * tau for tau in set(taus)}
    return Ideal(a.sg, cap, int("".join([rows[tau] for tau in reversed(taus)]), 2))
