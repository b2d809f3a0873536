"""Exact arithmetic on monomial ideals of the monoid rings k[N^v x S].

Both ring classes are such monoid rings: k[x_1..x_d] is the case S = N with
v = d - 1 free axes, and k[[S]][x_1..x_v] puts a numerical semigroup S on
the last axis. A monomial is an exponent vector (b_1..b_v, s) with s in S,
and an ideal is a set of monomials closed under adding monoid elements.

An ideal is stored as a Python-int bitset over the box [0, cap] in row-major
order, the S-axis varying fastest. The top slice along each axis stands for
every point beyond it. Each ideal also carries `need`, a box past which its
membership is known to be constant along every axis, so that every cap >=
need holds the same ideal. For an ideal built from generators, need is
their extent plus the conductor on the S-axis; a product adds the shift to
it, a sum or intersection takes the larger need of its operands, and a
colon keeps the dividend's. The cap may be larger than need: an
`analysis.Analysis` lays all its ideals on one box, large enough for every
term it builds, so that operands share a cap and nothing is copied.

Sum, intersection, containment and equality are bitwise on the common cap;
operands on different caps are first laid onto the larger one (`_reshape`,
each growing axis repeating its top slice). A product is the union of the
shifts of the factor with the larger need by the minimal generators of the
other, and a colon intersects shifts back and refills past the dividend's
need from its slices there. Both stay on the shifted operand's box when
need plus the shift fits in it, and grow it only otherwise, so no result
depends on the box chosen. A colength is a popcount, finite exactly when no
counted point lies in a top slice. Integral closures of powers are cut out
row by row along the S-axis by the halfspaces of the Newton polyhedron, as
every halfspace of an m-primary ideal has a positive S-coefficient.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import prod
from operator import add, mul

from .errors import DimensionMismatch, InfiniteLength, PreconditionError
from .newton import (Exponent, NewtonPolyhedron, closure_count, hilbert_values, least_pure_powers,
                     multiplicity, newton_polyhedron, row_cuts)
from .semigroup import NumericalSemigroup


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
        """Minimal generators in lexicographic order: the points outside m*I."""
        atoms = _atoms(self.sg, len(self.cap))
        cap, x = _room(self, _extent(atoms))
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
    masks of the one box of an analysis are built once."""
    inner = prod(widths[axis + 1:])
    block = ((1 << ((hi - lo) * inner)) - 1) << (lo * inner)
    return _repeat(block, widths[axis] * inner, prod(widths[:axis]))


@lru_cache(maxsize=64)
def _monoid(sg: NumericalSemigroup, cap: tuple[int, ...]) -> int:
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
        bits = _fill(bits, tuple(widths), axis, w - 1)
    return bits


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


def _room(a: Ideal, shift) -> tuple[tuple[int, ...], int]:
    """A box that holds a shifted by up to shift along each axis, with a's bits
    on it: a's own box when need + shift fits inside it, else the least box
    that does and contains a's."""
    cap = tuple(map(max, a.cap, map(add, a.need, shift)))
    return cap, _reshape(a.bits, a.cap, cap)


def _extent(vectors) -> tuple[int, ...]:
    """The largest entry of the vectors along each axis."""
    return tuple(map(max, zip(*vectors)))


def lay(a: Ideal, box) -> Ideal:
    """a on the box [0, max(cap, box)]."""
    cap = tuple(map(max, a.cap, box))
    return Ideal(a.sg, cap, _reshape(a.bits, a.cap, cap), a.need)


def power_box(a: Ideal, n: int) -> tuple[int, ...]:
    """A box for the terms of degree up to n built from a and a reduction of
    it: closure(a^n), a^n and J·closure(a^(n-1)) need at most n times a's
    generator extent, plus the conductor on the S-axis, and finding their
    generators adds the largest atom along each axis."""
    conductor = a.sg.conductor
    tops = [n * e + t for e, t in zip(a.need[:-1] + (a.need[-1] - conductor,),
                                      _extent(_atoms(a.sg, len(a.cap))))]
    return tuple(tops[:-1]) + (tops[-1] + conductor,)


def _joint(a: Ideal, b: Ideal):
    _check_same(a, b)
    cap = tuple(map(max, a.cap, b.cap))
    return cap, _reshape(a.bits, a.cap, cap), _reshape(b.bits, b.cap, cap)


def _atoms(sg: NumericalSemigroup, dim: int) -> list[Exponent]:
    """Generators of the monoid: the free unit vectors and the semigroup generators."""
    units = [tuple(int(j == i) for j in range(dim)) for i in range(dim - 1)]
    return units + [(0,) * (dim - 1) + (g,) for g in sg.gens]


# --- construction ---------------------------------------------------------------

def _on(need: tuple[int, ...], box) -> tuple[int, ...]:
    """The box [0, need], or [0, max(need, box)] given a target box."""
    return need if box is None else tuple(map(max, need, box))


def ideal(sg: NumericalSemigroup, dim: int, vectors, box=None) -> Ideal:
    """The ideal generated by the monomials with the given exponent vectors,
    on its natural box [0, need] or, given box, on [0, max(need, box)]."""
    vectors = [_check_vector(v, dim) for v in vectors]
    for v in vectors:
        if not sg.contains(v[-1]):
            raise PreconditionError(f"valuation {v[-1]} is not in the semigroup")
    need = tuple(max((v[i] for v in vectors), default=0) for i in range(dim))
    need = need[:-1] + (need[-1] + sg.conductor,)
    cap = _on(need, box)
    return Ideal(sg, cap, _shift_union(_monoid(sg, cap), cap, vectors), need)


def unit_ideal(sg: NumericalSemigroup, dim: int, box=None) -> Ideal:
    return ideal(sg, dim, [(0,) * dim], box)


def maximal_ideal(sg: NumericalSemigroup, dim: int, box=None) -> Ideal:
    return ideal(sg, dim, _atoms(sg, dim), box)


# --- arithmetic -------------------------------------------------------------------

def ideal_sum(a: Ideal, b: Ideal) -> Ideal:
    cap, x, y = _joint(a, b)
    return Ideal(a.sg, cap, x | y, tuple(map(max, a.need, b.need)))


def intersect(a: Ideal, b: Ideal) -> Ideal:
    cap, x, y = _joint(a, b)
    return Ideal(a.sg, cap, x & y, tuple(map(max, a.need, b.need)))


def equal(a: Ideal, b: Ideal) -> bool:
    _, x, y = _joint(a, b)
    return x == y


def ideal_contains(a: Ideal, b: Ideal) -> bool:
    """Whether b is a subideal of a."""
    _, x, y = _joint(a, b)
    return not y & ~x


def multiply(a: Ideal, b: Ideal) -> Ideal:
    """The product: a shifted by each generator of b, the factor with the
    smaller need, whose generators are the cheaper to find."""
    _check_same(a, b)
    if prod(n + 1 for n in b.need) > prod(n + 1 for n in a.need):
        a, b = b, a
    if not b.bits:
        return b
    shift = _extent(b.gens)
    cap, x = _room(a, shift)
    return Ideal(a.sg, cap, _shift_union(x, cap, b.gens), tuple(map(add, a.need, shift)))


def colon(a: Ideal, b: Ideal) -> Ideal:
    """The ideal quotient (a : b): the points that every generator of b moves into a."""
    _check_same(a, b)
    if not b.bits:
        raise PreconditionError("colon by the zero ideal")
    cap, x = _room(a, _extent(b.gens))
    widths, strides = _grid(cap)
    out = _slab(widths, 0, 0, widths[0])
    for g in b.gens:
        out &= x >> sum(map(mul, g, strides))
    # shifts that crossed an inner axis land beyond a's need: each axis is cut
    # there and refilled from the slice at need, as (a : b) is constant past it
    for axis, top in enumerate(a.need):
        if top < cap[axis]:
            out = _fill(out & _slab(widths, axis, 0, top + 1), widths, axis, top)
    return Ideal(a.sg, cap, out & _monoid(a.sg, cap), a.need)


def _finite_count(diff: int, cap) -> int:
    """The number of points in diff, which must miss every top slice of the box."""
    widths = _grid(cap)[0]
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
    strides = _grid(a.cap)[1]
    return bool(a.bits >> sum(min(x, c) * s for x, c, s in zip(v, a.cap, strides)) & 1)


def pure_power_exponents(a: Ideal) -> list[int | None]:
    """For each axis, the least e with e times the unit vector in a (None if absent)."""
    return least_pure_powers(a.gens, len(a.cap))


def is_m_primary(a: Ideal) -> bool:
    """Proper and containing a pure power along every axis: the point at the
    cap of each axis, which stands for every point beyond it."""
    dim = len(a.cap)
    return not a.bits & 1 and all(contains(a, tuple(c * (j == i) for j in range(dim)))
                                  for i, c in enumerate(a.cap))


def closure_power(a: Ideal, n: int, box=None) -> Ideal:
    """Integral closure of a^n: per row b, the members s of S with (b, s) in n*NP(a),
    on its natural box or, given box, on the box [0, max(need, box)].

    Row b keeps the members s >= tau(b), the least s inside every halfspace
    (c, t): tau(b) = max(0, ceil((n*t - <c', b>) / c_last)) over the
    halfspaces. `newton.row_cuts` sweeps each halfspace over all rows at once,
    one free axis at a time, and keeps the running maximum; the rows are
    then stacked one free axis at a time.
    """
    if n < 0:
        raise PreconditionError("negative closure power")
    dim = len(a.cap)
    if n == 0:
        return unit_ideal(a.sg, dim, box)
    hull = a.hull  # raises NotMPrimary unless a is m-primary
    tops = [n * e for e in hull.box]
    need = tuple(tops[:-1]) + (max(tops[-1], a.sg.conductor),)
    cap = _on(need, box)
    row = _monoid(a.sg, cap[-1:])
    taus = row_cuts(hull.halfspaces, need[:-1], n)
    parts = [row >> tau << tau for tau in taus]
    # each free axis, innermost first, joins its slices. Past need along it
    # b_i >= n*h_i for the pure power h_i*e_i of a, so <c', b> >= n*t for
    # every halfspace: those slices hold the whole monoid
    for axis in reversed(range(dim - 1)):
        top, end, size = need[axis], cap[axis], prod(c + 1 for c in cap[axis + 1:])
        rest = _monoid(a.sg, (end - top - 1,) + cap[axis + 1:]) if end > top else 0
        parts = [_stack(parts[k:k + top + 1], size, rest) for k in range(0, len(parts), top + 1)]
    return Ideal(a.sg, cap, parts[0], need)


def _stack(slices, size: int, rest: int) -> int:
    """The slices of size bits each one above the other, and rest above them."""
    out = rest << len(slices) * size
    for i, x in enumerate(slices):
        out |= x << i * size
    return out
