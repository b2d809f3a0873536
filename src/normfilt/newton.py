"""Newton polyhedra of m-primary monomial ideals, given by generator vectors.

The Newton polyhedron NP(I) is the convex hull of the generator exponents plus
the nonnegative orthant. A monomial x^a lies in the integral closure of I^n
exactly when a is in the dilation n*NP(I), so an exact halfspace description
of NP(I) answers every closure query. Supported ambient dimension is 1..4,
and all arithmetic is in integers.

Facets come from d-point subsets of the generators. NP(I) is the orthant cut
by its supporting halfspaces <c,a> >= t with t > 0. Each contains the pure
power p*e_i of every variable, so c_i*p >= t > 0: every entry of c is
positive. Such a facet contains no coordinate direction, so it is spanned by
d affinely independent generators, and d points of a supporting hyperplane
that span it lie on a facet. The normal of a d-subset is the vector of
signed (d-1)-minors of its difference rows; it is kept when its entries are
all positive (after a sign flip) and every generator satisfies it. It is
linear in the last difference row, so each (d-1)-point head computes its d
cofactor columns once (column k: the normal with last row e_k), and each
later generator's normal is one d x d integer matrix-vector product. Entry
(j, k) of that matrix is (-1)^(j+k+1) times the (d-2)-minor of the head's
d-2 difference rows without columns j and k, for j < k, and the matrix is
antisymmetric, so a head costs C(d,2) minors of size at most 2.

Only vertices of NP(I) span facets, so generators that are not vertices are
dropped first: one that dominates another, a repeated one, and any g with
2g >= h + k componentwise for two other generators h != k. The midpoint
m = (h + k)/2 lies in NP(I), so g = m + u with u >= 0 is the midpoint of m
and m + 2u, both in NP(I); a point strictly between two points of NP(I) is
no vertex.

The multiplicity e_0(I) is d! times the volume of B, the closure of the
orthant minus NP(I): the points a >= 0 with <c,a> <= t for some halfspace.
Every such facet is compact (its normal is positive), so B is the union of
the pyramids conv(0, F) over the facets F, and the vertices of NP(I) are
generators, so these are lattice polytopes meeting in pyramids over common
faces. By inclusion-exclusion over Ehrhart polynomials the lattice count
L(k) = #(kB ∩ N^d) is a polynomial of degree d in k >= 0 whose leading
coefficient is vol(B) (Beck-Robins, Computing the Continuous Discretely).
Its d-th difference is therefore e_0 = sum_k (-1)^(d-k) C(d,k) L(k) over
k = 0..d. L(k) is counted row by row along the last axis by `row_cuts`,
the sweep that also cuts the rows of `monomial.closure_power`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, gcd, prod

from .errors import NotMPrimary, UnsupportedDimension

MAX_DIM = 4

Exponent = tuple[int, ...]
Halfspace = tuple[tuple[int, ...], int]  # (normal, threshold): <normal, a> >= threshold


@dataclass(frozen=True)
class NewtonPolyhedron:
    """Halfspace description of NP(I); normals are positive primitive integers.

    box holds the least pure-power exponent of each variable among the generators.
    """

    dim: int
    halfspaces: tuple[Halfspace, ...]
    box: tuple[int, ...]


def _dot(c, a) -> int:
    return sum(x * y for x, y in zip(c, a))


def _det(rows) -> int:
    """Determinant of a square integer matrix of size at most 2."""
    if not rows:
        return 1
    if len(rows) == 1:
        return rows[0][0]
    (a, b), (c, d) = rows
    return a * d - b * c


def least_pure_powers(gens, d: int) -> list[int | None]:
    """For each of the d axes, the least entry of a generator supported on
    that axis alone (0 for the zero vector), or None if there is none."""
    return [min((g[i] for g in gens if not any(g[:i] + g[i + 1:])), default=None)
            for i in range(d)]


def newton_polyhedron(gens) -> NewtonPolyhedron:
    """Exact facet description of conv(generators) + orthant."""
    gens = [tuple(g) for g in gens]
    d = len(gens[0]) if gens else 0
    if d > MAX_DIM:
        raise UnsupportedDimension(f"dimension {d} exceeds supported bound {MAX_DIM}")
    box = tuple(least_pure_powers(gens, d))
    if not d or not all(box):  # a missing pure power, or the unit ideal
        raise NotMPrimary("Newton polyhedron requires a proper m-primary monomial ideal")
    if d == 1:
        return NewtonPolyhedron(1, (((1,), box[0]),), box)
    gens = [g for g in gens if not any(h != g and all(x <= y for x, y in zip(h, g)) for h in gens)]
    gens = list(dict.fromkeys(gens))
    gens = [g for g in gens if not _above_midpoint(g, gens)]
    found: set[Halfspace] = set()
    for head in combinations(range(len(gens)), d - 1):
        base = gens[head[0]]
        rows = [tuple(x - y for x, y in zip(gens[i], base)) for i in head[1:]]
        # row j, column k: the j-th signed minor of (e_k, *rows), the normal for last row e_k
        matrix = [[0] * d for _ in range(d)]
        for j, k in combinations(range(d), 2):
            minor = _det([[x for i, x in enumerate(r) if i != j and i != k] for r in rows])
            matrix[j][k] = minor if (j + k) % 2 else -minor
            matrix[k][j] = -matrix[j][k]
        for g in gens[head[-1] + 1:]:
            last = tuple(x - y for x, y in zip(g, base))
            normal = tuple(_dot(row, last) for row in matrix)
            if normal[0] < 0:
                normal = tuple(-c for c in normal)
            if min(normal) <= 0:  # a zero or mixed-sign normal bounds no facet with t > 0
                continue
            g0 = gcd(*normal)
            normal = tuple(c // g0 for c in normal)
            halfspace = (normal, _dot(normal, base))
            if halfspace not in found and all(_dot(normal, h) >= halfspace[1] for h in gens):
                found.add(halfspace)
    return NewtonPolyhedron(d, tuple(sorted(found)), box)


def _above_midpoint(g, gens) -> bool:
    """Whether 2g >= h + k componentwise for two generators h != k other than g."""
    low = [h for h in gens if h != g and all(y <= 2 * x for x, y in zip(g, h))]
    return any(all(y + z <= 2 * x for x, y, z in zip(g, h, k)) for h, k in combinations(low, 2))


def row_cuts(halfspaces, tops, k: int, *, ceil: bool, least: int) -> list[int]:
    """Per row b of the box [0, tops] over all axes but the last, in row-major
    order: the largest (k*t - <c', b>) / c_last over the halfspaces (c, t),
    rounded up when ceil and down otherwise, and never below least.

    c' is c without its last entry. Each halfspace sweeps the rows once: the
    values k*t - <c', b> grow one free axis at a time, and are folded into the
    running maximum before the next halfspace starts.
    """
    cuts = [least] * prod(top + 1 for top in tops)
    for normal, t in halfspaces:
        vals = [k * t]
        for c, top in zip(normal, tops):
            steps = range(0, c * (top + 1), c)
            vals = [v - s for v in vals for s in steps]
        last = normal[-1]
        if last > 1:
            vals = [-(-v // last) for v in vals] if ceil else [v // last for v in vals]
        cuts = list(map(max, cuts, vals))
    return cuts


def _lattice_count(np_: NewtonPolyhedron, k: int) -> int:
    """L(k): the points a of N^d with <c,a> <= k*t for some halfspace (c, t).

    Beyond k times the pure-power box no point counts, since every normal is
    positive; each row over the free axes adds the points up to its highest
    last coordinate.
    """
    tops = [k * e for e in np_.box[:-1]]
    return sum(row_cuts(np_.halfspaces, tops, k, ceil=False, least=-1)) + prod(top + 1 for top in tops)


def multiplicity(np_: NewtonPolyhedron) -> int:
    """Hilbert-Samuel multiplicity e_0(I): the d-th difference of L(k) at k = 0."""
    d = np_.dim
    return sum((-1) ** (d - k) * comb(d, k) * _lattice_count(np_, k) for k in range(d + 1))
