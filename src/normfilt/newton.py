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
later generator's normal is one d x d integer matrix-vector product. A
generator that dominates another cannot be a vertex and is dropped first.

The multiplicity e_0(I) is d! times the volume of B, the closure of the
orthant minus NP(I): the points a >= 0 with <c,a> <= t for some halfspace.
Every such facet is compact (its normal is positive), so B is the union of
the pyramids conv(0, F) over the facets F, and the vertices of NP(I) are
generators, so these are lattice polytopes meeting in pyramids over common
faces. By inclusion-exclusion over Ehrhart polynomials the lattice count
L(k) = #(kB ∩ N^d) is a polynomial of degree d in k >= 0 whose leading
coefficient is vol(B) (Beck-Robins, Computing the Continuous Discretely).
Its d-th difference is therefore e_0 = sum_k (-1)^(d-k) C(d,k) L(k) over
k = 0..d. L(k) is counted row by row along the last axis, the way
`monomial.closure_power` cuts its rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb, gcd

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
    """Integer determinant by cofactor expansion along the first row."""
    if len(rows) == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if not rows:
        return 1
    return sum(
        (-1) ** j * x * _det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j, x in enumerate(rows[0]) if x
    )


def newton_polyhedron(gens) -> NewtonPolyhedron:
    """Exact facet description of conv(generators) + orthant."""
    gens = [tuple(g) for g in gens]
    d = len(gens[0]) if gens else 0
    if d > MAX_DIM:
        raise UnsupportedDimension(f"dimension {d} exceeds supported bound {MAX_DIM}")
    # least pure power of each variable, 0 where there is none (or for the unit ideal)
    box = tuple(min((g[i] for g in gens if not any(g[:i] + g[i + 1:])), default=0)
                for i in range(d))
    if not d or 0 in box:
        raise NotMPrimary("Newton polyhedron requires a proper m-primary monomial ideal")
    if d == 1:
        return NewtonPolyhedron(1, (((1,), box[0]),), box)
    gens = [g for g in gens if not any(h != g and all(x <= y for x, y in zip(h, g)) for h in gens)]
    units = [tuple(int(j == k) for j in range(d)) for k in range(d)]
    found: set[Halfspace] = set()
    for head in combinations(range(len(gens)), d - 1):
        base = gens[head[0]]
        rows = [tuple(x - y for x, y in zip(gens[i], base)) for i in head[1:]]
        # row j, column k: the j-th signed minor of (e_k, *rows), the normal for last row e_k
        matrix = [[(-1) ** j * _det([r[:j] + r[j + 1:] for r in (e, *rows)]) for e in units]
                  for j in range(d)]
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


def _lattice_count(np_: NewtonPolyhedron, k: int) -> int:
    """L(k): the points a of N^d with <c,a> <= k*t for some halfspace (c, t).

    Beyond k times the pure-power box no point counts, since every normal is
    positive; each row over the free axes adds the points up to its highest
    last coordinate.
    """
    total = 0
    for b in product(*(range(k * e + 1) for e in np_.box[:-1])):
        top = -1
        for normal, t in np_.halfspaces:
            top = max(top, (k * t - _dot(normal, b)) // normal[-1])
        total += top + 1
    return total


def multiplicity(np_: NewtonPolyhedron) -> int:
    """Hilbert-Samuel multiplicity e_0(I): the d-th difference of L(k) at k = 0."""
    d = np_.dim
    return sum((-1) ** (d - k) * comb(d, k) * _lattice_count(np_, k) for k in range(d + 1))
