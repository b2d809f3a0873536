"""Newton polyhedra of m-primary monomial ideals, given by generator vectors.

The Newton polyhedron NP(I) is the convex hull of the generator exponents plus
the nonnegative orthant. A monomial x^a lies in the integral closure of I^n
exactly when a is in the dilation n*NP(I), so an exact halfspace description
of NP(I) answers every closure query. Supported ambient dimension is 1..4,
and all arithmetic is in integers.

The facets come from a double-description run (Motzkin et al. 1953;
Fukuda-Prodon 1996) in exact integers on the cone of valid inequalities
C = {(c, t) : c >= 0, <c, g> >= t for every generator g}. NP(I) is full
dimensional and C is pointed, so the extreme rays of C are (0, -1), the
coordinate facets (e_k, 0) and the facets of NP(I) with t > 0. The run is
seeded with the simplicial cone of the d sign constraints and the least pure
power p*e_1 of axis 1, whose extreme rays are (e_1, p), (e_k, 0) for k >= 2,
and (0, -1), and adds one generator constraint at a time. Each ray carries the set of
constraints it meets with equality. A new ray lies on the new constraint's
hyperplane between a ray r on its positive side and a ray s on its negative
side; it is an extreme ray exactly when r and s are adjacent, which holds
when they share at least d - 1 tight constraints and no third ray is tight
on all of them. A generator that lies in the hull of those before it cuts
off no ray and adds none, so no generator needs pruning first. Each new ray
is divided by the gcd of its entries. At the end a ray with t > 0 is tight
at some generator g (tight at sign constraints alone, c would be 0), so
t = <c, g> and that gcd is the gcd of c alone: the normals are primitive.
Each entry of a normal is positive, as c_i*p_i >= t > 0 for the pure power
p_i*e_i of every variable.

The multiplicity e_0(I) is d! times the volume of B, the closure of the
orthant minus NP(I): the points a >= 0 with <c,a> <= t for some halfspace.
Every such facet is compact (its normal is positive), so B is the union of
the pyramids conv(0, F) over the facets F, and the vertices of NP(I) are
generators, so these are lattice polytopes meeting in pyramids over common
faces. The count H(k) = #(N^d minus k*NP(I)) of the points a >= 0 with
<c,a> < k*t for some halfspace is that of kB without its compact facets, a
half-open polytopal complex, so H is a polynomial of degree d in k >= 0
whose leading coefficient is vol(B) (Koeppe-Verdoolaege, Electron. J.
Combin. 15, 2008). Its d-th difference is therefore
e_0 = sum_k (-1)^(d-k) C(d,k) H(k) over k = 0..d, counted with no gaps. H(k)
is the sum of the row cuts tau_k(b), the least s >= 0 with (b, s) in k*NP(I);
less the rank of each cut among the gaps of S, it is the colength of
closure(I^k) for any S (`closure_count`). As every normal is positive, the
walk `_runs` reaches only the rows outside k*NP(I).

The polynomial's value at k = 0 is H(0) = 0, the count at k = 0, where no
a >= 0 has <c,a> < 0. By inclusion-exclusion over closed cells, each with
constant term 1, the constant term of an Ehrhart polynomial is the Euler
characteristic of its complex. B is star-shaped from 0, a closed ball with
Euler characteristic 1. Its compact facets are those of NP(I), whose union
every ray from 0 into the orthant meets in exactly one point, so that union
is a closed (d-1)-ball with Euler characteristic 1 too. The half-open
complex thus has Euler characteristic 1 - 1 = 0. So H(0..d) determine H at
every k >= 0, and `hilbert_values` extends them past d.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import product
from math import comb, gcd, prod
from typing import NamedTuple

from .errors import NotMPrimary, UnsupportedDimension

MAX_DIM = 4

Exponent = tuple[int, ...]
Halfspace = tuple[tuple[int, ...], int]  # (normal, threshold): <normal, a> >= threshold


class NewtonPolyhedron(NamedTuple):
    """Halfspace description of NP(I); normals are positive primitive integers.

    box holds the least pure-power exponent of each variable among the generators.
    """

    dim: int
    halfspaces: tuple[Halfspace, ...]
    box: tuple[int, ...]


def _dot(c, a) -> int:
    return sum(x * y for x, y in zip(c, a))


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
    # rays (c_1..c_d, t) and the bits of their tight constraints: bit k < d for
    # c_(k+1) >= 0, bit d for the seed power, bit d + j for gens[j - 1]
    rays = [(tuple(int(i == k) for i in range(d)) + (box[0] * (k == 0),), (2 << d) - 1 - (1 << k))
            for k in range(d)]
    rays.append(((0,) * d + (-1,), (1 << d) - 1))
    for bit, g in enumerate(gens, d + 1):
        vals = [_dot(r, g) - r[-1] for r, _ in rays]
        pos = [(r, z, v) for (r, z), v in zip(rays, vals) if v > 0]
        neg = [(r, z, v) for (r, z), v in zip(rays, vals) if v < 0]
        kept = [(r, z | (1 << bit) if v == 0 else z) for (r, z), v in zip(rays, vals) if v >= 0]
        for (r, zr, vr), (s, zs, vs) in product(pos, neg):
            common = zr & zs
            if common.bit_count() >= d - 1 and not any(
                    z & common == common and z != zr and z != zs for _, z in rays):
                ray = tuple(vr * y - vs * x for x, y in zip(r, s))
                g0 = gcd(*ray)
                kept.append((tuple(x // g0 for x in ray), common | (1 << bit)))
        rays = kept
    halfspaces = sorted((r[:-1], r[-1]) for r, _ in rays if r[-1] > 0)
    return NewtonPolyhedron(d, tuple(halfspaces), box)


def _runs(halfspaces, tops, k: int):
    """(at, width, cuts) for each run of row cuts, at its first row's index
    in row-major order; cuts is an iterable of width cuts, and a row in no
    run has cut 0.

    The cut of a row b of the box [0, tops] over all axes but the last is the
    least s >= 0 with <c, (b, s)> >= k*t for every halfspace (c, t), that is
    max(0, ceil((k*t - <c', b>) / c_last)) over the halfspaces, c' the normal c
    without its last entry. Every normal is positive, so along each free axis
    the values k*t - <c', b> fall: the walk leaves an axis once every value is
    <= 0, and the rows it never reaches, inside k*NP, keep cut 0. Along the
    innermost free axis each prefix takes one run of cuts per halfspace, up
    to the last row some value is positive, and keeps their maximum."""
    if not tops:
        return [(0, 1, [max(0, *(-(-k * t // c[0]) for c, t in halfspaces))])]
    inner = len(tops) - 1

    def walk(axis, vals, at):
        if axis < inner:
            stride = prod(top + 1 for top in tops[axis + 1:])
            for b in range(tops[axis] + 1):
                if max(vals) <= 0:
                    return
                yield from walk(axis + 1, vals, at + b * stride)
                vals = [v - c[axis] for v, (c, _) in zip(vals, halfspaces)]
            return
        steps = [(v, c[inner], c[-1]) for v, (c, _) in zip(vals, halfspaces)]
        width = min(tops[inner] + 1, max(-(-v // c) for v, c, _ in steps))
        if width > 0:
            runs = [range(v, v - c * width, -c) if last == 1 else
                    [-(-x // last) for x in range(v, v - c * width, -c)] for v, c, last in steps]
            yield at, width, map(max, *runs) if len(runs) > 1 else runs[0]

    return walk(0, [k * t for _, t in halfspaces], 0)


def closure_count(np_: NewtonPolyhedron, k: int, gaps=()) -> int:
    """The points (b, s) outside k*NP(I) with s in S, H(k) when S = N: per
    row b, the cut tau_k(b) of `_runs` less its rank among the sorted gaps.
    Every normal is positive, so the rows over k times the pure-power box
    hold every such point, and a row inside k*NP (cut 0) adds nothing: the
    count sums the walk's runs, with no list of every row.
    """
    runs = _runs(np_.halfspaces, [k * e for e in np_.box[:-1]], k)
    return sum(tau - bisect_left(gaps, tau) for _, _, run in runs for tau in run)


def hilbert_values(h, upto: int) -> list[int]:
    """The values at k = 0..upto of the polynomial of degree d = len(h) - 1
    that takes the value h[k] at k = 0..d: sum_j C(k, j) D_j by Newton's
    forward formula, where D_j = sum_i (-1)^(j-i) C(j, i) h[i] is its j-th
    difference at 0."""
    diffs = [sum((-1) ** (j - i) * comb(j, i) * h[i] for i in range(j + 1)) for j in range(len(h))]
    return [sum(comb(k, j) * dj for j, dj in enumerate(diffs)) for k in range(upto + 1)]


def multiplicity(np_: NewtonPolyhedron) -> int:
    """Hilbert-Samuel multiplicity e_0(I): the d-th difference of H(k) at k = 0."""
    d = np_.dim
    return sum((-1) ** (d - k) * comb(d, k) * closure_count(np_, k) for k in range(d + 1))
