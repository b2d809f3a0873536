"""Newton polyhedra of m-primary monomial ideals, given by generator vectors.

The Newton polyhedron NP(I) is the convex hull of the generator exponents plus
the nonnegative orthant. A monomial x^a lies in the integral closure of I^n
exactly when a is in the dilation n*NP(I), so an exact halfspace description
of NP(I) answers every closure query. Supported ambient dimension is 1..4.

Halfspace enumeration is a brute-force exact convex hull: each facet of
NP(I) is spanned by some generators together with coordinate recession
directions, so scanning all such combinations and filtering for supporting
halfspaces with nonnegative normals recovers the facets (plus possibly some
redundant supporting halfspaces, which never change membership answers).
A generator that dominates another cannot be a vertex and is dropped first.

The multiplicity e_0(I) equals d! times the volume of the bounded complement
of NP(I) in the orthant; that volume is computed exactly by enumerating the
vertices of the region's closure inside the pure-power box and triangulating.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, prod

from .errors import NotMPrimary, PreconditionError, UnsupportedDimension
from .linalg import cofactor_normal, det, solve_square

MAX_DIM = 4

Exponent = tuple[int, ...]
Halfspace = tuple[tuple[int, ...], int]  # (normal, threshold): <normal, a> >= threshold


@dataclass(frozen=True)
class NewtonPolyhedron:
    """Halfspace description of NP(I); normals are nonnegative primitive integers.

    box holds the least pure-power exponent of each variable among the generators.
    """

    dim: int
    halfspaces: tuple[Halfspace, ...]
    box: tuple[int, ...]


def _pure_box(gens, d: int) -> tuple[int, ...] | None:
    """Least pure-power exponent per variable, or None if some variable has none."""
    box = []
    for i in range(d):
        powers = [g[i] for g in gens if g[i] and not any(g[:i] + g[i + 1:])]
        if not powers:
            return None
        box.append(min(powers))
    return tuple(box)


def newton_polyhedron(gens) -> NewtonPolyhedron:
    """Exact supporting-halfspace description of conv(generators) + orthant."""
    gens = [tuple(g) for g in gens]
    d = len(gens[0]) if gens else 0
    if d > MAX_DIM:
        raise UnsupportedDimension(f"dimension {d} exceeds supported bound {MAX_DIM}")
    box = _pure_box(gens, d)
    if not d or box is None or not all(map(any, gens)):
        raise NotMPrimary("Newton polyhedron requires a proper m-primary monomial ideal")
    gens = [g for g in gens if not any(h != g and all(x <= y for x, y in zip(h, g)) for h in gens)]
    units = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
    found: set[Halfspace] = set()
    for k in range(1, d + 1):
        for pts in combinations(gens, k):
            base = pts[0]
            point_rows = [tuple(x - y for x, y in zip(p, base)) for p in pts[1:]]
            for dirs in combinations(range(d), d - k):
                rows = point_rows + [units[i] for i in dirs]
                oriented = cofactor_normal(rows, d)
                if oriented is None:
                    continue
                base_value = sum(c * x for c, x in zip(oriented, base))
                for sign in (1, -1):
                    normal = tuple(sign * c for c in oriented)
                    threshold = sign * base_value
                    if any(c < 0 for c in normal) or threshold <= 0:
                        continue
                    if any(
                        sum(c * x for c, x in zip(normal, g)) < threshold for g in gens
                    ):
                        continue
                    g0 = gcd(threshold, *normal)
                    found.add((tuple(c // g0 for c in normal), threshold // g0))
    return NewtonPolyhedron(d, tuple(sorted(found)), box)


def in_dilation(np_: NewtonPolyhedron, n: int, vector: Exponent) -> bool:
    """Whether the exponent vector lies in the dilation n * NP(I)."""
    if len(vector) != np_.dim:
        raise PreconditionError(f"vector {vector} has wrong length for dimension {np_.dim}")
    if any(x < 0 for x in vector):
        return False
    return all(
        sum(c * x for c, x in zip(normal, vector)) >= n * threshold
        for normal, threshold in np_.halfspaces
    )


def _polytope_vertices(halfspaces: list[tuple[tuple, Fraction]], d: int) -> list[tuple]:
    """All vertices of the polytope cut out by <c,a> >= t constraints."""
    verts = set()
    for combo in combinations(halfspaces, d):
        solution = solve_square([c for c, _ in combo], [t for _, t in combo])
        if solution is None:
            continue
        if all(
            sum(c * x for c, x in zip(normal, solution)) >= t for normal, t in halfspaces
        ):
            verts.add(solution)
    return sorted(verts)


def _polytope_volume(halfspaces: list[tuple[tuple, Fraction]], d: int) -> Fraction:
    """Exact volume by recursive triangulation of the boundary.

    Faces are identified by the vertex sets on which a constraint is tight;
    coning each face from a vertex outside it yields simplices whose
    determinants sum to the volume (degenerate cones contribute zero).
    """
    vertices = _polytope_vertices(halfspaces, d)
    if len(vertices) <= d:
        return Fraction(0)
    tight = {
        v: frozenset(
            i
            for i, (normal, t) in enumerate(halfspaces)
            if sum(c * x for c, x in zip(normal, v)) == t
        )
        for v in vertices
    }
    cache: dict[frozenset, list[tuple]] = {}

    def chains(face: frozenset) -> list[tuple]:
        if len(face) == 1:
            return [(next(iter(face)),)]
        if face in cache:
            return cache[face]
        v0 = min(face)
        out = []
        seen = set()
        for i in range(len(halfspaces)):
            if i in tight[v0]:
                continue
            sub = frozenset(v for v in face if i in tight[v])
            if not sub or sub in seen:
                continue
            seen.add(sub)
            for chain in chains(sub):
                out.append((v0,) + chain)
        cache[face] = out
        return out

    total = Fraction(0)
    for chain in chains(frozenset(vertices)):
        if len(chain) != d + 1:
            continue
        rows = [[x - y for x, y in zip(p, chain[0])] for p in chain[1:]]
        total += abs(det(rows))
    return total / factorial(d)



def covolume(np_: NewtonPolyhedron) -> Fraction:
    """Volume of the bounded region of the orthant outside NP(I)."""
    d, box = np_.dim, np_.box
    constraints: list[tuple[tuple, Fraction]] = [
        (tuple(Fraction(x) for x in normal), Fraction(t)) for normal, t in np_.halfspaces
    ]
    for i in range(d):
        e = tuple(Fraction(1 if j == i else 0) for j in range(d))
        constraints.append((e, Fraction(0)))
        constraints.append((tuple(-x for x in e), Fraction(-box[i])))
    inner = _polytope_volume(constraints, d)
    return Fraction(prod(box)) - inner


def multiplicity(np_: NewtonPolyhedron) -> int:
    """Hilbert-Samuel multiplicity e_0(I) = d! * covolume(NP(I)); always an integer."""
    value = covolume(np_) * factorial(np_.dim)
    if value.denominator != 1 or value <= 0:
        raise PreconditionError(f"multiplicity computation returned non-integer {value}")
    return int(value)
