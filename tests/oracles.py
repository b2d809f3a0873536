"""Independent brute-force oracles used to validate the package's exact code.

The geometry oracles import nothing under test: dilation
membership is decided by an exhaustive exact convex-combination search
(Caratheodory supports plus coordinate rays, solved over Fractions), the
facets of a Newton polyhedron by a scan of every d-subset of generators, the
multiplicity by vertex enumeration and triangulation of the Newton
polyhedron cut by its pure-power box, lengths by direct lattice enumeration
against the generator staircase, and semigroup membership by a direct
reachability sweep. The ideal arithmetic that only the normal filtration
built as ideals used left the package once `analysis.Analysis.h` read its
coefficients and reduction number off the counted column, and lives here:
`unit_ideal`, `intersect`, `contains`, `closure_power` with the row cuts
`row_cuts` of the walk `newton._runs`, the class `Filtration`, the normal
filtration with J^k and J·F_n beside its memoized terms, its `meet`,
`witness`, `reduces` and product-built `reduction_number`, and
`normal_filt(a)`, the filtration that `Analysis.normal_filt` built. The
per-row loop that the row walk replaced stays here as the differential
reference for closure powers (`row_cuts_oracle`, `closure_power_rows`);
`hull_heads` is the pruned head/cofactor hull that the double description of
`newton.newton_polyhedron` replaced. `valabrega_valla` is the
Valabrega-Valla scan of J up to the reduction number, which the proof of
`analysis.Analysis.basis` replaced, with its report `VVReport`,
`valabrega_valla_prefixes` its loop over every prefix of J and every degree,
`reduction_number_scan` the reduction number by a scan of every degree from
the horizon down, which the proved bound B = d + floor(Fr/c) of
`Filtration.reduction_number` cuts short for the normal filtration of every
ring, and which alone gives the reduction number of `AdicFiltration`, and
`maximal_vv_scan` the Valabrega-Valla report of the powers of m, from that
scan over `AdicFiltration` (the powers of an ideal, which `Filtration` no
longer builds), that `NumericalSemigroup.tangent_cone_failure` replaced,
`intersection_failures_oracle` the test closure(I^(n+1)) ∩ J^n = J^n·closure(I)
over every low degree, which its checker no longer compares, as `Analysis.basis`
proves it, and
`e3_chain_failure` the chain J^(n-1)·closure(I^2) that `check_e3_vanishing_cm`
built before it read F_(n+1) = J·F_n; all four use that ideal arithmetic.
`e3_containment_scan` and `e3_reduces_scan` are the bodies of
`check_e3_nonnegative` and `check_e3_vanishing_cm` as they were before they
stopped at the reduction number: each compares every degree of the horizon.
Both checkers now compare nothing, as e3_bar = 0 forces rn = deg h <= 2.
`series_checks` is the reference for the closed-form check of the graded
lengths: it tests every degreewise identity among the graded modules,
including the three that hold for any two tables. `jgood_chain_colengths`
is the J-good table built from bitset products, the chain that the closed
form of `analysis.Analysis.jgood_values` replaced, and `e3_product_colengths`
the colengths of J·closure(I^j) built as products, for the degrees j >= 2 >= rn
of the e3 identity that `check_almost_minimal_rn2` no longer sums: each is the
counted entry, so every summand of that sum is 0. The kernel's
former `ideal_sum`, `quotient_length` and `filtration.length_table`, which
the package no longer calls, live here as reference helpers.
`free_fit_coefficients` and `sally_from_tables` are the fits that
`analysis.Analysis` ran before it used ē0 = e0: a degree-d fit of a column
with ē0 left free, and a second fit of the Sally column. Both are built on
`fit_polynomial`, the integer triangular solve on backward differences that
`filtration.fit_coefficients` ran before it read the h-vector, and which
test_filtration checks against Gaussian elimination; `residual_fit` is that
former fit with e0 given, the reference of `filtration.fit_coefficients`.
`_value` evaluates a fitted polynomial, for those fits and as the reference
of the `stable_from` that `filtration.h_fit` reads off h in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial, gcd, prod
from typing import NamedTuple

from normfilt.analysis import auto_reduction
from normfilt.errors import HorizonError, PreconditionError
from normfilt.filtration import Fit, rn_bound, series_coeff
from normfilt.monomial import (Ideal, _check_vector, _finite_count, _grid, _joint, _monoid, _on,
                               colength, ideal, lay, multiply, power_box)
from normfilt.newton import _runs
from normfilt.theorems import Witness, refuted, verified


# --- the ideal arithmetic that only the normal filtration used ------------------


def unit_ideal(sg, dim: int, box=None) -> Ideal:
    return ideal(sg, dim, [(0,) * dim], box)


def intersect(a: Ideal, b: Ideal) -> Ideal:
    cap, x, y = _joint(a, b)
    return Ideal(a.sg, cap, x & y, tuple(map(max, a.need, b.need)))


def contains(a: Ideal, v) -> bool:
    """Whether the monomial with exponent vector v lies in the ideal a."""
    v = _check_vector(v, len(a.cap))
    strides = _grid(a.cap)[1]
    return bool(a.bits >> sum(min(x, c) * s for x, c, s in zip(v, a.cap, strides)) & 1)


def row_cuts(halfspaces, tops, k: int) -> list[int]:
    """Per row b of the box [0, tops] over all axes but the last, in row-major
    order: the least s >= 0 with <c, (b, s)> >= k*t for every halfspace (c, t),
    the cut that `newton._runs` walks, with every row listed."""
    cuts = [0] * prod(top + 1 for top in tops)
    for at, width, run in _runs(halfspaces, tops, k):
        cuts[at:at + width] = run
    return cuts


def closure_power(a: Ideal, n: int, box=None) -> Ideal:
    """Integral closure of a^n: per row b, the members s of S with (b, s) in n*NP(a),
    on its natural box `_on(need)` or, given box, on the larger of the two.

    Row b keeps the members s >= tau(b), the least s inside every halfspace
    (c, t): tau(b) = max(0, ceil((n*t - <c', b>) / c_last)) over the
    halfspaces. `row_cuts` walks only the rows outside n*NP(a), the others
    keep tau 0; the rows are then stacked one free axis at a time.
    """
    if n < 0:
        raise PreconditionError("negative closure power")
    dim = len(a.cap)
    if n == 0:
        return unit_ideal(a.sg, dim, box)
    hull = a.hull  # raises NotMPrimary unless a is m-primary
    tops = [n * e for e in hull.box]
    need = tuple(tops[:-1]) + (max(tops[-1], a.sg.conductor),)
    cap = _on(need, a.sg, box)
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


class Filtration:
    """The normal filtration F_n = closure(I^n) with memoized terms, and its
    reduction J as an ideal: J^k and J·F_n are kept beside the terms, each
    built once, and the lengths and witnesses that the checkers compared
    before `analysis.Analysis.h` decided them are answered here
    (PreconditionError without J). From degree `product_from` = B + 1 on, B =
    `rn_bound(J)`, F_n is the memoized J·F_(n-1), which the proof of
    `rn_bound` gives; below it the terms are closure powers, built on the box
    of the ideal. product_from is None without J, and a test sets it to None
    to build every term as a closure power.

    The chain J^(n-1)·F_2 of `e3_reduces_scan` is read through `reduces`: if
    F_(k+1) = J^(k-1)·F_2 for 2 <= k < n, J^(n-1)·F_2 = J·F_n, so the chain first
    differs from F_(n+1) where J·F_n does, with its witness, and never past rn.
    """

    def __init__(self, backend, ideal, reduction=None):
        self.backend, self.ideal, self.reduction = backend, ideal, reduction
        self.product_from = rn_bound(reduction) + 1 if reduction is not None else None
        self._terms = {0: unit_ideal(ideal.sg, len(ideal.cap), ideal.cap)}
        self._powers = {0: self._terms[0], 1: reduction}
        self._products = {}

    def term(self, n: int):
        if n < 0:
            raise PreconditionError("negative filtration index")
        if n not in self._terms:
            if self.product_from is not None and n >= self.product_from:
                self._terms[n] = self.product(n - 1)
            else:
                self._terms[n] = closure_power(self.ideal, n, self.ideal.cap)
        return self._terms[n]

    def power(self, k: int):
        """J^k, built once as J·J^(k-1)."""
        if self._powers.get(k) is None:
            if self.reduction is None:
                raise PreconditionError("J^k and J·F_n need a reduction J; the filtration has none")
            self._powers[k] = multiply(self.reduction, self.power(k - 1))
        return self._powers[k]

    def product(self, n: int):
        """J·F_n, built once; from degree product_from - 1 on it is F_(n+1)."""
        if n not in self._products:
            self._products[n] = multiply(self.power(1), self.term(n))
        return self._products[n]

    def reduces(self, n: int) -> bool:
        """Whether F_(n+1) = J·F_n: by construction once n + 1 >= product_from."""
        p = self.product_from
        return (p is not None and n + 1 >= p) or self.term(n + 1) == self.product(n)

    def meet(self, k: int, n: int) -> int:
        """lambda(R/(J^k ∩ F_n))."""
        return colength(intersect(self.term(n), self.power(k)))

    def witness(self, k: int, n: int, j: int, m: int) -> str:
        """A generator of J^k ∩ F_n outside J^j·F_m, as ring text, asked for
        once a comparison of the two failed; J^k ∩ F_n must not lie inside."""
        outside = self.product(m) if j == 1 else multiply(self.power(j), self.term(m))
        for g in intersect(self.term(n), self.power(k)).gens:
            if not contains(outside, g):
                return self.backend.element_str(g)
        raise PreconditionError(f"J^{k} ∩ F_{n} lies in J^{j}·F_{m}: no witness outside it")

    def reduction_number(self) -> int:
        """Least r with F_(n+1) = J·F_n for every n >= r: n >= product_from - 1
        reduces by construction (see `rn_bound`), so n is scanned down from
        product_from - 2. PreconditionError without J."""
        self.power(1)  # PreconditionError without J
        r = self.product_from - 1
        while r and self.reduces(r - 1):
            r -= 1
        return r


def normal_filt(a) -> Filtration:
    """The normal filtration of an analysis, with I and J on the box that
    `Analysis.normal_filt` laid them on: that of the highest degree read, F_B
    in rn's scan, B = rn_bound(J), and F_(n+1) and J^n·F_1 for n <= min(4,
    nmax - 1) in closure_intersection's comparison."""
    top = min(a.nmax + 1, 5)
    if a.reduction is not None:
        top = max(rn_bound(a.reduction), top)
    box = power_box(a.ideal, top)
    return Filtration(a.backend, lay(a.ideal, box), a.reduction and lay(a.reduction, box))


def _solve_consistent(columns, rhs):
    """Unique exact solution x >= components of columns * x = rhs, or None.

    columns: list of k tuples (length m); rhs: tuple (length m). Returns the
    solution when the columns are independent and the system is consistent,
    otherwise None (dependent columns are skipped by the caller's search).
    """
    k = len(columns)
    m = len(rhs)
    aug = [[Fraction(columns[j][i]) for j in range(k)] + [Fraction(rhs[i])] for i in range(m)]
    pivots = []
    row = 0
    for col in range(k):
        pivot = next((r for r in range(row, m) if aug[r][col] != 0), None)
        if pivot is None:
            return None  # dependent columns
        aug[row], aug[pivot] = aug[pivot], aug[row]
        pv = aug[row][col]
        aug[row] = [v / pv for v in aug[row]]
        for r in range(m):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    for r in range(row, m):
        if aug[r][k] != 0:
            return None  # inconsistent
    return [aug[i][k] for i in range(k)]


def in_dilation_oracle(gens, dim, point, n) -> bool:
    """Is point in n * (conv(gens) + nonnegative orthant)? Exact search.

    Certificate form: point = sum lam_g * g + sum mu_i * e_i with lam, mu >= 0
    and sum lam_g = n. Any feasible system has a basic solution supported on
    at most dim+1 independent columns, so searching those supports is exact.
    """
    if any(c < 0 for c in point):
        return False
    if n == 0:
        return True
    cols = [tuple(g) + (1,) for g in gens]
    for i in range(dim):
        ray = [0] * (dim + 1)
        ray[i] = 1
        cols.append(tuple(ray))
    rhs = tuple(point) + (n,)
    indices = range(len(cols))
    for size in range(1, dim + 2):
        for support in combinations(indices, size):
            sol = _solve_consistent([cols[j] for j in support], rhs)
            if sol is not None and all(v >= 0 for v in sol):
                return True
    return False


def _cofactor_det(rows) -> int:
    """Integer determinant by cofactor expansion along the first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * x * _cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j, x in enumerate(rows[0]) if x
    )


def hull_oracle(gens) -> tuple:
    """Sorted facets (c, t), <c,a> >= t, of conv(gens) + orthant: the d-subset scan.

    Every facet of an m-primary Newton polyhedron has a positive normal and
    is spanned by d generators. So each d-subset whose normal (the signed
    (d-1)-minors of its difference rows, up to sign) is positive, and which
    every generator satisfies, gives a facet. Dominated generators lie on no
    facet and are kept.
    """
    gens = [tuple(g) for g in gens]
    d = len(gens[0])
    found = set()
    for base, *pts in combinations(gens, d):
        rows = [tuple(x - y for x, y in zip(p, base)) for p in pts]
        normal = [(-1) ** j * _cofactor_det([r[:j] + r[j + 1:] for r in rows]) for j in range(d)]
        if normal[0] < 0:
            normal = [-c for c in normal]
        if min(normal) <= 0:
            continue
        normal = tuple(c // gcd(*normal) for c in normal)
        t = sum(c * x for c, x in zip(normal, base))
        if all(sum(c * x for c, x in zip(normal, g)) >= t for g in gens):
            found.add((normal, t))
    return tuple(sorted(found))


def _minor2(rows) -> int:
    """Determinant of a square integer matrix of size at most 2."""
    if not rows:
        return 1
    if len(rows) == 1:
        return rows[0][0]
    (a, b), (c, d) = rows
    return a * d - b * c


def _above_midpoint(g, gens) -> bool:
    """Whether 2g >= h + k componentwise for two generators h != k other than g."""
    low = [h for h in gens if h != g and all(y <= 2 * x for x, y in zip(g, h))]
    return any(all(y + z <= 2 * x for x, y, z in zip(g, h, k)) for h, k in combinations(low, 2))


def hull_heads(gens) -> tuple:
    """Sorted facets (c, t) of conv(gens) + orthant by pruned heads and cofactors.

    Only vertices of NP(I) span facets, so generators that are not vertices
    are dropped first: one that dominates another, a repeated one, and any g
    with 2g >= h + k componentwise for two other generators h != k (g is then
    the midpoint of two points of NP(I)). A facet normal of d vertices is the
    vector of signed (d-1)-minors of their difference rows, and is linear in
    the last row, so each (d-1)-point head computes its d cofactor columns once
    (column k: the normal with last row e_k) from C(d,2) minors of its d-2
    difference rows, and each later generator's normal is one matrix-vector
    product. A normal is kept when it is positive after a sign flip and every
    generator satisfies it.
    """
    gens = [tuple(g) for g in gens]
    d = len(gens[0])
    if d == 1:
        return (((1,), min(g[0] for g in gens)),)
    gens = [g for g in gens if not any(h != g and all(x <= y for x, y in zip(h, g)) for h in gens)]
    gens = list(dict.fromkeys(gens))
    gens = [g for g in gens if not _above_midpoint(g, gens)]
    found = set()
    for head in combinations(range(len(gens)), d - 1):
        base = gens[head[0]]
        rows = [tuple(x - y for x, y in zip(gens[i], base)) for i in head[1:]]
        # row j, column k: the j-th signed minor of (e_k, *rows), the normal for last row e_k
        matrix = [[0] * d for _ in range(d)]
        for j, k in combinations(range(d), 2):
            minor = _minor2([[x for i, x in enumerate(r) if i != j and i != k] for r in rows])
            matrix[j][k] = minor if (j + k) % 2 else -minor
            matrix[k][j] = -matrix[j][k]
        for g in gens[head[-1] + 1:]:
            last = tuple(x - y for x, y in zip(g, base))
            normal = tuple(sum(x * y for x, y in zip(row, last)) for row in matrix)
            if normal[0] < 0:
                normal = tuple(-c for c in normal)
            if min(normal) <= 0:  # a zero or mixed-sign normal bounds no facet with t > 0
                continue
            normal = tuple(c // gcd(*normal) for c in normal)
            t = sum(c * x for c, x in zip(normal, base))
            if all(sum(c * x for c, x in zip(normal, h)) >= t for h in gens):
                found.add((normal, t))
    return tuple(sorted(found))


def row_cuts_oracle(halfspaces, tops, n):
    """Per row b of the box [0, tops] over the free axes, in row-major order:
    tau = max(0, ceil((n*t - <c', b>) / c_last)) over the halfspaces (c, t)."""
    cuts = []
    for b in product(*(range(top + 1) for top in tops)):
        tau = 0
        for normal, threshold in halfspaces:
            tau = max(tau, -((sum(c * x for c, x in zip(normal, b)) - n * threshold) // normal[-1]))
        cuts.append(tau)
    return cuts


def closure_power_rows(halfspaces, cap, in_s, n):
    """The bits of closure(I^n) on the box [0, cap] by the per-row loop, for n >= 0.

    halfspaces are those of NP(I) with the S-axis last, and in_s is a
    membership table of S (semigroup_members_oracle) longer than cap[-1].
    Row b over the free axes keeps the members s >= tau of `row_cuts_oracle`;
    the bit order is that of `monomial.Ideal`. At n = 0 this is the unit
    ideal.
    """
    width = cap[-1] + 1
    row = "".join("1" if in_s[s] else "0" for s in reversed(range(width)))
    rows = [row[:width - tau] + "0" * tau for tau in row_cuts_oracle(halfspaces, cap[:-1], n)]
    return int("".join(reversed(rows)), 2)


def _det(matrix) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    n = len(rows)
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            result = -result
        result *= rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] / rows[col][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return result


def _polytope_vertices(halfspaces, d: int) -> list[tuple]:
    """All vertices of the polytope cut out by <c,a> >= t constraints."""
    verts = set()
    for combo in combinations(halfspaces, d):
        columns = [tuple(c[j] for c, _ in combo) for j in range(d)]
        solution = _solve_consistent(columns, tuple(t for _, t in combo))
        if solution is None:
            continue
        if all(sum(c * x for c, x in zip(normal, solution)) >= t for normal, t in halfspaces):
            verts.add(tuple(solution))
    return sorted(verts)


def _polytope_volume(halfspaces, d: int) -> Fraction:
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
            i for i, (normal, t) in enumerate(halfspaces)
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
            out.extend((v0,) + chain for chain in chains(sub))
        cache[face] = out
        return out

    total = Fraction(0)
    for chain in chains(frozenset(vertices)):
        if len(chain) == d + 1:
            total += abs(_det([[x - y for x, y in zip(p, chain[0])] for p in chain[1:]]))
    return total / factorial(d)


def multiplicity_oracle(halfspaces, box) -> int:
    """d! times the volume of the box minus the Newton polyhedron inside it.

    halfspaces are (normal, t) pairs for <normal, a> >= t, and box holds the
    least pure power of each variable, so the whole complement of the
    polyhedron in the orthant lies inside the box.
    """
    d = len(box)
    constraints = list(halfspaces)
    for i in range(d):
        e = tuple(int(j == i) for j in range(d))
        constraints += [(e, 0), (tuple(-x for x in e), -box[i])]
    value = (prod(box) - _polytope_volume(constraints, d)) * factorial(d)
    assert value.denominator == 1 and value > 0, value
    return int(value)


def staircase_member(gens, point) -> bool:
    """Is the monomial with this exponent vector inside the monomial ideal?"""
    return any(all(p >= g for p, g in zip(point, gen)) for gen in gens)


def box_points(bounds):
    """All lattice points of the box [0, b_1) x ... x [0, b_d)."""
    points = [()]
    for b in bounds:
        points = [p + (i,) for p in points for i in range(b)]
    return points


def naive_colength(gens, bounds) -> int:
    """Number of standard monomials (box complement of the staircase)."""
    return sum(1 for p in box_points(bounds) if not staircase_member(gens, p))


def naive_length_between(big_gens, small_gens, bounds) -> int:
    """Length of big/small for nested monomial ideals, by direct counting."""
    return naive_colength(small_gens, bounds) - naive_colength(big_gens, bounds)


def closure_members_oracle(gens, dim, n, bounds):
    """Lattice points of the n-th dilation inside a box, via the LP oracle."""
    return [p for p in box_points(bounds) if in_dilation_oracle(gens, dim, p, n)]


def semigroup_members_oracle(gens, upto) -> list[int]:
    """0/1 membership table for the numerical semigroup, by reachability."""
    member = [False] * upto
    if upto:
        member[0] = True
    for m in range(1, upto):
        member[m] = any(m >= g and member[m - g] for g in gens)
    return member



def monoid_member(in_s, gens, point) -> bool:
    """Is point in the ideal of N^v x S generated by gens (S-axis last)?

    in_s is a membership table of S (semigroup_members_oracle) longer than
    the S-coordinate of point. point lies in the ideal exactly when, for some
    generator g, point - g has nonnegative free coordinates and an
    S-coordinate in S.
    """
    for g in gens:
        diff = [p - x for p, x in zip(point, g)]
        if min(diff) >= 0 and in_s[diff[-1]]:
            return True
    return False


def monoid_minimal(in_s, gens) -> list:
    """The generators not reachable from another one, sorted and deduplicated."""
    gens = sorted(set(tuple(g) for g in gens))
    return [g for g in gens if not any(h != g and monoid_member(in_s, [h], g) for h in gens)]


@dataclass(frozen=True)
class SeriesCheck:
    ok: bool
    failures: tuple[tuple[str, int], ...]
    ge: tuple[int, ...]
    gbar: tuple[int, ...]
    sally: tuple[int, ...]
    middle: tuple[int, ...]


def _sc(n: int, power: int) -> int:
    """Coefficient of z^n in (1-z)^(-power)."""
    if n < 0:
        return 0
    return comb(n + power - 1, power - 1) if power else int(n == 0)


def _graded_diffs(values) -> tuple[int, ...]:
    return tuple(v - (values[i - 1] if i else 0) for i, v in enumerate(values))


def series_checks(normal_values, jgood_values, dim: int, e0: int) -> SeriesCheck:
    """Degreewise identities among the graded modules attached to (I, J).

    With cn[n] = λ(R/closure(I^{n+1})) and cj[n] = λ(R/J^n closure(I)):
      gbar[n]   = λ(closure(I^n)/closure(I^{n+1}))
      ge[n]     = λ(E_n/E_{n+1}) for the J-good chain E_n = J^{n-1} closure(I)
      sally[n]  = λ(closure(I^{n+1})/J^n closure(I))
      middle[n] = λ(closure(I^n)/J^n closure(I))
    Checks, for every degree n of the shorter table:
      series:     sally[n] - sally[n-1] = ge[n] - gbar[n]
      additivity: middle[n] = ge[n] + sally[n-1] = sally[n] + gbar[n]
      closed_form: ge[n] = λ(R/closure(I))·sc(n, d) + (e0 - λ(R/closure(I)))·sc(n-1, d)
    """
    lam = normal_values[0]
    n_count = min(len(normal_values), len(jgood_values))
    gbar = _graded_diffs(normal_values[:n_count])
    ge = _graded_diffs(jgood_values[:n_count])
    sally = tuple(j - n for j, n in zip(jgood_values, normal_values))
    middle = tuple(
        jgood_values[n] - (normal_values[n - 1] if n else 0) for n in range(n_count)
    )
    failures = []
    for n in range(n_count):
        s_prev = sally[n - 1] if n else 0
        if sally[n] - s_prev != ge[n] - gbar[n]:
            failures.append(("series", n))
        if middle[n] != ge[n] + s_prev:
            failures.append(("additivity_e", n))
        if middle[n] != sally[n] + gbar[n]:
            failures.append(("additivity_s", n))
        expected = lam * _sc(n, dim) + (e0 - lam) * _sc(n - 1, dim)
        if ge[n] != expected:
            failures.append(("jgood_closed_form", n))
    return SeriesCheck(not failures, tuple(failures), ge, gbar, sally, middle)


def jgood_chain_colengths(reduction, closure, nmax: int) -> tuple[int, ...]:
    """λ(R/J^n·closure(I)) for n = 0..nmax, from the chain E_1 = closure(I),
    E_(n+1) = J·E_n of bitset products."""
    values, term = [colength(closure)], closure
    for _ in range(nmax):
        term = multiply(reduction, term)
        values.append(colength(term))
    return tuple(values)


class VVReport(NamedTuple):
    """The Valabrega-Valla report of a scan: certified_cm only when no degree
    fails and the horizon reaches rn + window, inconclusive when none fails
    short of that."""

    certified_cm: bool
    inconclusive: bool
    first_failure: tuple[int, int, str] | None  # (degree, len(J.gens), witness element)
    checked_upto: int
    required_horizon: int | None


def valabrega_valla(filt, nmax, window, rn):
    """The Valabrega-Valla test F_n ∩ J = J·F_(n-1) for n = 1..rn (1..nmax
    when rn is None), the scan that `analysis.Analysis.basis` replaced by a proof.

    A failure is decisive (the associated graded ring is not Cohen-Macaulay);
    success certifies it only when nmax >= rn + window. Past rn, F_n =
    J·F_(n-1) ⊆ J, so F_n ∩ J = J·F_(n-1). On the normal filtration of an
    ideal with a pure-power reduction no prefix of J fails at any degree (the
    proof is in `Analysis.basis`), so the scan never fails there; on the
    powers of an ideal it can, and `valabrega_valla_prefixes` is compared with
    it over every prefix.
    """
    for n in range(1, (nmax if rn is None else rn) + 1):
        if intersect(filt.term(n), filt.power(1)) != filt.product(n - 1):
            failure = (n, len(filt.reduction.gens), filt.witness(1, n, 1, n - 1))
            return VVReport(False, False, failure, nmax, None)
    required = rn + window if rn is not None else None
    certified = required is not None and nmax >= required
    return VVReport(certified, not certified, None, nmax, required)


def valabrega_valla_prefixes(filt, reduction, nmax, window, rn):
    """The Valabrega-Valla test F_n ∩ P_i = P_i·F_(n-1) over every prefix
    P_i = (g_1..g_i) of the reduction generators and every degree up to nmax.

    Returns the fields of `VVReport` as a plain tuple: certified_cm,
    inconclusive, first_failure (degree, i, witness), checked_upto and
    required_horizon.
    """
    ring = filt.backend
    prefixes = []
    for g in reduction.gens:
        principal = ring.ideal([g])
        prefixes.append(ideal_sum(prefixes[-1], principal) if prefixes else principal)
    for n in range(1, nmax + 1):
        for i, pref in enumerate(prefixes, start=1):
            lhs = intersect(filt.term(n), pref)
            rhs = multiply(pref, filt.term(n - 1))
            if lhs != rhs:
                witness = next(g for g in lhs.gens if not contains(rhs, g))
                return False, False, (n, i, ring.element_str(witness)), nmax, None
    required = rn + window if rn is not None else None
    certified = required is not None and nmax >= required
    return certified, not certified, None, nmax, required


def reduction_number_scan(filt, reduction, nmax):
    """Least r with F_(n+1) = J*F_n for every n in [r, nmax], comparing every
    degree from nmax down; None when even n = nmax fails."""
    r = None
    for n in range(nmax, -1, -1):
        if filt.term(n + 1) != multiply(reduction, filt.term(n)):
            break
        r = n
    return r


class AdicFiltration(Filtration):
    """The I-adic filtration F_n = I^n, each power the memoized I·I^(n-1),
    with the J^k and J·F_n of `Filtration` over it, which `valabrega_valla`
    scans: the adic kind that `Filtration` had before the graded ring of m was
    read off the semigroup. No degree is proved past which it reduces, so its
    reduction number is `reduction_number_scan`'s, to a horizon."""

    def __init__(self, backend, ideal, reduction=None):
        super().__init__(backend, ideal, reduction)
        self.product_from = None  # no degree is known past which I^n = J·I^(n-1)

    def term(self, n: int):
        if n > 0 and n not in self._terms:
            self._terms[n] = multiply(self.ideal, self.term(n - 1))
        return super().term(n)


def maximal_vv_scan(ring, nmax, window):
    """(Valabrega-Valla report, rn) of the powers of the maximal ideal m of
    ring with its pure-power reduction J = (x_1..x_v, t^e), built as ideals
    in all d dimensions, rn scanned from nmax down by `reduction_number_scan`.
    As rn <= e - 1, the report is decisive from nmax = e - 1 + window on: it
    certifies G(m) Cohen-Macaulay or names its first failure. On k[[S]] it is
    the coefficient-ring report that `Analysis.maximal_vv` was compared with,
    and on k[[S]][U..] the report that `Analysis.maximal_vv` gave, before
    `Analysis.tangent_cone_failure` read G(m) off the semigroup."""
    m = ring.maximal()
    filt = AdicFiltration(ring, m, auto_reduction(m))
    rn = reduction_number_scan(filt, filt.reduction, nmax)
    return valabrega_valla(filt, nmax, window, rn), rn


def intersection_failures_oracle(filt, reduction, upto):
    """Every degree n = 1..upto with F_(n+1) ∩ J^n != J^n·F_1, with a
    generator of the left side outside the right (the right side lies in the
    left), as ring text; J^n is built by repeated products."""
    out, jn = [], reduction
    for n in range(1, upto + 1):
        lhs = intersect(filt.term(n + 1), jn)
        rhs = multiply(jn, filt.term(1))
        if lhs != rhs:
            witness = next(g for g in lhs.gens if not contains(rhs, g))
            out.append((n, filt.backend.element_str(witness)))
        jn = multiply(reduction, jn)
    return out


def e3_chain_failure(filt, reduction, nmax):
    """The first n in 1..nmax-1 with F_(n+1) != J^(n-1)·F_2, and a generator
    of F_(n+1) outside it as ring text; None when every degree passes. The
    chain gains one factor J per degree, as `check_e3_vanishing_cm` built it
    before it read `Filtration.reduces`."""
    chain = filt.term(2)
    for n in range(1, nmax):
        if n > 1:
            chain = multiply(reduction, chain)
        if filt.term(n + 1) != chain:
            witness = next(g for g in filt.term(n + 1).gens if not contains(chain, g))
            return n, filt.backend.element_str(witness)
    return None


def e3_containment_scan(a):
    """`check_e3_nonnegative`'s body before it read rn: with e3_bar = 0,
    F_(n+2) ⊆ J^n is compared for every n = 0..nmax-1."""
    e3 = a.e_bar(3)
    if e3 < 0:
        return refuted(f"e3_bar = {e3} is negative")
    if e3 == 0 and a.reduction is not None:
        counts, filt = a.ideal.closure_counts(a.nmax + 1), normal_filt(a)
        for n in range(a.nmax):
            if filt.meet(n, n + 2) != counts[n + 2]:
                return refuted(
                    f"e3_bar = 0 but closure(I^{n + 2}) is not inside J^{n}",
                    [Witness(n + 2, filt.witness(0, n + 2, n, 0), f"not in J^{n}")],
                )
        return verified(f"e3_bar = 0 and closure(I^(n+2)) ⊆ J^n holds for n = 0..{a.nmax - 1}")
    return verified(f"e3_bar = {e3} >= 0")


def e3_reduces_scan(a):
    """`check_e3_vanishing_cm`'s body before it read rn: F_(n+1) = J·F_n is
    compared for every n = 2..nmax-1."""
    filt = normal_filt(a)
    for n in range(2, a.nmax):
        if not filt.reduces(n):
            return refuted(
                f"closure(I^{n + 1}) != J^{n - 1}·closure(I^2) at degree {n}",
                [Witness(n + 1, filt.witness(0, n + 1, 1, n))],
            )
    return verified(
        f"closure(I^(n+1)) = J^(n-1)·closure(I^2) verified for n = 1..{a.nmax - 1} "
        "and Valabrega-Valla certifies the graded ring Cohen-Macaulay",
    )


def ideal_sum(a, b):
    """a + b, bitwise on the common cap, with the larger need of the two."""
    cap, x, y = _joint(a, b)
    return Ideal(a.sg, cap, x | y, tuple(map(max, a.need, b.need)))


def quotient_length(a, b) -> int:
    """Length of a/b as a k-vector space: the monomials in a but not in b."""
    cap, x, y = _joint(a, b)
    if y & ~x:
        raise PreconditionError("quotient_length: second ideal is not contained in the first")
    return _finite_count(x & ~y, cap)


def length_table(filt, nmax: int) -> tuple[int, ...]:
    """values[n] = λ(R/F_(n+1)) for n = 0..nmax, from the built terms."""
    return tuple(colength(filt.term(n + 1)) for n in range(nmax + 1))


def e3_product_colengths(a) -> dict[int, int]:
    """λ(R/J·closure(I^j)) for each j = 2..min(rn + 2, nmax - 1), each from a
    built product J·closure(I^j): the degrees of the e3 identity, its summands
    all 0 from rn on, that `check_almost_minimal_rn2` does not sum."""
    top = min(a.rn + 2, a.nmax - 1)
    filt = normal_filt(a)
    return {j: colength(multiply(a.reduction, filt.term(j))) for j in range(2, top + 1)}


def lam_m2_Jm_product(a) -> int:
    """λ(m²/J·m) for an analysis with closure(I) = m, as λ(R/J·m) − λ(R/m²)
    from the built products J·m ⊆ m² of the ring's maximal ideal m."""
    m = a.backend.maximal()
    return colength(multiply(a.reduction, m)) - colength(multiply(m, m))


def _value(coeffs, dim: int, n: int) -> int:
    """The table polynomial sum_i (-1)^i c_i C(n+dim-i, dim-i) at n."""
    return sum((-1) ** i * c * series_coeff(n, dim - i + 1) for i, c in enumerate(coeffs))


def fit_polynomial(values, dim: int, window: int) -> Fit:
    """Exact integral fit of values[n] = sum_i (-1)^i c_i C(n+dim-i, dim-i).

    Fits the trailing dim+1 entries by backward differences, verifies the
    preceding `window` entries, then scans backwards for the first index from
    which the polynomial matches. A backward difference lowers C(n+k, k) to
    C(n+k-1, k-1), so the (dim-i)-th difference at the last index N is
    sum_{j<=i} (-1)^j c_j C(N+i-j, i-j): a unit-triangular system, solved
    from i = 0 upward in integers. Raises HorizonError whenever the table is
    too short or the fit fails, since a longer table could still succeed.
    """
    k = dim + 1
    if window < 1:
        raise PreconditionError("verification window must be positive")
    if any(int(v) != v for v in values):
        raise PreconditionError("table entries must be integers")
    if len(values) < k + window:
        raise HorizonError(
            f"need at least {k + window} table entries to fit and verify, have {len(values)}"
            " (horizon too small)"
        )
    row = [int(v) for v in values[len(values) - k:]]
    ends = [row[-1]]  # ends[m]: the m-th backward difference at the last index N
    for _ in range(dim):
        row = [y - x for x, y in zip(row, row[1:])]
        ends.append(row[-1])
    last = len(values) - 1
    signed = []  # (-1)^i c_i
    for i in range(k):
        lower = sum(s * comb(last + i - j, i - j) for j, s in enumerate(signed))
        signed.append(ends[dim - i] - lower)
    coeffs = tuple((-1) ** i * s for i, s in enumerate(signed))
    first_fit = len(values) - k
    for n in range(first_fit - window, first_fit):
        if _value(coeffs, dim, n) != values[n]:
            raise HorizonError(
                f"fitted polynomial disagrees with the table at degree {n}"
                " inside the verification window (horizon too small)"
            )
    stable_from = first_fit - window
    while stable_from > 0 and _value(coeffs, dim, stable_from - 1) == values[stable_from - 1]:
        stable_from -= 1
    return Fit(coeffs, stable_from)


def residual_fit(values, e0: int, dim: int, window: int) -> Fit:
    """The fit with e0 given as `filtration.fit_coefficients` ran it before it
    read the h-vector: fit_polynomial of the residual e0·C(n+dim, dim) -
    values[n] in dimension dim - 1, which reads dim entries plus the window."""
    residual = [e0 * comb(n + dim, dim) - v for n, v in enumerate(values)]
    fit = fit_polynomial(residual, dim - 1, window)
    return Fit((e0, *fit.e), fit.stable_from)


def free_fit_coefficients(values, dim: int, window: int):
    """Fit of a colength table in dimension dim with its leading coefficient
    free: the trailing dim + 1 entries plus the window; that coefficient must
    be positive."""
    fit = fit_polynomial(values, dim, window)
    if fit.e[0] <= 0:
        raise HorizonError("fitted leading coefficient is not positive (horizon too small)")
    return fit


def sally_from_tables(values, dim: int, window: int):
    """Fit of the Sally lengths values[n] = λ(closure(I^{n+1}) / J^n closure(I))
    on their own, in dimension dim-1 with the ring's window; s0 may be 0."""
    if any(v < 0 for v in values) or values[0] != 0:
        raise PreconditionError("Sally lengths must be nonnegative and start at 0")
    return fit_polynomial(values, dim - 1, window)
