"""Independent brute-force oracles used to validate the package's exact code.

Nothing here imports the geometry or filtration modules under test: dilation
membership is decided by an exhaustive exact convex-combination search
(Caratheodory supports plus coordinate rays, solved over Fractions), the
facets of a Newton polyhedron by a scan of every d-subset of generators, the
multiplicity by vertex enumeration and triangulation of the Newton
polyhedron cut by its pure-power box, lengths by direct lattice enumeration
against the generator staircase, and semigroup membership by a direct
reachability sweep. The per-row loop that the row sweep of `newton.row_cuts`
replaced stays here as the differential reference for closure powers, and so
does the byte-string reshape for the masked one; `hull_heads` is the pruned
head/cofactor hull that the double description of `newton.newton_polyhedron`
replaced. `valabrega_valla_prefixes` is the Valabrega-Valla loop over every
prefix of J and every degree, and `reduction_number_scan` the reduction
number by a scan of every degree from the horizon down, which the proved
bound of `filtration.reduction_number` cut short for the normal filtration
of a polynomial ring; both use the ideal arithmetic of `normfilt.monomial`.
`series_checks` is the reference for the closed-form check of the graded
lengths: it tests every degreewise identity among the graded modules,
including the three that hold for any two tables. `jgood_chain_colengths`
is the J-good table built from bitset products, the chain that the closed
form of `analysis.Analysis.jgood_values` replaced.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial, gcd, prod

from normfilt.monomial import colength, contains, ideal_sum, intersect, multiply


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


def closure_power_rows(halfspaces, box, conductor, in_s, n):
    """(cap, bits) of closure(I^n) by the per-row loop, for n >= 0.

    halfspaces and box describe NP(I) with the S-axis last, conductor is
    that of S and in_s a membership table of S (semigroup_members_oracle)
    longer than max(n * box[-1], conductor). Row b over the free axes keeps
    the members s >= tau with tau = max(0, ceil((n*t - <c', b>) / c_last))
    over the halfspaces (c, t); the box and bit order are those of
    `monomial.Ideal`. At n = 0 this is the unit ideal.
    """
    tops = [n * e for e in box]
    cap = tuple(tops[:-1]) + (max(tops[-1], conductor),)
    width = cap[-1] + 1
    row = "".join("1" if in_s[s] else "0" for s in reversed(range(width)))
    rows = []
    for b in product(*(range(c + 1) for c in cap[:-1])):
        tau = 0
        for normal, threshold in halfspaces:
            tau = max(tau, -((sum(c * x for c, x in zip(normal, b)) - n * threshold) // normal[-1]))
        rows.append(row[:width - tau] + "0" * tau)
    return cap, int("".join(reversed(rows)), 2)


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


def reshape_bytes(bits: int, old, new) -> int:
    """Lay bits from the box [0, old] onto [0, new], one byte per point: an
    axis that grows repeats its top slice, an axis that shrinks is cut. This
    is the byte-string reshape that the masked block moves of
    `monomial._reshape` replaced; its two branches, block by block and slice
    by slice, give the same bits."""
    if old == new or not bits:
        return bits
    cur = [c + 1 for c in old]
    buf = format(bits, f"0{prod(cur)}b").encode()[::-1]
    for axis, width in enumerate(c + 1 for c in new):
        w = cur[axis]
        if w == width:
            continue
        outer, inner = prod(cur[:axis]), prod(cur[axis + 1:])
        src, block, keep = buf, w * inner, min(w, width) * inner
        if outer <= width * inner:
            parts = []
            for q in range(0, outer * block, block):
                parts.append(src[q:q + keep])
                if width > w:
                    parts.append(src[q + block - inner:q + block] * (width - w))
            buf = b"".join(parts)
        else:
            buf = bytearray(outer * width * inner)
            for k in range(width):
                at = min(k, w - 1) * inner
                for r in range(inner):
                    buf[k * inner + r::width * inner] = src[at + r::block]
        cur[axis] = width
    return int(buf[::-1], 2)


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


def valabrega_valla_prefixes(filt, reduction, nmax, window, rn):
    """The Valabrega-Valla test F_n ∩ P_i = P_i·F_(n-1) over every prefix
    P_i = (g_1..g_i) of the reduction generators and every degree up to nmax.

    Returns the fields of `filtration.VVReport` as a plain tuple: certified_cm,
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
