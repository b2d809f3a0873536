"""Independent brute-force oracles used to validate the package's exact code.

Nothing here imports the geometry or filtration modules under test: dilation
membership is decided by an exhaustive exact convex-combination search
(Caratheodory supports plus coordinate rays, solved over Fractions), lengths
by direct lattice enumeration against the generator staircase, and semigroup
membership by a direct reachability sweep.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


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
