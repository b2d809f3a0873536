"""Filtration analytics over a monoid ring.

Covers: memoized filtration terms (integral-closure powers and ordinary
powers), exact length tables, binomial-basis coefficient fits with a
verification window, Sally-module lengths, reduction numbers (proved at most
d-1 for the normal filtration when S = N, elsewhere over a whole
window), the Valabrega-Valla test on J up to the reduction number, and the
intersection test closure(I^{n+1}) ∩ J^n = J^n closure(I). The J-good table
lambda(R/J^n closure(I)) is a closed form in `analysis.Analysis.jgood_values`,
so no J-good chain is built here.

All binomials follow one convention: series_coeff(n, p) is the coefficient of
z^n in (1-z)^(-p). The usual C(n+j, j) is series_coeff(n, j+1); for p = 0 the
coefficient degenerates to the indicator of n = 0, which is exactly what the
length bounds need in dimension 1.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .errors import HorizonError, PreconditionError
from .monomial import closure_power, colength, contains, intersect, multiply, unit_ideal

KINDS = ("normal", "adic")


def series_coeff(n: int, power: int) -> int:
    """Coefficient of z^n in (1-z)^(-power); power must be >= 0."""
    if power < 0:
        raise PreconditionError("negative series power")
    if n < 0:
        return 0
    if power == 0:
        return 1 if n == 0 else 0
    return comb(n + power - 1, power - 1)


def default_window(dim: int) -> int:
    return dim + 2


def default_nmax(dim: int) -> int:
    """Least default horizon whose table holds a fit of dim+1 entries plus its window."""
    return max(dim + 5, dim + default_window(dim))


class Filtration:
    """A descending multiplicative filtration with memoized terms.

    Ordinary powers grow from the memo, I^n = I*I^(n-1). From degree
    `product_from` on, a term is the one before times the reduction J: from
    degree d = len(ideal.cap) on for the normal filtration of an ideal whose
    semigroup is S = N (a polynomial ring or k[[t]][U..], both regular),
    given a monomial reduction J of I. There closure(I^n) = closure(J^n) =
    J*closure(J^(n-1)) for n >= d (Reid-Roberts-Vitulli, Comm. Algebra 31,
    2003, by Caratheodory's theorem). For the pure powers x_i^(a_i) that
    `analysis.certify` admits it is direct: x^b lies in closure(J^n) when
    sum b_i/a_i >= n, and as n >= d some b_i >= a_i, so x^b is x_i^(a_i)
    times a monomial of closure(J^(n-1)).
    Every other normal term is a closure power, and product_from is None
    where no such degree is known. Terms are built on the box of the ideal.
    """

    def __init__(self, backend, kind: str, ideal=None, reduction=None):
        if kind not in KINDS:
            raise PreconditionError(f"unknown filtration kind {kind!r}")
        if ideal is None:
            raise PreconditionError(f"{kind} filtration requires an ideal")
        self.backend = backend
        self.kind = kind
        self.ideal = ideal
        self.reduction = reduction
        self.product_from = None
        if kind == "normal" and reduction is not None and ideal.sg.conductor == 0:
            self.product_from = len(ideal.cap)
        self._terms = {0: unit_ideal(ideal.sg, len(ideal.cap), ideal.cap)}

    def term(self, n: int):
        if n < 0:
            raise PreconditionError("negative filtration index")
        if n in self._terms:
            return self._terms[n]
        if self.product_from is not None and n >= self.product_from:
            t = multiply(self.reduction, self.term(n - 1))
        elif self.kind == "adic":
            t = multiply(self.ideal, self.term(n - 1))
        else:
            t = closure_power(self.ideal, n, self.ideal.cap)
        self._terms[n] = t
        return t


def length_table(filt: Filtration, nmax: int) -> tuple[int, ...]:
    """values[n] = length of R/F_{n+1} for n = 0..nmax."""
    return tuple(colength(filt.term(n + 1)) for n in range(nmax + 1))


class Fit(NamedTuple):
    """Exact coefficients e of a table polynomial, which matches the table
    from degree stable_from on."""

    e: tuple[int, ...]
    stable_from: int


def fit_polynomial(values, dim: int, window: int) -> tuple[tuple[int, ...], int]:
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

    def poly(n):
        return sum((-1) ** i * coeffs[i] * series_coeff(n, dim - i + 1) for i in range(k))

    first_fit = len(values) - k
    for n in range(first_fit - window, first_fit):
        if poly(n) != values[n]:
            raise HorizonError(
                f"fitted polynomial disagrees with the table at degree {n}"
                " inside the verification window (horizon too small)"
            )
    stable_from = first_fit - window
    while stable_from > 0 and poly(stable_from - 1) == values[stable_from - 1]:
        stable_from -= 1
    return coeffs, stable_from


def fit_coefficients(values, dim: int) -> Fit:
    """Hilbert coefficients of a colength table in dimension dim."""
    fit = Fit(*fit_polynomial(values, dim, default_window(dim)))
    if fit.e[0] <= 0:
        raise HorizonError("fitted leading coefficient is not positive (horizon too small)")
    return fit


def sally_lengths(normal_values, jgood_values) -> tuple[int, ...]:
    """λ(closure(I^{n+1}) / J^n closure(I)): entry n of the J-good colength
    table minus entry n of the normal one."""
    return tuple(j - n for j, n in zip(jgood_values, normal_values))


def sally_from_tables(normal_values, jgood_values, dim: int) -> Fit:
    """Exact fit of the Sally lengths λ(closure(I^{n+1}) / J^n closure(I)).

    Both inputs are colength tables indexed by n, so entry n is their
    difference; entry 0 vanishes by construction. The fit lives in dimension
    dim-1, one binomial degree below the ring tables, but verifies the ring's
    window; its leading coefficient s0 may be 0.
    """
    values = sally_lengths(normal_values, jgood_values)
    if any(v < 0 for v in values) or values[0] != 0:
        raise PreconditionError("Sally lengths must be nonnegative and start at 0")
    return Fit(*fit_polynomial(values, dim - 1, default_window(dim)))


def reduction_number(filt: Filtration, reduction, nmax: int) -> int:
    """Least r with F_{n+1} = J*F_n for every n in [r, nmax], scanning n down
    from the top.

    When J is the filtration's own reduction and its terms are products from
    degree p = filt.product_from on, F_{n+1} = J*F_n holds for every
    n >= p - 1, so the scan starts at n = p - 2. For the normal filtration
    of an ideal with S = N, p = d and the products are a theorem, not a
    choice: closure(I^(n+1)) = closure(J^(n+1)) = J*closure(J^n) once
    n + 1 >= d, as a monomial x^b with sum b_i/a_i >= n + 1 >= d has some
    b_i >= a_i (see `Filtration`). So rn <= d - 1 is proved, only n <= d - 2
    is compared, and the value equals the full scan's. Elsewhere the value
    is certified up to nmax only. Raises HorizonError when even the top
    degree fails, since no reduction number is certifiable within the
    horizon.
    """
    top = nmax
    if filt.product_from is not None and reduction == filt.reduction:
        top = min(nmax, filt.product_from - 2)
    r = top + 1
    for n in range(top, -1, -1):
        if filt.term(n + 1) == multiply(reduction, filt.term(n)):
            r = n
        else:
            break
    if r == nmax + 1:
        raise HorizonError(
            f"F_{nmax + 1} != J*F_{nmax}; no reduction number certifiable up to {nmax}"
        )
    return r


class VVReport(NamedTuple):
    certified_cm: bool
    inconclusive: bool
    first_failure: tuple[int, int, str] | None  # (degree, len(J.gens), witness element)
    checked_upto: int
    required_horizon: int | None


def witness_element(backend, lhs, rhs) -> str:
    """A generator of lhs outside rhs, else of rhs outside lhs, as ring text."""
    for g in lhs.gens:
        if not contains(rhs, g):
            return backend.element_str(g)
    for g in rhs.gens:
        if not contains(lhs, g):
            return backend.element_str(g)
    raise PreconditionError("ideals differ but no witness generator found")


def valabrega_valla(filt: Filtration, reduction, nmax: int, window: int, rn: int | None) -> VVReport:
    """Valabrega-Valla membership test F_n ∩ J = J·F_{n-1} for n = 1..rn
    (1..nmax when rn is None).

    A failure is decisive (the associated graded ring is not Cohen-Macaulay);
    full success certifies Cohen-Macaulayness only when the horizon
    comfortably exceeds the certified reduction number. The criterion asks
    the same of every prefix P_i = (g_1..g_i) of the reduction generators,
    and of every degree; for the pure-power J that `analysis.certify` admits, J alone
    up to rn decides it:

    - Past rn, F_n = J·F_{n-1} ⊆ J, so F_n ∩ J = J·F_{n-1}.
    - No prefix fails first. Let n be the first degree at which some P_i
      fails (n >= 2, as F_1 ⊇ J), and x a monomial of F_n ∩ P_i outside
      P_i·F_{n-1}. Were x in J·F_{n-1}, then x = g_j·y with y in F_{n-1},
      and j > i as x is outside P_i·F_{n-1}. Some g_k with k <= i divides
      x, and g_j, g_k are pure powers of different axes, so g_k divides y.
      So y lies in F_{n-1} ∩ P_i = P_i·F_{n-2}, as P_i passes at degree
      n-1, and x in P_i·F_{n-1}: a contradiction. So J = P_d first fails at
      degree n too.
    """
    for n in range(1, (nmax if rn is None else rn) + 1):
        lhs = intersect(filt.term(n), reduction)
        rhs = multiply(reduction, filt.term(n - 1))
        if lhs != rhs:
            witness = witness_element(filt.backend, lhs, rhs)
            return VVReport(False, False, (n, len(reduction.gens), witness), nmax, None)
    required = rn + window if rn is not None else None
    certified = required is not None and nmax >= required
    return VVReport(certified, not certified, None, nmax, required)


def intersection_failures(backend, normal_filt: Filtration, reduction_powers: Filtration,
                          upto: int) -> list[tuple[int, str]]:
    """Degrees n with closure(I^{n+1}) ∩ J^n != J^n closure(I), plus witnesses.

    reduction_powers is the adic filtration of J, which holds J^n.
    """
    out = []
    for n in range(1, upto + 1):
        jn = reduction_powers.term(n)
        lhs = intersect(normal_filt.term(n + 1), jn)
        rhs = multiply(jn, normal_filt.term(1))
        if lhs != rhs:
            out.append((n, witness_element(backend, lhs, rhs)))
    return out
