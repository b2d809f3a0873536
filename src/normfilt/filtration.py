"""Filtration analytics over a monoid ring.

Covers: the memoized terms F_n = closure(I^n) of the normal filtration
beside the powers J^k of a reduction and the products J·F_n, binomial-basis
coefficient fits of length tables with a known multiplicity and a
verification window, and reduction numbers, proved at most d + floor(Fr/c)
on every ring (`rn_bound`). No Valabrega-Valla test is run: the normal G
is proved Cohen-Macaulay (`analysis.Analysis.vv`), and G(m) is read off the
semigroup, with no power of m built.
The module imports only `errors` and `monomial`: the caller passes the
verification window and the tables, and `analysis.Analysis` computes the
J-good and Sally columns and reads the Sally coefficients off the normal fit.

All binomials follow one convention: series_coeff(n, p) is the coefficient of
z^n in (1-z)^(-p). The usual C(n+j, j) is series_coeff(n, j+1); for p = 0 the
coefficient degenerates to the indicator of n = 0, which is exactly what the
length bounds need in dimension 1.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .errors import HorizonError, PreconditionError
from .monomial import (closure_power, colength, contains, intersect, multiply, socle_length,
                       unit_ideal)


def series_coeff(n: int, power: int) -> int:
    """Coefficient of z^n in (1-z)^(-power); power must be >= 0."""
    if power < 0:
        raise PreconditionError("negative series power")
    if n < 0:
        return 0
    if power == 0:
        return 1 if n == 0 else 0
    return comb(n + power - 1, power - 1)


def rn_bound(reduction) -> int:
    """B = d + floor(Fr/c), from which F_(n+1) = J·F_n (see `Filtration`): d the
    dimension, Fr the Frobenius number of S and c the exponent of t in the
    reduction J, one pure power per axis."""
    return len(reduction.cap) + (reduction.sg.conductor - 1) // max(g[-1] for g in reduction.gens)


class Filtration:
    """The normal filtration F_n = closure(I^n) with memoized terms, and the
    one place where its reduction J is used as an ideal: it keeps J^k and
    J·F_n beside the terms, each built once, and answers the lengths and
    witnesses that the checkers compare (PreconditionError without J).

    From degree `product_from` = B + 1 on, B = `rn_bound(J)`, F_n is the memoized
    J·F_(n-1), so rn <= B is proved on every ring. `analysis.certify` and
    `analysis.auto_reduction` admit only J = (x_1^a_1, ..., x_v^a_v, t^c), and with
    l(b, s) = sum b_i/a_i + s/c, F_n = closure(I^n) = closure(J^n) is spanned by the
    monomials (b, s) of N^v x S with l >= n (`analysis.Analysis.vv`); J·F_n ⊆ F_(n+1)
    always. A monomial x = (b, s) of F_(n+1) lies in J·F_n if some b_i >= a_i, as x
    - a_i·e_i lies in F_n, and so if s - c lies in S. Otherwise every b_i <= a_i - 1
    and s - c <= Fr, the Frobenius number of S (-1 for S = N), so n + 1 <= l(x) <=
    sum (a_i - 1)/a_i + (Fr + c)/c, and n <= v + floor(Fr/c) = d - 1 + floor(Fr/c).
    So F_(n+1) = J·F_n for every n >= B = d + floor(Fr/c); on S = N, B = d - 1
    (Reid-Roberts-Vitulli, Comm. Algebra 31, 2003). Terms below product_from are
    closure powers, built on the box of the ideal; product_from is None without J.

    The chain J^(n-1)·F_2 of `e3_vanishing_cm` is read through `reduces`: if
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

    def socle(self, k: int) -> int:
        """lambda((J^k : m)/J^k), counted on the memoized J^k."""
        return socle_length(self.power(k))

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
        reduces by construction (see the class), so n is scanned down from
        product_from - 2. PreconditionError without J."""
        self.power(1)  # PreconditionError without J
        r = self.product_from - 1
        while r and self.reduces(r - 1):
            r -= 1
        return r


class Fit(NamedTuple):
    """Exact coefficients e of a table polynomial, which matches the table
    from degree stable_from on."""

    e: tuple[int, ...]
    stable_from: int


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
    return Fit(coeffs, stable_from)


def fit_coefficients(values, e0: int, dim: int, window: int) -> Fit:
    """Hilbert coefficients (e0, e1..e_dim) of a colength table in dimension
    dim whose leading coefficient e0 is known, verified over `window` entries.

    e0·C(n+dim, dim) - values[n] = sum_(i>=1) (-1)^(i-1) e_i C(n+dim-i, dim-i)
    is fitted in dimension dim-1, so the fit reads dim entries plus the window.
    """
    residual = [e0 * series_coeff(n, dim + 1) - v for n, v in enumerate(values)]
    fit = fit_polynomial(residual, dim - 1, window)
    return Fit((e0, *fit.e), fit.stable_from)
