"""Fits of colength tables, and the proved bound of the reduction number.

Covers: the Hilbert coefficients of a colength table read off its h-vector
(`h_vector`, `h_fit`), with the degree from which the table is its
polynomial, max(0, deg h - d), in closed form: h_fit reads h alone. Where the
normal G is Cohen-Macaulay, h is cut at the proved bound of rn; on every
other column `fit_coefficients` cuts it where its partial sums reach the
known multiplicity over a verification window, the one fit that can fail.
Also the bound B = d + floor(Fr/c) of the reduction number of the normal
filtration on every ring with a pure-power reduction (`rn_bound`). The
module builds no ideal and imports only `errors`: the caller passes the
tables and the reduction, and `analysis.Analysis` counts the columns and
reads the Sally coefficients off the normal fit.

All binomials follow one convention: series_coeff(n, p) is the coefficient of
z^n in (1-z)^(-p). The usual C(n+j, j) is series_coeff(n, j+1); for p = 0 the
coefficient degenerates to the indicator of n = 0, which is exactly what the
length bounds need in dimension 1.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb
from typing import NamedTuple

from .errors import HorizonError, PreconditionError


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
    """B = d + floor(Fr/c): F_(n+1) = J·F_n for every n >= B, so rn <= B, for
    d the dimension, Fr the Frobenius number of S (-1 for S = N) and c the
    exponent of t in the reduction J, one pure power per axis.

    `analysis.certify` and `analysis.auto_reduction` admit only J = (x_1^a_1,
    ..., x_v^a_v, t^c), and with l(b, s) = sum b_i/a_i + s/c, F_n =
    closure(I^n) = closure(J^n) is spanned by the monomials (b, s) of N^v x S
    with l >= n (`analysis.Analysis.basis`); J·F_n ⊆ F_(n+1) always. A monomial x
    = (b, s) of F_(n+1) lies in J·F_n if some b_i >= a_i, as x - a_i·e_i lies
    in F_n, and so if s - c lies in S. Otherwise every b_i <= a_i - 1 and s - c
    <= Fr, so n + 1 <= l(x) <= sum (a_i - 1)/a_i + (Fr + c)/c, and n <= v +
    floor(Fr/c) = B - 1. On S = N, B = d - 1 (Reid-Roberts-Vitulli, Comm.
    Algebra 31, 2003)."""
    return len(reduction.cap) + (reduction.sg.conductor - 1) // max(g[-1] for g in reduction.gens)


class Fit(NamedTuple):
    """Exact coefficients e of a table polynomial, which matches the table
    from degree stable_from on."""

    e: tuple[int, ...]
    stable_from: int


def h_vector(values, dim: int) -> tuple[int, ...]:
    """h_n = sum_j (-1)^j C(dim+1, j) values[n-j] for each n of values: the
    coefficients of (1-z)^(dim+1)·sum_n values[n] z^n up to that degree."""
    return tuple(sum((-1) ** j * comb(dim + 1, j) * values[n - j]
                     for j in range(min(n, dim + 1) + 1)) for n in range(len(values)))


def h_fit(h, dim: int) -> Fit:
    """The coefficients e_i = sum_k C(k, i)·h_k, i = 0..dim, of the colength
    table whose series is h(z)/(1-z)^(dim+1), h the whole h-vector, and the
    first degree from which the table is its polynomial.

    h(z) = sum_i (-1)^i e_i (1-z)^i plus terms of order (1-z)^(dim+1), which
    the series gives back as a polynomial in z. The table is sum_k h_k
    C(n-k+dim, dim) with C = 0 for n < k, its polynomial the same sum with
    C(x, dim) = x(x-1)...(x-dim+1)/dim! for every x; the two agree for n >= k -
    dim at every k of h, so from deg h - dim on. At n = deg h - dim - 1 >= 0
    only k = deg h is short, with C(-1, dim) = (-1)^dim, so they differ by
    ±h_(deg h) != 0: stable_from = max(0, deg h - dim) (deg h = 0 for h = 0).
    """
    coeffs = tuple(sum(comb(k, i) * x for k, x in enumerate(h)) for i in range(dim + 1))
    return Fit(coeffs, max(0, max((k for k, x in enumerate(h) if x), default=0) - dim))


def fit_coefficients(values, e0: int, dim: int, window: int) -> Fit:
    """Hilbert coefficients (e0, e1..e_dim) of a colength table in dimension
    dim whose leading coefficient e0 is known, verified over `window` entries.

    The residual e0·C(n+dim, dim) - values[n] has the series (e0 - h(z))/(1-z)^(dim+1),
    h = h_vector(values, dim), so its dim-th differences are e0 - sum_(k<=n) h_k.
    It is a polynomial over the last dim entries and the window exactly when
    those partial sums are e0 at every n >= top = len(values) - window, and then
    h is cut at top: the fit reads dim entries plus the window.
    """
    if window < 1:
        raise PreconditionError("verification window must be positive")
    if any(int(v) != v for v in values):
        raise PreconditionError("table entries must be integers")
    if len(values) < dim + window:
        raise HorizonError(
            f"need at least {dim + window} table entries to fit and verify, have {len(values)}"
            " (horizon too small)"
        )
    h = h_vector([int(v) for v in values], dim)
    top = len(values) - window
    misses = [n for n, total in enumerate(accumulate(h)) if n >= top and total != e0]
    if misses:
        raise HorizonError(
            f"the table is not a polynomial of leading coefficient {e0} from degree"
            f" {misses[-1] - dim} on, inside the verification window (horizon too small)"
        )
    return h_fit(h[:top + 1], dim)
