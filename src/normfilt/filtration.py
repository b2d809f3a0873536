"""Fits of colength tables, and the proved bound of the reduction number.

Covers: the Hilbert coefficients of a normal column read off its h-vector
where the normal G is Cohen-Macaulay (`h_vector`, `h_fit`), the windowed
binomial-basis fits of every other column, with a known multiplicity and a
verification window, and the bound B = d + floor(Fr/c) of the reduction
number of the normal filtration on every ring with a pure-power reduction
(`rn_bound`). The module builds no ideal and imports only `errors`: the
caller passes the tables and the reduction, and `analysis.Analysis` counts
the columns and reads the Sally coefficients off the normal fit.

All binomials follow one convention: series_coeff(n, p) is the coefficient of
z^n in (1-z)^(-p). The usual C(n+j, j) is series_coeff(n, j+1); for p = 0 the
coefficient degenerates to the indicator of n = 0, which is exactly what the
length bounds need in dimension 1.
"""

from __future__ import annotations

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


def _value(coeffs, dim: int, n: int) -> int:
    """The table polynomial sum_i (-1)^i c_i C(n+dim-i, dim-i) at n."""
    return sum((-1) ** i * c * series_coeff(n, dim - i + 1) for i, c in enumerate(coeffs))


def h_vector(values, dim: int) -> tuple[int, ...]:
    """h_n = sum_j (-1)^j C(dim+1, j) values[n-j] for each n of values: the
    coefficients of (1-z)^(dim+1)·sum_n values[n] z^n up to that degree."""
    return tuple(sum((-1) ** j * comb(dim + 1, j) * values[n - j]
                     for j in range(min(n, dim + 1) + 1)) for n in range(len(values)))


def h_fit(h, values, dim: int) -> Fit:
    """The coefficients e_i = sum_k C(k, i)·h_k, i = 0..dim, of a colength
    table values whose series is h(z)/(1-z)^(dim+1), h the whole h-vector.

    h(z) = sum_i (-1)^i e_i (1-z)^i plus terms of order (1-z)^(dim+1), which
    the series gives back as a polynomial in z; values[n] = sum_k h_k
    C(n-k+dim, dim) is the table polynomial wherever n >= k - dim for every
    k of h, so from max(0, deg h - dim) on. stable_from scans down from there.
    """
    coeffs = tuple(sum(comb(k, i) * x for k, x in enumerate(h)) for i in range(dim + 1))
    stable_from = max(0, max(k for k, x in enumerate(h) if x) - dim)
    while stable_from and _value(coeffs, dim, stable_from - 1) == values[stable_from - 1]:
        stable_from -= 1
    return Fit(coeffs, stable_from)


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


def fit_coefficients(values, e0: int, dim: int, window: int) -> Fit:
    """Hilbert coefficients (e0, e1..e_dim) of a colength table in dimension
    dim whose leading coefficient e0 is known, verified over `window` entries.

    e0·C(n+dim, dim) - values[n] = sum_(i>=1) (-1)^(i-1) e_i C(n+dim-i, dim-i)
    is fitted in dimension dim-1, so the fit reads dim entries plus the window.
    """
    residual = [e0 * series_coeff(n, dim + 1) - v for n, v in enumerate(values)]
    fit = fit_polynomial(residual, dim - 1, window)
    return Fit((e0, *fit.e), fit.stable_from)
