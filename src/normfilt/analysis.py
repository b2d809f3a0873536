"""Lazy analysis of one entry: every table, fit and certificate on first read.

An Analysis validates its entry when it is built; a command or checker then
reads only the tables, fits, reduction number and Cohen-Macaulay basis it
needs, and each is computed once. The normal column is counted on every
ring (`monomial.Ideal.closure_counts`), so no command builds a term of the
normal filtration, and the adic column keeps only the running power of I.
Reductions are one pure power per axis, certified against the simplex NP(J);
with one, and on S = N, the normal G is proved Cohen-Macaulay (`Analysis.basis`),
and its h-vector, read off the counted column up to the proved bound of rn,
gives the normal coefficients and rn (`Analysis.h`). The
J-good table is a closed form in e0 = lambda(R/J) and lambda(R/closure(I));
no J-good chain is built, G(m) is read off the semigroup, and the only ideals
built from J are the powers J^1..J^3 whose socles `socle_lengths` counts.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, repeat
from math import comb, lcm

from .errors import HorizonError, InputError, NotMPrimary, PreconditionError
from .monomial import (colength, ideal, ideal_contains, is_m_primary, lay, multiply, power_box,
                       socle_length)
from .newton import least_pure_powers


def default_window(dim: int) -> int:
    return dim + 2


def default_nmax(dim: int) -> int:
    """Default horizon: its nmax + 1 entries hold a windowed fit's dim entries
    plus its window with at least one to spare. Only the adic column and the
    normal column of S != N without a reduction are fitted through a window
    (`Analysis.h`), but lowering the horizon would move every default output."""
    return max(dim + 5, dim + default_window(dim))


def _covers(a, exps) -> bool:
    """Whether a ⊆ closure(J) for J = (x_i^(e_i)), e = exps: NP(J) is the simplex
    sum b_i/e_i >= 1, so with L = lcm(e) every minimal generator g of a must
    have sum g_i·(L/e_i) >= L. No closure power or hull is built."""
    top = lcm(*exps)
    return all(sum(x * (top // e) for x, e in zip(g, exps)) >= top for g in a.gens)


def auto_reduction(a):
    """The least pure power of the m-primary ideal a along each axis, on a's
    box, when it is a reduction of a; else None. It lies in a by
    construction, so it is one iff a ⊆ closure(J)."""
    exps = least_pure_powers(a.gens, len(a.cap))
    if not _covers(a, exps):
        return None
    d = len(exps)
    return ideal(a.sg, d, [tuple(e * (k == i) for k in range(d)) for i, e in enumerate(exps)], a.cap)


def certify(a, j):
    """j, once it is one pure power of each variable with j ⊆ a ⊆ closure(j)."""
    supports = sorted(tuple(i for i, x in enumerate(g) if x) for g in j.gens)
    if supports != [(i,) for i in range(len(a.cap))]:
        raise PreconditionError("reduction must be generated by one pure power of each variable")
    if not ideal_contains(a, j):
        raise PreconditionError("the given reduction ideal is not contained in the input ideal")
    if not _covers(a, least_pure_powers(j.gens, len(j.cap))):  # e0 is computed only here
        raise PreconditionError(f"the given ideal is not a reduction: multiplicity {j.e0} != {a.e0}")
    return j


class Analysis:
    """Tables, fits and certificates for one entry, each computed on first read.

    The constructor validates the request (the horizon, the tamper index,
    the m-primary test and the reduction certificate) and lays nothing: I
    and J stay on their own boxes. Each reader lays the ideals it multiplies
    once, on the box of the highest degree it reads (adic_values I,
    socle_lengths J), so operands share a box inside a reader. The normal fit
    and rn come from h on the proved basis (`basis`): with a reduction, and on
    S = N. Every other fit, of the adic column and of the normal column on the
    window basis, reads the column's h too, cut where its partial sums are e0
    over the window `default_window(dim)` (ē0 = e0 by Rees). Only those two
    windowed fits can fail: a failed one reads None, and its *_error field
    holds the error. sally_fit is the normal fit shifted by lambda(closure(I)/J);
    with a reduction the normal fit is on the proved basis, so it never fails.
    The table columns need no filtration module; h, the fits and
    what reads them (rn, e_bar, g_s, base_numbers) import `filtration` on
    first read, and basis, a proof, reads nothing. The J-good and Sally columns,
    the Sally fit and lam_I1_J read e0 for lambda(R/J), not J. rn, sally_fit and
    socle_lengths raise PreconditionError without a reduction;
    tangent_cone_failure reads only S.
    """

    def __init__(self, entry: EntryData):
        self.entry, self.name, self.ideal = entry, entry.name, entry.ideal
        self.backend, self.dim = entry.backend, entry.backend.dim
        self.window = default_window(self.dim)
        self.nmax = entry.nmax if entry.nmax is not None else default_nmax(self.dim)
        if self.nmax < 1:
            raise InputError(f"nmax must be a positive integer, got {self.nmax}")
        if entry.tamper_normal is not None and not 0 <= entry.tamper_normal <= self.nmax:
            raise InputError(
                f"tamper index {entry.tamper_normal} outside the table range 0..{self.nmax}"
            )
        if not is_m_primary(self.ideal):
            raise NotMPrimary("the input ideal is not primary to the maximal ideal")
        if entry.reduction == "auto":
            self.reduction = auto_reduction(self.ideal)  # on the ideal's box
            self.reduction_source = "auto" if self.reduction is not None else None
        else:
            self.reduction = certify(self.ideal, entry.reduction)
            self.reduction_source = "given"

    e0 = property(lambda self: self.ideal.e0)

    def _need_reduction(self, field: str):
        if self.reduction is None:
            raise PreconditionError(f"{field} needs a certified reduction J; the entry has none")

    @property
    def lam_R_I1(self) -> int:
        return self.ideal.closure_counts(1)[1]

    @property
    def closure_is_maximal(self) -> bool:
        """I is proper, so closure(I) lies in m, and it is m iff lambda(R/closure(I)) = 1."""
        return self.lam_R_I1 == 1

    @cached_property
    def mu_ideal(self) -> int:
        return len(self.ideal.gens)

    # the atoms minimally generate m: the free unit vectors and the generators of S
    mu_maximal = property(lambda self: self.dim - 1 + len(self.backend.sg.gens))

    @cached_property
    def normal_values(self) -> tuple[int, ...]:
        """lambda(R/closure(I^(n+1))) for n = 0..nmax, with the tampered entry if any.

        The column is counted by `Ideal.closure_counts` for every ring: no
        closure power is built for it.
        """
        values = self.ideal.closure_counts(self.nmax + 1)[1:]
        if self.entry.tamper_normal is not None:
            values[self.entry.tamper_normal] += 1
        return tuple(values)

    @cached_property
    def adic_values(self) -> tuple[int, ...]:
        """lambda(R/I^(n+1)) for n = 0..nmax, from the running product I^(n+1)
        = I^n·I on the box of I^(nmax+1): only the current power is kept."""
        i = lay(self.ideal, power_box(self.ideal, self.nmax + 1))
        return tuple(map(colength, accumulate(repeat(i, self.nmax + 1), multiply)))

    def _fit(self, values):
        """(the fit, None), or (None, the error) when the fit raises HorizonError."""
        from .filtration import fit_coefficients
        try:
            return fit_coefficients(values, self.e0, self.dim, self.window), None
        except HorizonError as exc:
            return None, exc

    @property
    def basis(self) -> str:
        """Where the normal G is proved Cohen-Macaulay: "proved" with a reduction
        J, and on S = N without one; "window" elsewhere, where the normal fit
        reads a window of the printed column. It reads no column, h or rn.

        `certify` and `auto_reduction` admit only J = (x_1^a_1, ..., x_v^a_v, t^c).
        With l(b, s) = sum b_i/a_i + s/c, F_n = closure(I^n) = closure(J^n) is
        spanned by the monomials (b, s) of N^v x S with l >= n. A monomial x of F_n
        in a prefix P = (g_1..g_i) of J is g_k + y for some k <= i and y in
        N^v x S, and l(g_k) = 1, so l(y) >= n - 1 and y lies in F_(n-1). So
        F_n ∩ P = P·F_(n-1) for every prefix and every n >= 1. R is Cohen-Macaulay
        and J a system of parameters that reduces F, so this is the Valabrega-Valla
        criterion (Nagoya Math. J. 72, 1978; for filtrations Huckaba-Marley,
        J. London Math. Soc. 56, 1997), and G is Cohen-Macaulay. Where S = N
        Hochster (Ann. Math. 96, 1972) gives it with no J as well: ⊕ F_n·s^n
        (F_n = R for n <= 0) is the ring of a normal monoid, and G its quotient
        by the nonzerodivisor s^(-1)."""
        return "proved" if self.reduction is not None or not self.backend.sg.gaps else "window"

    @cached_property
    def h(self) -> tuple[int, ...] | None:
        """h_0..h_B of h(z) = (1-z)^(d+1)·sum_n v_n z^n, v_n = lambda(R/closure(I^(n+1)))
        read off the counted column (a tamper moves no h_n), B = rn_bound(J) with
        a reduction J and d - 1 on S = N without one; None on the window basis.

        G is Cohen-Macaulay on the proved basis (`basis`), so its Hilbert series is
        h(z)/(1-z)^d with h >= 0 and deg h = rn (Huckaba-Marley, J. London Math.
        Soc. 56, 1997; Rossi-Valla, Hilbert Functions of Filtered Modules, 2010).
        rn <= B by `rn_bound`, and on S = N without a monomial J rn <= d - 1 for a
        general minimal reduction (Reid-Roberts-Vitulli, Comm. Algebra 31, 2003).
        So h_k = 0 for k > B, and v_0..v_B fix the normal coefficients, rn and the
        whole column."""
        if self.basis == "window":
            return None
        from .filtration import h_vector, rn_bound
        top = rn_bound(self.reduction) if self.reduction is not None else self.dim - 1
        return h_vector(self.ideal.closure_counts(top + 1)[1:], self.dim)

    @cached_property
    def _normal_fit(self):
        """h_fit of h on the proved basis; else the windowed fit of the printed column."""
        if self.h is None:
            return self._fit(self.normal_values)
        from .filtration import h_fit
        return h_fit(self.h, self.dim), None

    normal_fit = property(lambda self: self._normal_fit[0])
    normal_fit_error = property(lambda self: self._normal_fit[1])

    _adic_fit = cached_property(lambda self: self._fit(self.adic_values))
    adic_fit = property(lambda self: self._adic_fit[0])
    adic_fit_error = property(lambda self: self._adic_fit[1])

    @cached_property
    def jgood_values(self) -> tuple[int, ...]:
        """lambda(R/J^n·closure(I)) for n = 0..nmax, in closed form.

        J is generated by a system of parameters of a Cohen-Macaulay ring, so
        by a regular sequence, and lambda(R/J) = e0(J) = e0(I) (Northcott-Rees):
        J^n/J^(n+1) and J^n/J^n·closure(I) are free of rank C(n+d-1, d-1) over
        R/J and R/closure(I). Summing the first below degree n gives
        e0·C(n+d-1, d), and the second adds lambda(R/closure(I))·C(n+d-1, d-1).
        """
        e0, lam_i, d = self.e0, self.lam_R_I1, self.dim
        return tuple(e0 * comb(n + d - 1, d) + lam_i * comb(n + d - 1, d - 1)
                     for n in range(self.nmax + 1))

    @cached_property
    def sally_values(self) -> tuple[int, ...]:
        """lambda(closure(I^(n+1))/J^n·closure(I)) for n = 0..nmax: J-good minus normal."""
        return tuple(j - n for j, n in zip(self.jgood_values, self.normal_values))

    @property
    def sally_fit(self):
        """(s0 = ē1 - lambda(closure(I)/J), s_i = ē_(i+1)) with the normal fit's
        stable_from: Sally[n] + lambda(closure(I)/J)·C(n+d-1, d-1) is the
        residual e0·C(n+d, d) - normal[n] that the normal fit fits, and the
        added term is a polynomial for every n >= 0. With J the normal fit is
        h_fit of the counted h, so it is the ideal's Sally fit on a tampered
        table too, where a printed Sally length can be negative."""
        self._need_reduction("sally_fit")
        fit = self.normal_fit
        return fit._replace(e=(fit.e[1] - self.lam_I1_J, *fit.e[2:]))

    @cached_property
    def rn(self) -> int:
        """The reduction number of the normal filtration: deg h (see h)."""
        self._need_reduction("rn")
        return max(k for k, x in enumerate(self.h) if x)

    @cached_property
    def socle_lengths(self) -> tuple[int, ...]:
        """lambda((J^n : m)/J^n) for n = 1..min(3, nmax), counted on J^n built as
        J·J^(n-1) on the box of the highest power: the only ideals built from J."""
        self._need_reduction("socle_lengths")
        top = min(3, self.nmax)
        j = lay(self.reduction, power_box(self.reduction, top))
        return tuple(map(socle_length, accumulate(repeat(j, top), multiply)))

    @property
    def lam_I1_J(self) -> int:
        """lambda(closure(I)/J) = lambda(R/J) - lambda(R/closure(I)), with lambda(R/J) = e0."""
        return self.e0 - self.lam_R_I1

    @property
    def tangent_cone_failure(self):
        """(degree, witness) of the first Valabrega-Valla failure of the powers
        of m with J, for closure(I) = m, or None when G(m) is Cohen-Macaulay.

        Then J ⊆ I ⊆ m ⊆ closure(J), so J, one pure power per axis, is
        (x_1..x_v, t^e) with e the least generator of S. A monomial x^a·t^s
        with a_i > 0 of m^n ∩ J lies in x_i·m^(n-1) ⊆ J·m^(n-1), as x^a·t^s/x_i
        has order one less. So failures come only from powers of t, and t^s
        lies in m^n, J or J·m^(n-1) exactly when it does in k[[S]] with (t^e):
        the failure is the semigroup's, which builds no ideal. Its s is a
        minimal generator of m^n ∩ J, as s = s' + g with s' in m^n ∩ J would
        put s' and so s in J·m^(n-1), and so the first in lexicographic order.
        """
        failure = self.backend.sg.tangent_cone_failure
        return failure and (failure[0],
                            self.backend.element_str((0,) * (self.dim - 1) + failure[1:]))

    def e_bar(self, i: int):
        return self.normal_fit.e[i] if self.normal_fit is not None else None

    @property
    def g_s(self) -> int:
        """Sectional genus e1_bar - e0_bar + lambda(R/closure(I)), with the counted
        length, not the printed normal_values[0]: on the proved basis a tamper
        moves no term."""
        return self.normal_fit.e[1] - self.normal_fit.e[0] + self.lam_R_I1

    def base_numbers(self) -> dict:
        nums = {
            "d": self.dim,
            "nmax": self.nmax,
            "e0": self.e0,
            "lambda_R_I1": self.lam_R_I1,
            "mu_ideal": self.mu_ideal,
            "mu_maximal": self.mu_maximal,
            "type": self.backend.sg.type,
        }
        if self.normal_fit is not None:
            for i, c in enumerate(self.normal_fit.e):
                if i:
                    nums[f"e{i}_bar"] = c
            nums["g_s"] = self.g_s
        if self.reduction is not None:
            nums["lambda_I1_J"] = self.lam_I1_J
            nums["lambda_I2_JI1"] = self.sally_values[1]
            nums["rn"] = self.rn
        return nums


def analyze(entry: EntryData) -> Analysis:
    return Analysis(entry)
