"""Lazy analysis of one entry: every table, fit and certificate on first read.

An Analysis validates its entry when it is built; a command or checker then
reads only the tables, fits, reduction number and Valabrega-Valla report it
needs, and each is computed once. The J-good table is a closed form in
lambda(R/J) and lambda(R/closure(I)); no J-good chain is built.
"""

from __future__ import annotations

from functools import cached_property

from .errors import HorizonError, InputError, NotMPrimary, PreconditionError
from .filtration import (Filtration, default_nmax, default_window, fit_coefficients, length_table,
                         reduction_number, sally_from_tables, sally_lengths, series_coeff,
                         valabrega_valla)
from .monomial import colength, is_m_primary, lay, maximal_ideal, power_box


def _attempt(compute, errors=HorizonError):
    """(compute(), None), or (None, the error) when compute raises one of errors."""
    try:
        return compute(), None
    except errors as exc:
        return None, exc


class Analysis:
    """Tables, fits and certificates for one entry, each computed on first read.

    The constructor only validates the request: the horizon, the tamper
    index, the m-primary test and the reduction certificate. The fit window
    is `default_window(dim)`. The fields built from the reduction J
    (reduction_powers, jgood_values, sally_values, sally_fit, rn, vv,
    lam_R_J, lam_I1_J) may be read only when `reduction` is not None. Every
    ideal of the analysis lies on one box, `power_box` of the input ideal at
    degree nmax + 1, so the kernel never relays an operand. A fit
    or reduction number that fails reads None, and its *_error field holds
    the exception.
    """

    def __init__(self, entry: EntryData):
        b = entry.backend
        self.entry = entry
        self.name = entry.name
        self.backend = b
        self.dim = b.dim
        self.window = default_window(self.dim)
        self.nmax = entry.nmax if entry.nmax is not None else default_nmax(self.dim)
        if self.nmax < 1:
            raise InputError(f"nmax must be a positive integer, got {self.nmax}")
        if entry.tamper_normal is not None and not 0 <= entry.tamper_normal <= self.nmax:
            raise InputError(
                f"tamper index {entry.tamper_normal} outside the table range 0..{self.nmax}"
            )
        if not is_m_primary(entry.ideal):
            raise NotMPrimary("the input ideal is not primary to the maximal ideal")
        # one box for every ideal of the analysis, so operands share a cap
        self.box = power_box(entry.ideal, self.nmax + 1)
        self.ideal = lay(entry.ideal, self.box)
        if entry.reduction == "auto":
            self.reduction = b.auto_reduction(self.ideal)  # on the ideal's box
            self.reduction_source = "auto" if self.reduction is not None else None
        else:
            self.reduction = b.certify(self.ideal, lay(entry.reduction, self.box))
            self.reduction_source = "given"
        self.normal_filt = Filtration(b, "normal", ideal=self.ideal, reduction=self.reduction)
        self.adic_filt = Filtration(b, "adic", ideal=self.ideal)

    e0 = property(lambda self: self.ideal.e0)

    @cached_property
    def lam_R_I1(self) -> int:
        return colength(self.normal_filt.term(1))

    @cached_property
    def maximal(self):
        """The maximal ideal, on the box of the analysis."""
        return maximal_ideal(self.backend.sg, self.dim, self.box)

    @cached_property
    def closure_is_maximal(self) -> bool:
        return self.normal_filt.term(1) == self.maximal

    @cached_property
    def mu_ideal(self) -> int:
        return len(self.ideal.gens)

    @cached_property
    def mu_maximal(self) -> int:
        return len(self.maximal.gens)

    @cached_property
    def normal_values(self) -> tuple[int, ...]:
        """lambda(R/closure(I^(n+1))) for n = 0..nmax, with the tampered entry if any.

        For a polynomial ring entry n is the count H(n+1) of the ideal, which
        e0 shares: no closure power is built for the column.
        """
        if self.backend.kind == "polynomial":
            values = self.ideal.closure_counts(self.nmax + 1)[1:]
        else:
            values = list(length_table(self.normal_filt, self.nmax))
        if self.entry.tamper_normal is not None:
            values[self.entry.tamper_normal] += 1
        return tuple(values)

    @cached_property
    def adic_values(self) -> tuple[int, ...]:
        return length_table(self.adic_filt, self.nmax)

    @cached_property
    def _normal_fit(self):
        return _attempt(lambda: fit_coefficients(self.normal_values, self.dim))

    normal_fit = property(lambda self: self._normal_fit[0])
    normal_fit_error = property(lambda self: self._normal_fit[1])

    @cached_property
    def _adic_fit(self):
        return _attempt(lambda: fit_coefficients(self.adic_values, self.dim))

    adic_fit = property(lambda self: self._adic_fit[0])
    adic_fit_error = property(lambda self: self._adic_fit[1])

    @cached_property
    def reduction_powers(self) -> Filtration:
        """The adic filtration of J, holding J^n."""
        return Filtration(self.backend, "adic", ideal=self.reduction)

    @cached_property
    def jgood_values(self) -> tuple[int, ...]:
        """lambda(R/J^n·closure(I)) for n = 0..nmax, in closed form.

        J is one pure power per variable of a Cohen-Macaulay ring, so a
        regular sequence: J^n/J^(n+1) and J^n/J^n·closure(I) are free of rank
        C(n+d-1, d-1) over R/J and R/closure(I). Summing the first over the
        degrees below n gives lambda(R/J)·C(n+d-1, d), and the second adds
        lambda(R/closure(I))·C(n+d-1, d-1). No product of J is built.
        """
        lam_j, d = self.lam_R_J, self.dim
        return tuple(lam_j * series_coeff(n - 1, d + 1) + self.lam_R_I1 * series_coeff(n, d)
                     for n in range(self.nmax + 1))

    @cached_property
    def sally_values(self) -> tuple[int, ...]:
        return sally_lengths(self.normal_values, self.jgood_values)

    @cached_property
    def _sally_fit(self):
        # a tampered table can give negative Sally lengths: PreconditionError
        normal, jgood = self.normal_values, self.jgood_values
        return _attempt(lambda: sally_from_tables(normal, jgood, self.dim),
                        (HorizonError, PreconditionError))

    sally_fit = property(lambda self: self._sally_fit[0])
    sally_fit_error = property(lambda self: self._sally_fit[1])

    @cached_property
    def _rn(self):
        return _attempt(lambda: reduction_number(self.normal_filt, self.reduction, self.nmax))

    rn = property(lambda self: self._rn[0])
    rn_error = property(lambda self: self._rn[1])

    @cached_property
    def vv(self):
        return valabrega_valla(self.normal_filt, self.reduction, self.nmax, self.window, self.rn)

    @cached_property
    def lam_R_J(self) -> int:
        return colength(self.reduction)

    @property
    def lam_I1_J(self) -> int:
        """lambda(closure(I)/J) = lambda(R/J) - lambda(R/closure(I)), as J ⊆ closure(I)."""
        return self.lam_R_J - self.lam_R_I1

    def _vv_and_rn(self, filt, reduction):
        rn = _attempt(lambda: reduction_number(filt, reduction, self.nmax))[0]
        return valabrega_valla(filt, reduction, self.nmax, self.window, rn), rn

    @cached_property
    def adic_cm(self):
        """Valabrega-Valla verdict for the ordinary-power filtration of I."""
        return self._vv_and_rn(self.adic_filt, self.reduction)

    @cached_property
    def base_cm(self):
        """Valabrega-Valla verdict for the maximal ideal of the coefficient ring."""
        bb = self.backend.base_ring()
        m = bb.maximal()
        m = lay(m, power_box(m, self.nmax + 1))  # the coefficient ring's own box
        j = bb.auto_reduction(m)
        return None if j is None else self._vv_and_rn(Filtration(bb, "adic", ideal=m), j)

    def e_bar(self, i: int):
        return self.normal_fit.e[i] if self.normal_fit is not None else None

    @property
    def g_s(self) -> int:
        """Sectional genus e1_bar - e0_bar + normal_values[0], from the table as read."""
        return self.normal_fit.e[1] - self.normal_fit.e[0] + self.normal_values[0]

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
            if self.rn is not None:
                nums["rn"] = self.rn
        return nums


def analyze(entry: EntryData) -> Analysis:
    return Analysis(entry)
