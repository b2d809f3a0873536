"""Checkable statements about normal filtrations, run against a backend.

Each checker guards its hypotheses explicitly (dimension, whether the
integral closure of the ideal is the maximal ideal, vanishing of the third
normal coefficient, and so on), computes both sides of its inequality or
identity exactly, and returns a Verdict. Conclusions about depth are only
reported as machine-verified when the Valabrega-Valla test certifies the
associated graded ring to be Cohen-Macaulay outright; otherwise they are
downgraded to asserted-by-paper rather than silently trusted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import HorizonError, InputError, NotMPrimary, PreconditionError
from .filtration import (
    Filtration,
    default_nmax,
    default_window,
    fit_coefficients,
    intersection_failures,
    length_table,
    reduction_number,
    sally_from_tables,
    series_checks,
    series_coeff,
    valabrega_valla,
)
from .monomial import (
    colength,
    colon,
    contains,
    ideal_contains,
    intersect,
    is_m_primary,
    multiply,
    quotient_length,
)
from .verdicts import Verdict, Witness, abstained, asserted, horizon, refuted, verified


@dataclass
class EntryData:
    """One analysis request: a ring backend, an ideal, and run parameters."""

    name: str
    backend: object
    ideal: object
    reduction: object = "auto"  # "auto" or a prebuilt ideal
    nmax: int | None = None
    window: int | None = None
    tamper_normal: int | None = None
    checks: tuple[str, ...] | None = None


class Analysis:
    """Eagerly computed tables, fits and certificates for one entry."""

    def __init__(self, entry: EntryData):
        b = entry.backend
        self.entry = entry
        self.name = entry.name
        self.backend = b
        self.dim = b.dim
        self.window = entry.window if entry.window is not None else default_window(self.dim)
        self.nmax = entry.nmax if entry.nmax is not None else default_nmax(self.dim, self.window)
        if entry.tamper_normal is not None and not 0 <= entry.tamper_normal <= self.nmax:
            raise InputError(
                f"tamper index {entry.tamper_normal} outside the table range 0..{self.nmax}"
            )
        self.ideal = entry.ideal
        if not is_m_primary(self.ideal):
            raise NotMPrimary("the input ideal is not primary to the maximal ideal")
        self.e0 = self.ideal.e0
        self.normal_filt = Filtration(b, "normal", ideal=self.ideal)
        self.adic_filt = Filtration(b, "adic", ideal=self.ideal)
        self.closure1 = self.normal_filt.term(1)
        self.lam_R_I1 = colength(self.closure1)
        maximal = b.maximal()
        self.closure_is_maximal = self.closure1 == maximal
        self.mu_ideal = len(self.ideal.gens)
        self.mu_maximal = len(maximal.gens)
        self.type_report = b.type_report()

        if entry.reduction == "auto":
            self.cert = b.auto_reduction(self.ideal)
            self.reduction_source = "auto" if self.cert is not None else None
        else:
            self.cert = b.certify(self.ideal, entry.reduction)
            if not self.cert.is_reduction:
                if not self.cert.contained:
                    raise PreconditionError(
                        "the given reduction ideal is not contained in the input ideal"
                    )
                raise PreconditionError(
                    "the given ideal is not a reduction: multiplicity "
                    f"{self.cert.e0_reduction} != {self.cert.e0_ideal}"
                )
            self.reduction_source = "given"
        self.reduction = self.cert.reduction if self.cert is not None else None

        self.normal_values = list(length_table(self.normal_filt, self.nmax))
        if entry.tamper_normal is not None:
            self.normal_values[entry.tamper_normal] += 1
        self.normal_values = tuple(self.normal_values)
        self.adic_values = length_table(self.adic_filt, self.nmax)

        self.normal_fit, self.normal_fit_error = self._try_fit(self.normal_values, sectional=True)
        self.adic_fit, self.adic_fit_error = self._try_fit(self.adic_values, sectional=False)

        self.jgood_filt = None
        self.reduction_powers = None  # the adic filtration of J, holding J^n
        self.jgood_values = None
        self.sally_values = None
        self.sally_fit = None
        self.sally_fit_error = None
        self.sally_fit_invalid = False  # tampered tables can give negative Sally lengths
        self.rn = None
        self.rn_error = None
        self.rn_window = None
        self.vv = None
        self.series = None
        self.lam_I1_J = None
        if self.reduction is not None:
            self.jgood_filt = Filtration(b, "jgood", ideal=self.ideal, reduction=self.reduction)
            self.reduction_powers = Filtration(b, "adic", ideal=self.reduction)
            self.jgood_values = length_table(self.jgood_filt, self.nmax)
            self.sally_values = tuple(
                j - n for j, n in zip(self.jgood_values, self.normal_values)
            )
            try:
                self.sally_fit = sally_from_tables(
                    self.normal_values, self.jgood_values, self.dim, self.window
                )
            except HorizonError as exc:
                self.sally_fit_error = str(exc)
            except PreconditionError as exc:
                self.sally_fit_error = str(exc)
                self.sally_fit_invalid = True
            try:
                self.rn, self.rn_window = reduction_number(self.normal_filt, self.reduction, self.nmax)
            except HorizonError as exc:
                self.rn_error = str(exc)
            self.vv = valabrega_valla(
                self.normal_filt, self.reduction, self.nmax, self.window, self.rn
            )
            self.series = series_checks(self.normal_values, self.jgood_values, self.dim, self.e0)
            self.lam_I1_J = quotient_length(self.closure1, self.reduction)
        self._adic_cm = None
        self._base_cm = None

    def _try_fit(self, values, sectional):
        try:
            return fit_coefficients(values, self.dim, self.window, sectional=sectional), None
        except HorizonError as exc:
            return None, str(exc)

    def e_bar(self, i: int):
        return self.normal_fit.e[i] if self.normal_fit is not None else None

    def base_numbers(self) -> dict:
        nums = {
            "d": self.dim,
            "nmax": self.nmax,
            "e0": self.e0,
            "lambda_R_I1": self.lam_R_I1,
            "mu_ideal": self.mu_ideal,
            "mu_maximal": self.mu_maximal,
            "type": self.type_report.type,
        }
        if self.normal_fit is not None:
            for i, c in enumerate(self.normal_fit.e):
                if i:
                    nums[f"e{i}_bar"] = c
            nums["g_s"] = self.normal_fit.sectional_normal_genus
        if self.lam_I1_J is not None:
            nums["lambda_I1_J"] = self.lam_I1_J
        if self.sally_values is not None and len(self.sally_values) > 1:
            nums["lambda_I2_JI1"] = self.sally_values[1]
        if self.rn is not None:
            nums["rn"] = self.rn
        return nums

    def adic_cm(self):
        """Valabrega-Valla verdict for the ordinary-power filtration of I."""
        if self._adic_cm is None:
            try:
                rn, _ = reduction_number(self.adic_filt, self.reduction, self.nmax)
            except HorizonError:
                rn = None
            vv = valabrega_valla(self.adic_filt, self.reduction, self.nmax, self.window, rn)
            self._adic_cm = (vv, rn)
        return self._adic_cm

    def base_cm(self):
        """Valabrega-Valla verdict for the maximal ideal of the coefficient ring."""
        if self._base_cm is None:
            bb = self.backend.base_ring()
            m = bb.maximal()
            cert = bb.auto_reduction(m)
            if cert is None or not cert.is_reduction:
                return None
            filt = Filtration(bb, "adic", ideal=m)
            try:
                rn, _ = reduction_number(filt, cert.reduction, self.nmax)
            except HorizonError:
                rn = None
            vv = valabrega_valla(filt, cert.reduction, self.nmax, self.window, rn)
            self._base_cm = (vv, rn, bb)
        return self._base_cm


def analyze(entry: EntryData) -> Analysis:
    return Analysis(entry)


def _gates(a: Analysis, *, need_reduction=False, need_normal_fit=False, need_sally_fit=False,
           min_dim=None, closure_maximal=False, e3_zero=False):
    """Unmet gates in order, as (detail, short) with short true when the gate
    misses only for lack of horizon; empty return means all gates pass."""
    missing = []
    if min_dim is not None and a.dim < min_dim:
        missing.append((f"needs dimension >= {min_dim}, ring has dimension {a.dim}", False))
    if need_reduction and a.reduction is None:
        missing.append(("no certified reduction available", False))
    no_normal = (f"normal coefficients unavailable: {a.normal_fit_error}", True)
    if need_normal_fit and a.normal_fit is None:
        missing.append(no_normal)
    if need_sally_fit and (a.sally_fit is None or a.sally_values is None):
        missing.append((
            f"Sally coefficients unavailable: {a.sally_fit_error or 'no reduction'}",
            a.sally_values is not None and not a.sally_fit_invalid,
        ))
    if closure_maximal and not a.closure_is_maximal:
        missing.append(("closure of the ideal is not the maximal ideal", False))
    if e3_zero and a.dim >= 3:
        if a.normal_fit is None:
            missing.append(no_normal)
        elif a.normal_fit.e[3] != 0:
            missing.append(("third normal coefficient does not vanish", False))
    return missing


def _unmet(check, missing) -> Verdict:
    """abstained if a hypothesis fails, inconclusive-horizon if every miss is
    for lack of horizon; a detail repeated by two gates is given once."""
    detail = "; ".join(dict.fromkeys(text for text, _ in missing))
    if all(short for _, short in missing):
        return horizon(check, detail)
    return abstained(check, detail)


def _cm_conclusion(check, a, nums, detail_ok):
    """Map the Valabrega-Valla report to a verdict about Cohen-Macaulayness."""
    vv = a.vv
    if vv.first_failure is not None:
        n, i, elem = vv.first_failure
        return refuted(
            check,
            f"Valabrega-Valla fails at degree {n} prefix {i}; "
            "the associated graded ring of the closure filtration is not Cohen-Macaulay, "
            "contradicting the statement",
            nums,
            [Witness(n, elem, f"in F_{n} ∩ (g_1..g_{i}) but not in (g_1..g_{i})·F_{n-1}")],
        )
    if vv.certified_cm:
        return verified(check, detail_ok, nums)
    need = vv.required_horizon
    return horizon(
        check,
        "all Valabrega-Valla checks pass but the horizon is too small to certify "
        f"Cohen-Macaulayness (checked to {vv.checked_upto}, need {need})",
        nums,
    )


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

def check_table_coherence(a: Analysis) -> Verdict:
    """Tables increase strictly, closure refines powers, and fits agree on e0."""
    nums = a.base_numbers()
    for n in range(1, a.nmax + 1):
        if a.normal_values[n] <= a.normal_values[n - 1]:
            return refuted(
                "table_coherence",
                f"closure-power colengths fail to increase strictly at degree {n}",
                nums, [Witness(n, f"colengths {a.normal_values[n - 1]} -> {a.normal_values[n]}")],
            )
        if a.adic_values[n] <= a.adic_values[n - 1]:
            return refuted(
                "table_coherence",
                f"ordinary-power colengths fail to increase strictly at degree {n}",
                nums, [Witness(n, f"colengths {a.adic_values[n - 1]} -> {a.adic_values[n]}")],
            )
    for n in range(a.nmax + 1):
        if a.normal_values[n] > a.adic_values[n]:
            return refuted(
                "table_coherence",
                f"closure-power colength exceeds ordinary-power colength at degree {n}",
                nums, [Witness(n, f"{a.normal_values[n]} > {a.adic_values[n]}")],
            )
    fit_notes = []
    for label, fit, err in (
        ("normal", a.normal_fit, a.normal_fit_error),
        ("adic", a.adic_fit, a.adic_fit_error),
    ):
        if fit is None:
            fit_notes.append(f"{label} fit unavailable: {err}")
        elif fit.e[0] != a.e0:
            return refuted(
                "table_coherence",
                f"leading {label} coefficient {fit.e[0]} differs from the geometric "
                f"multiplicity {a.e0}",
                nums,
            )
    if fit_notes:
        return horizon("table_coherence", "; ".join(fit_notes), nums)
    return verified(
        "table_coherence",
        "tables strictly increase, closure refines powers degreewise, and both fitted "
        "leading coefficients equal the geometric multiplicity",
        nums,
    )


def check_e1_lower_bound(a: Analysis) -> Verdict:
    """e1_bar >= e0 - lambda(R/closure(I)) = lambda(closure(I)/J) >= 0."""
    missing = _gates(a, need_reduction=True, need_normal_fit=True)
    if missing:
        return _unmet("e1_lower_bound", missing)
    nums = a.base_numbers()
    e1 = a.e_bar(1)
    lo = a.e0 - a.lam_R_I1
    if colength(a.reduction) != a.e0:
        return refuted(
            "e1_lower_bound",
            f"colength of the certified reduction is {colength(a.reduction)}, "
            f"not the multiplicity {a.e0}",
            nums,
        )
    if a.lam_I1_J != lo:
        return refuted(
            "e1_lower_bound",
            f"lambda(closure(I)/J) = {a.lam_I1_J} differs from e0 - lambda(R/closure(I)) = {lo}",
            nums,
        )
    if lo < 0:
        return refuted("e1_lower_bound", f"e0 - lambda(R/closure(I)) = {lo} is negative", nums)
    if e1 < lo:
        return refuted("e1_lower_bound", f"e1_bar = {e1} < {lo} = e0 - lambda(R/closure(I))", nums)
    return verified(
        "e1_lower_bound",
        f"e1_bar = {e1} >= {lo} = lambda(closure(I)/J) >= 0",
        nums,
    )


def check_e1_equality_equivalence(a: Analysis) -> Verdict:
    """e1_bar minimal <=> Sally module zero <=> reduction number <= 1 <=> tables agree."""
    missing = _gates(a, need_reduction=True, need_normal_fit=True)
    if missing:
        return _unmet("e1_equality_equivalence", missing)
    nums = a.base_numbers()
    eq_e1 = a.e_bar(1) == a.e0 - a.lam_R_I1
    sally_zero = all(v == 0 for v in a.sally_values)
    rn_le_1 = a.rn is not None and a.rn <= 1
    tables_agree = a.series.ge == a.series.gbar
    flags = {
        "e1_bar equals e0 - lambda(R/closure(I))": eq_e1,
        "Sally lengths all vanish up to the horizon": sally_zero,
        "reduction number of the closure filtration is <= 1": rn_le_1,
        "graded pieces of the closure and J-good filtrations agree": tables_agree,
    }
    nums.update({
        "eq_e1": int(eq_e1), "sally_zero": int(sally_zero),
        "rn_le_1": int(rn_le_1), "tables_agree": int(tables_agree),
    })
    if len({*flags.values()}) == 1:
        state = "all hold" if eq_e1 else "all fail"
        return verified(
            "e1_equality_equivalence",
            f"the four equivalent conditions agree ({state})",
            nums,
        )
    true_parts = [k for k, v in flags.items() if v]
    false_parts = [k for k, v in flags.items() if not v]
    witnesses = []
    if not sally_zero:
        n = next(i for i, v in enumerate(a.sally_values) if v)
        witnesses.append(Witness(n, f"Sally length {a.sally_values[n]}"))
    return refuted(
        "e1_equality_equivalence",
        "equivalence broken: hold [" + "; ".join(true_parts) + "] vs fail ["
        + "; ".join(false_parts) + "]",
        nums, witnesses,
    )


def check_e1_almost_minimal_depth(a: Analysis) -> Verdict:
    """e1_bar <= e0 - lambda(R/closure(I)) + 1 forces depth >= d-1 for the graded ring."""
    missing = _gates(a, need_reduction=True, need_normal_fit=True, need_sally_fit=True)
    if missing:
        return _unmet("e1_almost_minimal_depth", missing)
    nums = a.base_numbers()
    s0 = a.sally_fit.coeffs[0]
    slack = a.e_bar(1) - (a.e0 - a.lam_R_I1)
    nums["s0_bar"] = s0
    if s0 != slack:
        return refuted(
            "e1_almost_minimal_depth",
            f"leading Sally coefficient {s0} differs from e1_bar - e0 + lambda(R/closure(I)) "
            f"= {slack}",
            nums,
        )
    if slack > 1:
        return abstained(
            "e1_almost_minimal_depth",
            f"hypothesis fails: e1_bar exceeds the minimal value by {slack} > 1",
            nums,
        )
    if a.vv.first_failure is not None:
        if a.dim == 1:
            return verified(
                "e1_almost_minimal_depth",
                "depth >= d-1 = 0 holds trivially in dimension 1",
                nums,
            )
        return asserted(
            "e1_almost_minimal_depth",
            "graded ring is not Cohen-Macaulay, so depth exactly d-1 is claimed; "
            "no independent certificate for that depth is available",
            nums,
        )
    if a.vv.certified_cm:
        return verified(
            "e1_almost_minimal_depth",
            "Valabrega-Valla certifies the graded ring Cohen-Macaulay, so depth >= d-1",
            nums,
        )
    if a.dim == 1:
        return verified(
            "e1_almost_minimal_depth",
            "depth >= d-1 = 0 holds trivially in dimension 1",
            nums,
        )
    return horizon(
        "e1_almost_minimal_depth",
        "Valabrega-Valla passes up to the horizon but cannot yet certify depth",
        nums,
    )


def check_e2_lower_bound(a: Analysis) -> Verdict:
    """e2_bar >= e1_bar - e0 + lambda(R/closure(I)), equality exactly when rn <= 2."""
    missing = _gates(a, need_reduction=True, need_normal_fit=True, min_dim=2)
    if missing:
        return _unmet("e2_lower_bound", missing)
    nums = a.base_numbers()
    e2 = a.e_bar(2)
    lo = a.e_bar(1) - a.e0 + a.lam_R_I1
    if e2 < lo:
        return refuted("e2_lower_bound", f"e2_bar = {e2} < {lo} = e1_bar - e0 + lambda", nums)
    rn_le_2 = a.rn is not None and a.rn <= 2
    if (e2 == lo) != rn_le_2:
        rn_desc = str(a.rn) if a.rn is not None else f"> {a.nmax}"
        return refuted(
            "e2_lower_bound",
            f"equality e2_bar = {lo} is {e2 == lo} but reduction number {rn_desc} being <= 2 "
            f"is {rn_le_2}; the equality criterion fails",
            nums,
        )
    return verified(
        "e2_lower_bound",
        f"e2_bar = {e2} >= {lo}, and equality matches the reduction-number criterion",
        nums,
    )


def check_e3_nonnegative(a: Analysis) -> Verdict:
    """e3_bar >= 0; when it vanishes, closure(I^{n+2}) lies inside J^n for all n."""
    missing = _gates(a, need_normal_fit=True, min_dim=3)
    if missing:
        return _unmet("e3_nonnegative", missing)
    nums = a.base_numbers()
    e3 = a.e_bar(3)
    if e3 < 0:
        return refuted("e3_nonnegative", f"e3_bar = {e3} is negative", nums)
    if e3 == 0 and a.reduction is not None:
        b = a.backend
        for n in range(a.nmax):
            jn = a.reduction_powers.term(n)
            term = a.normal_filt.term(n + 2)
            if not ideal_contains(jn, term):
                g = next(g for g in term.gens if not contains(jn, g))
                return refuted(
                    "e3_nonnegative",
                    f"e3_bar = 0 but closure(I^{n + 2}) is not inside J^{n}",
                    nums, [Witness(n + 2, b.element_str(g), f"not in J^{n}")],
                )
        return verified(
            "e3_nonnegative",
            f"e3_bar = 0 and closure(I^(n+2)) ⊆ J^n holds for n = 0..{a.nmax - 1}",
            nums,
        )
    return verified("e3_nonnegative", f"e3_bar = {e3} >= 0", nums)


def check_sally_coefficient_transfer(a: Analysis) -> Verdict:
    """Sally coefficients: s0 = e1_bar - e0 + lambda, s_i = e_{i+1}_bar for i >= 1."""
    missing = _gates(a, need_reduction=True, need_normal_fit=True, need_sally_fit=True)
    if missing:
        return _unmet("sally_coefficient_transfer", missing)
    nums = a.base_numbers()
    s = a.sally_fit.coeffs
    nums.update({f"s{i}_bar": c for i, c in enumerate(s)})
    expected0 = a.e_bar(1) - a.e0 + a.lam_R_I1
    if s[0] != expected0:
        return refuted(
            "sally_coefficient_transfer",
            f"s0_bar = {s[0]} but e1_bar - e0 + lambda(R/closure(I)) = {expected0}",
            nums,
        )
    for i in range(1, a.dim):
        if s[i] != a.e_bar(i + 1):
            return refuted(
                "sally_coefficient_transfer",
                f"s{i}_bar = {s[i]} but e{i + 1}_bar = {a.e_bar(i + 1)}",
                nums,
            )
    return verified(
        "sally_coefficient_transfer",
        "Sally coefficients match the shifted normal coefficients",
        nums,
    )


def check_series_identity(a: Analysis) -> Verdict:
    """Degreewise series identities linking the three graded modules."""
    missing = _gates(a, need_reduction=True)
    if missing:
        return _unmet("series_identity", missing)
    nums = a.base_numbers()
    sc = a.series
    if sc.ok:
        return verified(
            "series_identity",
            f"series, additivity and closed-form identities hold for degrees 0..{a.nmax}",
            nums,
        )
    kind, n = sc.failures[0]
    return refuted(
        "series_identity",
        f"identity '{kind}' fails at degree {n}",
        nums,
        [Witness(n, f"ge={sc.ge[n]} gbar={sc.gbar[n]} sally={sc.sally[n]} middle={sc.middle[n]}")],
    )


def check_closure_intersection(a: Analysis) -> Verdict:
    """closure(I^{n+1}) ∩ J^n = J^n closure(I) in low degrees."""
    missing = _gates(a, need_reduction=True)
    if missing:
        return _unmet("closure_intersection", missing)
    nums = a.base_numbers()
    upto = min(4, a.nmax - 1)
    fails = intersection_failures(a.backend, a.normal_filt, a.jgood_filt, a.reduction_powers, upto)
    if fails:
        n, elem = fails[0]
        return refuted(
            "closure_intersection",
            f"closure(I^{n + 1}) ∩ J^{n} != J^{n}·closure(I) at degree {n}",
            nums, [Witness(n, elem)],
        )
    return verified(
        "closure_intersection",
        f"closure(I^(n+1)) ∩ J^n = J^n·closure(I) verified for n = 1..{upto}",
        nums,
    )


def check_socle_formula(a: Analysis) -> Verdict:
    """lambda((J^n : m)/J^n) = type(R) * C(n+d-2, d-1) for small n."""
    missing = _gates(a, need_reduction=True)
    if missing:
        return _unmet("socle_formula", missing)
    b = a.backend
    nums = a.base_numbers()
    t = a.type_report.type
    for n in range(1, min(3, a.nmax) + 1):
        jn = a.reduction_powers.term(n)
        socle = quotient_length(colon(jn, b.maximal()), jn)
        expected = t * series_coeff(n - 1, a.dim)
        if socle != expected:
            return refuted(
                "socle_formula",
                f"socle length of J^{n} is {socle}, expected type * C(n+d-2, d-1) = {expected}",
                nums, [Witness(n, f"socle length {socle}")],
            )
    return verified(
        "socle_formula",
        "socle lengths of reduction powers match type(R) * C(n+d-2, d-1)",
        nums,
    )


def check_length_bound_decomposition(a: Analysis) -> Verdict:
    """Upper bound and exact decomposition for lambda(R/closure(I^{n+1}))."""
    missing = _gates(a, need_reduction=True)
    if missing:
        return _unmet("length_bound_decomposition", missing)
    nums = a.base_numbers()
    d = a.dim
    s1 = a.sally_values[1]
    lam_j = a.lam_I1_J
    for n in range(a.nmax + 1):
        lhs = a.normal_values[n]
        bound = (
            a.e0 * series_coeff(n, d + 1)
            - (lam_j + s1) * series_coeff(n, d)
            + s1 * series_coeff(n, d - 1)
        )
        if lhs > bound:
            return refuted(
                "length_bound_decomposition",
                f"lambda(R/closure(I^{n + 1})) = {lhs} exceeds the bound {bound} at degree {n}",
                nums, [Witness(n, f"{lhs} > {bound}")],
            )
        exact = (
            a.e0 * series_coeff(n, d + 1)
            - a.e0 * series_coeff(n, d)
            + a.lam_R_I1 * series_coeff(n, d)
            - a.sally_values[n]
        )
        if lhs != exact:
            return refuted(
                "length_bound_decomposition",
                f"exact length decomposition fails at degree {n}: {lhs} != {exact}",
                nums, [Witness(n, f"{lhs} != {exact}")],
            )
    return verified(
        "length_bound_decomposition",
        f"length bound and exact decomposition hold for degrees 0..{a.nmax}",
        nums,
    )


def check_sally_type_bound(a: Analysis) -> Verdict:
    """Sally lengths are bounded by type(R) * C(n+d-2, d-1) once e3_bar = 0."""
    missing = _gates(a, need_reduction=True, min_dim=3, closure_maximal=True, e3_zero=True)
    if missing:
        return _unmet("sally_type_bound", missing)
    nums = a.base_numbers()
    t = a.type_report.type
    for n in range(1, a.nmax + 1):
        bound = t * series_coeff(n - 1, a.dim)
        if a.sally_values[n] > bound:
            return refuted(
                "sally_type_bound",
                f"Sally length {a.sally_values[n]} exceeds type bound {bound} at degree {n}",
                nums, [Witness(n, f"{a.sally_values[n]} > {bound}")],
            )
    return verified(
        "sally_type_bound",
        f"Sally lengths stay within type(R) * C(n+d-2, d-1) for degrees 1..{a.nmax}",
        nums,
    )


def check_e1_type_sandwich(a: Analysis) -> Verdict:
    """e0 - 1 + lambda(I2bar/J·I1bar) <= e1_bar <= e0 - 1 + type, strict if they differ."""
    missing = _gates(a, need_reduction=True, need_normal_fit=True, min_dim=3,
                     closure_maximal=True, e3_zero=True)
    if missing:
        return _unmet("e1_type_sandwich", missing)
    nums = a.base_numbers()
    e1 = a.e_bar(1)
    t = a.type_report.type
    s1 = a.sally_values[1]
    if a.lam_I1_J != a.e0 - 1:
        return refuted(
            "e1_type_sandwich",
            f"lambda(m/J) = {a.lam_I1_J} differs from e0 - 1 = {a.e0 - 1}",
            nums,
        )
    lo = a.e0 - 1 + s1
    hi = a.e0 - 1 + t
    if not (lo <= e1 <= hi):
        return refuted(
            "e1_type_sandwich",
            f"e1_bar = {e1} outside [{lo}, {hi}]",
            nums,
        )
    if t != s1 and e1 >= hi:
        return refuted(
            "e1_type_sandwich",
            f"type {t} != lambda(I2bar/J·I1bar) {s1} requires the strict bound, "
            f"but e1_bar = {e1} attains {hi}",
            nums,
        )
    strictness = "strictly below" if t != s1 else "up to"
    return verified(
        "e1_type_sandwich",
        f"{lo} <= e1_bar = {e1} {strictness} {hi}",
        nums,
    )


def check_e3_vanishing_cm(a: Analysis) -> Verdict:
    """e3_bar = 0 with lambda(I2bar/J·I1bar) >= type-1 gives a Cohen-Macaulay graded
    ring and closure(I^{n+1}) = J^{n-1}·closure(I^2)."""
    missing = _gates(a, need_reduction=True, min_dim=3, closure_maximal=True, e3_zero=True)
    if not missing:
        t = a.type_report.type
        if a.sally_values[1] < t - 1:
            missing.append(
                (f"lambda(I2bar/J·I1bar) = {a.sally_values[1]} < type - 1 = {t - 1}", False)
            )
    if missing:
        return _unmet("e3_vanishing_cm", missing)
    nums = a.base_numbers()
    b = a.backend
    term2 = a.normal_filt.term(2)
    for n in range(1, a.nmax):
        lhs = a.normal_filt.term(n + 1)
        rhs = multiply(a.reduction_powers.term(n - 1), term2)
        if lhs != rhs:
            gens = [g for g in lhs.gens if not contains(rhs, g)]
            gens = gens or [g for g in rhs.gens if not contains(lhs, g)]
            return refuted(
                "e3_vanishing_cm",
                f"closure(I^{n + 1}) != J^{n - 1}·closure(I^2) at degree {n}",
                nums, [Witness(n + 1, b.element_str(gens[0]))],
            )
    return _cm_conclusion(
        "e3_vanishing_cm", a, nums,
        f"closure(I^(n+1)) = J^(n-1)·closure(I^2) verified for n = 1..{a.nmax - 1} "
        "and Valabrega-Valla certifies the graded ring Cohen-Macaulay",
    )


def check_almost_minimal_rn2(a: Analysis) -> Verdict:
    """e1_bar = e0 - lambda + 1 and e3_bar = 0 give a Cohen-Macaulay graded ring with
    reduction number at most 2; cross-checks two auxiliary coefficient identities."""
    missing = _gates(a, need_reduction=True, need_normal_fit=True, min_dim=3, e3_zero=True)
    if not missing and a.e_bar(1) != a.e0 - a.lam_R_I1 + 1:
        missing.append((
            f"e1_bar = {a.e_bar(1)} is not e0 - lambda(R/closure(I)) + 1 "
            f"= {a.e0 - a.lam_R_I1 + 1}",
            False,
        ))
    if missing:
        return _unmet("almost_minimal_rn2", missing)
    nums = a.base_numbers()
    b = a.backend
    if a.rn is None or a.rn > 2:
        rn_desc = str(a.rn) if a.rn is not None else f"> {a.nmax}"
        return refuted(
            "almost_minimal_rn2",
            f"reduction number of the closure filtration is {rn_desc}, not <= 2",
            nums,
        )
    hm_sum = 0
    for n in range(1, a.rn + 1):
        meet = intersect(a.reduction, a.normal_filt.term(n + 1))
        hm_sum += colength(meet) - a.normal_values[n]
    if a.e_bar(1) < a.lam_I1_J + hm_sum:
        return refuted(
            "almost_minimal_rn2",
            f"e1_bar = {a.e_bar(1)} < lambda(closure(I)/J) + intersection sum "
            f"= {a.lam_I1_J + hm_sum}",
            nums,
        )
    if a.vv.certified_cm and a.dim == 3:
        e3_sum = 0
        for j in range(2, min(a.rn + 2, a.nmax - 1) + 1):
            jterm = colength(multiply(a.reduction, a.normal_filt.term(j)))
            e3_sum += (j * (j - 1) // 2) * (jterm - a.normal_values[j])
        if e3_sum != a.e_bar(3):
            return refuted(
                "almost_minimal_rn2",
                f"coefficient identity fails: sum C(j,2)*lambda(closure(I^(j+1))/J·closure(I^j)) "
                f"= {e3_sum} but e3_bar = {a.e_bar(3)}",
                nums,
            )
    return _cm_conclusion(
        "almost_minimal_rn2", a, nums,
        f"reduction number {a.rn} <= 2, auxiliary identities hold, and Valabrega-Valla "
        "certifies the graded ring Cohen-Macaulay",
    )


def check_low_type_cm(a: Analysis) -> Verdict:
    """For type <= 2 rings with e3_bar = 0 and closure(I) = m: the closure-filtration
    graded ring is Cohen-Macaulay, and the ordinary graded ring of m is Cohen-Macaulay
    except in one exceptional numeric configuration, where its depth is d-1."""
    missing = _gates(a, need_reduction=True, min_dim=3, closure_maximal=True, e3_zero=True)
    t = a.type_report.type
    if not missing and t > 2:
        missing.append((f"type {t} exceeds 2", False))
    if missing:
        return _unmet("low_type_cm", missing)
    nums = a.base_numbers()
    b = a.backend
    part_a = _cm_conclusion("low_type_cm", a, nums, "")
    if part_a.conclusion == "refuted-with-witness":
        return part_a
    m = b.maximal()
    lam_m2_Jm = quotient_length(multiply(m, m), multiply(a.reduction, m))
    s1 = a.sally_values[1]
    nums["lambda_m2_Jm"] = lam_m2_Jm
    exceptional = t == 2 and s1 == 2 and a.mu_maximal - a.dim == 2 and lam_m2_Jm == 1
    nums["exceptional_case"] = int(exceptional)
    if not exceptional:
        vv, rn = a.adic_cm()
        if vv.first_failure is not None:
            n, i, elem = vv.first_failure
            return refuted(
                "low_type_cm",
                f"outside the exceptional case the ordinary graded ring of m must be "
                f"Cohen-Macaulay, but Valabrega-Valla fails at degree {n} prefix {i}",
                nums, [Witness(n, elem)],
            )
        if part_a.conclusion == "verified" and vv.certified_cm:
            return verified(
                "low_type_cm",
                "closure-filtration graded ring and ordinary graded ring of m are both "
                "certified Cohen-Macaulay",
                nums,
            )
        return horizon(
            "low_type_cm",
            "Valabrega-Valla passes for both filtrations but the horizon is too small "
            "to certify Cohen-Macaulayness",
            nums,
        )
    base = a.base_cm()
    if base is None:
        return asserted(
            "low_type_cm",
            "exceptional case: depth d-1 for the ordinary graded ring is claimed, and no "
            "dimension-one coefficient ring is available to test it",
            nums,
        )
    vv, rn, bb = base
    if vv.first_failure is not None:
        n, i, elem = vv.first_failure
        if part_a.conclusion == "verified":
            return verified(
                "low_type_cm",
                "exceptional case confirmed: the coefficient-ring graded ring fails "
                f"Valabrega-Valla at degree {n} (so the ordinary graded ring of m has depth "
                "exactly d-1, matching the claimed exception), while the closure-filtration "
                "graded ring is certified Cohen-Macaulay",
                nums, [Witness(n, elem, "coefficient-ring Valabrega-Valla failure")],
            )
        return horizon(
            "low_type_cm",
            "exceptional depth drop confirmed but the closure-filtration horizon is too "
            "small to certify part (a)",
            nums,
        )
    if vv.certified_cm and part_a.conclusion == "verified":
        return verified(
            "low_type_cm",
            "exceptional numeric configuration, yet both graded rings are certified "
            "Cohen-Macaulay (depth >= d-1 holds with room to spare)",
            nums,
        )
    return horizon(
        "low_type_cm",
        "exceptional case: horizon too small to settle the coefficient-ring depth",
        nums,
    )


CHECKS = {
    "table_coherence": (
        check_table_coherence,
        "length tables increase strictly, closure refines powers, fits agree on e0",
    ),
    "e1_lower_bound": (
        check_e1_lower_bound,
        "e1_bar >= e0 - lambda(R/closure(I)) = lambda(closure(I)/J) >= 0",
    ),
    "e1_equality_equivalence": (
        check_e1_equality_equivalence,
        "e1_bar minimal <=> Sally module zero <=> reduction number <= 1",
    ),
    "e1_almost_minimal_depth": (
        check_e1_almost_minimal_depth,
        "e1_bar within 1 of minimal forces depth >= d-1",
    ),
    "e2_lower_bound": (
        check_e2_lower_bound,
        "e2_bar >= e1_bar - e0 + lambda, equality iff reduction number <= 2",
    ),
    "e3_nonnegative": (
        check_e3_nonnegative,
        "e3_bar >= 0; if zero, closure(I^(n+2)) ⊆ J^n",
    ),
    "sally_coefficient_transfer": (
        check_sally_coefficient_transfer,
        "Sally coefficients equal shifted normal coefficients",
    ),
    "series_identity": (
        check_series_identity,
        "degreewise series identities for the three graded modules",
    ),
    "closure_intersection": (
        check_closure_intersection,
        "closure(I^(n+1)) ∩ J^n = J^n closure(I) in low degrees",
    ),
    "socle_formula": (
        check_socle_formula,
        "socle lengths of reduction powers follow type(R) * C(n+d-2, d-1)",
    ),
    "length_bound_decomposition": (
        check_length_bound_decomposition,
        "upper bound and exact decomposition of closure-power colengths",
    ),
    "sally_type_bound": (
        check_sally_type_bound,
        "Sally lengths bounded by type(R) * C(n+d-2, d-1) when e3_bar = 0",
    ),
    "e1_type_sandwich": (
        check_e1_type_sandwich,
        "e0 - 1 + lambda(I2bar/J I1bar) <= e1_bar <= e0 - 1 + type",
    ),
    "e3_vanishing_cm": (
        check_e3_vanishing_cm,
        "e3_bar = 0 with large lambda(I2bar/J I1bar) gives CM graded ring, rn = 2",
    ),
    "almost_minimal_rn2": (
        check_almost_minimal_rn2,
        "e1_bar almost minimal with e3_bar = 0 gives CM graded ring, rn <= 2",
    ),
    "low_type_cm": (
        check_low_type_cm,
        "type <= 2 and e3_bar = 0: both graded rings CM, up to one exceptional case",
    ),
}


def run_checks(a: Analysis, ids=None) -> list[Verdict]:
    """Run the selected checkers (default: all, in registry order)."""
    if ids is None:
        ids = a.entry.checks if a.entry.checks is not None else tuple(CHECKS)
    unknown = [i for i in ids if i not in CHECKS]
    if unknown:
        raise KeyError(f"unknown check ids: {', '.join(unknown)}")
    return [CHECKS[i][0](a) for i in ids]
