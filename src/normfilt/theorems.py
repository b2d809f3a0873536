"""Checkable statements about normal filtrations, run against a backend.

Each checker guards its hypotheses explicitly (dimension, whether the
integral closure of the ideal is the maximal ideal, vanishing of the third
normal coefficient, and so on), computes both sides of its inequality or
identity exactly, and returns a Verdict. Conclusions about depth are only
reported as machine-verified when the Valabrega-Valla test certifies the
associated graded ring to be Cohen-Macaulay outright; otherwise they are
downgraded to asserted-by-paper rather than silently trusted.

Checkers register themselves in CHECKS with the `checker` decorator, which
carries their hypotheses as gates; they read an `analysis.Analysis`, which
computes each table, fit and certificate the first time it is read.
"""

from __future__ import annotations

from functools import wraps

from .analysis import Analysis, analyze
from .errors import HorizonError
from .filtration import intersection_failures, series_coeff, witness_element
from .monomial import colength, colon, ideal_contains, intersect, multiply, quotient_length
from .verdicts import Verdict, Witness, abstained, asserted, horizon, refuted, verified


def _gates(a: Analysis, *, need_reduction=False, need_normal_fit=False, need_sally_fit=False,
           min_dim=None, closure_maximal=False, e3_zero=False, hypothesis=None):
    """Unmet gates in order, as (detail, short) with short true when the gate
    misses only for lack of horizon; empty return means all gates pass.
    hypothesis(a), asked once every other gate passes, gives the detail of a
    failed hypothesis of the checker's own, or None."""
    missing = []
    if min_dim is not None and a.dim < min_dim:
        missing.append((f"needs dimension >= {min_dim}, ring has dimension {a.dim}", False))
    if need_reduction and a.reduction is None:
        missing.append(("no certified reduction available", False))
    no_normal = (f"normal coefficients unavailable: {a.normal_fit_error}", True)
    if need_normal_fit and a.normal_fit is None:
        missing.append(no_normal)
    if need_sally_fit and a.reduction is None:
        missing.append(("Sally coefficients unavailable: no reduction", False))
    elif need_sally_fit and a.sally_fit is None:
        missing.append((f"Sally coefficients unavailable: {a.sally_fit_error}",
                        isinstance(a.sally_fit_error, HorizonError)))
    if closure_maximal and not a.closure_is_maximal:
        missing.append(("closure of the ideal is not the maximal ideal", False))
    if e3_zero and a.dim >= 3:
        if a.normal_fit is None:
            missing.append(no_normal)
        elif a.normal_fit.e[3] != 0:
            missing.append(("third normal coefficient does not vanish", False))
    if hypothesis is not None and not missing and (detail := hypothesis(a)):
        missing.append((detail, False))
    return missing


def _unmet(missing) -> Verdict:
    """abstained if a hypothesis fails, inconclusive-horizon if every miss is
    for lack of horizon; a detail repeated by two gates is given once."""
    detail = "; ".join(dict.fromkeys(text for text, _ in missing))
    if all(short for _, short in missing):
        return horizon(detail)
    return abstained(detail)


CHECKS = {}


def checker(**gates):
    """Register a checker in CHECKS, in definition order, under its name
    without the check_ prefix and with its docstring as description.

    The registered checker returns the verdict of the unmet gates (keyword
    arguments of _gates) without numbers; once the gates pass it calls the
    body with the analysis and its base numbers, which the body may extend,
    and fills the check id and those numbers into the body's verdict.
    """

    def register(body):
        check = body.__name__.removeprefix("check_")

        @wraps(body)
        def run(a: Analysis) -> Verdict:
            missing = _gates(a, **gates)
            if missing:
                return _unmet(missing)._replace(check=check)
            nums = a.base_numbers()
            return body(a, nums)._replace(check=check, numbers=nums)

        CHECKS[check] = (run, " ".join(body.__doc__.split()))
        return run

    return register


def _cm_conclusion(a, detail_ok) -> Verdict:
    """Map the Valabrega-Valla report to a verdict about Cohen-Macaulayness."""
    vv = a.vv
    if vv.first_failure is not None:
        n, i, elem = vv.first_failure
        return refuted(
            f"Valabrega-Valla fails at degree {n} prefix {i}; "
            "the associated graded ring of the closure filtration is not Cohen-Macaulay, "
            "contradicting the statement",
            [Witness(n, elem, f"in F_{n} ∩ (g_1..g_{i}) but not in (g_1..g_{i})·F_{n-1}")],
        )
    if vv.certified_cm:
        return verified(detail_ok)
    return horizon(
        "all Valabrega-Valla checks pass but the horizon is too small to certify "
        f"Cohen-Macaulayness (checked to {vv.checked_upto}, need {vv.required_horizon})",
    )


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

@checker()
def check_table_coherence(a: Analysis, nums) -> Verdict:
    """Tables increase strictly, closure refines powers, and fits agree on e0."""
    for n in range(1, a.nmax + 1):
        if a.normal_values[n] <= a.normal_values[n - 1]:
            return refuted(
                f"closure-power colengths fail to increase strictly at degree {n}",
                [Witness(n, f"colengths {a.normal_values[n - 1]} -> {a.normal_values[n]}")],
            )
        if a.adic_values[n] <= a.adic_values[n - 1]:
            return refuted(
                f"ordinary-power colengths fail to increase strictly at degree {n}",
                [Witness(n, f"colengths {a.adic_values[n - 1]} -> {a.adic_values[n]}")],
            )
    for n in range(a.nmax + 1):
        if a.normal_values[n] > a.adic_values[n]:
            return refuted(
                f"closure-power colength exceeds ordinary-power colength at degree {n}",
                [Witness(n, f"{a.normal_values[n]} > {a.adic_values[n]}")],
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
                f"leading {label} coefficient {fit.e[0]} differs from the geometric "
                f"multiplicity {a.e0}",
            )
    if fit_notes:
        return horizon("; ".join(fit_notes))
    return verified(
        "tables strictly increase, closure refines powers degreewise, and both fitted "
        "leading coefficients equal the geometric multiplicity",
    )


@checker(need_reduction=True, need_normal_fit=True)
def check_e1_lower_bound(a: Analysis, nums) -> Verdict:
    """e1_bar >= e0 - lambda(R/closure(I)) = lambda(closure(I)/J) >= 0."""
    e1 = a.e_bar(1)
    lo = a.e0 - a.lam_R_I1
    if e1 < lo:
        return refuted(f"e1_bar = {e1} < {lo} = e0 - lambda(R/closure(I))")
    return verified(f"e1_bar = {e1} >= {lo} = lambda(closure(I)/J) >= 0")


@checker(need_reduction=True, need_normal_fit=True)
def check_e1_equality_equivalence(a: Analysis, nums) -> Verdict:
    """e1_bar minimal <=> Sally module zero <=> reduction number <= 1 <=> tables agree."""
    eq_e1 = a.e_bar(1) == a.e0 - a.lam_R_I1
    sally_zero = all(v == 0 for v in a.sally_values)
    rn_le_1 = a.rn is not None and a.rn <= 1
    # graded pieces agree degreewise exactly when the tables do: no Sally length
    flags = {
        "e1_bar equals e0 - lambda(R/closure(I))": eq_e1,
        "Sally lengths all vanish up to the horizon": sally_zero,
        "reduction number of the closure filtration is <= 1": rn_le_1,
        "graded pieces of the closure and J-good filtrations agree": sally_zero,
    }
    nums.update({
        "eq_e1": int(eq_e1), "sally_zero": int(sally_zero),
        "rn_le_1": int(rn_le_1), "tables_agree": int(sally_zero),
    })
    if len({*flags.values()}) == 1:
        state = "all hold" if eq_e1 else "all fail"
        return verified(f"the four equivalent conditions agree ({state})")
    true_parts = [k for k, v in flags.items() if v]
    false_parts = [k for k, v in flags.items() if not v]
    witnesses = []
    if not sally_zero:
        n = next(i for i, v in enumerate(a.sally_values) if v)
        witnesses.append(Witness(n, f"Sally length {a.sally_values[n]}"))
    return refuted(
        "equivalence broken: hold [" + "; ".join(true_parts) + "] vs fail ["
        + "; ".join(false_parts) + "]",
        witnesses,
    )


@checker(need_reduction=True, need_normal_fit=True, need_sally_fit=True)
def check_e1_almost_minimal_depth(a: Analysis, nums) -> Verdict:
    """e1_bar <= e0 - lambda(R/closure(I)) + 1 forces depth >= d-1 for the graded ring."""
    # s0_bar = slack for any table once both fits pass (see sally_coefficient_transfer)
    nums["s0_bar"] = a.sally_fit.e[0]
    slack = a.e_bar(1) - (a.e0 - a.lam_R_I1)
    if slack > 1:
        return abstained(f"hypothesis fails: e1_bar exceeds the minimal value by {slack} > 1")
    if a.vv.certified_cm:
        return verified(
            "Valabrega-Valla certifies the graded ring Cohen-Macaulay, so depth >= d-1"
        )
    if a.dim == 1:
        return verified("depth >= d-1 = 0 holds trivially in dimension 1")
    if a.vv.first_failure is not None:
        return asserted(
            "graded ring is not Cohen-Macaulay, so depth exactly d-1 is claimed; "
            "no independent certificate for that depth is available",
        )
    return horizon("Valabrega-Valla passes up to the horizon but cannot yet certify depth")


@checker(need_reduction=True, need_normal_fit=True, min_dim=2)
def check_e2_lower_bound(a: Analysis, nums) -> Verdict:
    """e2_bar >= e1_bar - e0 + lambda(R/closure(I)), equality exactly when rn <= 2."""
    e2 = a.e_bar(2)
    lo = a.e_bar(1) - a.e0 + a.lam_R_I1
    if e2 < lo:
        return refuted(f"e2_bar = {e2} < {lo} = e1_bar - e0 + lambda")
    rn_le_2 = a.rn is not None and a.rn <= 2
    if (e2 == lo) != rn_le_2:
        rn_desc = str(a.rn) if a.rn is not None else f"> {a.nmax}"
        return refuted(
            f"equality e2_bar = {lo} is {e2 == lo} but reduction number {rn_desc} being <= 2 "
            f"is {rn_le_2}; the equality criterion fails",
        )
    return verified(f"e2_bar = {e2} >= {lo}, and equality matches the reduction-number criterion")


@checker(need_normal_fit=True, min_dim=3)
def check_e3_nonnegative(a: Analysis, nums) -> Verdict:
    """e3_bar >= 0; when it vanishes, closure(I^{n+2}) lies inside J^n for all n."""
    e3 = a.e_bar(3)
    if e3 < 0:
        return refuted(f"e3_bar = {e3} is negative")
    if e3 == 0 and a.reduction is not None:
        for n in range(a.nmax):
            jn = a.reduction_powers.term(n)
            term = a.normal_filt.term(n + 2)
            if not ideal_contains(jn, term):
                return refuted(
                    f"e3_bar = 0 but closure(I^{n + 2}) is not inside J^{n}",
                    [Witness(n + 2, witness_element(a.backend, term, jn), f"not in J^{n}")],
                )
        return verified(f"e3_bar = 0 and closure(I^(n+2)) ⊆ J^n holds for n = 0..{a.nmax - 1}")
    return verified(f"e3_bar = {e3} >= 0")


@checker(need_reduction=True, need_normal_fit=True, need_sally_fit=True)
def check_sally_coefficient_transfer(a: Analysis, nums) -> Verdict:
    """Sally coefficients: s0 = e1_bar - e0 + lambda, s_i = e_{i+1}_bar for i >= 1."""
    # the J-good table is a closed form with lambda(R/J) = e0, so once both fits
    # pass the identities hold for any table, tampered or not: the tests assert them
    nums.update({f"s{i}_bar": c for i, c in enumerate(a.sally_fit.e)})
    return verified("Sally coefficients match the shifted normal coefficients")


@checker(need_reduction=True)
def check_series_identity(a: Analysis, nums) -> Verdict:
    """Degreewise series identities linking the three graded modules. The J-good
    table is a closed form and the other identities hold for any tables, so only
    the printed lambda(R/closure(I)) is compared with the computed one."""
    # the closed form of the J-good graded lengths, read with the printed
    # lambda, misses by (lambda - printed)·series_coeff(n, d - 1): first at degree 0
    lam, printed = a.lam_R_I1, a.normal_values[0]
    if printed == lam:
        return verified(
            f"series, additivity and closed-form identities hold for degrees 0..{a.nmax}"
        )
    return refuted("identity 'jgood_closed_form' fails at degree 0", [
        Witness(0, f"ge={lam} gbar={printed} sally={lam - printed} middle={lam}")])


@checker(need_reduction=True)
def check_closure_intersection(a: Analysis, nums) -> Verdict:
    """closure(I^{n+1}) ∩ J^n = J^n closure(I) in low degrees."""
    upto = min(4, a.nmax - 1)
    if upto < 1:
        return horizon(f"no degree to test: n runs over 1..min(4, nmax - 1) and nmax = {a.nmax}")
    fails = intersection_failures(a.backend, a.normal_filt, a.reduction_powers, upto)
    if fails:
        n, elem = fails[0]
        return refuted(
            f"closure(I^{n + 1}) ∩ J^{n} != J^{n}·closure(I) at degree {n}",
            [Witness(n, elem)],
        )
    return verified(f"closure(I^(n+1)) ∩ J^n = J^n·closure(I) verified for n = 1..{upto}")


@checker(need_reduction=True)
def check_socle_formula(a: Analysis, nums) -> Verdict:
    """lambda((J^n : m)/J^n) = type(R) * C(n+d-2, d-1) for small n."""
    t = a.backend.sg.type
    for n in range(1, min(3, a.nmax) + 1):
        jn = a.reduction_powers.term(n)
        socle = quotient_length(colon(jn, a.maximal), jn)
        expected = t * series_coeff(n - 1, a.dim)
        if socle != expected:
            return refuted(
                f"socle length of J^{n} is {socle}, expected type * C(n+d-2, d-1) = {expected}",
                [Witness(n, f"socle length {socle}")],
            )
    return verified("socle lengths of reduction powers match type(R) * C(n+d-2, d-1)")


@checker(need_reduction=True)
def check_length_bound_decomposition(a: Analysis, nums) -> Verdict:
    """Upper bound and exact decomposition for lambda(R/closure(I^{n+1})). The
    decomposition holds for any table once the J-good table is its closed form,
    so only the bound is tested."""
    # exact = e0·C(n+d, d) - e0·C(n+d-1, d-1) + lambda(R/closure(I))·C(n+d-1, d-1)
    # - sally[n], and sally[n] is that J-good closed form minus the printed entry
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
                f"lambda(R/closure(I^{n + 1})) = {lhs} exceeds the bound {bound} at degree {n}",
                [Witness(n, f"{lhs} > {bound}")],
            )
    return verified(f"length bound and exact decomposition hold for degrees 0..{a.nmax}")


@checker(need_reduction=True, min_dim=3, closure_maximal=True, e3_zero=True)
def check_sally_type_bound(a: Analysis, nums) -> Verdict:
    """Sally lengths are bounded by type(R) * C(n+d-2, d-1) once e3_bar = 0."""
    t = a.backend.sg.type
    for n in range(1, a.nmax + 1):
        bound = t * series_coeff(n - 1, a.dim)
        if a.sally_values[n] > bound:
            return refuted(
                f"Sally length {a.sally_values[n]} exceeds type bound {bound} at degree {n}",
                [Witness(n, f"{a.sally_values[n]} > {bound}")],
            )
    return verified(
        f"Sally lengths stay within type(R) * C(n+d-2, d-1) for degrees 1..{a.nmax}"
    )


@checker(need_reduction=True, need_normal_fit=True, min_dim=3, closure_maximal=True,
         e3_zero=True)
def check_e1_type_sandwich(a: Analysis, nums) -> Verdict:
    """e0 - 1 + lambda(I2bar/J·I1bar) <= e1_bar <= e0 - 1 + type, strict if they differ."""
    e1 = a.e_bar(1)
    t = a.backend.sg.type
    s1 = a.sally_values[1]
    lo = a.e0 - 1 + s1
    hi = a.e0 - 1 + t
    if not (lo <= e1 <= hi):
        return refuted(f"e1_bar = {e1} outside [{lo}, {hi}]")
    if t != s1 and e1 >= hi:
        return refuted(
            f"type {t} != lambda(I2bar/J·I1bar) {s1} requires the strict bound, "
            f"but e1_bar = {e1} attains {hi}",
        )
    strictness = "strictly below" if t != s1 else "up to"
    return verified(f"{lo} <= e1_bar = {e1} {strictness} {hi}")


@checker(
    need_reduction=True, min_dim=3, closure_maximal=True, e3_zero=True,
    hypothesis=lambda a: (
        f"lambda(I2bar/J·I1bar) = {a.sally_values[1]} < type - 1 = {a.backend.sg.type - 1}"
        if a.sally_values[1] < a.backend.sg.type - 1 else None
    ),
)
def check_e3_vanishing_cm(a: Analysis, nums) -> Verdict:
    """e3_bar = 0 with lambda(I2bar/J·I1bar) >= type-1 gives a Cohen-Macaulay graded
    ring and closure(I^{n+1}) = J^{n-1}·closure(I^2)."""
    term2 = a.normal_filt.term(2)
    for n in range(1, a.nmax):
        lhs = a.normal_filt.term(n + 1)
        rhs = multiply(a.reduction_powers.term(n - 1), term2)
        if lhs != rhs:
            return refuted(
                f"closure(I^{n + 1}) != J^{n - 1}·closure(I^2) at degree {n}",
                [Witness(n + 1, witness_element(a.backend, lhs, rhs))],
            )
    return _cm_conclusion(
        a,
        f"closure(I^(n+1)) = J^(n-1)·closure(I^2) verified for n = 1..{a.nmax - 1} "
        "and Valabrega-Valla certifies the graded ring Cohen-Macaulay",
    )


@checker(
    need_reduction=True, need_normal_fit=True, min_dim=3, e3_zero=True,
    hypothesis=lambda a: (
        f"e1_bar = {a.e_bar(1)} is not e0 - lambda(R/closure(I)) + 1 "
        f"= {a.e0 - a.lam_R_I1 + 1}"
        if a.e_bar(1) != a.e0 - a.lam_R_I1 + 1 else None
    ),
)
def check_almost_minimal_rn2(a: Analysis, nums) -> Verdict:
    """e1_bar = e0 - lambda + 1 and e3_bar = 0 give a Cohen-Macaulay graded ring with
    reduction number at most 2; cross-checks two auxiliary coefficient identities."""
    if a.rn is None or a.rn > 2:
        rn_desc = str(a.rn) if a.rn is not None else f"> {a.nmax}"
        return refuted(f"reduction number of the closure filtration is {rn_desc}, not <= 2")
    hm_sum = 0
    for n in range(1, a.rn + 1):
        meet = intersect(a.reduction, a.normal_filt.term(n + 1))
        hm_sum += colength(meet) - a.normal_values[n]
    if a.e_bar(1) < a.lam_I1_J + hm_sum:
        return refuted(
            f"e1_bar = {a.e_bar(1)} < lambda(closure(I)/J) + intersection sum "
            f"= {a.lam_I1_J + hm_sum}",
        )
    if a.vv.certified_cm and a.dim == 3:
        e3_sum = 0
        for j in range(2, min(a.rn + 2, a.nmax - 1) + 1):
            jterm = colength(multiply(a.reduction, a.normal_filt.term(j)))
            e3_sum += (j * (j - 1) // 2) * (jterm - a.normal_values[j])
        if e3_sum != a.e_bar(3):
            return refuted(
                f"coefficient identity fails: sum C(j,2)*lambda(closure(I^(j+1))/J·closure(I^j)) "
                f"= {e3_sum} but e3_bar = {a.e_bar(3)}",
            )
    return _cm_conclusion(
        a,
        f"reduction number {a.rn} <= 2, auxiliary identities hold, and Valabrega-Valla "
        "certifies the graded ring Cohen-Macaulay",
    )


@checker(
    need_reduction=True, min_dim=3, closure_maximal=True, e3_zero=True,
    hypothesis=lambda a: (
        f"type {a.backend.sg.type} exceeds 2" if a.backend.sg.type > 2 else None
    ),
)
def check_low_type_cm(a: Analysis, nums) -> Verdict:
    """For type <= 2 rings with e3_bar = 0 and closure(I) = m: the closure-filtration
    graded ring is Cohen-Macaulay, and the ordinary graded ring of m is Cohen-Macaulay
    except in one exceptional numeric configuration, where its depth is d-1."""
    part_a = _cm_conclusion(a, "")
    if part_a.is_refutation:
        return part_a
    t = a.backend.sg.type
    m = a.maximal
    lam_m2_Jm = quotient_length(multiply(m, m), multiply(a.reduction, m))
    s1 = a.sally_values[1]
    nums["lambda_m2_Jm"] = lam_m2_Jm
    exceptional = t == 2 and s1 == 2 and a.mu_maximal - a.dim == 2 and lam_m2_Jm == 1
    nums["exceptional_case"] = int(exceptional)
    if not exceptional:
        vv, _ = a.adic_cm
        if vv.first_failure is not None:
            n, i, elem = vv.first_failure
            return refuted(
                f"outside the exceptional case the ordinary graded ring of m must be "
                f"Cohen-Macaulay, but Valabrega-Valla fails at degree {n} prefix {i}",
                [Witness(n, elem)],
            )
        if part_a.conclusion == "verified" and vv.certified_cm:
            return verified(
                "closure-filtration graded ring and ordinary graded ring of m are both "
                "certified Cohen-Macaulay",
            )
        return horizon(
            "Valabrega-Valla passes for both filtrations but the horizon is too small "
            "to certify Cohen-Macaulayness",
        )
    vv, _ = a.base_cm
    if vv.first_failure is not None:
        n, i, elem = vv.first_failure
        if part_a.conclusion == "verified":
            return verified(
                "exceptional case confirmed: the coefficient-ring graded ring fails "
                f"Valabrega-Valla at degree {n} (so the ordinary graded ring of m has depth "
                "exactly d-1, matching the claimed exception), while the closure-filtration "
                "graded ring is certified Cohen-Macaulay",
                [Witness(n, elem, "coefficient-ring Valabrega-Valla failure")],
            )
        return horizon(
            "exceptional depth drop confirmed but the closure-filtration horizon is too "
            "small to certify part (a)",
        )
    if vv.certified_cm and part_a.conclusion == "verified":
        return verified(
            "exceptional numeric configuration, yet both graded rings are certified "
            "Cohen-Macaulay (depth >= d-1 holds with room to spare)",
        )
    return horizon("exceptional case: horizon too small to settle the coefficient-ring depth")


def run_checks(a: Analysis) -> list[Verdict]:
    """Run the entry's checkers (default: all, in registry order); build_entry checked the ids."""
    ids = a.entry.checks if a.entry.checks is not None else tuple(CHECKS)
    return [CHECKS[i][0](a) for i in ids]
