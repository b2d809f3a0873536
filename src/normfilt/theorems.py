"""Checkable statements about normal filtrations, run against a backend.

Each checker guards its hypotheses explicitly (dimension, whether the
integral closure of the ideal is the maximal ideal, vanishing of the third
normal coefficient, and so on), computes both sides of its inequality or
identity exactly, and returns a Verdict. Conclusions about depth rest on
`Analysis.basis`: wherever a checker has its monomial reduction, the graded
ring of the normal filtration is proved Cohen-Macaulay, so none of them is
refuted by a Valabrega-Valla failure or left short of horizon for one. The
same proof makes the comparisons of ideals built from J statements about the
h-vector (`Analysis.h`), which gives the normal coefficients and rn: no
checker builds or intersects such an ideal, and socle_formula reads the
socles of J^1..J^3 that `Analysis.socle_lengths` counts. h >= 0 makes some
statements identities in h, read off the counted column as lambda(R/closure(I))
is, which no table can break: those checkers report, and compare nothing.

Checkers register themselves in CHECKS with the `checker` decorator, which
carries their hypotheses as gates; they read an `analysis.Analysis`, which
computes each table, fit and certificate the first time it is read.
A verdict is a `Verdict` record, made by one of the four constructors below it.
"""

from __future__ import annotations

from functools import wraps
from typing import NamedTuple

from .analysis import Analysis, analyze
from .filtration import series_coeff

SCHEMA_VERSION = "normfilt.verdict/1"

CONCLUSIONS = (
    "verified",
    "refuted-with-witness",
    "inconclusive-horizon",
    "abstained",
)


class Witness(NamedTuple):
    degree: int
    element: str
    note: str = ""

    def to_dict(self) -> dict:
        d = {"degree": self.degree, "element": self.element}
        if self.note:
            d["note"] = self.note
        return d


class Verdict(NamedTuple):
    """A checker's conclusion, one of CONCLUSIONS. The constructors below give
    each verdict an empty numbers dict of its own; the `checker` runner fills
    in the check id and, once the gates pass, the numbers."""

    check: str
    conclusion: str
    detail: str
    numbers: dict
    witnesses: tuple[Witness, ...] = ()

    # every conclusion but abstained is reached with the hypotheses met
    hypotheses_met = property(lambda self: self.conclusion != "abstained")

    @property
    def is_refutation(self) -> bool:
        return self.conclusion == "refuted-with-witness"

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "check": self.check,
            "conclusion": self.conclusion,
            "hypotheses_met": self.hypotheses_met,
            "detail": self.detail,
            "numbers": dict(sorted(self.numbers.items())),
            "witnesses": [w.to_dict() for w in self.witnesses],
        }


def verified(detail, witnesses=()):
    return Verdict("", "verified", detail, {}, tuple(witnesses))


def refuted(detail, witnesses=()):
    return Verdict("", "refuted-with-witness", detail, {}, tuple(witnesses))


def horizon(detail):
    return Verdict("", "inconclusive-horizon", detail, {})


def abstained(detail):
    return Verdict("", "abstained", detail, {})


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
    if need_sally_fit and a.reduction is None:  # with J the Sally fit never fails
        missing.append(("Sally coefficients unavailable: no reduction", False))
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


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

@checker()
def check_table_coherence(a: Analysis, nums) -> Verdict:
    """The printed normal table is the counted one, and the normal fit, whose
    leading coefficient is e0, is available. The adic column is not read."""
    # the printed column can differ from the counted one only by a tamper; that
    # the counted and adic columns increase strictly, and that the counted one
    # lies below the adic one, hold for any computed ideal: the tests assert them
    counted = a.ideal.closure_counts(a.nmax + 1)
    for n, printed in enumerate(a.normal_values):
        if printed != counted[n + 1]:
            return refuted(
                f"printed closure-power colength differs from the counted one at degree {n}",
                [Witness(n, f"printed {printed}, counted {counted[n + 1]}")],
            )
    if a.normal_fit is None:
        return horizon(f"normal fit unavailable: {a.normal_fit_error}")
    return verified(
        "tables strictly increase, closure refines powers degreewise, and both fitted "
        "leading coefficients equal the geometric multiplicity",
    )


@checker(need_reduction=True, need_normal_fit=True)
def check_e1_lower_bound(a: Analysis, nums) -> Verdict:
    """e1_bar >= e0 - lambda(R/closure(I)) = lambda(closure(I)/J) >= 0."""
    # e_i = sum_k C(k, i)·h_k, h_0 = lambda(R/closure(I)) and h >= 0 (`Analysis.h`),
    # so e1_bar - lambda(closure(I)/J) = sum_(k>=2) (k-1)·h_k >= 0 for every table
    return verified(f"e1_bar = {a.e_bar(1)} >= {a.lam_I1_J} = lambda(closure(I)/J) >= 0")


@checker(need_reduction=True, need_normal_fit=True)
def check_e1_equality_equivalence(a: Analysis, nums) -> Verdict:
    """e1_bar minimal <=> Sally module zero <=> reduction number <= 1 <=> tables agree."""
    eq_e1 = a.e_bar(1) == a.lam_I1_J
    sally_zero = all(v == 0 for v in a.sally_values)
    rn_le_1 = a.rn <= 1
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
    # s0_bar = slack by construction (see sally_coefficient_transfer)
    nums["s0_bar"] = a.sally_fit.e[0]
    slack = a.e_bar(1) - a.lam_I1_J
    if slack > 1:
        return abstained(f"hypothesis fails: e1_bar exceeds the minimal value by {slack} > 1")
    # `Analysis.basis`: with the reduction that the gates ask for, G is Cohen-Macaulay
    return verified("Valabrega-Valla certifies the graded ring Cohen-Macaulay, so depth >= d-1")


@checker(need_reduction=True, need_normal_fit=True, min_dim=2)
def check_e2_lower_bound(a: Analysis, nums) -> Verdict:
    """e2_bar >= e1_bar - e0 + lambda(R/closure(I)), equality exactly when rn <= 2."""
    # e2_bar - e1_bar + lambda(closure(I)/J) = sum_(k>=3) C(k-1, 2)·h_k >= 0, which
    # is 0 exactly when deg h = rn <= 2 (`Analysis.h`), for every table
    lo = a.e_bar(1) - a.lam_I1_J
    return verified(f"e2_bar = {a.e_bar(2)} >= {lo}, and equality matches the "
                    "reduction-number criterion")


@checker(need_normal_fit=True, min_dim=3)
def check_e3_nonnegative(a: Analysis, nums) -> Verdict:
    """e3_bar >= 0; when it vanishes, closure(I^{n+2}) lies inside J^n for all n.

    With a reduction e3_bar = sum_k C(k,3)·h_k and h >= 0 (see `Analysis.h`), so
    e3_bar = 0 forces rn = deg h <= 2 and F_(n+2) = J^n·F_2 ⊆ J^n for every n."""
    e3 = a.e_bar(3)
    if e3 < 0:
        return refuted(f"e3_bar = {e3} is negative")
    if e3 == 0 and a.reduction is not None:
        return verified(f"e3_bar = 0 and closure(I^(n+2)) ⊆ J^n holds for n = 0..{a.nmax - 1}")
    return verified(f"e3_bar = {e3} >= 0")


@checker(need_reduction=True, need_normal_fit=True, need_sally_fit=True)
def check_sally_coefficient_transfer(a: Analysis, nums) -> Verdict:
    """Sally coefficients: s0 = e1_bar - e0 + lambda, s_i = e_{i+1}_bar for i >= 1."""
    # the Sally fit is read off the normal fit, so the identities hold by
    # construction; the tests compare it with a fit of the Sally column
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
    # the Valabrega-Valla equality J^n ∩ F_(n+1) = J^n·F_1, which `Analysis.basis`
    # proves for every n; it reads no printed entry, so no tamper can move it
    if a.nmax == 1:
        return verified("closure(I^(n+1)) ∩ J^n = J^n·closure(I) holds for every n")
    return verified(f"closure(I^(n+1)) ∩ J^n = J^n·closure(I) verified for n = "
                    f"1..{min(4, a.nmax - 1)}")


@checker(need_reduction=True)
def check_socle_formula(a: Analysis, nums) -> Verdict:
    """lambda((J^n : m)/J^n) = type(R) * C(n+d-2, d-1) for small n."""
    # counted on J^n, building neither m nor (J^n : m)
    t = a.backend.sg.type
    for n, socle in enumerate(a.socle_lengths, start=1):
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
    ring and closure(I^{n+1}) = J^{n-1}·closure(I^2).

    The chain holds from degree 2 on exactly when rn <= 2, and e3_bar =
    sum_k C(k,3)·h_k = 0 with h >= 0 forces rn = deg h <= 2 (see `Analysis.h`).
    Its Cohen-Macaulay half is `Analysis.basis`'s proof: nothing is compared."""
    return verified(
        f"closure(I^(n+1)) = J^(n-1)·closure(I^2) verified for n = 1..{a.nmax - 1} "
        "and Valabrega-Valla certifies the graded ring Cohen-Macaulay",
    )


@checker(
    need_reduction=True, need_normal_fit=True, min_dim=3, e3_zero=True,
    hypothesis=lambda a: (
        f"e1_bar = {a.e_bar(1)} is not e0 - lambda(R/closure(I)) + 1 = {a.lam_I1_J + 1}"
        if a.e_bar(1) != a.lam_I1_J + 1 else None
    ),
)
def check_almost_minimal_rn2(a: Analysis, nums) -> Verdict:
    """e1_bar = e0 - lambda + 1 and e3_bar = 0 give a Cohen-Macaulay graded ring with
    reduction number at most 2, and e1_bar - lambda(closure(I)/J) bounds the
    intersection sum.

    e3_bar = sum_k C(k,3)·h_k = 0 with h >= 0 forces rn = deg h <= 2. The
    intersection sum is sum_(n=1..rn) lambda(R/(J ∩ F_(n+1))) - printed v_n, and
    J ∩ F_(n+1) = J·F_n (`Analysis.basis`) has colength v_n + sum_(k>n) h_k,
    v_n the counted entry. On the counted column the sum is sum_(k>=2) (k-1)·h_k
    = e1_bar - lambda(closure(I)/J), and a tamper adds 1 to a printed entry,
    which lowers it: e1_bar never falls below the other side, so nothing is
    compared. The identity e3_bar = sum_(j>=2) C(j,2)·lambda(closure(I^(j+1))/
    J·closure(I^j)) is not summed either: j >= 2 >= rn, so every summand is 0."""
    return verified(
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
    except in one exceptional numeric configuration, where its depth is d-1.

    Part (a) is `Analysis.basis`'s proof. G(m) is read off the semigroup,
    `Analysis.tangent_cone_failure`, with no horizon: its Valabrega-Valla test
    fails where that of k[[S]] with (t^e) does, at a degree at most e - 1. So no
    part can run out of horizon."""
    t = a.backend.sg.type
    # lambda(R/Jm) = e0 + mu(J) = e0 + d and lambda(R/m^2) = 1 + mu(m), as J ⊆ m = closure(I)
    lam_m2_Jm = a.e0 + a.dim - 1 - a.mu_maximal
    s1 = a.sally_values[1]
    nums["lambda_m2_Jm"] = lam_m2_Jm
    exceptional = t == 2 and s1 == 2 and a.mu_maximal - a.dim == 2 and lam_m2_Jm == 1
    nums["exceptional_case"] = int(exceptional)
    failure = a.tangent_cone_failure
    if not exceptional:
        if failure is not None:
            n, elem = failure
            return refuted(
                f"outside the exceptional case the ordinary graded ring of m must be "
                f"Cohen-Macaulay, but Valabrega-Valla fails at degree {n} prefix {a.dim}",
                [Witness(n, elem)],
            )
        return verified(
            "closure-filtration graded ring and ordinary graded ring of m are both "
            "certified Cohen-Macaulay",
        )
    if failure is not None:
        n, elem = failure
        return verified(
            "exceptional case confirmed: the coefficient-ring graded ring fails "
            f"Valabrega-Valla at degree {n} (so the ordinary graded ring of m has depth "
            "exactly d-1, matching the claimed exception), while the closure-filtration "
            "graded ring is certified Cohen-Macaulay",
            [Witness(n, elem, "coefficient-ring Valabrega-Valla failure")],
        )
    return verified(
        "exceptional numeric configuration, yet both graded rings are certified "
        "Cohen-Macaulay (depth >= d-1 holds with room to spare)",
    )


def run_checks(a: Analysis) -> list[Verdict]:
    """Run the entry's checkers (default: all, in registry order); build_entry checked the ids."""
    ids = a.entry.checks if a.entry.checks is not None else tuple(CHECKS)
    return [CHECKS[i][0](a) for i in ids]
