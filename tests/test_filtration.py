"""Filtrations, exact polynomial fits, reduction numbers, and series identities."""

from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from normfilt import CHECKS, errors
from normfilt import filtration as flt
from normfilt.analysis import Analysis, auto_reduction
from normfilt.backends import PolynomialBackend, SemigroupBackend
from normfilt.inputs import EntryData
from normfilt.monomial import closure_power, contains, intersect, multiply, unit_ideal
from oracles import (_solve_consistent, jgood_chain_colengths, reduction_number_scan, series_checks,
                     valabrega_valla_prefixes)


# --- series_coeff ------------------------------------------------------------


def test_series_coeff_values():
    assert [flt.series_coeff(n, 0) for n in range(-1, 4)] == [0, 1, 0, 0, 0]
    assert [flt.series_coeff(n, 1) for n in range(-2, 4)] == [0, 0, 1, 1, 1, 1]
    assert [flt.series_coeff(n, 2) for n in range(5)] == [1, 2, 3, 4, 5]
    assert flt.series_coeff(3, 3) == comb(5, 2) == 10


@given(st.integers(0, 30), st.integers(0, 6))
def test_series_coeff_cumulative(n, p):
    # partial sums of 1/(1-z)^p give 1/(1-z)^(p+1)
    assert sum(flt.series_coeff(k, p) for k in range(n + 1)) == flt.series_coeff(n, p + 1)


def test_default_nmax_leaves_room_for_a_fit():
    # a fit needs dim+1 entries plus the window; dimension 4 needs 10, not 9
    nmax = [flt.default_nmax(d) for d in (1, 2, 3, 4)]
    assert nmax == [6, 7, 8, 10]
    assert all(n + 1 >= d + 1 + flt.default_window(d) for d, n in zip((1, 2, 3, 4), nmax))


# --- polynomial fitting -------------------------------------------------------


def planted(coeffs, dim, count):
    return [
        sum((-1) ** i * c * flt.series_coeff(n, dim - i + 1) for i, c in enumerate(coeffs))
        for n in range(count)
    ]


def test_fit_recovers_planted_polynomial():
    values = planted((7, 3, 1), 2, 8)
    fit = flt.fit_coefficients(values, 2)
    assert fit.e == (7, 3, 1)
    assert fit.stable_from == 0


def test_fit_reports_transient_prefix():
    values = planted((7, 3, 1), 2, 9)
    values[0] += 1
    fit = flt.fit_coefficients(values, 2)
    assert fit.e == (7, 3, 1)
    assert fit.stable_from == 1


def test_fit_horizon_short_table():
    values = planted((7, 3, 1), 2, 6)  # needs dim+1 + window = 3 + 4 entries
    with pytest.raises(errors.HorizonError):
        flt.fit_coefficients(values, 2)


def test_fit_horizon_corrupted_tail():
    values = planted((7, 3, 1), 2, 9)
    values[-1] += 1
    with pytest.raises(errors.HorizonError):
        flt.fit_coefficients(values, 2)


def test_fit_horizon_nonpositive_leading():
    with pytest.raises(errors.HorizonError):
        flt.fit_coefficients([5] * 8, 1)


def test_fit_window_validation():
    with pytest.raises(errors.PreconditionError):
        flt.fit_polynomial(planted((2, 1), 1, 8), 1, 0)


def test_fit_rejects_non_integer_entries():
    for index in (3, 7):
        values = planted((7, 3, 1), 2, 8)
        values[index] = Fraction(1, 2)
        with pytest.raises(errors.PreconditionError, match="integers"):
            flt.fit_coefficients(values, 2)


def reference_fit(values, dim, window):
    """fit_polynomial by Gaussian elimination over the rationals on the
    trailing dim+1 entries, with integrality demanded of the solution."""
    k = dim + 1
    if window < 1:
        raise errors.PreconditionError("verification window must be positive")
    if len(values) < k + window:
        raise errors.HorizonError("table too short")
    rows = range(len(values) - k, len(values))
    columns = [tuple((-1) ** i * flt.series_coeff(n, dim - i + 1) for n in rows) for i in range(k)]
    sol = _solve_consistent(columns, tuple(values[n] for n in rows))
    if sol is None or any(c.denominator != 1 for c in sol):
        raise errors.HorizonError("no exact integral fit")
    coeffs = tuple(int(c) for c in sol)
    poly = planted(coeffs, dim, len(values))
    first_fit = len(values) - k
    if poly[first_fit - window:first_fit] != values[first_fit - window:first_fit]:
        raise errors.HorizonError("window disagrees")
    stable_from = first_fit - window
    while stable_from > 0 and poly[stable_from - 1] == values[stable_from - 1]:
        stable_from -= 1
    return coeffs, stable_from


@st.composite
def fit_tables(draw):
    """(values, dim, window): planted polynomials with a few perturbed
    entries, or random tables; short tables and bad windows included."""
    dim = draw(st.integers(0, 4))
    count = draw(st.integers(0, 14))
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-60, 60), min_size=dim + 1, max_size=dim + 1))
        values = planted(coeffs, dim, count)
        for _ in range(draw(st.integers(0, 2)) if count else 0):
            values[draw(st.integers(0, count - 1))] += draw(st.integers(-3, 3))
    else:
        values = draw(st.lists(st.integers(-200, 200), min_size=count, max_size=count))
    return values, dim, draw(st.integers(-1, 5))


def fit_outcome(fit, values, dim, window):
    try:
        return fit(values, dim, window)
    except (errors.HorizonError, errors.PreconditionError) as exc:
        return type(exc)


@settings(max_examples=500, deadline=None)
@given(fit_tables())
def test_fit_matches_rational_reference(table):
    assert fit_outcome(flt.fit_polynomial, *table) == fit_outcome(reference_fit, *table), table


# --- filtration kinds ---------------------------------------------------------


@pytest.fixture(scope="module")
def poly2():
    return PolynomialBackend(("x", "y"))


def power(a, n):
    out = a
    for _ in range(n - 1):
        out = multiply(out, a)
    return out


def test_filtration_terms(poly2):
    b = poly2
    ideal = b.ideal([(2, 0), (0, 2)])
    normal = flt.Filtration(b, "normal", ideal=ideal)
    adic = flt.Filtration(b, "adic", ideal=ideal)
    assert normal.term(0) == unit_ideal(b.sg, b.dim)
    # the closure of (x^2, y^2) is the full square of the maximal ideal
    assert normal.term(1) == power(b.maximal(), 2)
    assert normal.term(3) == power(b.maximal(), 6)
    assert adic.term(0) == unit_ideal(b.sg, b.dim) and adic.term(1) == ideal
    assert adic.term(2) == power(ideal, 2)
    assert adic.term(3) == power(ideal, 3)
    assert normal.term(2) is normal.term(2)  # memoized
    assert adic.term(3) is adic.term(3)


def test_filtration_validation(poly2):
    b = poly2
    ideal = b.ideal([(2, 0), (0, 2)])
    with pytest.raises(errors.PreconditionError):
        flt.Filtration(b, "bogus", ideal=ideal)
    with pytest.raises(errors.PreconditionError):
        flt.Filtration(b, "normal")
    with pytest.raises(errors.PreconditionError):
        flt.Filtration(b, "adic", ideal=ideal).term(-1)


def test_length_table(poly2):
    b = poly2
    maximal = flt.Filtration(b, "adic", ideal=b.maximal())
    assert flt.length_table(maximal, 4) == (1, 3, 6, 10, 15)


# --- reduction numbers ----------------------------------------------------------


def test_reduction_number(poly2):
    b = poly2
    m2 = power(b.maximal(), 2)
    j = b.ideal([(2, 0), (0, 2)])
    filt = flt.Filtration(b, "adic", ideal=m2)
    assert flt.reduction_number(filt, j, 6) == 1
    # an ideal is its own reduction with reduction number 0
    self_filt = flt.Filtration(b, "adic", ideal=b.maximal())
    assert flt.reduction_number(self_filt, b.maximal(), 4) == 0


def test_reduction_number_horizon(poly2):
    b = poly2
    m2 = power(b.maximal(), 2)
    j = b.ideal([(2, 0), (0, 2)])
    filt = flt.Filtration(b, "adic", ideal=m2)
    with pytest.raises(errors.HorizonError):
        flt.reduction_number(filt, j, 0)  # J*R != m^2 and nothing above to test


# --- Valabrega-Valla -------------------------------------------------------------


def test_vv_certified_and_inconclusive(poly2):
    b = poly2
    ideal = b.ideal([(2, 0), (0, 2)])
    normal = flt.Filtration(b, "normal", ideal=ideal)
    rn = flt.reduction_number(normal, ideal, 7)
    assert rn == 1
    report = flt.valabrega_valla(normal, ideal, 7, 4, rn)
    assert report.certified_cm and not report.inconclusive
    assert report.first_failure is None
    assert report.required_horizon == 5
    short = flt.valabrega_valla(normal, ideal, 4, 4, rn)
    assert not short.certified_cm and short.inconclusive
    assert short.first_failure is None and short.required_horizon == 5


def test_vv_decisive_failure_on_semigroup_base():
    b = SemigroupBackend((4, 5, 11))
    m = b.maximal()
    j = b.ideal([(4,)])
    filt = flt.Filtration(b, "adic", ideal=m)
    report = flt.valabrega_valla(filt, j, 6, 3, None)
    assert not report.certified_cm and not report.inconclusive
    degree, prefix, witness = report.first_failure
    # t^15 = t^4*t^11 lies in m^3 and in (t^4) but not in t^4*m^2
    assert (degree, prefix, witness) == (3, 1, "t^15")


@st.composite
def vv_cases(draw, semigroups=((1,), (2, 3), (3, 5), (4, 5, 11)), kinds=("normal", "adic", "base")):
    """(filtration, J, nmax, window): the normal or adic filtration of an ideal
    between a pure-power J and its closure, or the adic filtration of the
    maximal ideal of the coefficient ring; polynomial rings have d <= 3 and
    semigroup rings 0..2 adjoined variables."""
    sg = draw(st.sampled_from(semigroups))
    free = draw(st.integers(0, 2))
    ring = (PolynomialBackend(("x", "y", "z")[:free + 1]) if sg == (1,)
            else SemigroupBackend(sg, free))
    members = [s for s in range(1, 13) if ring.sg.contains(s)]
    kind = draw(st.sampled_from(kinds))
    if draw(st.booleans()):
        ideal = ring.maximal()
    else:
        pure = [draw(st.integers(1, 3)) for _ in range(free)] + [draw(st.sampled_from(members))]
        vector = st.tuples(*[st.integers(0, 3)] * free, st.sampled_from([0] + members))
        # generators a with sum a_i / p_i >= 1 lie in the closure of the pure powers p_i
        extra = [a for a in draw(st.lists(vector, max_size=3))
                 if sum(x * prod(pure) // p for x, p in zip(a, pure)) >= prod(pure)]
        powers = [tuple(p * (j == i) for j in range(free + 1)) for i, p in enumerate(pure)]
        ideal = ring.ideal(powers + extra)
    if kind == "base":
        ring = ring.base_ring()
        ideal = ring.maximal()
    j = auto_reduction(ideal)
    assume(j is not None)
    filt = flt.Filtration(ring, "normal" if kind == "normal" else "adic", ideal=ideal)
    return filt, j, draw(st.integers(1, 6)), draw(st.integers(1, 4))


def certified_rn(filt, j, nmax):
    try:
        return flt.reduction_number(filt, j, nmax)
    except errors.HorizonError:
        return None


@settings(max_examples=150, deadline=None)
@given(vv_cases())
def test_vv_matches_prefix_oracle(case):
    """J alone up to rn decides what every prefix at every degree does."""
    filt, j, nmax, window = case
    rn = certified_rn(filt, j, nmax)
    report = flt.valabrega_valla(filt, j, nmax, window, rn)
    certified, _, failure, _, required = valabrega_valla_prefixes(filt, j, nmax, window, rn)
    assert (report.certified_cm, report.required_horizon) == (certified, required)
    assert (report.first_failure is None) == (failure is None)
    if failure is not None:
        n, size, witness = report.first_failure
        assert (n, size) == (failure[0], len(j.gens))
        lhs = intersect(filt.term(n), j)
        x = {filt.backend.element_str(g): g for g in lhs.gens}[witness]
        assert contains(filt.term(n), x) and contains(j, x)
        assert not contains(multiply(j, filt.term(n - 1)), x)


@settings(max_examples=60, deadline=None)
@given(vv_cases(semigroups=((1,),), kinds=("normal",)))
def test_vv_never_fails_on_polynomial_normal_filtrations(case):
    """Hochster: the normal Rees algebra of a monomial ideal is a normal affine
    semigroup ring, hence Cohen-Macaulay, and so is G; a failure is a kernel bug."""
    filt, j, nmax, window = case
    rn = certified_rn(filt, j, nmax)
    assert flt.valabrega_valla(filt, j, nmax, window, rn).first_failure is None


# --- counted normal tables and the proved reduction number -------------------------


@st.composite
def polynomial_analyses(draw):
    """(analysis, bitset normal filtration) of an m-primary ideal in 1 to 4
    variables: pure powers x_i^(p_i) with p_i <= 3 and up to three more
    generators, half the time kept inside the closure of the pure powers so
    that those are a reduction; nmax runs from below d to above it. The
    filtration builds every term as a closure power."""
    d = draw(st.integers(1, 4))
    ring = PolynomialBackend(("x", "y", "z", "w")[:d])
    pure = [draw(st.integers(1, 3)) for _ in range(d)]
    extra = [a for a in draw(st.lists(st.tuples(*[st.integers(0, 3)] * d), max_size=3)) if any(a)]
    if draw(st.booleans()):
        extra = [a for a in extra if sum(x * prod(pure) // p for x, p in zip(a, pure)) >= prod(pure)]
    powers = [tuple(p * (j == i) for j in range(d)) for i, p in enumerate(pure)]
    ideal = ring.ideal(powers + extra)
    analysis = Analysis(EntryData("e", ring, ideal, nmax=draw(st.integers(1, d + 2))))
    return analysis, flt.Filtration(ring, "normal", ideal=ideal)


@settings(max_examples=100, deadline=None)
@given(polynomial_analyses())
def test_counted_normal_column_matches_closure_powers(case):
    a, closures = case
    assert a.normal_values == flt.length_table(closures, a.nmax)


@settings(max_examples=100, deadline=None)
@given(polynomial_analyses())
def test_reduction_number_matches_full_scan(case):
    """rn scans only n <= d - 2; the scan of every degree finds the same value."""
    a, closures = case
    assume(a.reduction is not None)
    assert a.rn == reduction_number_scan(closures, a.reduction, a.nmax)


@settings(max_examples=100, deadline=None)
@given(polynomial_analyses())
def test_normal_terms_by_products_match_closure_powers(case):
    """F_n = J*F_(n-1) from degree d on equals closure(I^n)."""
    a, _ = case
    assume(a.reduction is not None)
    for n in range(a.nmax + 2):
        assert a.normal_filt.term(n) == closure_power(a.ideal, n), n


# --- Sally tables and series identities --------------------------------------------

NORMAL_1D = (1, 3, 7, 11, 15, 19, 23)
JGOOD_1D = (1, 5, 9, 13, 17, 21, 25)


def test_sally_from_tables():
    assert flt.sally_lengths(NORMAL_1D, JGOOD_1D) == (0, 2, 2, 2, 2, 2, 2)
    fit = flt.sally_from_tables(NORMAL_1D, JGOOD_1D, 1)
    assert fit.e == (2,)
    assert fit.stable_from == 1


def test_sally_rejects_negative_lengths():
    with pytest.raises(errors.PreconditionError):
        flt.sally_from_tables((1, 5), (1, 3), 1)
    with pytest.raises(errors.PreconditionError):
        flt.sally_from_tables((1, 3), (2, 5), 1)


def test_series_checks_pass():
    check = series_checks(NORMAL_1D, JGOOD_1D, 1, 4)
    assert check.ok and check.failures == ()
    assert check.ge == (1, 4, 4, 4, 4, 4, 4)
    assert check.gbar == (1, 2, 4, 4, 4, 4, 4)
    assert check.sally == (0, 2, 2, 2, 2, 2, 2)
    assert check.middle == (1, 4, 6, 6, 6, 6, 6)


def test_series_checks_detect_wrong_multiplicity():
    # ge[1] = 4 where the closed form with e0 = 5 asks for 1 + 4
    check = series_checks(NORMAL_1D, JGOOD_1D, 1, 5)
    assert not check.ok
    kinds = {kind for kind, _ in check.failures}
    assert kinds == {"jgood_closed_form"}


@st.composite
def reduction_analyses(draw, top=6, naturals=False):
    """An analysis whose ideal lies between pure powers J and their closure,
    so that J is its reduction: a polynomial ring in 1 to 4 variables, or a
    semigroup ring with 0 to 2 adjoined variables; nmax runs over 1..top.
    With naturals, S = N also comes as the semigroup ring k[[t]][U..]."""
    sg = draw(st.sampled_from(((1,), (2, 3), (3, 5), (4, 5, 11))))
    free = draw(st.integers(0, 3 if sg == (1,) else 2))
    semigroup = sg != (1,) or naturals and free < 3 and draw(st.booleans())
    ring = (SemigroupBackend(sg, free) if semigroup
            else PolynomialBackend(("x", "y", "z", "w")[:free + 1]))
    members = [s for s in range(1, 13) if ring.sg.contains(s)]
    pure = [draw(st.integers(1, 3)) for _ in range(free)] + [draw(st.sampled_from(members[:4]))]
    vector = st.tuples(*[st.integers(0, 3)] * free, st.sampled_from([0] + members))
    # generators a with sum a_i / p_i >= 1 lie in the closure of the pure powers p_i
    extra = [a for a in draw(st.lists(vector, max_size=3))
             if sum(x * prod(pure) // p for x, p in zip(a, pure)) >= prod(pure)]
    powers = [tuple(p * (j == i) for j in range(free + 1)) for i, p in enumerate(pure)]
    entry = EntryData("e", ring, ring.ideal(powers + extra), nmax=draw(st.integers(1, top)))
    a = Analysis(entry)
    assert a.reduction == ring.ideal(powers)
    return a


def chain_values(a):
    return jgood_chain_colengths(a.reduction, a.normal_filt.term(1), a.nmax)


def exact_decomposition(a, jgood):
    """e0·C(n+d, d) - e0·C(n+d-1, d-1) + λ(R/closure(I))·C(n+d-1, d-1) minus
    the Sally length jgood[n] - normal[n], for n = 0..nmax."""
    sc, d = flt.series_coeff, a.dim
    return tuple(a.e0 * (sc(n, d + 1) - sc(n, d)) + a.lam_R_I1 * sc(n, d) - (j - c)
                 for n, (j, c) in enumerate(zip(jgood, a.normal_values)))


@settings(max_examples=120, deadline=None)
@given(reduction_analyses())
def test_jgood_closed_form_matches_product_chain(a):
    """The closed form equals lambda(R/J^n·closure(I)) of the product chain, and
    the exact length decomposition holds against the chain."""
    chain = chain_values(a)
    assert a.jgood_values == chain
    assert exact_decomposition(a, chain) == a.normal_values


@settings(max_examples=60, deadline=None)
@given(reduction_analyses(), st.data())
def test_closed_form_matches_series_oracle(a, data):
    """The series_identity verdict against all four identities of the reference,
    read on the product chain, with the normal entry tampered at degree 0 and at
    one degree above: a verdict refutes exactly when the reference fails, at
    its first failing degree and with its graded lengths as witness."""
    chain = chain_values(a)
    for index in (0, data.draw(st.integers(1, a.nmax), label="index")):
        tampered = Analysis(a.entry._replace(tamper_normal=index))
        verdict = CHECKS["series_identity"][0](tampered)
        oracle = series_checks(tampered.normal_values, chain, a.dim, a.e0)
        assert (oracle.ge == oracle.gbar) == all(v == 0 for v in tampered.sally_values)
        if oracle.ok:
            assert verdict.conclusion == "verified"
            continue
        kind, n = oracle.failures[0]
        assert kind == "jgood_closed_form"
        witness = f"ge={oracle.ge[n]} gbar={oracle.gbar[n]} sally={oracle.sally[n]} middle={oracle.middle[n]}"
        assert verdict.conclusion == "refuted-with-witness"
        assert [(w.degree, w.element) for w in verdict.witnesses] == [(n, witness)]


def test_intersection_failures_empty(poly2):
    b = poly2
    ideal = b.ideal([(2, 0), (0, 2)])
    normal = flt.Filtration(b, "normal", ideal=ideal)
    powers = flt.Filtration(b, "adic", ideal=ideal)
    assert flt.intersection_failures(b, normal, powers, 4) == []
