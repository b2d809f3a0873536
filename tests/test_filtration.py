"""Filtrations, exact polynomial fits, reduction numbers, and series identities."""

from fractions import Fraction
from importlib import resources
from itertools import combinations
from math import comb, gcd, prod
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from normfilt import CHECKS, errors
from normfilt import filtration as flt
from normfilt.analysis import Analysis, auto_reduction, default_nmax, default_window
from normfilt.inputs import EntryData, PolynomialBackend, SemigroupBackend, parse_input
from normfilt.monomial import NumericalSemigroup, colength, multiply
from oracles import (AdicFiltration, Filtration, _solve_consistent, _value, closure_power,
                     contains, fit_polynomial, free_fit_coefficients, intersect,
                     intersection_failures_oracle, jgood_chain_colengths, length_table,
                     maximal_vv_scan, normal_filt, reduction_number_scan, residual_fit,
                     sally_from_tables, series_checks, unit_ideal, valabrega_valla,
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
    # a fit needs dim entries plus the window; the default keeps at least one
    # entry more, so dimension 4 gets 10
    nmax = [default_nmax(d) for d in (1, 2, 3, 4)]
    assert nmax == [6, 7, 8, 10]
    assert all(n + 1 >= d + 1 + default_window(d) for d, n in zip((1, 2, 3, 4), nmax))


# --- polynomial fitting -------------------------------------------------------


def planted(coeffs, dim, count):
    return [
        sum((-1) ** i * c * flt.series_coeff(n, dim - i + 1) for i, c in enumerate(coeffs))
        for n in range(count)
    ]


def test_fit_recovers_planted_polynomial():
    values = planted((7, 3, 1), 2, 8)
    fit = flt.fit_coefficients(values, 7, 2, default_window(2))
    assert fit.e == (7, 3, 1)
    assert fit.stable_from == 0


def test_fit_reports_transient_prefix():
    values = planted((7, 3, 1), 2, 9)
    values[0] += 1
    fit = flt.fit_coefficients(values, 7, 2, default_window(2))
    assert fit.e == (7, 3, 1)
    assert fit.stable_from == 1


def test_fit_horizon_short_table():
    # needs dim + window = 2 + 4 entries: e0 is known, so one fewer than a free fit
    with pytest.raises(errors.HorizonError, match="need at least 6 table entries"):
        flt.fit_coefficients(planted((7, 3, 1), 2, 5), 7, 2, default_window(2))
    assert flt.fit_coefficients(planted((7, 3, 1), 2, 6), 7, 2, default_window(2)).e == (7, 3, 1)
    with pytest.raises(errors.HorizonError, match="need at least 7 table entries"):
        free_fit_coefficients(planted((7, 3, 1), 2, 6), 2, default_window(2))


def test_fit_horizon_corrupted_tail():
    values = planted((7, 3, 1), 2, 9)
    values[-1] += 1
    with pytest.raises(errors.HorizonError):
        flt.fit_coefficients(values, 7, 2, default_window(2))


def test_fit_window_validation():
    with pytest.raises(errors.PreconditionError, match="window"):
        flt.fit_coefficients(planted((2, 1), 1, 8), 2, 1, 0)


def test_fit_rejects_non_integer_entries():
    for index in (3, 7):
        values = planted((7, 3, 1), 2, 8)
        values[index] = Fraction(1, 2)
        with pytest.raises(errors.PreconditionError, match="integers"):
            flt.fit_coefficients(values, 7, 2, default_window(2))


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
def fit_tables(draw, min_dim=0):
    """(values, dim, window): planted polynomials with a few perturbed
    entries, or random tables; short tables and bad windows included."""
    dim = draw(st.integers(min_dim, 4))
    count = draw(st.integers(0, 14))
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-60, 60), min_size=dim + 1, max_size=dim + 1))
        values = planted(coeffs, dim, count)
        for _ in range(draw(st.integers(0, 2)) if count else 0):
            values[draw(st.integers(0, count - 1))] += draw(st.integers(-3, 3))
    else:
        values = draw(st.lists(st.integers(-200, 200), min_size=count, max_size=count))
    return values, dim, draw(st.integers(-1, 5))


def fit_outcome(fit, *args):
    try:
        return fit(*args)
    except (errors.HorizonError, errors.PreconditionError) as exc:
        return type(exc)


@settings(max_examples=500, deadline=None)
@given(fit_tables())
def test_fit_matches_rational_reference(table):
    assert fit_outcome(fit_polynomial, *table) == fit_outcome(reference_fit, *table), table


def leading(values, dim):
    """The dim-th backward difference at the last entry, the e0 of a table
    that is a polynomial of degree dim there; 0 on a table of dim entries or
    fewer."""
    if len(values) <= dim:
        return 0
    row = values[-dim - 1:]
    for _ in range(dim):
        row = [y - x for x, y in zip(row, row[1:])]
    return row[-1]


@st.composite
def e0_tables(draw):
    """(values, e0, dim, window): a table of `fit_tables` in dimension >= 1
    with its planted e0, that e0 off by 1 or 2, a random e0, or 0."""
    values, dim, window = draw(fit_tables(min_dim=1))
    e0 = leading(values, dim)
    e0 = draw(st.just(e0) | st.sampled_from((e0 - 2, e0 - 1, e0 + 1, e0 + 2))
              | st.integers(-200, 200) | st.just(0))
    return values, e0, dim, window


@settings(max_examples=500, deadline=None)
@given(e0_tables())
@example(([0] * 8, 0, 2, 4))  # h is all zero: Fit((0, 0, 0), 0), deg h taken as 0
def test_fit_coefficients_matches_the_residual_fit(table):
    """The fit read off the h-vector gives the Fit, or the error class, of
    the backward-difference fit of the residual e0·C(n+d, d) - v_n that it
    replaced."""
    assert fit_outcome(flt.fit_coefficients, *table) == fit_outcome(residual_fit, *table), table


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 4), st.lists(st.integers(-5, 5), min_size=1, max_size=9))
@example(1, [1, 0, 0, 2])  # deg h - d - 1 = 1: the table is its polynomial from 2 on
@example(0, [3, -1, 0, 0, 4, 0])  # d = 0: C(-1, 0) = 1
@example(2, [0, 0, 0])  # h = 0: stable from 0, deg h taken as 0
def test_h_fit_reads_stable_from_off_h(dim, h):
    """h_fit's closed form max(0, deg h - d), against the table of
    h(z)/(1-z)^(d+1) built entry by entry: the least n >= 0 from which the
    table equals the fitted polynomial, evaluated by the oracle."""
    fit = flt.h_fit(h, dim)
    table = [sum(x * flt.series_coeff(n - k, dim + 1) for k, x in enumerate(h))
             for n in range(len(h) + dim + 3)]
    agree = [_value(fit.e, dim, n) == v for n, v in enumerate(table)]
    assert fit.stable_from == next(n for n in range(len(agree)) if all(agree[n:])), (h, dim)


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
    normal = Filtration(b, ideal)
    adic = AdicFiltration(b, ideal)
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
        Filtration(b, ideal).term(-1)
    with pytest.raises(errors.PreconditionError):
        AdicFiltration(b, ideal).term(-1)


def test_length_table(poly2):
    b = poly2
    maximal = AdicFiltration(b, b.maximal())
    assert length_table(maximal, 4) == (1, 3, 6, 10, 15)


# --- reduction numbers ----------------------------------------------------------


def test_reduction_number(poly2):
    # m^2 is normal, so F_n = m^(2n), and (x^2, y^2) reduces it from degree 1
    b = poly2
    m2 = power(b.maximal(), 2)
    j = b.ideal([(2, 0), (0, 2)])
    filt = Filtration(b, m2, j)
    assert flt.rn_bound(j) == 1 and filt.reduction_number() == 1
    assert reduction_number_scan(Filtration(b, m2), j, 3) == 1
    # an ideal is its own reduction with reduction number 0
    self_filt = Filtration(b, b.maximal(), b.maximal())
    assert self_filt.reduction_number() == 0
    assert reduction_number_scan(Filtration(b, b.maximal()), b.maximal(), 3) == 0


TESTS, CORPUS = Path(__file__).parent, resources.files("normfilt") / "corpus"
# rn = B = d + floor(Fr/c) on both: sg7 = (t^14, U^4, V^4, W^4) in
# k[[t^7,t^9,t^11]][U,V,W] has Fr = 26 and c = 14, so B = 4 + 1; the maximal
# ideal of k[[t^31,t^37,t^41]], the benchmark's deep semigroup input, has Fr =
# 293 and c = 31, so B = 1 + 9
RN_AT_BOUND = {"sg7": (TESTS / "sg7.nfilt", 5),
               "sg_31_37_41": (TESTS.parent / "perfbench" / "inputs" / "sg_31_37_41.nfilt", 10)}


def read_entry(path):
    return parse_input(path.read_text())


@pytest.mark.parametrize("name", sorted(RN_AT_BOUND))
def test_reduction_number_attains_its_bound(name):
    """rn = B: a product_from one lower would read rn = B - 1."""
    path, rn = RN_AT_BOUND[name]
    a = Analysis(read_entry(path))
    assert a.rn == flt.rn_bound(a.reduction) == rn
    assert reduction_number_scan(Filtration(a.backend, a.ideal), a.reduction, rn + 1) == rn


def test_reduction_number_horizon():
    """rn is proved, so it reads the same at nmax 1 as at nmax 40, past B."""
    corpus = [CORPUS / f"{name}.nfilt" for name in ("poly3_cubes_diag", "sg_4_5_11", "sg_4_5_11_uv")]
    for path in corpus + [path for path, _ in RN_AT_BOUND.values()]:
        entry = read_entry(path)
        assert Analysis(entry._replace(nmax=1)).rn == Analysis(entry._replace(nmax=40)).rn, path


# --- Valabrega-Valla -------------------------------------------------------------


def test_vv_certified_and_inconclusive(poly2):
    b = poly2
    ideal = b.ideal([(2, 0), (0, 2)])
    normal = Filtration(b, ideal, ideal)
    rn = normal.reduction_number()
    assert rn == 1
    report = valabrega_valla(normal, 7, 4, rn)
    assert report.certified_cm and not report.inconclusive
    assert report.first_failure is None
    assert report.required_horizon == 5
    short = valabrega_valla(normal, 4, 4, rn)
    assert not short.certified_cm and short.inconclusive
    assert short.first_failure is None and short.required_horizon == 5


def test_vv_decisive_failure_on_semigroup_base():
    b = SemigroupBackend((4, 5, 11))
    m = b.maximal()
    j = b.ideal([(4,)])
    filt = AdicFiltration(b, m, j)
    report = valabrega_valla(filt, 6, 3, None)
    assert not report.certified_cm and not report.inconclusive
    degree, prefix, witness = report.first_failure
    # t^15 = t^4*t^11 lies in m^3 and in (t^4) but not in t^4*m^2
    assert (degree, prefix, witness) == (3, 1, "t^15")


@st.composite
def vv_cases(draw, semigroups=((1,), (2, 3), (3, 5), (4, 5, 11)), kinds=("normal", "adic", "base")):
    """(filtration, J, nmax, window): the normal or adic filtration, with
    reduction J, of an ideal between a pure-power J and its closure, or the
    adic filtration of the maximal ideal of the coefficient ring; polynomial
    rings have d <= 3 and semigroup rings 0..2 adjoined variables."""
    sg = draw(st.sampled_from(semigroups))
    free = draw(st.integers(0, 2))
    ring = (PolynomialBackend(("x", "y", "z")[:free + 1]) if sg == (1,)
            else SemigroupBackend(sg, free))
    members = [s for s in range(1, 13) if s in ring.sg]
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
        ring = SemigroupBackend(ring.sg.gens)
        ideal = ring.maximal()
    j = auto_reduction(ideal)
    assume(j is not None)
    filt = (Filtration if kind == "normal" else AdicFiltration)(ring, ideal, j)
    return filt, j, draw(st.integers(1, 6)), draw(st.integers(1, 4))


@settings(max_examples=150, deadline=None)
@given(vv_cases())
def test_vv_matches_prefix_oracle(case):
    """J alone up to rn decides what every prefix at every degree does."""
    filt, j, nmax, window = case
    rn = reduction_number_scan(filt, j, nmax)
    report = valabrega_valla(filt, nmax, window, rn)
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


@st.composite
def normal_cases(draw, semigroups=((2, 3), (3, 5), (3, 4, 5), (4, 5, 11)), max_free=3):
    """(analysis, normal filtration, J) of an ideal between a pure-power J and
    its closure, on both ring classes: k[[S]][U..] with S = N or one of
    `semigroups` (by default <2,3>, <3,5>, <3,4,5> or <4,5,11>) and 0 to
    max_free adjoined variables, so d = 1..4 by default, or a polynomial ring
    in 1 to max_free + 1 variables. J has pure powers p_i <= 3 on the
    free axes and one of the three least members of S on the last; 0 to 3
    mixed generators inside the closure of J and below the pure powers join
    it. J is found (auto) or given. The filtration builds every term as a
    closure power, at a horizon of 1 to 6."""
    naturals = draw(st.booleans())
    sg = (1,) if naturals else draw(st.sampled_from(semigroups))
    free = draw(st.integers(0, max_free))
    ring = (PolynomialBackend(("x", "y", "z", "w")[:free + 1])
            if naturals and draw(st.booleans()) else SemigroupBackend(sg, free))
    members = [s for s in range(1, 12) if s in ring.sg]
    pure = [draw(st.integers(1, 3)) for _ in range(free)] + [draw(st.sampled_from(members[:3]))]
    top = prod(pure)
    # a_1..a_v below their pure powers, and a_(v+1) the least member of S that
    # puts a inside the closure of J, sum a_i / p_i >= 1
    k = draw(st.sampled_from((0, 1, 2, 3)))
    heads = draw(st.lists(st.tuples(*[st.integers(0, p - 1) for p in pure[:-1]]),
                          min_size=k, max_size=k))
    least = [-(-(top - sum(x * top // p for x, p in zip(h, pure))) * pure[-1] // top) for h in heads]
    extra = [(*h, next(s for s in range(max(0, n), n + pure[-1] + 1) if s in ring.sg))
             for h, n in zip(heads, least)]
    powers = [tuple(p * (j == i) for j in range(free + 1)) for i, p in enumerate(pure)]
    ideal = ring.ideal(powers + extra)
    given = ring.ideal(powers) if draw(st.booleans()) else "auto"
    a = Analysis(EntryData("normal", ring, ideal, reduction=given,
                           nmax=draw(st.sampled_from(range(1, 7)))))
    assert a.reduction == ring.ideal(powers)
    filt = Filtration(ring, ideal, a.reduction)
    filt.product_from = None  # every term a closure power, not read off Reid-Roberts-Vitulli
    return a, filt, a.reduction


@settings(max_examples=400, deadline=None)
@given(normal_cases(), st.integers(0, 3))
def test_vv_never_fails_on_polynomial_normal_filtrations(case, prefixes):
    """The normal G is Cohen-Macaulay on every ring with a pure-power
    reduction J, polynomial or not: F_n ∩ P = P·F_(n-1) for every prefix P of
    J (the proof is in `Analysis.basis`), which reads "proved" with no scan;
    the scan over the whole horizon (no rn), and on a quarter of the examples
    over every prefix of J, is its oracle: a failure is a kernel bug."""
    a, filt, j = case
    assert a.basis == "proved"
    assert valabrega_valla(filt, a.nmax, a.window, None).first_failure is None
    if not prefixes:
        assert valabrega_valla_prefixes(filt, j, a.nmax, a.window, None)[2] is None


@settings(max_examples=150, deadline=None)
@given(normal_cases(semigroups=((2, 3), (3, 5), (3, 4, 5), (4, 5, 11), (7, 9, 11)), max_free=2))
def test_normal_filtration_reduces_from_the_proved_bound(case):
    """F_(n+1) = J·F_n for n = B..B+2, B = rn_bound(J) = d + floor(Fr/c), with
    every term a closure power (the proof is in `Filtration`), and rn, at any
    nmax, is the scan of every degree from B + 1 down."""
    a, filt, j = case
    bound = flt.rn_bound(j)
    for n in range(bound, bound + 3):
        assert filt.term(n + 1) == multiply(j, filt.term(n)), n
    assert a.rn == reduction_number_scan(filt, j, bound + 1)


@settings(max_examples=150, deadline=None)
@given(normal_cases(semigroups=((2, 3), (3, 5), (3, 4, 5), (4, 5, 11), (7, 9, 11)), max_free=2))
def test_h_vector_is_the_normal_filtration(case):
    """The h-vector read off closure_counts(B + 1), B = rn_bound(J), is the
    normal filtration, checked against the ideals built by the oracle
    `Filtration`: h >= 0, and h of a longer counted column vanishes past B;
    the coefficients from h are the windowed fit of the counted column
    wherever that passes; deg h is the product-built reduction number; and
    J^n ∩ F_(n+1) = J^n·F_1, so lambda(R/(J^n ∩ F_(n+1))) is the J-good
    entry, while lambda(R/(J ∩ F_(n+1))) - v_n = sum_(k>n) h_k."""
    a, filt, j = case
    bound = flt.rn_bound(j)
    assert len(a.h) == bound + 1 and min(a.h) >= 0
    assert flt.h_vector(a.ideal.closure_counts(bound + 4)[1:], a.dim)[bound + 1:] == (0, 0, 0)
    counted = a.ideal.closure_counts(a.nmax + 1)[1:]
    windowed = attempt(flt.fit_coefficients, counted, a.e0, a.dim, a.window)
    if isinstance(windowed, flt.Fit):
        assert a.normal_fit == windowed
    assert a.rn == max(k for k, x in enumerate(a.h) if x)
    assert a.rn == Filtration(a.backend, a.ideal, j).reduction_number()
    for n in range(1, a.nmax + 1):
        assert filt.meet(n, n + 1) == a.jgood_values[n], n
        assert filt.meet(1, n + 1) - counted[n] == sum(a.h[n + 1:]), n


@settings(max_examples=150, deadline=None)
@given(normal_cases(), st.data())
def test_a_tamper_moves_no_fit_of_the_ideal(case, data):
    """normal_fit, sally_fit, h, rn and g_s read the counted column and the
    counted lambda(R/closure(I)), so a tamper of the printed column at any
    index moves none of them, even where it makes a printed Sally length
    negative."""
    a = case[0]
    index = data.draw(st.integers(0, a.nmax), label="tamper index")
    tampered = Analysis(a.entry._replace(tamper_normal=index))
    fields = ("normal_fit", "sally_fit", "h", "rn", "g_s")
    assert [getattr(tampered, f) for f in fields] == [getattr(a, f) for f in fields]


@settings(max_examples=300, deadline=None)
@given(normal_cases(semigroups=((2, 3), (3, 5), (3, 4, 5), (4, 5, 11), (7, 9, 11)), max_free=2),
       st.data())
def test_h_identities_rule_out_the_deleted_refutations(case, data):
    """h >= 0, sum h = e0 and h_0 = lambda(R/closure(I)), and with
    lambda(closure(I)/J) = e0 - h_0 and e_i = sum_k C(k, i)·h_k:
    e1_bar - lambda(closure(I)/J) = sum_(k>=2) (k-1)·h_k >= 0 (e1_lower_bound);
    e2_bar - e1_bar + lambda(closure(I)/J) = sum_(k>=3) C(k-1, 2)·h_k >= 0, 0
    exactly when rn = deg h <= 2 (e2_lower_bound); and almost_minimal_rn2's
    intersection sum, sum_(n=1..rn) counted v_n + sum_(k>n) h_k - printed v_n,
    is e1_bar - lambda(closure(I)/J) on the counted column and at most that on
    a tampered one. h and lambda(R/closure(I)) read the counted column, so a
    tamper moves neither side: the refutations these identities rule out for
    every table left the checkers."""
    a = case[0]
    index = data.draw(st.none() | st.integers(0, a.nmax), label="tamper index")
    a = Analysis(a.entry._replace(tamper_normal=index))
    h, e, lam = a.h, a.normal_fit.e, a.lam_I1_J
    assert a.basis == "proved" and h is not None
    assert min(h) >= 0 and sum(h) == a.e0 and h[0] == a.lam_R_I1
    assert e == tuple(sum(comb(k, i) * x for k, x in enumerate(h)) for i in range(a.dim + 1))
    assert e[1] - lam == sum((k - 1) * x for k, x in enumerate(h) if k >= 2)
    if a.dim >= 2:
        slack = e[2] - e[1] + lam
        assert slack == sum(comb(k - 1, 2) * x for k, x in enumerate(h) if k >= 3)
        assert (slack == 0) == (a.rn <= 2)
    counted = a.ideal.closure_counts(a.rn + 1)[1:]
    printed = a.normal_values + tuple(counted[a.nmax + 1:])  # past nmax no tamper reaches
    assert sum(sum(h[n + 1:]) for n in range(1, a.rn + 1)) == e[1] - lam
    assert sum(counted[n] + sum(h[n + 1:]) - printed[n] for n in range(1, a.rn + 1)) <= e[1] - lam


@pytest.mark.parametrize("path, basis", [
    (TESTS / "sg_2_3_u.nfilt", "window"),  # S != N, no pure-power reduction
    (CORPUS / "poly2_x2_xy_y3.nfilt", "proved"),  # S = N, no pure-power reduction
    (CORPUS / "sg_4_5_11_uv.nfilt", "proved"),  # S != N, a pure-power reduction
])
def test_basis_is_proved_exactly_where_h_is_defined(path, basis):
    a = Analysis(read_entry(path))
    assert a.basis == basis
    assert (a.h is not None) == (basis == "proved")


@pytest.mark.parametrize("name", sorted(RN_AT_BOUND))
def test_h_vector_reaches_the_proved_bound(name):
    """Where rn = B, h_B is the last nonzero entry: an h cut at B - 1 would
    lose it. sg_31_37_41's h, from its 11 counted entries, gives ē = (31,
    162), stable from 9 = rn - d, at every nmax."""
    path, rn = RN_AT_BOUND[name]
    a = Analysis(read_entry(path))
    assert len(a.h) == rn + 1 and a.h[-1] > 0
    if name == "sg_31_37_41":
        assert a.h == (1, 2, 3, 4, 2, 3, 5, 5, 2, 2, 2)
        assert a.normal_fit == ((31, 162), 9)


def first_failure(report):
    """(degree, witness) of a Valabrega-Valla report's first failure, or None:
    the form of `Analysis.tangent_cone_failure`. The prefix is left out: it is
    the number of generators of J, which the rings compared do not share."""
    failure = report.first_failure
    return failure and failure[::2]


def decisive_vv(ring, window):
    """`first_failure` of maximal_vv_scan at the horizon e - 1 + window, where
    rn <= e - 1 makes the report decisive: it fails, at the prefix d that
    `check_low_type_cm` prints, or certifies G(m) Cohen-Macaulay."""
    report, rn = maximal_vv_scan(ring, ring.sg.multiplicity - 1 + window, window)
    assert rn <= ring.sg.multiplicity - 1
    assert report.certified_cm == (report.first_failure is None)
    assert report.first_failure is None or report.first_failure[1] == ring.dim
    return first_failure(report)


# the minimal generating sets of 2 to 4 numbers from 3..14
SMALL_SEMIGROUPS = [gens for k in (2, 3, 4) for gens in combinations(range(3, 15), k)
                    if gcd(*gens) == 1 and NumericalSemigroup(gens).gens == gens]
# the ten of them whose G(m) is not Cohen-Macaulay, with (degree, s) of the first failure
TANGENT_CONE_FAILURES = {
    (4, 5, 11): (3, 15), (5, 6, 13): (3, 18), (5, 6, 14): (4, 24), (6, 7, 11): (4, 28),
    (7, 8, 13): (5, 40), (8, 9, 14): (4, 36), (5, 6, 9, 13): (3, 18), (5, 6, 13, 14): (3, 18),
    (7, 8, 12, 13): (4, 32), (8, 9, 13, 14): (4, 36),
}


@pytest.mark.parametrize("free", [0, 1])
def test_tangent_cone_failure_matches_the_oracle_on_small_semigroups(free):
    """On every minimal generating set of 2 to 4 numbers from 3..14, with no
    or one adjoined variable, the failure read off the semigroup is that of
    the decisive report of the powers of m built as ideals. <4,5,11> and
    <5,6,14> fail at degree e - 1, the last degree scanned, and <4,5,11> at
    s = 15 = e + (n - 2)·max(gens), the largest s scanned at degree 3."""
    assert len(SMALL_SEMIGROUPS) == 264
    found = {}
    for gens in SMALL_SEMIGROUPS:
        ring = SemigroupBackend(gens, free)
        a = Analysis(EntryData("e", ring, ring.maximal()))
        assert a.tangent_cone_failure == decisive_vv(ring, a.window), gens
        if a.tangent_cone_failure:
            found[gens] = ring.sg.tangent_cone_failure
            assert a.tangent_cone_failure[1] == f"t^{found[gens][1]}"
    assert found == TANGENT_CONE_FAILURES


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SMALL_SEMIGROUPS) | st.sampled_from(list(TANGENT_CONE_FAILURES)))
def test_tangent_cone_failure_matches_the_oracle_with_two_adjoined_variables(gens):
    """The same on k[[S]][U,V], for a sample of the sets, half of it drawn
    from the ten that fail."""
    ring = SemigroupBackend(gens, 2)
    a = Analysis(EntryData("e", ring, ring.maximal()))
    assert a.tangent_cone_failure == decisive_vv(ring, a.window)


@st.composite
def maximal_closure_analyses(draw):
    """An analysis of k[[S]][U..] with 0 to 2 adjoined variables, S one of
    <3,4,5>, <4,5,7>, <4,5,11>, <5,6,7>, and nmax 1..12, of the maximal
    ideal m or of a proper subideal with closure m: the variables, t^e for
    the least generator e of S, and some larger members of S."""
    ring = SemigroupBackend(draw(st.sampled_from([(3, 4, 5), (4, 5, 7), (4, 5, 11), (5, 6, 7)])),
                            draw(st.integers(0, 2)))
    free, e = ring.dim - 1, ring.sg.multiplicity
    if draw(st.booleans()):
        ideal = ring.maximal()
    else:
        members = [s for s in range(e + 1, 3 * e) if s in ring.sg]
        powers = [e] + draw(st.lists(st.sampled_from(members), max_size=3))
        units = [tuple(int(j == i) for j in range(ring.dim)) for i in range(free)]
        ideal = ring.ideal(units + [(0,) * free + (s,) for s in powers])
    return Analysis(EntryData("e", ring, ideal, nmax=draw(st.integers(1, 12))))


@settings(max_examples=100, deadline=None)
@given(maximal_closure_analyses())
def test_maximal_vv_matches_the_coefficient_ring(a):
    """VV of m with J fails, and m reaches J·m^n, exactly where k[[S]] with
    (t^e) does, and tangent_cone_failure names that failure: the reports are
    compared at the horizon e - 1 + window, where they are decisive."""
    assert a.closure_is_maximal and a.reduction is not None
    assert normal_filt(a).term(1) == a.backend.maximal()  # the m that tangent_cone_failure tests
    assert a.reduction == auto_reduction(a.backend.maximal())  # the J of maximal_vv_scan
    top = a.backend.sg.multiplicity - 1 + a.window
    report, rn = maximal_vv_scan(a.backend, top, a.window)
    base, base_rn = maximal_vv_scan(SemigroupBackend(a.backend.sg.gens), top, a.window)
    assert rn == base_rn
    assert first_failure(report) == first_failure(base) == a.tangent_cone_failure
    assert report.certified_cm == base.certified_cm == (a.tangent_cone_failure is None)


def test_maximal_vv_scan_stops_at_e_minus_one():
    """tangent_cone_failure scans degrees up to e - 1 only (Eakin-Sathaye):
    the full scan's rn is at most e - 1, and over the degrees its report
    checks, 1..rn (1..nmax when no rn is found), it fails first where the
    property does. The family reaches rn = e - 1 below the horizon, so the
    bound is tight."""
    reached = []
    for gens in [(2, 3), (2, 5), (3, 4), (3, 5), (3, 7), (4, 5), (4, 7), (5, 6), (5, 7), (6, 7),
                 (3, 4, 5), (4, 5, 7), (4, 5, 11), (5, 6, 9)]:
        for free in (0, 1):
            for nmax in (3, 8):
                ring = SemigroupBackend(gens, free)
                a = Analysis(EntryData("e", ring, ring.maximal(), nmax=nmax))
                report, rn = maximal_vv_scan(ring, nmax, a.window)
                e = ring.sg.multiplicity
                assert rn is None or rn <= e - 1, (gens, free, nmax)
                failure = a.tangent_cone_failure
                checked = nmax if rn is None else rn
                assert first_failure(report) == (failure if failure and failure[0] <= checked
                                                 else None), (gens, free, nmax)
                reached.append(rn == e - 1 < nmax)
    assert sum(reached) >= 10


# --- counted normal tables and the proved reduction number -------------------------


@st.composite
def ring_analyses(draw):
    """(analysis, bitset normal filtration) of an m-primary ideal, half the
    time of a polynomial ring in 1 to 4 variables and else of k[[S]] with 0
    to 2 adjoined variables, S one of <2,3>, <3,5>, <4,5,11>, <5,7>: pure
    powers with p_i <= 3 (on the S-axis one of the four least members of S)
    and up to three more generators, half the time kept inside the closure
    of the pure powers so that those are a reduction; nmax runs from below
    d to above it. The filtration builds every term as a closure power."""
    if draw(st.booleans()):
        d = draw(st.integers(1, 4))
        ring = PolynomialBackend(("x", "y", "z", "w")[:d])
        pure = [draw(st.integers(1, 3)) for _ in range(d)]
        entries = [st.integers(0, 3)] * d
    else:
        d = draw(st.integers(1, 3))
        ring = SemigroupBackend(draw(st.sampled_from([(2, 3), (3, 5), (4, 5, 11), (5, 7)])), d - 1)
        members = [s for s in range(1, 13) if s in ring.sg]
        pure = [draw(st.integers(1, 3)) for _ in range(d - 1)]
        pure.append(draw(st.sampled_from(members[:4])))
        entries = [st.integers(0, 3)] * (d - 1) + [st.sampled_from([0] + members)]
    extra = [a for a in draw(st.lists(st.tuples(*entries), max_size=3)) if any(a)]
    if draw(st.booleans()):
        extra = [a for a in extra if sum(x * prod(pure) // p for x, p in zip(a, pure)) >= prod(pure)]
    powers = [tuple(p * (j == i) for j in range(d)) for i, p in enumerate(pure)]
    ideal = ring.ideal(powers + extra)
    analysis = Analysis(EntryData("e", ring, ideal, nmax=draw(st.integers(1, d + 2))))
    return analysis, Filtration(ring, ideal)


@settings(max_examples=100, deadline=None)
@given(ring_analyses())
def test_counted_normal_column_matches_closure_powers(case):
    a, closures = case
    assert a.normal_values == length_table(closures, a.nmax)
    assert a.lam_R_I1 == colength(closures.term(1))
    assert a.closure_is_maximal == (closures.term(1) == a.backend.maximal())


@settings(max_examples=100, deadline=None)
@given(ring_analyses())
def test_reduction_number_matches_full_scan(case):
    """rn scans only n <= B - 1; the scan of every degree from B + 1 down,
    with every term a closure power, finds the same value at any nmax."""
    a, closures = case
    assume(a.reduction is not None)
    assert a.rn == reduction_number_scan(closures, a.reduction, flt.rn_bound(a.reduction) + 1)


@settings(max_examples=100, deadline=None)
@given(ring_analyses())
def test_normal_terms_by_products_match_closure_powers(case):
    """F_n = J*F_(n-1) from degree B + 1 on equals closure(I^n)."""
    a, _ = case
    assume(a.reduction is not None)
    filt = normal_filt(a)
    for n in range(a.nmax + 2):
        assert filt.term(n) == closure_power(a.ideal, n), n


@settings(max_examples=100, deadline=None)
@given(ring_analyses())
def test_adic_column_and_mu_maximal_match_built_ideals(case):
    """The running product gives the column of the adic filtration, and the
    atoms count the minimal generators of m."""
    a, _ = case
    assert a.adic_values == length_table(AdicFiltration(a.backend, a.ideal), a.nmax)
    assert a.mu_maximal == len(a.backend.maximal().gens)


# --- one fit with e0 known --------------------------------------------------------


@st.composite
def fit_analyses(draw):
    """An analysis of `ring_analyses` (both ring classes, d = 1..4) at a
    horizon of 1 to two past the default, half the time at least the default,
    its normal column tampered at one index two thirds of the time, half of
    those at an index up to 2, below most fitted entries."""
    a, _ = draw(ring_analyses())
    top = default_nmax(a.dim) + 2
    nmax = draw(st.integers(1, top) | st.integers(top - 2, top))
    tamper = draw(st.none() | st.integers(0, nmax) | st.integers(0, min(2, nmax)))
    return Analysis(a.entry._replace(nmax=nmax, tamper_normal=tamper))


def attempt(fit, *args):
    """fit(*args), or the type and text of its horizon or precondition error."""
    try:
        return fit(*args)
    except (errors.HorizonError, errors.PreconditionError) as exc:
        return type(exc), str(exc)


def counted_fits(a):
    """(free fit, fit with e0 given) of the counted normal column, each a Fit
    or the type and text of its error."""
    counted = a.ideal.closure_counts(a.nmax + 1)[1:]
    return (attempt(free_fit_coefficients, counted, a.dim, a.window),
            attempt(flt.fit_coefficients, counted, a.e0, a.dim, a.window))


@settings(max_examples=100, deadline=None)
@given(fit_analyses())
def test_fit_with_known_e0_matches_the_free_fit(a):
    """Where S = N, wherever the fit with e0 left free passes on the counted
    normal column, the fit with e0 given returns the same Fit, stable from 0:
    G is Cohen-Macaulay (see `Analysis.basis`) with rn <= d - 1, so the column is
    its polynomial from n = 0, and any passing fit is exact. Elsewhere a free
    fit can pass with the wrong e0 (see below). The Sally fit read off the
    normal fit has the coefficients of the one fitted on the printed Sally
    column wherever that passes, and the same stable_from on an untampered
    column; it needs no horizon, so it passes where that one runs out, and
    where a tamper makes a printed Sally length negative, which refuses the
    fit of the column, it is the untampered analysis's."""
    free, given_e0 = counted_fits(a)
    if not a.backend.sg.gaps and isinstance(free, flt.Fit):
        assert given_e0 == free and free.stable_from == 0
    if a.reduction is not None:
        sally = a.sally_fit
        assert isinstance(sally, flt.Fit)
        windowed = attempt(sally_from_tables, a.sally_values, a.dim, a.window)
        if isinstance(windowed, flt.Fit):
            assert sally.e == windowed.e
            assert a.entry.tamper_normal is not None or sally == windowed
        elif windowed[0] is errors.PreconditionError:
            assert a.entry.tamper_normal is not None and min(a.sally_values) < 0
            assert sally == Analysis(a.entry._replace(tamper_normal=None)).sally_fit


@settings(max_examples=100, deadline=None)
@given(fit_analyses())
def test_counted_and_adic_columns_are_coherent(a):
    """What `table_coherence` no longer compares at run time, as it holds for
    any computed ideal: the counted and adic columns (each equal to its oracle
    column, see above) increase strictly and the counted one lies below the
    adic one; where S = N a fit of the counted column with e0 left free finds
    e0 wherever it passes (see above)."""
    counted = tuple(a.ideal.closure_counts(a.nmax + 1)[1:])
    for column in (counted, a.adic_values):
        assert all(x < y for x, y in zip(column, column[1:]))
    assert all(c <= p for c, p in zip(counted, a.adic_values))
    free, _ = counted_fits(a)
    assert a.backend.sg.gaps or not isinstance(free, flt.Fit) or free.e[0] == a.e0


def test_a_free_fit_can_pass_with_the_wrong_e0():
    """Why the two tests above claim the free fit only of the counted normal
    column where S = N. In k[[t^5,t^7]][U], I = (t^10, U·t^7, U^3) at nmax 8,
    the adic column is not yet its polynomial: the free fit passes its window
    with e0 = 29, yet e0 = 30, and the fit with e0 given fails: the sum of h
    up to the last entry, degree 8, misses 30, so the column is not its
    polynomial from degree 8 - d = 6 on."""
    ring = SemigroupBackend((5, 7), 1)
    a = Analysis(EntryData("adic", ring, ring.ideal([(0, 10), (1, 7), (3, 0)]), nmax=8))
    assert a.e0 == 30
    assert free_fit_coefficients(a.adic_values, a.dim, a.window) == ((29, 36, 34), 2)
    assert a.adic_fit is None
    assert "leading coefficient 30 from degree 6 on" in str(a.adic_fit_error)
    assert isinstance(a.adic_fit_error, errors.HorizonError)


# --- Sally tables and series identities --------------------------------------------

NORMAL_1D = (1, 3, 7, 11, 15, 19, 23)
JGOOD_1D = (1, 5, 9, 13, 17, 21, 25)


def sg_4_5_11(**kwargs):
    """The maximal ideal of k[[t^4,t^5,t^11]]: NORMAL_1D is its normal column
    and JGOOD_1D its J-good one, with e0 = 4 and lambda(closure(I)/J) = 3."""
    ring = SemigroupBackend((4, 5, 11), 0)
    return Analysis(EntryData("sg_4_5_11", ring, ring.maximal(), **kwargs))


def test_sally_from_tables():
    # the Sally column (0, 2, 2, ...) of NORMAL_1D and JGOOD_1D, their difference:
    # s0 = e1_bar - lambda(closure(I)/J) = 5 - 3, from the same degree on
    a = sg_4_5_11()
    assert (a.normal_values, a.jgood_values) == (NORMAL_1D, JGOOD_1D)
    assert a.normal_fit == ((4, 5), 1)
    assert a.sally_fit.e == (2,)
    assert a.sally_fit.stable_from == 1
    assert a.sally_fit == sally_from_tables(a.sally_values, 1, default_window(1))


def test_sally_rejects_negative_lengths():
    # the tamper raises the normal entry 0, so the printed Sally length 0
    # drops to -1; the Sally fit is read off the normal fit of the counted
    # column, so it is the ideal's, as untampered. A separate fit of the
    # printed Sally column, the oracle, refuses negative lengths
    a = sg_4_5_11(tamper_normal=0)
    assert a.sally_values[0] == -1 and a.normal_fit == ((4, 5), 1)
    assert a.sally_fit == ((2,), 1) == sg_4_5_11().sally_fit
    for values in ((0, -2), (1, 2)):
        with pytest.raises(errors.PreconditionError):
            sally_from_tables(values, 1, default_window(1))


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
def reduction_analyses(draw, top=6, naturals=False, free=None, bottom=1):
    """An analysis whose ideal lies between pure powers J and their closure,
    so that J is its reduction: a polynomial ring in 1 to 4 variables, or a
    semigroup ring with 0 to 2 adjoined variables (free of them, when given);
    nmax runs over bottom..top. With naturals, S = N also comes as the
    semigroup ring k[[t]][U..]."""
    sg = draw(st.sampled_from(((1,), (2, 3), (3, 5), (4, 5, 11))))
    if free is None:
        free = draw(st.integers(0, 3 if sg == (1,) else 2))
    semigroup = sg != (1,) or naturals and free < 3 and draw(st.booleans())
    ring = (SemigroupBackend(sg, free) if semigroup
            else PolynomialBackend(("x", "y", "z", "w")[:free + 1]))
    members = [s for s in range(1, 13) if s in ring.sg]
    pure = [draw(st.integers(1, 3)) for _ in range(free)] + [draw(st.sampled_from(members[:4]))]
    vector = st.tuples(*[st.integers(0, 3)] * free, st.sampled_from([0] + members))
    # generators a with sum a_i / p_i >= 1 lie in the closure of the pure powers p_i
    extra = [a for a in draw(st.lists(vector, max_size=3))
             if sum(x * prod(pure) // p for x, p in zip(a, pure)) >= prod(pure)]
    powers = [tuple(p * (j == i) for j in range(free + 1)) for i, p in enumerate(pure)]
    entry = EntryData("e", ring, ring.ideal(powers + extra), nmax=draw(st.integers(bottom, top)))
    a = Analysis(entry)
    assert a.reduction == ring.ideal(powers)
    return a


def chain_values(a):
    return jgood_chain_colengths(a.reduction, normal_filt(a).term(1), a.nmax)


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


@settings(max_examples=100, deadline=None)
@given(reduction_analyses())
def test_containment_in_reduction_powers_reads_the_meet(a):
    """F_(n+2) ⊆ J^n, the statement of e3_nonnegative, holds exactly when
    lambda(R/(J^n ∩ F_(n+2))) is the counted lambda(R/F_(n+2)), and the witness
    is the first generator of F_(n+2) outside J^n: against closure powers and
    powers of J built apart. A tenth of the entries, semigroup rings, fail."""
    closures, filt = Filtration(a.backend, a.ideal), normal_filt(a)
    counts, jn = a.ideal.closure_counts(a.nmax + 1), closures.term(0)
    for n in range(a.nmax):
        term = closures.term(n + 2)
        outside = [g for g in term.gens if not contains(jn, g)]
        assert (filt.meet(n, n + 2) == counts[n + 2]) == (not outside)
        if outside:
            assert filt.witness(0, n + 2, n, 0) == a.backend.element_str(outside[0])
        jn = multiply(a.reduction, jn)


def test_intersection_failures_empty(poly2):
    a = Analysis(EntryData("e", poly2, poly2.ideal([(2, 0), (0, 2)])))
    verdict = CHECKS["closure_intersection"][0](a)
    assert verdict.conclusion == "verified"
    assert verdict.detail.endswith("for n = 1..4")


@settings(max_examples=100, deadline=None)
@given(ring_analyses())
def test_closure_intersection_matches_the_all_degrees_loop(case):
    """The checker reads no ideal: closure(I^(n+1)) ∩ J^n = J^n·closure(I) is
    the Valabrega-Valla equality that `Analysis.basis` proves, so the loop over
    every degree, on closure powers built apart, finds no failure, and the
    checker verifies at every nmax, 1 included."""
    a, closures = case
    assume(a.reduction is not None)
    assert CHECKS["closure_intersection"][0](a).conclusion == "verified"
    assert intersection_failures_oracle(closures, a.reduction, min(4, a.nmax - 1)) == []
