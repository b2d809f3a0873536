"""Checker verdicts over the bundled corpus, frozen to known-good conclusions."""

import ast
import sys
from importlib import resources
from math import comb, prod
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from normfilt import CHECKS, EntryData, analyze, cli, errors, run_checks
from normfilt.analysis import Analysis
from normfilt.inputs import PolynomialBackend, SemigroupBackend
from normfilt.monomial import colength, multiply
from normfilt import analysis, inputs, monomial, reports, theorems
from normfilt.errors import HorizonError
from normfilt.theorems import (CONCLUSIONS, Witness, abstained, check_e3_nonnegative,
                               check_e3_vanishing_cm, horizon, refuted, verified)
from oracles import (AdicFiltration, Filtration, e3_chain_failure, e3_containment_scan,
                     e3_product_colengths, e3_reduces_scan, lam_m2_Jm_product, normal_filt,
                     quotient_length, valabrega_valla, valabrega_valla_prefixes)
from test_filtration import (chain_values, exact_decomposition, maximal_closure_analyses,
                             reduction_analyses, ring_analyses)
from test_inputs_cli import REFUTING

ALL_CHECKS = (
    "table_coherence",
    "e1_lower_bound",
    "e1_equality_equivalence",
    "e1_almost_minimal_depth",
    "e2_lower_bound",
    "e3_nonnegative",
    "sally_coefficient_transfer",
    "series_identity",
    "closure_intersection",
    "socle_formula",
    "length_bound_decomposition",
    "sally_type_bound",
    "e1_type_sandwich",
    "e3_vanishing_cm",
    "almost_minimal_rn2",
    "low_type_cm",
)

# every corpus entry's verified checks; everything else must be abstained
VERIFIED = {
    "poly2_x2_xy_y3": {"table_coherence"},
    "poly2_x2_y2": {
        "table_coherence", "e1_lower_bound", "e1_equality_equivalence",
        "e1_almost_minimal_depth", "e2_lower_bound", "sally_coefficient_transfer",
        "series_identity", "closure_intersection", "socle_formula",
        "length_bound_decomposition",
    },
    "poly3_cubes": {
        "table_coherence", "e1_lower_bound", "e1_equality_equivalence",
        "e1_almost_minimal_depth", "e2_lower_bound", "e3_nonnegative",
        "sally_coefficient_transfer", "series_identity", "closure_intersection",
        "socle_formula", "length_bound_decomposition", "almost_minimal_rn2",
    },
    "poly3_maximal": {
        "table_coherence", "e1_lower_bound", "e1_equality_equivalence",
        "e1_almost_minimal_depth", "e2_lower_bound", "e3_nonnegative",
        "sally_coefficient_transfer", "series_identity", "closure_intersection",
        "socle_formula", "length_bound_decomposition", "sally_type_bound",
        "e1_type_sandwich", "e3_vanishing_cm", "low_type_cm",
    },
    "poly3_maximal_square": {
        "table_coherence", "e1_lower_bound", "e1_equality_equivalence",
        "e1_almost_minimal_depth", "e2_lower_bound", "e3_nonnegative",
        "sally_coefficient_transfer", "series_identity", "closure_intersection",
        "socle_formula", "length_bound_decomposition",
    },
    "sg_4_5_11": {
        "table_coherence", "e1_lower_bound", "e1_equality_equivalence",
        "sally_coefficient_transfer", "series_identity", "closure_intersection",
        "socle_formula", "length_bound_decomposition",
    },
    "sg_4_5_11_uv": {
        "table_coherence", "e1_lower_bound", "e1_equality_equivalence",
        "e2_lower_bound", "e3_nonnegative", "sally_coefficient_transfer",
        "series_identity", "closure_intersection", "socle_formula",
        "length_bound_decomposition", "sally_type_bound", "e1_type_sandwich",
        "e3_vanishing_cm", "low_type_cm",
    },
}
VERIFIED["poly3_cubes_diag"] = VERIFIED["poly3_cubes"]


def load(name, **kwargs):
    f = resources.files("normfilt") / "corpus" / f"{name}.nfilt"
    parsed = inputs.parse_input(f.read_text())
    return analyze(inputs.build_entry(parsed, name, **kwargs))


@pytest.fixture(scope="module")
def analyses():
    return {name: load(name) for name in VERIFIED}


def test_registry_matches_expected_ids():
    assert tuple(CHECKS) == ALL_CHECKS
    for func, description in CHECKS.values():
        assert callable(func) and description


@pytest.mark.parametrize("name", sorted(VERIFIED))
def test_corpus_conclusions(analyses, name):
    verdicts = run_checks(analyses[name])
    assert [v.check for v in verdicts] == list(ALL_CHECKS)
    got = {v.check: v.conclusion for v in verdicts}
    for check, conclusion in got.items():
        expected = "verified" if check in VERIFIED[name] else "abstained"
        assert conclusion == expected, f"{name}/{check}: {conclusion}"
    for v in verdicts:
        assert v.hypotheses_met == (v.check in VERIFIED[name])


def test_reduction_colengths(analyses):
    # what e1_lower_bound prints as lambda(closure(I)/J): lambda(R/J) = e0 for a
    # reduction J, and lam_I1_J, read by additivity, is the length of closure(I)/J
    for name, a in analyses.items():
        if a.reduction is not None:
            assert colength(a.reduction) == a.e0, name
            assert a.lam_I1_J == quotient_length(normal_filt(a).term(1), a.reduction), name


def test_jgood_closed_form_and_exact_decomposition(analyses):
    # the J-good closed form against its product chain, and the exact length
    # decomposition that length_bound_decomposition no longer tests at run time
    for name, a in analyses.items():
        if a.reduction is not None:
            chain = chain_values(a)
            assert a.jgood_values == chain, name
            assert exact_decomposition(a, chain) == a.normal_values, name


def test_polynomial_normal_vv_never_fails(analyses):
    # every corpus entry with a reduction, in both ring classes: `Analysis.basis`
    # proves G Cohen-Macaulay with no scan, and the scan it skips, over the
    # whole horizon, every prefix of J and every term a closure power, is its
    # oracle: a failure is a kernel bug
    reduced = [a for a in analyses.values() if a.reduction]
    assert sorted(a.backend.kind for a in reduced) == ["polynomial"] * 5 + ["semigroup"] * 2
    for a in reduced:
        assert a.basis == "proved", a.name
        filt = Filtration(a.backend, a.ideal, a.reduction)
        filt.product_from = None
        assert valabrega_valla(filt, a.nmax, a.window, None).first_failure is None, a.name
        assert valabrega_valla_prefixes(filt, a.reduction, a.nmax, a.window, None)[2] is None


# the lays of `check` at nmax 12 that grow a box: J from its natural box
# (need plus the largest atom) onto power_box(J, 3), where socle_formula
# builds J^2 and J^3, the only ideals built from J; I is laid nowhere, as the
# normal terms are counted, not built (power_box(I, max(B, 5)), B =
# rn_bound(J), held I and J while the checkers read the built normal
# filtration: (21, 21, 21, 108) on sg7). A given J is first laid onto I's
# box where certify compares the two
LAYOUTS = {
    "poly3_cubes_diag": [((4, 4, 4), (10, 10, 10))],
    "sg_4_5_11_uv": [((2, 2, 23), (2, 2, 30)), ((2, 2, 23), (4, 4, 31))],
    "s3": [((7, 7, 7, 7), (19, 19, 19, 19))],
    "sg7": [((5, 5, 5, 52), (13, 13, 13, 80))],
}
S3 = "ring polynomial vars=x,y,z,w\nideal x^6 y^6 z^6 w^6 x*y*z*w^3\n"
# (t^14, U^4, V^4, W^4) in k[[t^7,t^9,t^11]][U,V,W], whose rn is its bound B = 5
SG7 = (Path(__file__).parent / "sg7.nfilt").read_text()


def count_layouts(monkeypatch, modules=(monomial, analysis)) -> list:
    """Record (old cap, new cap) of each lay through the modules that grows a box."""
    seen = []
    real = monomial.lay

    def counting(a, box):
        out = real(a, box)
        if out.cap != a.cap:
            seen.append((a.cap, out.cap))
        return out

    for module in modules:  # analysis holds its own name for lay
        monkeypatch.setattr(module, "lay", counting)
    return seen


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_only_the_initial_layouts_reshape(monkeypatch, name):
    seen = count_layouts(monkeypatch)
    if name in ("s3", "sg7"):
        text = S3 if name == "s3" else SG7
        a = analyze(inputs.build_entry(inputs.parse_input(text), name, nmax=12))
    else:
        a = load(name, nmax=12)
    run_checks(a)
    assert seen == LAYOUTS[name]
    assert seen[-1][1] == monomial.power_box(a.reduction, 3)


@st.composite
def reader_entries(draw):
    """An entry with a reduction: half the time an ideal of k[x_1..x_d], d =
    1..4, at nmax 1..12, between its pure powers (exponents <= 3) and their
    closure, so that they are its reduction; else an ideal of k[[S]][U..] at
    nmax 1..3, from `ring_analyses` or, with closure m, from
    `maximal_closure_analyses`."""
    if draw(st.booleans()):
        d = draw(st.integers(1, 4))
        ring = PolynomialBackend(("x", "y", "z", "w")[:d])
        pure = [draw(st.integers(1, 3)) for _ in range(d)]
        # generators a with sum a_i / p_i >= 1 lie in the closure of the pure powers p_i
        extra = [a for a in draw(st.lists(st.tuples(*[st.integers(0, 3)] * d), max_size=3))
                 if sum(x * prod(pure) // p for x, p in zip(a, pure)) >= prod(pure)]
        powers = [tuple(p * (j == i) for j in range(d)) for i, p in enumerate(pure)]
        return EntryData("e", ring, ring.ideal(powers + extra), nmax=draw(st.integers(1, 12)))
    a = draw(maximal_closure_analyses() | ring_analyses().map(lambda case: case[0])
             .filter(lambda a: a.backend.sg.gaps and a.reduction is not None))
    return a.entry._replace(nmax=draw(st.integers(1, 3)))


def coeffs(a):
    try:
        reports.coeffs_payload(a)
    except HorizonError:  # no normal fit: coeffs reads nothing more
        pass


@settings(max_examples=400, deadline=None)
@given(reader_entries())
def test_no_box_grows_past_the_readers_initial_lays(entry):
    """Each reader lays its ideals once, on a box that holds every term it
    reads: under `check` and `coeffs` no lay inside the kernel grows a box,
    and every product a reader builds (the powers of J under `check`, those
    of I under `coeffs`) lies on that one box."""
    for read in (run_checks, coeffs):
        a = Analysis(entry)
        with pytest.MonkeyPatch.context() as mp:
            seen = count_layouts(mp, modules=(monomial,))  # the readers lay through analysis
            built = []
            mp.setattr(analysis, "multiply", lambda x, y: built.append(monomial.multiply(x, y))
                       or built[-1])
            read(a)
        assert seen == []
        assert len({x.cap for x in built}) <= 1


def test_frozen_numbers_cubes(analyses):
    a = analyses["poly3_cubes"]
    nums = a.base_numbers()
    assert nums == {
        "d": 3, "nmax": 8, "e0": 27, "lambda_R_I1": 10, "mu_ideal": 3,
        "mu_maximal": 3, "type": 1, "e1_bar": 18, "e2_bar": 1,
        "e3_bar": 0, "g_s": 1, "lambda_I1_J": 17, "lambda_I2_JI1": 1, "rn": 2,
    }
    assert a.normal_values[:5] == (10, 56, 165, 364, 680)
    assert all(
        v == comb(3 * n + 5, 3) for n, v in enumerate(a.normal_values)
    )
    assert a.adic_fit.e == (27, 0, 0, 0)
    assert a.sally_values[:5] == (0, 1, 3, 6, 10)
    assert a.sally_fit.e == (1, 1, 0)
    assert a.basis == "proved"


def test_frozen_numbers_extension(analyses):
    a = analyses["sg_4_5_11_uv"]
    nums = a.base_numbers()
    assert nums == {
        "d": 3, "nmax": 8, "e0": 4, "lambda_R_I1": 1, "mu_ideal": 5,
        "mu_maximal": 5, "type": 2, "e1_bar": 5, "e2_bar": 2,
        "e3_bar": 0, "g_s": 2, "lambda_I1_J": 3, "lambda_I2_JI1": 2, "rn": 2,
    }
    assert a.adic_fit.e == (4, 5, 3, 1)
    # Sally lengths n(n+1) attain the type bound 2*C(n+1, 2) with equality
    assert a.sally_values == tuple(n * (n + 1) for n in range(9))
    assert a.sally_fit.e == (2, 2, 0)
    assert a.basis == "proved"


def test_low_type_exceptional_witness(analyses):
    verdicts = {v.check: v for v in run_checks(analyses["sg_4_5_11_uv"])}
    v = verdicts["low_type_cm"]
    assert v.conclusion == "verified"
    assert [(w.degree, w.element) for w in v.witnesses] == [(3, "t^15")]
    assert "exceptional" in v.detail
    assert v.numbers["lambda_m2_Jm"] == lam_m2_Jm_product(analyses["sg_4_5_11_uv"]) == 1


# ideals I != m with closure(I) = m outside the exceptional case: G(m) is
# Cohen-Macaulay, while the powers of I fail Valabrega-Valla
NOT_MAXIMAL = [
    ((3, 4, 5), "t^3 t^4 U V"),
    ((3, 5, 7), "t^3 t^5 U V"),
    ((4, 5, 6), "t^4 t^5 U V"),
    ((4, 5, 7), "t^4 t^5 U V"),
    ((4, 5, 7), "t^4 t^7 U V"),
    ((5, 6, 7), "t^5 t^6 U V"),
]


@pytest.mark.parametrize("gens, ideal", NOT_MAXIMAL)
def test_low_type_cm_tests_the_powers_of_m(tmp_path, gens, ideal):
    text = f"name not_maximal\nring semigroup gens={','.join(map(str, gens))} adjoin=U,V\nideal {ideal}\n"
    a = analyze(inputs.build_entry(inputs.parse_input(text)))
    assert a.ideal != a.backend.maximal() and a.closure_is_maximal
    powers = AdicFiltration(a.backend, a.ideal, a.reduction)
    assert valabrega_valla(powers, a.nmax, a.window, None).first_failure
    verdicts = {v.check: v for v in run_checks(a)}
    assert verdicts["low_type_cm"].conclusion == "verified"
    assert verdicts["low_type_cm"].numbers["lambda_m2_Jm"] == lam_m2_Jm_product(a)
    f = tmp_path / "not_maximal.nfilt"
    f.write_text(text)
    assert cli.main(["check", str(f)]) == 0


@st.composite
def closure_m_analyses(draw):
    """An analysis at nmax 1 or 2 of an ideal with closure m, in both ring
    classes: m of k[x_1..x_d], d = 1..4, where no other monomial ideal has
    closure m, or, in k[[S]] with 0 to 3 adjoined variables, m or the
    variables with t^e, e the least generator of S, and some larger members
    of S."""
    nmax = draw(st.integers(1, 2))
    if draw(st.booleans()):
        ring = PolynomialBackend(("x", "y", "z", "w")[:draw(st.integers(1, 4))])
        return Analysis(EntryData("e", ring, ring.maximal(), nmax=nmax))
    gens = draw(st.sampled_from([(1,), (2, 3), (3, 4, 5), (3, 5, 7), (4, 5, 7), (4, 5, 11),
                                 (5, 6, 7), (5, 7), (6, 7, 8, 9), (7, 9, 11)]))
    ring = SemigroupBackend(gens, draw(st.integers(0, 3)))
    free, e = ring.dim - 1, ring.sg.multiplicity
    units = [tuple(int(j == i) for j in range(ring.dim)) for i in range(free)]
    members = [s for s in range(e + 1, 3 * e) if s in ring.sg]
    powers = [e] + draw(st.lists(st.sampled_from(members), max_size=3))
    ideal = ring.maximal() if draw(st.booleans()) else ring.ideal(
        units + [(0,) * free + (s,) for s in powers])
    return Analysis(EntryData("e", ring, ideal, nmax=nmax))


@settings(max_examples=150, deadline=None)
@given(closure_m_analyses())
def test_lambda_m2_Jm_closed_form_matches_the_products(a):
    """lambda(R/J) = e0, and lambda(m^2/Jm) = e0 + d - 1 - mu(m), which
    low_type_cm reads, equals the count on the built J·m and m^2; it is >= 0
    by Abhyankar's inequality."""
    assert a.closure_is_maximal and a.reduction is not None
    assert colength(a.reduction) == a.e0
    assert lam_m2_Jm_product(a) == a.e0 + a.dim - 1 - a.mu_maximal >= 0


def test_check_without_reduction_builds_no_maximal_ideal(monkeypatch, capsys):
    # mu(m) is counted from the atoms, and the analysis reads m, where a checker
    # needs it, as closure(I): the ring's m is never built
    def fail(*args, **kwargs):
        raise AssertionError("m built")

    seen = []
    monkeypatch.setattr(monomial, "maximal_ideal", fail)
    monkeypatch.setattr(cli, "analyze", lambda entry: seen.append(analyze(entry)) or seen[-1])
    path = resources.files("normfilt") / "corpus" / "poly2_x2_xy_y3.nfilt"
    assert cli.main(["check", str(path)]) == 0
    assert '"mu_maximal": 2' in capsys.readouterr().out
    assert seen[0].reduction is None and "_maximal" not in vars(seen[0].backend)


def test_tamper_index_is_checked_against_the_horizon():
    # a negative index used to wrap around to the end of the table
    for index in (-1, 8):
        with pytest.raises(errors.InputError, match=r"outside the table range 0\.\.7"):
            load("poly2_x2_y2", tamper_normal=index)


def test_nonpositive_horizon_is_an_input_error():
    # nmax = 0 used to pass unchecked here and crash the checkers
    for nmax in (0, -1):
        with pytest.raises(errors.InputError, match="nmax must be a positive integer"):
            load("poly2_x2_y2", nmax=nmax)


def test_sally_report_of_negative_lengths_prints_the_ideal_fit():
    # the tamper makes the printed Sally length at degree 2 negative: the
    # report prints the lengths as read and the fit of the ideal, which reads
    # the counted column (the Sally module of the maximal ideal vanishes)
    a = load("poly3_maximal", tamper_normal=2)
    payload = reports.sally_payload(a)
    assert payload["values"] == [0, 0, -1, 0, 0, 0, 0, 0, 0]
    assert (payload["s"], payload["stable_from"], payload["s0_from_e"]) == ([0, 0, 0], 0, 0)
    assert a.sally_fit == load("poly3_maximal").sally_fit


def test_tampered_entry_is_refuted():
    a = load("poly3_cubes", tamper_normal=2)
    verdicts = run_checks(a)
    by_conclusion = {}
    for v in verdicts:
        by_conclusion.setdefault(v.conclusion, []).append(v.check)
    assert by_conclusion["refuted-with-witness"] == ["table_coherence", "length_bound_decomposition"]
    # the fits read h off the counted column, which no tamper reaches, so no
    # checker runs out of horizon; table_coherence names the corrupted degree
    assert "inconclusive-horizon" not in by_conclusion
    assert "e1_lower_bound" in by_conclusion["verified"]
    coherence, bound = [v for v in verdicts if v.is_refutation]
    assert coherence.witnesses[0] == Witness(2, "printed 166, counted 165")
    w = bound.witnesses[0]
    assert w.degree == 2 and w.element == "166 > 165"
    # the reported bound is independently re-checkable: closure((x,y,z)^{3*3}) has
    # colength C(11,3) = 165, and the tampered table claims 166
    assert comb(11, 3) == 165


def test_given_non_reduction_rejected():
    b = PolynomialBackend(("x", "y", "z"))
    cubes = b.ideal([(3, 0, 0), (0, 3, 0), (0, 0, 3)])
    with pytest.raises(errors.PreconditionError, match="64 != 27"):
        analyze(EntryData("bad", b, cubes,
                          reduction=b.ideal([(4, 0, 0), (0, 4, 0), (0, 0, 4)])))


def test_verified_set_monotone_in_horizon():
    small = {v.check: v.conclusion for v in run_checks(load("sg_4_5_11_uv", nmax=8))}
    large = {v.check: v.conclusion for v in run_checks(load("sg_4_5_11_uv", nmax=10))}
    assert "refuted-with-witness" not in small.values()
    assert "refuted-with-witness" not in large.values()
    verified_small = {c for c, k in small.items() if k == "verified"}
    verified_large = {c for c, k in large.items() if k == "verified"}
    assert verified_small <= verified_large


def test_type_matches_pseudo_frobenius(analyses):
    for name in ("sg_4_5_11", "sg_4_5_11_uv"):
        sg = analyses[name].backend.sg
        assert sg.type == len(sg.pseudo_frobenius) == 2
        assert sg.pseudo_frobenius == (6, 7)


def test_e3_from_reduction_tail(analyses):
    # third coefficient as a weighted sum of degreewise Sally growth, truncated
    # at the certified reduction number + 2
    for name, a in analyses.items():
        if a.dim != 3 or a.reduction is None:
            continue
        total, filt = 0, normal_filt(a)
        for j in range(2, min(a.rn + 2, a.nmax - 1) + 1):
            step = quotient_length(filt.term(j + 1), multiply(a.reduction, filt.term(j)))
            total += comb(j, 2) * step
        assert total == a.normal_fit.e[3], name


@pytest.mark.parametrize("name", ["poly3_cubes", "poly3_cubes_diag"])
def test_e3_summands_are_the_counted_column(name):
    # almost_minimal_rn2 verifies here without summing its e3 identity: each
    # lambda(R/J·closure(I^j)) of that sum, from a built product, is the
    # counted entry, so every summand is 0
    a = load(name, nmax=12)
    assert CHECKS["almost_minimal_rn2"][0](a).conclusion == "verified"
    assert a.dim == 3 and a.basis == "proved" and a.rn <= 2
    counts = a.ideal.closure_counts(a.nmax + 1)
    built = e3_product_colengths(a)
    assert len(built) == min(a.rn + 2, a.nmax - 1) - 1
    assert built == {j: counts[j + 1] for j in built}


@settings(max_examples=60, deadline=None)
@given(reduction_analyses(top=9, naturals=True, free=2, bottom=4))
def test_e3_summands_match_built_products(a):
    """Once rn <= 2 is certified, J·closure(I^j) = closure(I^(j+1)) for every j
    of the e3 identity, so its colength is the counted column's entry j + 1 and
    the summand is 0: almost_minimal_rn2 need not sum it."""
    assume(a.rn is not None and a.rn <= 2)
    counts = a.ideal.closure_counts(a.nmax + 1)
    built = e3_product_colengths(a)
    assert built == {j: counts[j + 1] for j in built}


def test_run_checks_subset_and_unknown():
    # run_checks runs the entry's checks, in the order given; build_entry
    # rejects an unknown id before any analysis
    subset = run_checks(load("poly3_maximal", checks=["socle_formula", "e2_lower_bound"]))
    assert [v.check for v in subset] == ["socle_formula", "e2_lower_bound"]
    with pytest.raises(errors.InputError, match="no_such_check"):
        load("poly3_maximal", checks=["no_such_check"])


def test_verdict_serialization(analyses):
    for v in run_checks(analyses["sg_4_5_11_uv"]):
        d = v.to_dict()
        assert d["schema"] == "normfilt.verdict/1"
        assert d["check"] == v.check
        assert isinstance(d["numbers"], dict)


def test_verdict_validation(analyses):
    # the four constructors are the only producers of a conclusion
    made = [make("detail").conclusion for make in (verified, refuted, horizon, abstained)]
    assert made == list(CONCLUSIONS)
    first, second = verified("a"), verified("b")
    first.numbers["e0"] = 1
    assert second.numbers == {}
    # the runner keeps that: every verdict, passed or abstained, has its own numbers dict
    verdicts = run_checks(analyses["poly2_x2_xy_y3"]) + run_checks(analyses["sg_4_5_11_uv"])
    assert {v.conclusion for v in verdicts} >= {"verified", "abstained"}
    assert len({id(v.numbers) for v in verdicts}) == len(verdicts)


@pytest.mark.parametrize("field", ["rn", "socle_lengths"])
def test_fields_built_from_J_name_the_missing_reduction(field):
    a = load("poly2_x2_xy_y3")  # no monomial reduction
    assert a.reduction is None
    with pytest.raises(errors.PreconditionError, match=f"^{field} needs a certified reduction J"):
        getattr(a, field)


def test_filtration_reads_of_J_name_the_missing_reduction():
    # J^k and J·F_n live in the oracle filtration: without J each read of them says so
    f = normal_filt(load("poly2_x2_xy_y3"))
    for read in (lambda: f.power(2), lambda: f.product(1), lambda: f.reduces(0),
                 lambda: f.meet(1, 2), lambda: f.witness(0, 2, 1, 1),
                 lambda: f.reduction_number()):
        with pytest.raises(errors.PreconditionError, match="need a reduction J; the filtration has none"):
            read()


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    code = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(code, {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["(10, 56, 165, 364, 680, 1140, 1771, 2600, 3654)",
                         "(27, 18, 1, 0)", "2 proved"]


@settings(max_examples=200, deadline=None)
@given(reduction_analyses(top=8, naturals=True), st.data())
def test_sally_coefficients_follow_from_the_fits(a, data):
    """With a reduction the normal fit is read off h and the Sally fit off
    the normal fit, so both exist at every horizon and tamper index, and s0 =
    e1_bar - e0 + lambda(R/closure(I)) and s_i = e_(i+1)_bar, for a tampered
    table too. So sally_coefficient_transfer and e1_almost_minimal_depth
    need not compare them. Half the horizons are 8, and a third of the
    tamper indices lie below the 2d + 2 entries that a windowed fit would
    read."""
    nmax = data.draw(st.sampled_from([a.nmax, 8]), label="nmax")
    below_fit = st.integers(1, max(1, nmax - 2 * a.dim - 3))
    index = data.draw(st.none() | st.integers(0, nmax) | below_fit, label="tamper index")
    a = Analysis(a.entry._replace(nmax=nmax, tamper_normal=index))
    e, s = a.normal_fit.e, a.sally_fit.e
    assert s[0] == e[1] - a.e0 + a.lam_R_I1
    assert s[1:] == e[2:]
    verdict = CHECKS["sally_coefficient_transfer"][0](a)
    assert verdict.conclusion == "verified"
    assert [verdict.numbers[f"s{i}_bar"] for i in range(a.dim)] == list(s)
    depth = CHECKS["e1_almost_minimal_depth"][0](a)
    assert depth.numbers["s0_bar"] == a.e_bar(1) - (a.e0 - a.lam_R_I1)


@settings(max_examples=150, deadline=None)
@given(reduction_analyses(top=10, bottom=3))
def test_e3_vanishing_cm_fails_where_its_former_chain_does(a):
    """The chain J^(n-1)·closure(I^2) that the checker once built, on closure
    powers built apart, fails exactly where rn = deg h > 2: lambda(F_(n+1)/J·F_n)
    = sum_(k>n) h_k. Its gate e3_bar = sum_k C(k,3)·h_k = 0 forces deg h <= 2,
    so the checker, which now compares nothing, never refutes where the
    chain holds. About a fifth of the entries are semigroup rings with rn > 2,
    where the chain fails."""
    failure = e3_chain_failure(Filtration(a.backend, a.ideal), a.reduction, a.nmax)
    assert (failure is None) == (a.rn <= 2)
    if a.dim >= 3 and a.e_bar(3) == 0:
        assert a.rn <= 2
    assert not check_e3_vanishing_cm.__wrapped__(a, {}).is_refutation  # the body, without the gates


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2).flatmap(lambda free: reduction_analyses(top=12, naturals=True, free=free)))
def test_bounded_e3_loops_match_the_full_scans(a):
    """e3_nonnegative's containment F_(n+2) ⊆ J^n and e3_vanishing_cm's chain,
    scanned over the whole horizon (run as if e3_bar = 0, whatever it is),
    fail exactly where rn = deg h > 2 and the horizon reaches degree 1 and 2
    respectively; where rn <= 2, which e3_bar = 0 forces, they give the
    verdicts of the checkers' bodies, which compare nothing."""
    a.e_bar = lambda i: 0
    containment, chain = e3_containment_scan(a), e3_reduces_scan(a)
    assert containment.is_refutation == (a.rn > 2 and a.nmax >= 2)
    assert chain.is_refutation == (a.rn > 2 and a.nmax >= 3)
    if a.rn <= 2:
        assert check_e3_nonnegative.__wrapped__(a, {}) == containment
        assert check_e3_vanishing_cm.__wrapped__(a, {}) == chain


def refuted_sites() -> dict:
    """{(first line, last line): check id} of every refuted( call in theorems.py."""
    tree = ast.parse(Path(theorems.__file__).read_text())
    return {(call.lineno, call.end_lineno): body.name.removeprefix("check_")
            for body in tree.body if isinstance(body, ast.FunctionDef)
            for call in ast.walk(body)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "refuted"}


def tampered(name, index):
    a = load(name)
    return Analysis(a.entry._replace(tamper_normal=index))


def patched(a, **fields):
    """a with fields set on the instance, where they shadow its cached properties."""
    for field, value in fields.items():
        setattr(a, field, value)
    return a


def window_e3_negative():
    """I = (U^3, V^3, t^6, U·t^2) of k[[t^2,t^3]][U,V], which has no pure-power
    reduction, so its normal fit reads a window: with e3_bar set to -1."""
    text = "ring semigroup gens=2,3 adjoin=U,V\nideal U^3 V^3 t^6 U*t^2\n"
    a = analyze(inputs.build_entry(inputs.parse_input(text), "sg_2_3_uv"))
    assert a.basis == "window"
    fit = a.normal_fit
    return patched(a, _normal_fit=(fit._replace(e=(*fit.e[:3], -1)), None))


# the runs that hit each refuted( site, with the checks they run: a tamper of the
# printed column for the checkers of REFUTING, and, for a site that reads only
# computed values, an analysis with the field patched that only a
# counterexample to the paper, or a kernel bug, could change. The Sally
# column is the J-good closed form less the printed entry, so a tamper only
# lowers it; socle_formula reads the socles of J^1..J^3; on the proved basis
# e3_bar = sum_k C(k,3)·h_k >= 0, so e3_nonnegative is reached on the window basis
LEDGER_RUNS = {
    "tamper": [
        (lambda: tampered("poly2_x2_y2", 0), None),
        (lambda: tampered("sg_4_5_11_uv", 1), None),
    ],
    "patched": [
        (lambda: patched(load("poly3_cubes"), socle_lengths=(2, 3, 6)), ["socle_formula"]),
        (lambda: patched(load("sg_4_5_11_uv"), sally_values=(0, 3, 6, 12, 20, 30, 42, 56, 72)),
         ["sally_type_bound", "e1_type_sandwich"]),
        (window_e3_negative, ["e3_nonnegative"]),
    ],
}


@pytest.fixture(scope="module")
def ledger_hits():
    """{site: the kinds of LEDGER_RUNS whose verdicts came from it}."""
    sites, hits, real = refuted_sites(), {}, theorems.refuted

    def record(*args, **kwargs):
        line = sys._getframe(1).f_lineno
        [site] = [s for s in sites if s[0] <= line <= s[1]]
        hits.setdefault(site, set()).add(kind)
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(theorems, "refuted", record)
        for kind, runs in LEDGER_RUNS.items():
            for make, checks in runs:
                a = make()
                for check in checks or CHECKS:
                    CHECKS[check][0](a)
    return hits


def test_every_refutation_site_is_hit(ledger_hits):
    """A refutation that no run reaches is code that tests nothing: each
    refuted( site of theorems.py is hit, so a new one fails here until a run
    reaches it. The four the h-vector rules out for every table are gone:
    e1_lower_bound and e2_lower_bound (both sites), whose sides differ by
    sum_(k>=2) (k-1)·h_k and sum_(k>=3) C(k-1,2)·h_k, and almost_minimal_rn2,
    whose intersection sum is at most e1_bar - lambda(closure(I)/J)."""
    sites = refuted_sites()
    assert len(sites) == 10
    assert set(ledger_hits) == set(sites)


def test_refutation_ledger_classes(ledger_hits):
    """The tamper runs reach the checkers of the tamper ledger; the patched
    runs reach the four sites that read only computed values, among them the
    first e1_type_sandwich site, as a tamper only lowers lambda(I2bar/J·I1bar)."""
    sites = refuted_sites()
    by_kind = {kind: sorted(sites[s] for s, kinds in ledger_hits.items() if kinds == {kind})
               for kind in LEDGER_RUNS}
    assert by_kind == {
        "tamper": sorted(REFUTING),
        "patched": ["e1_type_sandwich", "e3_nonnegative", "sally_type_bound", "socle_formula"],
    }
