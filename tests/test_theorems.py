"""Checker verdicts over the bundled corpus, frozen to known-good conclusions."""

from importlib import resources
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normfilt import CHECKS, EntryData, analyze, errors, filtration, run_checks
from normfilt.analysis import Analysis
from normfilt.backends import PolynomialBackend
from normfilt.monomial import colength, multiply, quotient_length
from normfilt import inputs, monomial, reports
from normfilt.verdicts import Verdict, verified
from test_filtration import chain_values, exact_decomposition, reduction_analyses

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
            assert a.lam_I1_J == quotient_length(a.normal_filt.term(1), a.reduction), name


def test_jgood_closed_form_and_exact_decomposition(analyses):
    # the J-good closed form against its product chain, and the exact length
    # decomposition that length_bound_decomposition no longer tests at run time
    for name, a in analyses.items():
        if a.reduction is not None:
            chain = chain_values(a)
            assert a.jgood_values == chain, name
            assert exact_decomposition(a, chain) == a.normal_values, name


def test_polynomial_normal_vv_never_fails(analyses):
    # Hochster: the normal Rees algebra of a monomial ideal is a normal affine
    # semigroup ring, hence Cohen-Macaulay, and so is G; a failure is a kernel bug
    polynomial = [a for a in analyses.values() if a.backend.kind == "polynomial" and a.reduction]
    assert len(polynomial) == 5
    for a in polynomial:
        assert a.vv.first_failure is None, a.name


def test_vv_intersects_only_up_to_the_reduction_number(monkeypatch):
    a = load("poly3_cubes_diag", nmax=12)
    assert a.rn == 2
    seen = []
    real = filtration.intersect
    monkeypatch.setattr(filtration, "intersect", lambda x, y: seen.append(x) or real(x, y))
    assert a.vv.certified_cm
    assert seen == [a.normal_filt.term(1), a.normal_filt.term(2)]


# the nontrivial relays of an analysis at nmax 12 (75 and 155 of them while
# every operation laid its operands onto a common box): the input ideal and a
# given reduction onto the box of the analysis and, for low_type_cm's
# exceptional case, the coefficient ring's maximal ideal onto its own box
LAYOUTS = {
    "poly3_cubes_diag": [((3, 3, 3), (40, 40, 40))] * 2,
    "sg_4_5_11_uv": [((1, 1, 19), (14, 14, 162)), ((1, 1, 12), (14, 14, 162)), ((19,), (162,))],
}


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_only_the_initial_layouts_reshape(monkeypatch, name):
    seen = []
    real = monomial._reshape

    def counting(bits, old, new):
        if old != new and bits:
            seen.append((old, new))
        return real(bits, old, new)

    monkeypatch.setattr(monomial, "_reshape", counting)
    a = load(name, nmax=12)
    run_checks(a)
    assert seen == LAYOUTS[name]
    assert a.box == seen[0][1]


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
    assert a.vv.certified_cm


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
    assert a.vv.certified_cm


def test_low_type_exceptional_witness(analyses):
    verdicts = {v.check: v for v in run_checks(analyses["sg_4_5_11_uv"])}
    v = verdicts["low_type_cm"]
    assert v.conclusion == "verified"
    assert [(w.degree, w.element) for w in v.witnesses] == [(3, "t^15")]
    assert "exceptional" in v.detail


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


def test_sally_report_of_negative_lengths_is_a_precondition_error():
    a = load("poly3_maximal", tamper_normal=2)
    with pytest.raises(errors.PreconditionError, match="nonnegative"):
        reports.sally_payload(a)


def test_tampered_entry_is_refuted():
    a = load("poly3_cubes", tamper_normal=2)
    verdicts = run_checks(a)
    by_conclusion = {}
    for v in verdicts:
        by_conclusion.setdefault(v.conclusion, []).append(v.check)
    assert by_conclusion["refuted-with-witness"] == ["length_bound_decomposition"]
    # the corrupted degree falls inside the fit window, so fits become horizons
    assert "table_coherence" in by_conclusion["inconclusive-horizon"]
    refuted = [v for v in verdicts if v.is_refutation][0]
    w = refuted.witnesses[0]
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
        if a.dim != 3 or a.vv is None or not a.vv.certified_cm or a.rn is None:
            continue
        total = 0
        for j in range(2, min(a.rn + 2, a.nmax - 1) + 1):
            step = quotient_length(a.normal_filt.term(j + 1),
                                   multiply(a.reduction, a.normal_filt.term(j)))
            total += comb(j, 2) * step
        assert total == a.normal_fit.e[3], name


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


def test_verdict_validation():
    with pytest.raises(ValueError, match="unknown conclusion 'proved'"):
        Verdict("e1_lower_bound", "proved", True)
    first, second = verified("a"), verified("b")
    first.numbers["e0"] = 1
    assert second.numbers == {}


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    code = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(code, {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["(10, 56, 165, 364, 680, 1140, 1771, 2600, 3654)",
                         "(27, 18, 1, 0)", "2 True"]


@settings(max_examples=200, deadline=None)
@given(reduction_analyses(top=8, naturals=True), st.data())
def test_sally_coefficients_follow_from_the_fits(a, data):
    """Once the normal and the Sally fit both pass, s0 = e1_bar - e0 +
    lambda(R/closure(I)) and s_i = e_(i+1)_bar, for a tampered table too: the
    J-good table is a closed form with lambda(R/J) = e0. So
    sally_coefficient_transfer and e1_almost_minimal_depth need not compare
    them. Half the horizons are 8, and a third of the tamper indices lie
    below the 2d + 3 entries that the normal fit reads, where it can pass."""
    nmax = data.draw(st.sampled_from([a.nmax, 8]), label="nmax")
    below_fit = st.integers(1, max(1, nmax - 2 * a.dim - 3))
    index = data.draw(st.none() | st.integers(0, nmax) | below_fit, label="tamper index")
    a = Analysis(a.entry._replace(nmax=nmax, tamper_normal=index))
    if a.normal_fit is None or a.sally_fit is None:
        return
    e, s = a.normal_fit.e, a.sally_fit.e
    assert s[0] == e[1] - a.e0 + a.lam_R_I1
    assert s[1:] == e[2:]
    verdict = CHECKS["sally_coefficient_transfer"][0](a)
    assert verdict.conclusion == "verified"
    assert [verdict.numbers[f"s{i}_bar"] for i in range(a.dim)] == list(s)
    depth = CHECKS["e1_almost_minimal_depth"][0](a)
    assert depth.numbers["s0_bar"] == a.e_bar(1) - (a.e0 - a.lam_R_I1)
