"""End-to-end acceptance suite.

Each test covers one release gate and prints a single PASS/FAIL line on the
terminal, independent of pytest's own reporting. The oracles used here are
deliberately primitive: closed-form binomial counts, brute-force lattice
enumeration, exact Gaussian elimination. None of them call the code paths
they are checking.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction
from importlib import resources
from math import comb

from normfilt import cli, inputs, monomial as mono, semigroup as sgm
from normfilt.backends import SemigroupBackend
from normfilt.filtration import Filtration, series_coeff
from normfilt.newton import multiplicity, newton_polyhedron
from normfilt.theorems import analyze, run_checks
from oracles import (_solve_consistent, in_dilation_oracle, jgood_chain_colengths,
                     semigroup_members_oracle, series_checks)

CORPUS = resources.files("normfilt") / "corpus"

IDENTITY_SUITE = (
    "e1_lower_bound",
    "e1_equality_equivalence",
    "e2_lower_bound",
    "e3_nonnegative",
    "sally_coefficient_transfer",
    "series_identity",
    "closure_intersection",
    "socle_formula",
    "length_bound_decomposition",
)


def load(name, **kwargs):
    parsed = inputs.parse_input((CORPUS / f"{name}.nfilt").read_text())
    return inputs.build_entry(parsed, name, **kwargs)


def load_all():
    out = {}
    for f in sorted(CORPUS.iterdir(), key=lambda p: p.name):
        if f.name.endswith(".nfilt"):
            parsed = inputs.parse_input(f.read_text())
            out[parsed.name] = inputs.build_entry(parsed, parsed.name)
    return out


@contextmanager
def gate(capsys, number, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {number} {label}: FAIL")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {number} {label}: PASS")


def solve_binomial_fit(values, dim, rows):
    """Exact fit of trailing rows in the alternating binomial basis, done with
    the test-side Gaussian solver rather than the package's."""
    k = dim + 1
    columns = [
        tuple((-1) ** i * series_coeff(n, dim - i + 1) for n in rows)
        for i in range(k)
    ]
    sol = _solve_consistent(columns, tuple(Fraction(values[n]) for n in rows))
    assert sol is not None and all(c.denominator == 1 for c in sol)
    return tuple(int(c) for c in sol)


def test_criterion_1_semigroup_example(capsys):
    with gate(capsys, 1, "numerical-semigroup example reproduced"):
        t0 = time.monotonic()
        base = analyze(load("sg_4_5_11", nmax=8))
        ext = analyze(load("sg_4_5_11_uv", nmax=8))
        base_vv, base_rn = ext.base_cm
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0, f"took {elapsed:.2f}s"

        sg = sgm.NumericalSemigroup((4, 5, 11))
        assert sg.multiplicity == 4 and sg.type == 2
        assert sg.conductor == 8 and set(sg.gaps) == {1, 2, 3, 6, 7}

        # closure(m^2) picks up exactly t^11; higher powers are already closed
        k_s = SemigroupBackend((4, 5, 11))
        m = k_s.maximal()
        m_powers = Filtration(k_s, "adic", ideal=m)
        assert mono.closure_power(m, 2) == mono.ideal_sum(m_powers.term(2), k_s.ideal([(11,)]))
        for n in range(3, 9):
            assert mono.closure_power(m, n) == m_powers.term(n)

        assert base.normal_fit.e == (4, 5)
        assert base.adic_fit.e == (4, 5)

        # depth obstruction in the base ring: the adic graded ring of m fails
        # the membership test at degree 3 with the valuation-15 element
        assert base_rn is not None
        assert base_vv.first_failure == (3, 1, "t^15")
        assert not base_vv.certified_cm and not base_vv.inconclusive

        # extension ring S[U,V]: closure(n^2) = n^2 + (z) for z = t^11, and
        # closure(n^k) = n^k + z*(U,V)^(k-2) degreewise up to the horizon
        ring = ext.backend
        nmaxl = ring.maximal()
        z = ring.ideal([(0, 0, 11)])
        uv = ring.ideal([(1, 0, 0), (0, 1, 0)])
        n_powers = Filtration(ring, "adic", ideal=nmaxl)
        uv_powers = Filtration(ring, "adic", ideal=uv)
        assert mono.closure_power(nmaxl, 1) == nmaxl
        for k in range(2, 9):
            expected = mono.ideal_sum(
                n_powers.term(k), mono.multiply(z, uv_powers.term(k - 2))
            )
            assert ext.normal_filt.term(k) == expected, k

        assert ext.rn == 2
        assert ext.vv.certified_cm
        assert ext.normal_fit.e == (4, 5, 2, 0)


def test_criterion_2_cube_powers_vs_oracles(capsys):
    with gate(capsys, 2, "cube-powers entry matches brute-force oracles"):
        t0 = time.monotonic()
        a = analyze(load("poly3_cubes", nmax=8))
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0, f"took {elapsed:.2f}s"

        # closed form: closure((x^3,y^3,z^3)^(n+1)) is the (3n+3)rd power of
        # the maximal ideal, so its colength is C(3n+5, 3)
        closed = tuple(comb(3 * n + 5, 3) for n in range(9))
        assert a.normal_values == closed
        assert closed[:5] == (10, 56, 165, 364, 680)

        # lattice-enumeration oracle for the small degrees
        gens = ((3, 0, 0), (0, 3, 0), (0, 0, 3))
        for n in range(3):
            box = 3 * n + 4
            count = sum(
                not in_dilation_oracle(gens, 3, (i, j, k), n + 1)
                for i in range(box) for j in range(box) for k in range(box)
            )
            assert count == closed[n], n

        # independent exact solve of the coefficient system
        assert solve_binomial_fit(closed, 3, range(5, 9)) == (27, 18, 1, 0)
        assert a.normal_fit.e == (27, 18, 1, 0)
        assert a.g_s == 18 - 27 + 10 == 1

        # adic table by brute-force staircase counting, then an exact solve
        def staircase_colength(power_gens, box):
            count = 0
            for i in range(box):
                for j in range(box):
                    for k in range(box):
                        w = (i, j, k)
                        if not any(all(w[t] >= g[t] for t in range(3)) for g in power_gens):
                            count += 1
            return count

        adic = []
        for n in range(6):
            power_gens = [
                (3 * i, 3 * j, 3 * (n + 1 - i - j))
                for i in range(n + 2) for j in range(n + 2 - i)
            ]
            adic.append(staircase_colength(power_gens, 3 * n + 3))
        assert tuple(adic) == a.adic_values[:6]
        assert solve_binomial_fit(adic, 3, range(2, 6)) == (27, 0, 0, 0)
        assert a.adic_fit.e == (27, 0, 0, 0)

        # J-good table: w lies in I^n * m^3 iff w dominates a generator of I^n
        # and has total degree at least 3n + 3
        def jgood_count(n):
            power_gens = [
                (3 * i, 3 * j, 3 * (n - i - j))
                for i in range(n + 1) for j in range(n + 1 - i)
            ]
            box = 3 * n + 3
            count = 0
            for i in range(box):
                for j in range(box):
                    for k in range(box):
                        w = (i, j, k)
                        inside = i + j + k >= 3 * n + 3 and any(
                            all(w[t] >= g[t] for t in range(3)) for g in power_gens
                        )
                        count += not inside
            return count

        jgood = tuple(jgood_count(n) for n in range(6))
        assert jgood == a.jgood_values[:6]
        sally = tuple(j - c for j, c in zip(jgood, closed))
        assert sally == tuple(comb(n + 1, 2) for n in range(6))
        assert a.sally_values == tuple(comb(n + 1, 2) for n in range(9))
        assert a.sally_fit.e == (1, 1, 0)
        assert solve_binomial_fit(sally, 2, range(3, 6)) == (1, 1, 0)

        # reduction number 2, combinatorially: a degree-(3n+3) monomial always
        # has an exponent >= 3 once n >= 2, while (2,2,2) blocks n = 1
        assert a.rn == 2
        blocker = (2, 2, 2)
        assert sum(blocker) >= 6 and max(blocker) < 3  # in m^6 but not in I*m^3
        for n in (2, 3, 4):
            for i in range(3 * n + 4):
                for j in range(3 * n + 4 - i):
                    k = 3 * n + 3 - i - j
                    if k >= 0:
                        assert max(i, j, k) >= 3
        assert a.vv.certified_cm and a.vv.required_horizon <= 8


def test_criterion_3_identity_suites_whole_corpus(capsys):
    with gate(capsys, 3, "identity suites hold on the whole corpus"):
        entries = load_all()
        assert len(entries) >= 8
        for name, entry in entries.items():
            a = analyze(entry)
            assert a.nmax >= a.dim + 5, name
            verdicts = {v.check: v for v in run_checks(a)}
            for check in IDENTITY_SUITE:
                v = verdicts[check]
                assert not v.is_refutation, (name, check, v.detail)
                if v.hypotheses_met:
                    assert v.conclusion == "verified", (name, check, v.detail)
            if a.reduction is not None:
                chain = jgood_chain_colengths(a.reduction, a.normal_filt.term(1), a.nmax)
                series = series_checks(a.normal_values, chain, a.dim, a.e0)
                assert series.ok, (name, series.failures)
                assert verdicts["series_identity"].conclusion == "verified"
                assert verdicts["closure_intersection"].conclusion == "verified"


def test_criterion_4_dilation_and_multiplicity_oracles(capsys):
    with gate(capsys, 4, "dilation membership and multiplicities match oracles"):
        mismatches = []
        for name, entry in load_all().items():
            # generators dominating another one span no new part of the
            # polyhedron; dropping them keeps the oracle's search small
            gens = [g for g in entry.ideal.gens
                    if not any(h != g and all(x <= y for x, y in zip(h, g))
                               for h in entry.ideal.gens)]
            d = len(gens[0])
            np_ = newton_polyhedron(entry.ideal.gens)
            points = [()]
            for _ in range(d):
                points = [p + (c,) for p in points for c in range(6)]
            sg = entry.backend.sg  # N for a polynomial ring
            for n in (1, 2, 3):
                closure = mono.closure_power(entry.ideal, n)
                for p in points:
                    # a semigroup ring keeps the points of the dilation whose t-exponent lies in S
                    expected = in_dilation_oracle(gens, d, p, n) and sg.contains(p[-1])
                    if mono.contains(closure, p) != expected:
                        mismatches.append((name, n, p))
            a = analyze(entry)
            assert a.e0 == multiplicity(np_)
            assert a.normal_fit is not None and a.normal_fit.e[0] == a.e0, name
            assert a.adic_fit is not None and a.adic_fit.e[0] == a.e0, name
        assert mismatches == []


def test_criterion_5_negative_paths(capsys):
    with gate(capsys, 5, "negative paths refute or fail with designated codes"):
        # corrupted table refutes with a witness that an oracle can re-check
        code = cli.main(["check", str(CORPUS / "sg_4_5_11.nfilt"), "--tamper-normal", "2"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        refuted = [v for v in payload["verdicts"] if v["conclusion"] == "refuted-with-witness"]
        assert refuted
        witness = refuted[0]["witnesses"][0]
        assert witness["degree"] == 2 and witness["element"] == "8 > 7"
        members = semigroup_members_oracle((4, 5, 11), 12)
        true_colength = sum(1 for s in range(12) if members[s])
        assert true_colength == 7  # the tampered table claimed 8

        # non-coprime semigroup generators: malformed input
        assert cli.main(["table", str(CORPUS / "negative" / "gcd_bad.nfilt")]) == 2
        # ideal that is not primary to the maximal ideal: math precondition
        assert cli.main(["table", str(CORPUS / "negative" / "not_mprimary.nfilt")]) == 3
        # horizon too small for a certified fit
        assert cli.main(["coeffs", str(CORPUS / "poly3_cubes.nfilt"), "--nmax", "3"]) == 4
        capsys.readouterr()


def test_acceptance_suite_is_complete():
    import sys

    mod = sys.modules[__name__]
    gates = [k for k in dir(mod) if k.startswith("test_criterion_")]
    assert len(gates) == 5
