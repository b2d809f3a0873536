"""Newton-polyhedron geometry against the convex-combination oracle."""

import random
from itertools import product
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normfilt import errors
from normfilt import monomial as mono
from normfilt import newton
from normfilt.analysis import auto_reduction, certify
from normfilt.backends import PolynomialBackend, SemigroupBackend
from normfilt.filtration import Filtration, length_table
from oracles import (
    box_points,
    closure_power_rows,
    hull_heads,
    hull_oracle,
    in_dilation_oracle,
    multiplicity_oracle,
    semigroup_members_oracle,
)

R2 = PolynomialBackend(("x", "y"))
R3 = PolynomialBackend(("x", "y", "z"))

SQUARES = ((2, 0), (0, 2))
PLANE = ((2, 0), (1, 1), (0, 3))
CUBES = ((3, 0, 0), (0, 3, 0), (0, 0, 3))
CUBES_DIAG = ((3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1))


def ideal(gens):
    return (R2 if len(gens[0]) == 2 else R3).ideal(gens)


def maximal_power(ring, n):
    return Filtration(ring, "adic", ideal=ring.maximal()).term(n)


def test_halfspaces_squares():
    np_ = newton.newton_polyhedron(SQUARES)
    assert np_.halfspaces == (((1, 1), 2),)
    assert np_.box == (2, 2)


def test_halfspaces_plane_ideal():
    np_ = newton.newton_polyhedron(PLANE)
    assert set(np_.halfspaces) == {((1, 1), 2), ((2, 1), 3)}


def test_halfspaces_cubes_with_diagonal():
    # the diagonal generator lies on the single facet, so both ideals share it
    assert newton.newton_polyhedron(CUBES).halfspaces == (((1, 1, 1), 3),)
    assert newton.newton_polyhedron(CUBES_DIAG).halfspaces == (((1, 1, 1), 3),)


def test_closure_power_known_values():
    assert mono.closure_power(ideal(SQUARES), 1) == maximal_power(R2, 2)
    assert mono.closure_power(ideal(CUBES), 1) == maximal_power(R3, 3)
    assert mono.closure_power(ideal(CUBES_DIAG), 2) == maximal_power(R3, 6)
    assert mono.closure_power(ideal(PLANE), 1) == ideal(PLANE)  # integrally closed already
    assert mono.closure_power(ideal(SQUARES), 0) == mono.unit_ideal(R2.sg, R2.dim)
    with pytest.raises(errors.NotMPrimary):
        mono.closure_power(R2.ideal([(1, 0)]), 1)


def test_dimension_one_closure():
    r1 = PolynomialBackend(("x",))
    a = r1.ideal([(4,)])
    assert newton.newton_polyhedron(a.gens).halfspaces == (((1,), 4),)
    assert mono.closure_power(a, 3) == r1.ideal([(12,)])
    assert newton.multiplicity(a.hull) == 4


def test_covolume_and_multiplicity():
    assert newton.multiplicity(newton.newton_polyhedron(PLANE)) == 5
    assert newton.multiplicity(newton.newton_polyhedron(SQUARES)) == 4
    assert newton.multiplicity(newton.newton_polyhedron(CUBES)) == 27
    assert newton.multiplicity(newton.newton_polyhedron(CUBES_DIAG)) == 27
    assert newton.multiplicity(R3.maximal().hull) == 1
    assert newton.multiplicity(maximal_power(R3, 2).hull) == 8


def test_maximal_fourth_power_in_four_variables():
    gens = [g for g in product(range(5), repeat=4) if sum(g) == 4]
    np_ = newton.newton_polyhedron(gens)
    assert np_.halfspaces == (((1, 1, 1, 1), 4),) == hull_oracle(gens)
    assert newton.multiplicity(np_) == 256


@st.composite
def m_primary_gens(draw, max_dim):
    """A pure power of every variable plus up to four more generators, entries <= 5."""
    d = draw(st.integers(1, max_dim))
    gens = [tuple(draw(st.integers(1, 5)) * (j == i) for j in range(d)) for i in range(d)]
    extra = draw(st.lists(st.tuples(*[st.integers(0, 5)] * d), max_size=4))
    return gens + [g for g in extra if any(g)]


@st.composite
def degree_gens(draw):
    """The pure powers x_i^k and up to 16 of the degree-k monomials with every
    exponent <= b, in 1 to 4 variables: many generators on one hyperplane."""
    d, k = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    b = draw(st.integers(1, k))
    pool = [e for e in product(range(b + 1), repeat=d) if sum(e) == k]
    if len(pool) > 16:
        pool = draw(st.lists(st.sampled_from(pool), unique=True, max_size=16))
    return [tuple(k * (j == i) for j in range(d)) for i in range(d)] + pool


@st.composite
def hull_gens(draw):
    """degree_gens, or m_primary_gens(4) with or without generators that
    dominate a drawn one and points at or above the rounded-up midpoint of two
    drawn ones; then repeats."""
    gens = draw(degree_gens()) if draw(st.booleans()) else draw(m_primary_gens(4))
    for g in draw(st.lists(st.sampled_from(gens), max_size=4)):
        gens.append(tuple(min(5, x + draw(st.integers(0, 2))) for x in g))
    for h, k in draw(st.lists(st.tuples(st.sampled_from(gens), st.sampled_from(gens)), max_size=4)):
        gens.append(tuple(min(5, (x + y + 1) // 2 + draw(st.integers(0, 1))) for x, y in zip(h, k)))
    gens += draw(st.lists(st.sampled_from(gens), max_size=2))
    return gens


@settings(max_examples=200, deadline=None)
@given(hull_gens())
def test_hull_matches_subset_scan_oracle(gens):
    """The double description against the d-subset scan and the pruned head/cofactor hull."""
    assert newton.newton_polyhedron(gens).halfspaces == hull_oracle(gens) == hull_heads(gens), gens


def newton_wide_gens(seed):
    """Three 4-variable ideals: x_i^4 plus 12 degree-3 monomials with exponents <= 2."""
    cubics = sorted(e for e in product(range(3), repeat=4) if sum(e) == 3)
    rng = random.Random(seed)
    powers = [tuple(4 * (j == i) for j in range(4)) for i in range(4)]
    return [powers + rng.sample(cubics, 12) for _ in range(3)]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_hull_of_wide_ideals_matches_oracle(seed):
    for gens in newton_wide_gens(seed):
        assert newton.newton_polyhedron(gens).halfspaces == hull_oracle(gens) == hull_heads(gens), gens


@settings(max_examples=100, deadline=None)
@given(m_primary_gens(4))
def test_multiplicity_matches_triangulation_oracle(gens):
    np_ = newton.newton_polyhedron(gens)
    assert newton.multiplicity(np_) == multiplicity_oracle(np_.halfspaces, np_.box), gens


@settings(max_examples=100, deadline=None)
@given(m_primary_gens(4))
def test_multiplicity_is_the_difference_of_closure_colengths(gens):
    # for S = N, H(k) = #(N^d minus k*NP) is the colength of closure(I^k)
    d = len(gens[0])
    a = PolynomialBackend(("x", "y", "z", "w")[:d]).ideal(gens)
    values = [mono.colength(mono.closure_power(a, k)) for k in range(d + 1)]
    e0 = sum((-1) ** (d - k) * comb(d, k) * v for k, v in enumerate(values))
    assert newton.multiplicity(newton.newton_polyhedron(gens)) == e0, gens


@pytest.mark.parametrize("gens, nmax, formula", [
    # closure(I^(n+1)) = m^(2n+2) for the pure squares
    ([tuple(2 * (j == i) for j in range(4)) for i in range(4)], 10, lambda n: comb(2 * n + 5, 4)),
    # m^4 in 4 variables: 35 generators on the one facet of the 4 pure powers
    ([g for g in product(range(5), repeat=4) if sum(g) == 4], 4, lambda n: comb(4 * n + 7, 4)),
])
def test_normal_column_in_four_variables(gens, nmax, formula):
    ring = PolynomialBackend("xyzw")
    column = length_table(Filtration(ring, "normal", ideal=ring.ideal(gens)), nmax)
    assert column == tuple(formula(n) for n in range(nmax + 1))


@settings(max_examples=20, deadline=None)
@given(m_primary_gens(3))
def test_in_dilation_matches_oracle(gens):
    # closure(I^n) holds exactly the lattice points of the dilation n*NP(I)
    d = len(gens[0])
    a = PolynomialBackend("xyz"[:d]).ideal(gens)
    for n in (1, 2):
        closure = mono.closure_power(a, n)
        for p in box_points((3,) * d):
            assert mono.contains(closure, p) == in_dilation_oracle(gens, d, p, n), (gens, n, p)


def test_in_dilation_matches_oracle_spot():
    for gens in (SQUARES, PLANE):
        for n in (1, 2):
            closure = mono.closure_power(ideal(gens), n)
            for p in box_points((5, 5)):
                assert mono.contains(closure, p) == in_dilation_oracle(gens, 2, p, n), (gens, n, p)


def test_closure_is_dilation_lattice_points():
    # the n-th closure power is exactly the lattice points of the n-dilation
    closure2 = mono.closure_power(ideal(PLANE), 2)
    for p in box_points((7, 7)):
        assert mono.contains(closure2, p) == in_dilation_oracle(PLANE, 2, p, 2), p


def test_certify_reduction_positive():
    a, j = ideal(CUBES_DIAG), ideal(CUBES)
    assert certify(a, j) == j
    assert a.e0 == j.e0 == 27


def test_certify_reduction_negative_multiplicity():
    bigger = ideal(((4, 0, 0), (0, 4, 0), (0, 0, 4)))
    with pytest.raises(errors.PreconditionError, match="not a reduction: multiplicity 64 != 27"):
        certify(ideal(CUBES), bigger)


def test_certify_reduction_requires_containment():
    not_inside = ideal(((2, 0, 0), (0, 3, 0), (0, 0, 3)))
    with pytest.raises(errors.PreconditionError, match="not contained in the input ideal"):
        certify(ideal(CUBES), not_inside)
    with pytest.raises(errors.PreconditionError, match="one pure power of each variable"):
        certify(ideal(CUBES), ideal(CUBES_DIAG))


def test_find_monomial_reduction():
    assert auto_reduction(ideal(CUBES_DIAG)) == ideal(CUBES)
    assert auto_reduction(ideal(PLANE)) is None  # pure powers give e0 = 6 != 5
    assert auto_reduction(ideal(CUBES)) == ideal(CUBES)


def test_certificate_builds_no_closure_power_or_hull(monkeypatch):
    # NP(J) of pure powers is a simplex, tested on the generators of the ideal
    def fail(*args, **kwargs):
        raise AssertionError("the reduction certificate builds no closure power or hull")

    a, j = ideal(CUBES_DIAG), ideal(CUBES)
    monkeypatch.setattr(mono, "closure_power", fail)
    monkeypatch.setattr(mono, "newton_polyhedron", fail)
    assert auto_reduction(a) == j and certify(a, j) is j
    assert auto_reduction(ideal(PLANE)) is None


CERT_RINGS = [PolynomialBackend("xyzw"[:d]) for d in range(1, 5)] + [
    SemigroupBackend(gens, adjoin) for gens in ((1,), (4, 5, 11), (3, 7)) for adjoin in range(3)
]


@st.composite
def ring_and_ideal(draw):
    """An m-primary monomial ideal of one of CERT_RINGS, free exponents <= 5."""
    ring = draw(st.sampled_from(CERT_RINGS))
    d, values = ring.dim, [s for s in range(12) if ring.sg.contains(s)]
    pures = [tuple(draw(st.integers(1, 5)) * (k == i) for k in range(d)) for i in range(d - 1)]
    pures.append((0,) * (d - 1) + (draw(st.sampled_from(values[1:])),))
    vectors = st.tuples(*[st.integers(0, 3)] * (d - 1), st.sampled_from(values[:6]))
    extra = [v for v in draw(st.lists(vectors, max_size=4)) if any(v)]
    return ring, ring.ideal(pures + extra), values


@settings(max_examples=150, deadline=None)
@given(ring_and_ideal(), st.data())
def test_certificate_agrees_with_multiplicity_comparison(drawn, data):
    """The closure certificate against the multiplicity comparison it replaced."""
    ring, a, values = drawn
    d = ring.dim
    exps = mono.pure_power_exponents(a)
    auto = auto_reduction(a)
    j = ring.ideal([tuple(e * (k == i) for k in range(d)) for i, e in enumerate(exps)])
    assert auto == (j if a.e0 == j.e0 else None), (ring.describe(), a.gens)
    if auto is not None:  # lambda(R/J) = e0, so lambda(closure(I)/J) = e0 - lambda(R/closure(I))
        closure = mono.closure_power(a, 1)
        assert mono.colength(auto) == a.e0, (ring.describe(), a.gens)
        assert mono.quotient_length(closure, auto) == a.e0 - mono.colength(closure), (ring.describe(), a.gens)
    # candidates near the least pure powers: lower ones are not contained
    shifted = [max(1, e + data.draw(st.integers(-1, 2))) for e in exps[:-1]]
    shifted.append(data.draw(st.sampled_from([s for s in values if s] + [exps[-1]])))
    j = ring.ideal([tuple(e * (k == i) for k in range(d)) for i, e in enumerate(shifted)])
    contained = mono.ideal_contains(a, j)
    if contained and a.e0 == j.e0:
        assert certify(a, j) == j
    else:
        with pytest.raises(errors.PreconditionError) as info:
            certify(a, j)
        expected = f"multiplicity {j.e0} != {a.e0}" if contained else "not contained"
        assert expected in str(info.value), (ring.describe(), a.gens, j.gens)


RING_S1 = SemigroupBackend((4, 5, 11), 1)


@settings(max_examples=100, deadline=None)
@given(ring_and_ideal(), st.integers(0, 4))
# two halfspaces each: ((1, 1), 2) and ((2, 1), 3); ((4, 1), 8) and ((6, 1), 10)
@example((R2, R2.ideal(PLANE), None), 3)
@example((RING_S1, RING_S1.ideal([(2, 0), (1, 4), (0, 10)]), None), 4)
def test_closure_power_matches_row_loop(drawn, n):
    """The row sweep of closure_power against the per-row loop it replaced."""
    ring, a, _ = drawn
    sg, hull = ring.sg, a.hull
    in_s = semigroup_members_oracle(sg.gens, n * hull.box[-1] + sg.conductor + 1)
    closure = mono.closure_power(a, n)
    assert (closure.cap, closure.bits) == closure_power_rows(
        hull.halfspaces, hull.box, sg.conductor, in_s, n), (ring.describe(), a.gens, n)


def test_preconditions():
    with pytest.raises(errors.NotMPrimary):
        newton.newton_polyhedron(((1, 0),))
    with pytest.raises(errors.NotMPrimary):  # the unit ideal is not proper
        newton.newton_polyhedron(((0, 0), (2, 0), (0, 2)))
    with pytest.raises(errors.UnsupportedDimension):
        newton.newton_polyhedron([tuple(2 * int(i == j) for j in range(5)) for i in range(5)])
