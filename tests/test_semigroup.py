"""Numerical semigroups, ideals of k[[S]], and the adjoined-variable extension.

Ideals of both rings go through the monomial kernel; exponent vectors keep
the semigroup valuation last, (U, V, s).
"""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normfilt import errors
from normfilt import monomial as mono
from normfilt.inputs import SemigroupBackend
from normfilt.newton import newton_polyhedron
from oracles import (AdicFiltration, closure_power, contains, ideal_sum, intersect, quotient_length,
                     semigroup_members_oracle)


@pytest.fixture(scope="module")
def sg():
    return mono.NumericalSemigroup((4, 5, 11))


@pytest.fixture(scope="module")
def base():
    return SemigroupBackend((4, 5, 11))


def power(ring, a, n):
    return AdicFiltration(ring, a).term(n)


def row(a, b, upto):
    """The valuations s < upto with t^s x^b in a."""
    return [s for s in range(upto) if contains(a, b + (s,))]


def test_membership_against_reachability(sg):
    table = semigroup_members_oracle((4, 5, 11), 40)
    for n in range(40):
        assert (n in sg) == table[n], n


def test_invariants_4_5_11(sg):
    assert sg.gens == (4, 5, 11)
    assert sg.multiplicity == 4
    assert sg.conductor == 8
    assert sg.gaps == (1, 2, 3, 6, 7)
    assert len(sg.gaps) == 5  # the genus
    assert sg.pseudo_frobenius == (6, 7)
    assert sg.type == 2


def test_invariants_other_semigroups():
    a = mono.NumericalSemigroup((3, 5, 7))
    assert a.gaps == (1, 2, 4)
    assert a.pseudo_frobenius == (2, 4)
    assert a.type == 2
    assert a.conductor == 5
    b = mono.NumericalSemigroup((2, 3))
    assert b.gaps == (1,)
    assert b.type == 1
    c = mono.NumericalSemigroup((1,))
    assert c.conductor == 0 and c.gaps == ()
    # N has Frobenius number -1 and type 1, like every regular ring
    assert c.pseudo_frobenius == (-1,) and c.type == 1


def test_minimal_generators_recomputed():
    assert mono.NumericalSemigroup((4, 5, 9, 11)).gens == (4, 5, 11)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=6).filter(lambda g: gcd(*g) == 1))
def test_membership_and_minimal_generators_against_reachability(generators):
    """contains reads the member mask; gens are the members that are no sum of two."""
    sg = mono.NumericalSemigroup(generators)
    top = sg.conductor + sg.multiplicity + 1
    table = semigroup_members_oracle(generators, top)
    assert [n in sg for n in range(-3, top)] == [False] * 3 + table
    nonzero = [n for n in range(1, top) if table[n]]
    sums = {x + y for x in nonzero for y in nonzero}
    assert sg.gens == tuple(n for n in nonzero if n not in sums)


def test_gcd_validation():
    with pytest.raises(errors.PreconditionError):
        mono.NumericalSemigroup((4, 6))


def test_sg_ideal_ops(base):
    m = base.maximal()
    m2 = mono.multiply(m, m)
    assert m2.gens == ((8,), (9,), (10,))
    m2bar = closure_power(m, 2)
    assert m2bar.gens == ((8,), (9,), (10,), (11,))
    assert m2bar == base.ideal([(s,) for s in range(8, 12)])  # every member >= 8
    assert quotient_length(m2bar, m2) == 1  # the missing element t^11
    assert power(base, m, 3) == mono.multiply(m2, m)
    assert mono.ideal_contains(m, m2)
    assert intersect(m2bar, m2) == m2


def test_sg_closure_matches_ordinary_high_powers(base):
    # for n >= 3, the closure of m^n equals m^n itself
    m = base.maximal()
    for n in range(3, 9):
        assert closure_power(m, n) == power(base, m, n)


def test_sg_colon_socle(base, sg):
    # ((t^4) : m)/(t^4) is spanned by t^10 and t^11
    assert mono.socle_length(base.ideal([(4,)])) == sg.type == 2


def test_sg_quotient_lengths(base):
    m = base.maximal()
    values = [mono.colength(closure_power(m, n + 1)) for n in range(5)]
    assert values == [1, 3, 7, 11, 15]
    adic = [mono.colength(power(base, m, n + 1)) for n in range(5)]
    assert adic == [1, 4, 7, 11, 15]


@pytest.fixture(scope="module")
def ring():
    return SemigroupBackend((4, 5, 11), 2)


def test_ext_construction_and_comps(ring):
    n = ring.maximal()
    assert row(n, (0, 0), 12) == [4, 5, 8, 9, 10, 11]
    assert contains(n, (1, 0, 0)) and contains(n, (5, 7, 0))
    n2 = power(ring, n, 2)
    assert n2 == mono.multiply(n, n)
    assert row(n2, (0, 0), 16) == [8, 9, 10, 12, 13, 14, 15]  # generated by 8, 9, 10
    assert row(n2, (1, 0), 12) == [4, 5, 8, 9, 10, 11]
    assert contains(n2, (1, 1, 0))


def test_ext_closure_adds_the_gap_element(ring):
    n = ring.maximal()
    z = ring.ideal([(0, 0, 11)])
    nbar2 = closure_power(n, 2)
    assert nbar2 == ideal_sum(power(ring, n, 2), z)
    assert nbar2 != power(ring, n, 2)


def test_ext_colength_table(ring):
    n = ring.maximal()
    normal = [mono.colength(closure_power(n, k + 1)) for k in range(4)]
    assert normal == [1, 5, 16, 38]
    adic = [mono.colength(power(ring, n, k + 1)) for k in range(4)]
    assert adic == [1, 6, 18, 41]


def test_ext_intersect_colon(ring):
    n = ring.maximal()
    j = ring.ideal([(0, 0, 4), (1, 0, 0), (0, 1, 0)])
    n2 = power(ring, n, 2)
    meet = intersect(n2, j)
    assert mono.ideal_contains(j, meet) and mono.ideal_contains(n2, meet)
    assert mono.socle_length(j) == 2  # socle of a parameter ideal has type length


def test_ext_infinite_length(ring):
    not_primary = ring.ideal([(0, 0, 4)])
    assert not mono.is_m_primary(not_primary)
    with pytest.raises(errors.InfiniteLength):
        mono.colength(not_primary)


def test_induced_monomial_ideal(ring):
    n = ring.maximal()
    assert n.gens == ((0, 0, 4), (0, 0, 5), (0, 0, 11), (0, 1, 0), (1, 0, 0))
    # over k[t, U, V], t^4 divides t^5 and t^11, so only the antichain spans the hull
    antichain = [(0, 0, 4), (0, 1, 0), (1, 0, 0)]
    assert n.hull == newton_polyhedron(antichain)
    assert n.hull.box == (1, 1, 4)


def test_adjoin_zero_extension(base):
    m = base.maximal()
    assert mono.colength(closure_power(m, 2)) == 3
