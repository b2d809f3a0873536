"""The monomial-ideal kernel against direct lattice enumeration.

The first tests use the polynomial ring (S = N); the property tests compare
every operation against the brute-force membership oracle on S = N and on
<4,5,11>, with 0 to 2 free axes, for ideals that need not be m-primary.
"""

from itertools import product
from math import comb, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normfilt import errors
from normfilt import monomial as mono
from normfilt.filtration import Filtration
from normfilt.backends import PolynomialBackend
from normfilt.semigroup import NumericalSemigroup
from oracles import (
    monoid_member,
    monoid_minimal,
    naive_colength,
    naive_length_between,
    reshape_bytes,
    semigroup_members_oracle,
    staircase_member,
)

N = NumericalSemigroup((1,))


def ideal(dim, *gens):
    return mono.ideal(N, dim, gens)


def powers(a, upto):
    """a^0..a^upto from the adic filtration."""
    adic = Filtration(PolynomialBackend("xyzw"[: len(a.gens[0])]), "adic", ideal=a)
    return [adic.term(n) for n in range(upto + 1)]


def test_minimal_generators_prune_divisible():
    # (2,1) is divisible by (2,0) and (1,4) by (0,3); only the antichain stays
    a = ideal(2, (2, 0), (2, 1), (0, 3), (1, 4))
    assert a.gens == ((0, 3), (2, 0))
    b = ideal(2, (2, 0), (1, 2), (0, 3))
    assert b.gens == ((0, 3), (1, 2), (2, 0))


def test_minimal_generators_dedupe_and_sort():
    a = ideal(2, (1, 1), (1, 1), (0, 2))
    assert a.gens == ((0, 2), (1, 1))


def test_unit_zero_maximal():
    assert mono.unit_ideal(N, 2).gens == ((0, 0),)
    assert mono.ideal(N, 2, []).gens == ()
    assert mono.maximal_ideal(N, 3).gens == ((0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_power_zero_is_unit():
    a = ideal(2, (2, 0), (0, 2))
    p = powers(a, 2)
    assert p[0] == mono.unit_ideal(N, 2)
    assert p[1] == a
    assert p[2] == mono.multiply(a, a)


def test_contains_matches_staircase():
    a = ideal(2, (2, 0), (1, 1), (0, 3))
    for p in [(0, 0), (1, 0), (2, 0), (1, 1), (5, 5), (0, 2), (0, 3)]:
        assert mono.contains(a, p) == staircase_member(a.gens, p)


def test_colength_maximal_powers():
    # lambda(R / m^k) = C(k + d - 1, d)
    for d in (1, 2, 3):
        for k, mk in enumerate(powers(mono.maximal_ideal(N, d), 5)):
            if k:
                assert mono.colength(mk) == comb(k + d - 1, d)


def test_colength_against_enumeration():
    a = ideal(3, (3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1))
    assert mono.colength(a) == naive_colength(a.gens, (3, 3, 3)) == 19


def test_quotient_length_between():
    big = ideal(2, (2, 0), (1, 1), (0, 2))
    small = powers(mono.maximal_ideal(N, 2), 3)[3]
    assert mono.quotient_length(big, small) == naive_length_between(
        big.gens, small.gens, (3, 3)
    )


def test_is_m_primary():
    assert mono.is_m_primary(ideal(2, (2, 0), (0, 2)))
    assert not mono.is_m_primary(ideal(2, (1, 0)))
    assert not mono.is_m_primary(ideal(2, (1, 1)))
    assert not mono.is_m_primary(mono.unit_ideal(N, 2))
    assert not mono.is_m_primary(ideal(2))


def test_infinite_length_raises():
    with pytest.raises(errors.InfiniteLength):
        mono.colength(ideal(2, (1, 0)))


def test_dimension_mismatch():
    with pytest.raises(errors.DimensionMismatch):
        mono.multiply(ideal(2, (1, 0)), ideal(3, (1, 0, 0)))
    with pytest.raises(errors.DimensionMismatch):
        ideal(2, (1, 0, 0))


def test_colon_identities():
    a = ideal(2, (3, 0), (0, 3))
    b = ideal(2, (1, 1))
    q = mono.colon(a, b)
    assert mono.ideal_contains(a, mono.multiply(q, b))
    # (a : m) strictly contains a for m-primary a in >= 1 dimensions
    m = mono.maximal_ideal(N, 2)
    assert mono.ideal_contains(mono.colon(a, m), a)
    assert mono.colon(a, m) != a
    with pytest.raises(errors.PreconditionError):
        mono.colon(a, ideal(2))


def test_intersection_product_containments():
    a = ideal(2, (2, 0), (0, 2))
    b = ideal(2, (1, 1))
    meet = mono.intersect(a, b)
    assert mono.ideal_contains(a, meet) and mono.ideal_contains(b, meet)
    assert mono.ideal_contains(meet, mono.multiply(a, b))


small_exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))


@settings(max_examples=60, deadline=None)
@given(st.lists(small_exponents, min_size=1, max_size=4))
def test_property_ops_agree_with_enumeration(gens):
    # force m-primary by adjoining pure powers, then compare the ops against
    # direct staircase enumeration on a covering box
    a = mono.ideal(N, 2, list(gens) + [(4, 0), (0, 4)])
    b = mono.ideal(N, 2, [(g[0] + 1, g[1]) for g in gens] + [(5, 0), (0, 5)])
    meet = mono.intersect(a, b)
    join = mono.ideal_sum(a, b)
    prod = mono.multiply(a, b)
    for p in [(i, j) for i in range(7) for j in range(7)]:
        in_a, in_b = staircase_member(a.gens, p), staircase_member(b.gens, p)
        assert staircase_member(meet.gens, p) == (in_a and in_b)
        assert staircase_member(join.gens, p) == (in_a or in_b)
    assert mono.colength(a) == naive_colength(a.gens, (10, 10))
    assert mono.quotient_length(a, prod) == naive_length_between(a.gens, prod.gens, (10, 10))
    assert mono.ideal_contains(meet, prod)


@st.composite
def grown_boxes(draw):
    """(bits, old cap, new cap): d = 1..4 axes, each growing by 0 to 9."""
    dim = draw(st.integers(1, 4))
    old = draw(st.tuples(*[st.integers(0, 4)] * dim))
    new = tuple(c + draw(st.integers(0, 9)) for c in old)
    bits = draw(st.integers(0, (1 << prod(c + 1 for c in old)) - 1))
    return bits, old, new


@settings(max_examples=300, deadline=None)
@given(grown_boxes())
@example((0, (2, 1, 3), (5, 1, 4)))  # zero bits
@example((0b101101, (1, 2), (1, 2)))  # no axis grows
@example((0b101101, (1, 2), (4, 2)))  # only the outermost axis grows
def test_reshape_matches_byte_reshape(case):
    bits, old, new = case
    assert mono._reshape(bits, old, new) == reshape_bytes(bits, old, new)


# --- differential tests over N^v x S ----------------------------------------------

SEMIGROUPS = ((1,), (4, 5, 11))
FREE_BOX, S_BOX = 7, 34  # past every cap the drawn ideals and their products reach


@st.composite
def monoid_ideals(draw):
    """(S generators, dim, raw generators of a and of b, whether each has a
    pure power on every axis)."""
    sg_gens = draw(st.sampled_from(SEMIGROUPS))
    free = draw(st.integers(0, 2))
    members = [s for s in range(13) if NumericalSemigroup(sg_gens).contains(s)]
    vector = st.tuples(*[st.integers(0, 3)] * free, st.sampled_from(members))
    out = [sg_gens, free + 1]
    covered = []
    for _ in range(2):
        raw = draw(st.lists(vector, min_size=1, max_size=3))
        if draw(st.booleans()):  # add a pure power on every axis
            raw += [tuple(draw(st.integers(1, 4)) * (j == i) for j in range(free)) + (0,)
                    for i in range(free)]
            raw.append((0,) * free + (draw(st.sampled_from(members[1:])),))
        out.append(raw)
        axes = {i for g in raw for i in range(free + 1) if g[i] and not any(g[:i] + g[i + 1:])}
        covered.append(len(axes) == free + 1)
    return (*out, *covered)


@settings(max_examples=30, deadline=None)
@given(monoid_ideals())
def test_kernel_agrees_with_membership_oracle(case):
    sg_gens, dim, raw_a, raw_b, covered_a, covered_b = case
    sg = NumericalSemigroup(sg_gens)
    in_s = semigroup_members_oracle(sg_gens, S_BOX + 20)
    a, b = mono.ideal(sg, dim, raw_a), mono.ideal(sg, dim, raw_b)
    sums = [tuple(x + y for x, y in zip(g, h)) for g in raw_a for h in raw_b]
    total, meet, prod, quot = (mono.ideal_sum(a, b), mono.intersect(a, b),
                               mono.multiply(a, b), mono.colon(a, b))
    outside_a = 0
    for p in product(*[range(FREE_BOX)] * (dim - 1), range(S_BOX)):
        in_a, in_b = monoid_member(in_s, raw_a, p), monoid_member(in_s, raw_b, p)
        assert mono.contains(a, p) == in_a, p
        assert mono.contains(total, p) == (in_a or in_b), p
        assert mono.contains(meet, p) == (in_a and in_b), p
        assert mono.contains(prod, p) == monoid_member(in_s, sums, p), p
        in_quot = in_s[p[-1]] and all(
            monoid_member(in_s, raw_a, tuple(x + y for x, y in zip(p, g))) for g in raw_b)
        assert mono.contains(quot, p) == in_quot, p
        outside_a += in_s[p[-1]] and not in_a
    assert mono.ideal_contains(a, b) == all(monoid_member(in_s, raw_a, g) for g in raw_b)
    assert mono.ideal_contains(a, prod) and mono.ideal_contains(quot, a)
    assert a.gens == tuple(monoid_minimal(in_s, raw_a))
    assert prod.gens == tuple(monoid_minimal(in_s, sums))
    assert total.gens == tuple(monoid_minimal(in_s, raw_a + raw_b))
    unit_a = (0,) * dim in raw_a
    assert mono.is_m_primary(a) == (covered_a and not unit_a)
    if covered_a or unit_a:
        assert mono.colength(a) == outside_a
    else:
        with pytest.raises(errors.InfiniteLength):
            mono.colength(a)
    if covered_a and covered_b:
        in_prod = sum(
            monoid_member(in_s, raw_a, p) and not monoid_member(in_s, sums, p)
            for p in product(*[range(FREE_BOX + 4)] * (dim - 1), range(S_BOX + 12))
        )
        assert mono.quotient_length(a, prod) == in_prod


@pytest.mark.parametrize("sg_gens", [(1,), (4, 5, 11), (31, 37, 41)])
def test_monoid_mask_matches_membership(sg_gens):
    """_monoid's row, cut from the semigroup's cached mask, against sg.contains
    column by column, for widths below, at and above the conductor."""
    sg = NumericalSemigroup(sg_gens)
    for w in range(sg.conductor + 3):
        row = sum(1 << s for s in range(w + 1) if sg.contains(s))
        assert mono._monoid(sg, (w,)) == row, w
        assert mono._monoid(sg, (2, w)) == row | row << (w + 1) | row << 2 * (w + 1), w
