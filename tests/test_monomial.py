"""The monomial-ideal kernel against direct lattice enumeration.

The first tests use the polynomial ring (S = N); the property tests compare
every operation against the brute-force membership oracle on S = N and on
<4,5,11>, with 0 to 2 free axes, for ideals that need not be m-primary. The
last tests lay ideals on boxes larger than they need and check that no
result depends on the box, and that a box which holds an operation is never
relaid.
"""

from itertools import product
from math import comb, prod
from unittest import mock

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


# --- the same ideal on any box ----------------------------------------------------

@st.composite
def boxed_pairs(draw):
    """(S generators, dim, raw generators of a and of b, and three growths of a
    box: for a, for b and for a box both share). Polynomial rings have d = 1..4,
    semigroup rings 0 to 2 adjoined variables."""
    if draw(st.booleans()):
        sg_gens, dim = (1,), draw(st.integers(1, 4))
    else:
        sg_gens, dim = draw(st.sampled_from(((2, 3), (3, 5), (4, 5, 11)))), draw(st.integers(1, 3))
    members = [s for s in range(10) if NumericalSemigroup(sg_gens).contains(s)]
    vector = st.tuples(*[st.integers(0, 2 if dim == 4 else 3)] * (dim - 1), st.sampled_from(members))
    raws = []
    for _ in range(2):
        raw = draw(st.lists(vector, min_size=1, max_size=3))
        if draw(st.booleans()):  # a pure power on every axis, so colengths are finite
            raw += [tuple(draw(st.integers(1, 3)) * (j == i) for j in range(dim)) for i in range(dim - 1)]
            raw.append((0,) * (dim - 1) + (draw(st.sampled_from(members[1:])),))
        raws.append(raw)
    growth = st.tuples(*[st.integers(0, 5)] * dim)
    return (sg_gens, dim, *raws, draw(growth), draw(growth), draw(growth))


def _grown(need, growth):
    return tuple(n + g for n, g in zip(need, growth))


def _length(op, *ideals):
    try:
        return op(*ideals)
    except errors.InfiniteLength:
        return "infinite"


def _sums(xs, ys):
    return [tuple(map(sum, zip(x, y))) for x in xs for y in ys]


@settings(max_examples=80, deadline=None)
@given(boxed_pairs())
@example(((4, 5, 11), 3, [(3, 0, 0), (0, 3, 0), (0, 0, 11)], [(0, 0, 4)], (0, 0, 0), (0, 0, 0), (0, 0, 0)))
def test_results_do_not_depend_on_the_box(case):
    # each operation on a and b laid on larger boxes, their own or a shared
    # one, against the same operation on their natural boxes, and the
    # products against the membership oracle; the product's need is read by
    # the product, colon and length that follow it
    sg_gens, dim, raw_a, raw_b, grow_a, grow_b, grow = case
    sg = NumericalSemigroup(sg_gens)
    in_s = semigroup_members_oracle(sg_gens, 64)
    a, b = mono.ideal(sg, dim, raw_a), mono.ideal(sg, dim, raw_b)
    p = mono.multiply(a, b)
    assert p.gens == tuple(monoid_minimal(in_s, _sums(raw_a, raw_b)))
    assert mono.multiply(p, a).gens == tuple(monoid_minimal(in_s, _sums(p.gens, raw_a)))
    shared = _grown(tuple(map(max, a.need, b.need)), grow)
    pairs = ((mono.ideal(sg, dim, raw_a, _grown(a.need, grow_a)),
              mono.ideal(sg, dim, raw_b, _grown(b.need, grow_b))),
             (mono.lay(a, shared), mono.lay(b, shared)))
    for big_a, big_b in pairs:
        assert big_a == a and big_b == b and (big_a == big_b) == (a == b)
        assert big_a.gens == a.gens and big_b.gens == b.gens
        for op in (mono.ideal_sum, mono.intersect, mono.multiply, mono.colon):
            assert op(big_a, big_b).gens == op(a, b).gens, op.__name__
        assert mono.ideal_contains(big_a, big_b) == mono.ideal_contains(a, b)
        big_p = mono.multiply(big_a, big_b)
        assert mono.multiply(big_p, big_a).gens == mono.multiply(p, a).gens
        assert mono.colon(big_p, big_b).gens == mono.colon(p, b).gens
        assert _length(mono.colength, big_a) == _length(mono.colength, a)
        assert _length(mono.colength, big_p) == _length(mono.colength, p)
        assert _length(mono.quotient_length, big_a, big_p) == _length(mono.quotient_length, a, p)
        for q in product(*[range(c + 3) for c in big_a.cap]):
            assert mono.contains(big_a, q) == mono.contains(a, q), q


@settings(max_examples=40, deadline=None)
@given(boxed_pairs())
def test_operations_on_a_box_that_holds_them_relay_nothing(case):
    # a box that holds either need plus any generator shift plus the atoms,
    # which find the product's generators, as the box of an analysis does: no
    # operand is copied onto another box
    sg_gens, dim, raw_a, raw_b, _, _, grow = case
    sg = NumericalSemigroup(sg_gens)
    a, b = mono.ideal(sg, dim, raw_a), mono.ideal(sg, dim, raw_b)
    shifts = zip(map(max, a.need, b.need), mono._extent(a.gens + b.gens),
                 mono._extent(mono._atoms(sg, dim)))
    box = _grown(tuple(map(sum, shifts)), grow)
    big_a, big_b = mono.ideal(sg, dim, raw_a, box), mono.ideal(sg, dim, raw_b, box)
    same, gens = a == b, mono.multiply(a, b).gens
    with mock.patch.object(mono, "_reshape", wraps=mono._reshape) as spy:
        big_p = mono.multiply(big_a, big_b)
        results = [big_p, mono.intersect(big_a, big_b), mono.ideal_sum(big_a, big_b),
                   mono.colon(big_a, big_b)]
        assert (big_a == big_b) == same
        assert big_p.gens == gens
    assert [c.args[1:] for c in spy.call_args_list if c.args[0] and c.args[1] != c.args[2]] == []
    assert all(r.cap == box for r in results)
