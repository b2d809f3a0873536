"""Numerical semigroups: membership, conductor, gaps, generators and type.

A numerical semigroup S is a cofinite additive submonoid of the nonnegative
integers; the associated ring k[[S]] is a one-dimensional complete local
domain whose normalization is k[[t]]. S = N gives k[[t]] itself. Ideals of
k[[S]] and of its extensions by polynomial variables live in `monomial`.
"""

from __future__ import annotations

from math import gcd

from .errors import PreconditionError


class NumericalSemigroup:
    """Additive submonoid of the nonnegative integers with finite complement."""

    def __init__(self, generators):
        gens = sorted(set(int(g) for g in generators))
        if not gens or gens[0] <= 0:
            raise PreconditionError("semigroup generators must be positive integers")
        if gcd(*gens) != 1:
            raise PreconditionError(
                f"semigroup generators {tuple(gens)} must have greatest common divisor 1"
            )
        a1 = gens[0]
        # membership up to the first run of a1 members, which starts at the
        # conductor; gcd 1 makes S cofinite, so the run exists
        member, run = [1], 1
        while run < a1:
            i = len(member)
            member.append(1 if any(i >= g and member[i - g] for g in gens) else 0)
            run = run + 1 if member[-1] else 0
        conductor = len(member) - a1
        self.multiplicity = a1
        self.conductor = conductor
        # bit s set exactly for the members s of S below the conductor
        self.member_bits = sum(1 << i for i in range(conductor) if member[i])
        self.gaps = tuple(i for i in range(conductor) if not member[i])
        # a given generator is minimal unless it is a smaller one plus a nonzero member
        self.gens = tuple(g for g in gens if not any(h < g and self.contains(g - h) for h in gens))
        # F(N) = -1 is the only pseudo-Frobenius number below zero: a1 - 1 is a
        # gap whenever a1 > 1, so scanning from -1 adds it for N alone
        self.pseudo_frobenius = tuple(
            x for x in (-1,) + self.gaps if all(self.contains(x + g) for g in self.gens)
        )
        self.type = len(self.pseudo_frobenius)

    def contains(self, n: int) -> bool:
        return n >= self.conductor or (n >= 0 and bool(self.member_bits >> n & 1))

    def __eq__(self, other):
        return isinstance(other, NumericalSemigroup) and self.gens == other.gens

    def __hash__(self):
        return hash(self.gens)

    def __repr__(self):
        return f"NumericalSemigroup{self.gens}"
