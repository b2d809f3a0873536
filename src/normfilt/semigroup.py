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
        a1, ak = gens[0], gens[-1]
        limit = (a1 - 1) * (ak - 1) + a1 + ak + 2
        member = bytearray(limit + 1)
        member[0] = 1
        for i in range(1, limit + 1):
            member[i] = 1 if any(i >= g and member[i - g] for g in gens) else 0
        run = 0
        conductor = None
        for i in range(limit + 1):
            run = run + 1 if member[i] else 0
            if run >= a1:
                conductor = i - a1 + 1
                break
        if conductor is None:
            raise PreconditionError("failed to locate the conductor; generators invalid")
        self.multiplicity = a1
        self.conductor = conductor
        self.frobenius = conductor - 1
        self._member = bytes(member[:conductor])
        # bit s set exactly for the members s of S below the conductor
        self.member_bits = sum(1 << i for i in range(conductor) if member[i])
        self.gaps = tuple(i for i in range(conductor) if not member[i])
        self.genus = len(self.gaps)
        self.gens = tuple(
            n
            for n in range(1, conductor + a1 + 1)
            if self.contains(n)
            and not any(
                self.contains(s) and self.contains(n - s) for s in range(a1, n - a1 + 1)
            )
        )
        # F(N) = -1 is the only pseudo-Frobenius number below zero: a1 - 1 is a
        # gap whenever a1 > 1, so scanning from -1 adds it for N alone
        self.pseudo_frobenius = tuple(
            x for x in (-1,) + self.gaps if all(self.contains(x + g) for g in self.gens)
        )
        self.type = len(self.pseudo_frobenius)

    def contains(self, n: int) -> bool:
        if n < 0:
            return False
        if n >= self.conductor:
            return True
        return bool(self._member[n])

    def __eq__(self, other):
        return isinstance(other, NumericalSemigroup) and self.gens == other.gens

    def __hash__(self):
        return hash(self.gens)

    def __repr__(self):
        return f"NumericalSemigroup{self.gens}"
