"""Verdict records produced by the statement checkers.

The constructors below leave the check id and the numbers empty; the checker
registration in `theorems` fills both in.
"""

from __future__ import annotations

from typing import NamedTuple

SCHEMA_VERSION = "normfilt.verdict/1"

CONCLUSIONS = (
    "verified",
    "refuted-with-witness",
    "inconclusive-horizon",
    "asserted-by-paper",
    "abstained",
)


class Witness(NamedTuple):
    degree: int
    element: str
    note: str = ""

    def to_dict(self) -> dict:
        d = {"degree": self.degree, "element": self.element}
        if self.note:
            d["note"] = self.note
        return d


class _VerdictFields(NamedTuple):
    check: str
    conclusion: str
    detail: str
    numbers: dict
    witnesses: tuple[Witness, ...]


class Verdict(_VerdictFields):
    """A checker's conclusion; each verdict gets its own numbers dict."""

    __slots__ = ()

    def __new__(cls, check, conclusion, detail="", numbers=None, witnesses=()):
        if conclusion not in CONCLUSIONS:
            raise ValueError(f"unknown conclusion {conclusion!r}")
        return super().__new__(cls, check, conclusion, detail,
                               {} if numbers is None else numbers, witnesses)

    # every conclusion but abstained is reached with the hypotheses met
    hypotheses_met = property(lambda self: self.conclusion != "abstained")

    @property
    def is_refutation(self) -> bool:
        return self.conclusion == "refuted-with-witness"

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "check": self.check,
            "conclusion": self.conclusion,
            "hypotheses_met": self.hypotheses_met,
            "detail": self.detail,
            "numbers": dict(sorted(self.numbers.items())),
            "witnesses": [w.to_dict() for w in self.witnesses],
        }


def verified(detail, witnesses=()):
    return Verdict("", "verified", detail, witnesses=tuple(witnesses))


def refuted(detail, witnesses=()):
    return Verdict("", "refuted-with-witness", detail, witnesses=tuple(witnesses))


def horizon(detail):
    return Verdict("", "inconclusive-horizon", detail)


def asserted(detail):
    return Verdict("", "asserted-by-paper", detail)


def abstained(detail):
    return Verdict("", "abstained", detail)
