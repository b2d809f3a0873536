"""An exact square linear solver over the rationals."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def solve_square(matrix: Sequence[Sequence], rhs: Sequence) -> tuple[Fraction, ...] | None:
    """Solve an n-by-n rational system exactly; None when singular."""
    n = len(matrix)
    rows = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = rows[col][col]
        rows[col] = [x / inv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return tuple(rows[i][n] for i in range(n))

