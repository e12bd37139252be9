"""Fraction-free integer elimination: the library's one exact kernel.

A rational matrix is held as integer rows T with one common denominator
d > 0, so the true matrix is T/d.  Pivoting on (r, c) with p = T[r][c]
(Bareiss 1968, "Sylvester's identity and multistep integer-preserving
Gaussian elimination"; Edmonds 1967) replaces every other row i by

    (T[i][j]*p - T[i][c]*T[r][j]) // d

keeps row r and makes p the new denominator.  The division is exact: every
entry of T is d times an entry of B^-1 A for the current basis B of the
starting integer matrix A, and d = |det B|, so it is an integer minor of A.
Pivots take no gcd, and entries stay the size of those minors.

The simplex tableau (`lp`), `polytope.solve_square` and
`polytope.matrix_rank` all pivot through `pivot`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from numbers import Rational
from typing import Optional, Sequence


def integer_row(values: Sequence[Rational]) -> list[int]:
    """The rationals scaled by the lcm of their denominators (same direction)."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values]


def _combine(row: list[int], top: list[int], p: int, d: int, c: int) -> list[int]:
    f = row[c]
    if f == 0:
        return row if p == d else [v * p // d for v in row]
    if d == 1:
        return [v * p - f * w for v, w in zip(row, top)]
    return [(v * p - f * w) // d for v, w in zip(row, top)]


def pivot(rows: list[list[int]], d: int, r: int, c: int,
          z: Optional[list[int]] = None) -> int:
    """Pivot the tableau rows/d on (r, c) in place and return the new d.

    ``z`` (an objective row on the same denominator, possibly with a fixed
    positive scale of its own) is updated by the same rule.  A negative
    pivot negates row r first, which negates the whole result and keeps the
    denominator positive.
    """
    top = rows[r]
    p = top[c]
    if p < 0:
        top = rows[r] = [-v for v in top]
        p = -p
    for i, row in enumerate(rows):
        if i != r:
            rows[i] = _combine(row, top, p, d, c)
    if z is not None:
        z[:] = _combine(z, top, p, d, c)
    return p


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix."""
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    d, done, col = 1, 0, 0
    while done < len(work) and col < ncols:
        piv = next((i for i in range(done, len(work)) if work[i][col]), None)
        if piv is not None:
            work[done], work[piv] = work[piv], work[done]
            d = pivot(work, d, done, col)
            done += 1
        col += 1
    return done


def solve(rows: Sequence[Sequence[int]]) -> Optional[list[Fraction]]:
    """Solve the square system of an integer augmented matrix [A | b].

    Returns the exact solution, or None when A is singular.
    """
    work = [list(r) for r in rows]
    n = len(work)
    d = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if work[i][col]), None)
        if piv is None:
            return None
        work[col], work[piv] = work[piv], work[col]
        d = pivot(work, d, col, col)
    return [Fraction(work[i][n], d) for i in range(n)]
