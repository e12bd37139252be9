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

The simplex (`lp`) pivots through `pivot` on a dictionary that stores only
its nonbasic columns: a basic column is d times a unit vector, so after
each pivot `lp` writes the leaving variable's column into the entering
one's slot from the entries the pivot read.  Every other exact
solve runs through `eliminate`, the library's one Gauss-Jordan loop:
`rank` here, `polytope.matrix_rank` and the starting cone of
`polytope`'s double description, and the complex ranks, inverses and graph
solves of `bicomplex.analysis`, which eliminate the real embedding
X + iY -> [[X, -Y], [Y, X]].
"""

from __future__ import annotations

from math import lcm
from numbers import Rational
from typing import Optional, Sequence


def integer_row(values: Sequence[Rational]) -> list[int]:
    """The rationals scaled by the lcm of their denominators (same direction)."""
    scale = lcm(*(v.denominator for v in values))
    if scale == 1:
        return [v.numerator for v in values]
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


def eliminate(rows: Sequence[Sequence[int]], width: int) -> tuple[list[list[int]], int, list[int]]:
    """Gauss-Jordan on the first ``width`` columns of an integer matrix.

    Returns (T, d, pivots): T/d is the reduced row echelon form, row r
    holding d in column pivots[r] and zero in every other pivot column.
    Columns past ``width`` (augmented right-hand sides) ride along, and rows
    past len(pivots) are zero in the first ``width`` columns.
    """
    work = [list(r) for r in rows]
    d, pivots = 1, []
    for col in range(width):
        if len(pivots) == len(work):
            break
        done = len(pivots)
        piv = next((i for i in range(done, len(work)) if work[i][col]), None)
        if piv is not None:
            work[done], work[piv] = work[piv], work[done]
            d = pivot(work, d, done, col)
            pivots.append(col)
    return work, d, pivots


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix."""
    return len(eliminate(rows, len(rows[0]) if rows else 0)[2])
