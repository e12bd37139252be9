"""Exact-rational linear programming.

A dense two-phase tableau simplex with Bland's anti-cycling rule, run on
the fraction-free integer kernel of `bicomplex.elim`.  Each constraint row
is scaled to integers once; the tableau is then integer rows T over one
common denominator d > 0 (the true tableau is T/d), and every pivot divides
exactly by the previous d.  Reduced costs are integers on the scale s*d,
with s > 0 the lcm of the objective's denominators, so their signs, and
with them Bland's choice of entering column and the cross-multiplied ratio
test, are those of the rational tableau: the pivot sequence and every
answer are exactly what a `Fraction` Gauss-Jordan tableau gives.  Answers
are certificate-grade `Fraction`s, never floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from numbers import Rational
from typing import Optional, Sequence

from .elim import integer_row, pivot
from .errors import LPError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    status: str
    x: Optional[list[Fraction]]
    value: Optional[Fraction]
    # basic columns of the internal standard form (free variables split in
    # two, then slacks, then artificials) where the solve stopped
    basis: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.status == OPTIMAL


class LinearProgram:
    """Builder for small exact LPs over free or nonnegative variables.

    Variables are free by default; pass ``nonneg=True`` (or a per-variable
    sequence) to constrain signs.  Free variables are split internally.
    """

    def __init__(self, num_vars: int, nonneg=False):
        if num_vars < 0:
            raise LPError("negative variable count")
        self.n = num_vars
        if isinstance(nonneg, bool):
            self.nonneg = [nonneg] * num_vars
        else:
            self.nonneg = list(nonneg)
            if len(self.nonneg) != num_vars:
                raise LPError("nonneg flags do not match variable count")
        self._rows: list[tuple[list[Rational], Fraction, str]] = []
        self._c: Optional[list[Rational]] = None
        self._sense = 1  # +1 minimize, -1 maximize

    # -- construction ---------------------------------------------------

    def _coeffs(self, coeffs: Sequence) -> list[Rational]:
        """The coefficients as exact rationals: ints and Fractions as they are,
        anything else (floats exactly) converted to Fraction."""
        if len(coeffs) != self.n:
            raise LPError("coefficient length mismatch")
        return [c if type(c) is int or type(c) is Fraction else Fraction(c) for c in coeffs]

    def add_le(self, coeffs: Sequence, rhs) -> None:
        self._rows.append((self._coeffs(coeffs), Fraction(rhs), "le"))

    def add_ge(self, coeffs: Sequence, rhs) -> None:
        self._rows.append(([-c for c in self._coeffs(coeffs)], -Fraction(rhs), "le"))

    def add_eq(self, coeffs: Sequence, rhs) -> None:
        self._rows.append((self._coeffs(coeffs), Fraction(rhs), "eq"))

    def set_minimize(self, coeffs: Sequence) -> None:
        self._c = self._coeffs(coeffs)
        self._sense = 1

    def set_maximize(self, coeffs: Sequence) -> None:
        self._c = self._coeffs(coeffs)
        self._sense = -1

    # -- solution -------------------------------------------------------

    def solve(self) -> LPResult:
        c_user = self._c if self._c is not None else [Fraction(0)] * self.n

        # column layout: each free var -> (u, v) pair, nonneg var -> one col
        col_of: list[tuple[int, Optional[int]]] = []
        ncols = 0
        for flag in self.nonneg:
            if flag:
                col_of.append((ncols, None))
                ncols += 1
            else:
                col_of.append((ncols, ncols + 1))
                ncols += 2

        nslack = sum(1 for _, _, kind in self._rows if kind == "le")
        total = ncols + nslack

        rows: list[list[int]] = []
        slack_of_row: list[Optional[int]] = []
        slack_col = ncols
        for coeffs, b, kind in self._rows:
            # scale the row to integers: same feasible set, integer tableau
            *ints, rhs = integer_row([*coeffs, b])
            row = [0] * total + [rhs]
            for i, v in enumerate(ints):
                if v:
                    pos, neg = col_of[i]
                    row[pos] += v
                    if neg is not None:
                        row[neg] -= v
            if kind == "le":
                row[slack_col] = 1
                slack_of_row.append(slack_col)
                slack_col += 1
            else:
                slack_of_row.append(None)
            if row[-1] < 0:  # make rhs nonnegative
                row = [-v for v in row]
                slack_of_row[-1] = None  # slack coefficient now -1, unusable as basis
            rows.append(row)

        # initial basis: slacks where possible, artificials elsewhere
        basis: list[int] = []
        art_rows: list[int] = []
        for i, sc in enumerate(slack_of_row):
            if sc is not None:
                basis.append(sc)
            else:
                basis.append(total + len(art_rows))
                art_rows.append(i)
        full = total + len(art_rows)
        tableau = []
        for i, row in enumerate(rows):
            arts = [0] * len(art_rows)
            if basis[i] >= total:
                arts[basis[i] - total] = 1
            tableau.append(row[:-1] + arts + row[-1:])
        d = 1  # the true tableau is tableau / d

        if art_rows:
            # phase 1: minimize the sum of artificials
            z = [0] * total + [1] * len(art_rows) + [0]
            for i in art_rows:
                z = [zj - tj for zj, tj in zip(z, tableau[i])]
            _, d = self._iterate(tableau, basis, z, full, d)
            if z[-1] != 0:  # the artificials' least sum is -z[-1]/d
                return LPResult(INFEASIBLE, None, None, tuple(basis))
            d = self._drive_out_artificials(tableau, basis, total, d)
            tableau[:] = [row[:total] + row[-1:] for row in tableau]
            full = total

        # phase 2: reduced costs scaled by s*d, s > 0 clearing c's denominators
        c_std: list[Rational] = [0] * total
        for i, c in enumerate(c_user):
            pos, neg = col_of[i]
            c_std[pos] += self._sense * c
            if neg is not None:
                c_std[neg] -= self._sense * c
        c_int = integer_row(c_std)
        z = [c * d for c in c_int] + [0]
        for i, row in enumerate(tableau):
            cb = c_int[basis[i]]
            if cb:
                z = [zj - cb * tj for zj, tj in zip(z, row)]
        status, d = self._iterate(tableau, basis, z, full, d)
        if status == UNBOUNDED:
            return LPResult(UNBOUNDED, None, None, tuple(basis))

        values = [Fraction(0)] * total
        for i, row in enumerate(tableau):
            if basis[i] < total:
                values[basis[i]] = Fraction(row[-1], d)
        x = []
        for pos, neg in col_of:
            v = values[pos]
            if neg is not None:
                v -= values[neg]
            x.append(v)
        # z[-1] = -d * c_int . x_std, with c_int = s * c_std = s * sense * c_user
        scale = lcm(*(c.denominator for c in c_std))
        objective = Fraction(-self._sense * z[-1], scale * d)
        return LPResult(OPTIMAL, x, objective, tuple(basis))

    @staticmethod
    def _iterate(tableau, basis, z, ncols, d) -> tuple[str, int]:
        """Run simplex pivots (Bland's rule) until optimal or unbounded.

        Returns the status and the final denominator.  Ratios rhs/a are
        compared by cross-multiplication; all pivots here are positive.
        """
        while True:
            enter = next((j for j in range(ncols) if z[j] < 0), None)
            if enter is None:
                return OPTIMAL, d
            leave = None
            for i, row in enumerate(tableau):
                a = row[enter]
                if a > 0:
                    if leave is None:
                        leave, num, den = i, row[-1], a
                        continue
                    lhs, rhs = row[-1] * den, num * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave, num, den = i, row[-1], a
            if leave is None:
                return UNBOUNDED, d
            d = pivot(tableau, d, leave, enter, z)
            basis[leave] = enter

    @staticmethod
    def _drive_out_artificials(tableau, basis, total, d) -> int:
        """Pivot zero-valued artificial basics onto real columns; drop dead rows.

        A dead row's artificial column is a unit vector of the starting
        matrix, so deleting both keeps d the basis determinant and the later
        divisions exact.  Pivots here may be negative.
        """
        i = 0
        while i < len(tableau):
            if basis[i] >= total:
                row = tableau[i]
                col = next((j for j in range(total) if row[j] != 0), None)
                if col is None:
                    del tableau[i]
                    del basis[i]
                    continue
                d = pivot(tableau, d, i, col)
                basis[i] = col
            i += 1
        return d
