"""Exact-rational linear programming.

A two-phase simplex with Bland's anti-cycling rule, kept in dictionary form
(Chvatal 1983, "Linear Programming", ch. 2) on the fraction-free integer
kernel of `bicomplex.elim`.  Each constraint row is scaled to integers
once; the tableau is then integer rows T over one common denominator d > 0
(the true tableau is T/d), and every pivot divides exactly by the previous
d.  Reduced costs are integers on the scale s*d, with s > 0 the lcm of the
objective's denominators, so their signs, and with them Bland's choice of
entering variable and the cross-multiplied ratio test, are those of the
rational tableau.  Answers are certificate-grade `Fraction`s, never floats;
an optimal x is also handed over as integers over d (`LPResult.integer_x`).

The problem is the split standard form: each free variable x = u - v, then
one slack per <= row, then one artificial per row that has no usable slack.
Results (x, value and the `basis` labels) are indexed in it.  The tableau
stores only the right-hand side and the nonbasic columns, one slot each:

- A basic column is d times a unit vector, so it is never stored, and the
  slacks and artificials that start basic take no slot until they leave.
- The columns of u and v are each other's negatives, and so are their
  reduced costs, so a free variable has one signed slot.  A slot holding j
  is a Bland candidate as j when its reduced cost is negative, and as its
  partner when it is positive; the slot is negated first then.  While u is
  basic, v has reduced cost 0, is never a candidate and is not stored.
- A pivot on (r, c) is `elim.pivot`; then slot c takes the leaving
  variable, whose column the pivot maps to sign*d in row r and -sign*T[i][c]
  in every other row, with reduced cost -sign*z[c] (sign = -1 when row r
  was negated).

So the entering and leaving variables, the pivot sequence and every answer
are exactly those of a `Fraction` Gauss-Jordan tableau on the full standard
form.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from numbers import Rational
from typing import Optional, Sequence

from .elim import integer_row, pivot
from .errors import LPError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _exact(v) -> Rational:
    """v as an exact rational: ints and Fractions as they are, anything
    else (floats exactly) converted to Fraction."""
    return v if type(v) is int or type(v) is Fraction else Fraction(v)


class LPResult:
    """A solve's status, x, value, and the `basis` labels where it stopped:
    the basic columns of the internal standard form (free variables split
    in two, then slacks, then artificials).

    An optimal solve hands x over as integers X over its final denominator
    d > 0 (`integer_x`, x = X/d, not reduced); the list of `Fraction`s `x`
    is built from them when first read, so a caller that wants integers
    (or only the value) builds none.
    """

    __slots__ = ("status", "value", "basis", "integer_x", "_x")

    def __init__(self, status: str, x: Optional[list[Fraction]], value: Optional[Fraction],
                 basis: tuple[int, ...] = (),
                 integer_x: Optional[tuple[list[int], int]] = None):
        self.status, self.value, self.basis = status, value, basis
        self._x, self.integer_x = x, integer_x

    @property
    def x(self) -> Optional[list[Fraction]]:
        if self._x is None and self.integer_x is not None:
            X, d = self.integer_x
            self._x = [Fraction(v, d) for v in X]
        return self._x

    def __eq__(self, other) -> bool:
        if not isinstance(other, LPResult):
            return NotImplemented
        return ((self.status, self.x, self.value, self.basis)
                == (other.status, other.x, other.value, other.basis))

    def __repr__(self) -> str:
        return (f"LPResult(status={self.status!r}, x={self.x!r}, value={self.value!r}, "
                f"basis={self.basis!r})")

    def __bool__(self) -> bool:
        return self.status == OPTIMAL


class LinearProgram:
    """Builder for small exact LPs over free or nonnegative variables.

    Variables are free by default; pass ``nonneg=True`` (or a per-variable
    sequence) to constrain signs.  A free variable is split in two in the
    standard form and holds one signed slot in the tableau.
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
        self._rows: list[tuple[list[Rational], Rational, str]] = []
        self._c: Optional[list[Rational]] = None
        self._sense = 1  # +1 minimize, -1 maximize

    # -- construction ---------------------------------------------------

    def _coeffs(self, coeffs: Sequence) -> list[Rational]:
        """The coefficients as exact rationals, each as `_exact` gives it
        (inlined: it runs once per coefficient)."""
        if len(coeffs) != self.n:
            raise LPError("coefficient length mismatch")
        return [c if type(c) is int or type(c) is Fraction else Fraction(c) for c in coeffs]

    def add_le(self, coeffs: Sequence, rhs) -> None:
        self._rows.append((self._coeffs(coeffs), _exact(rhs), "le"))

    def add_ge(self, coeffs: Sequence, rhs) -> None:
        self._rows.append(([-c for c in self._coeffs(coeffs)], -_exact(rhs), "le"))

    def add_eq(self, coeffs: Sequence, rhs) -> None:
        self._rows.append((self._coeffs(coeffs), _exact(rhs), "eq"))

    def set_minimize(self, coeffs: Sequence) -> None:
        self._c = self._coeffs(coeffs)
        self._sense = 1

    def set_maximize(self, coeffs: Sequence) -> None:
        self._c = self._coeffs(coeffs)
        self._sense = -1

    # -- solution -------------------------------------------------------

    def solve(self) -> LPResult:
        c_user = self._c if self._c is not None else [0] * self.n

        # standard-form labels: a free var -> (u, v), a nonneg var -> one label
        col_of: list[tuple[int, Optional[int]]] = []
        partner: list[Optional[int]] = []  # the other half of a free pair
        for flag in self.nonneg:
            j = len(partner)
            if flag:
                col_of.append((j, None))
                partner.append(None)
            else:
                col_of.append((j, j + 1))
                partner += [j + 1, j]
        ncols = len(partner)
        total = ncols + sum(1 for _, _, kind in self._rows if kind == "le")

        # one slot per user variable; each row scaled to integers (same
        # feasible set) with a nonnegative right-hand side.  A slack starts
        # basic unless the row was negated, when its -1 takes a slot and an
        # artificial starts basic, as on every equality row.
        slots = [pos for pos, _ in col_of]
        tableau: list[list[int]] = []
        basis: list[int] = []
        art_rows: list[int] = []
        negated: list[tuple[int, int]] = []  # (row, its slack) holding a slot
        slack = ncols
        for coeffs, b, kind in self._rows:
            row = integer_row([*coeffs, b])
            flip = row[-1] < 0
            if flip:
                row = [-v for v in row]
            if kind == "le" and not flip:
                basis.append(slack)
            else:
                basis.append(total + len(art_rows))
                art_rows.append(len(tableau))
                if kind == "le":
                    negated.append((len(tableau), slack))
            if kind == "le":
                slack += 1
            tableau.append(row)
        if negated:
            slots += [s for _, s in negated]
            tableau = [row[:-1] + [-1 if i == r else 0 for r, _ in negated] + row[-1:]
                       for i, row in enumerate(tableau)]
        partner += [None] * (total + len(art_rows) - ncols)
        d = 1  # the true tableau is tableau / d

        if art_rows:
            # phase 1: minimize the sum of artificials
            z = [0] * (len(slots) + 1)
            for i in art_rows:
                z = [zj - tj for zj, tj in zip(z, tableau[i])]
            _, d = self._iterate(tableau, basis, slots, partner, z, d)
            if z[-1] != 0:  # the artificials' least sum is -z[-1]/d
                return LPResult(INFEASIBLE, None, None, tuple(basis))
            d = self._drive_out_artificials(tableau, basis, slots, partner, total, d)
            keep = [c for c, j in enumerate(slots) if j < total]
            if len(keep) < len(slots):
                tableau = [[row[c] for c in keep] + row[-1:] for row in tableau]
                slots = [slots[c] for c in keep]

        # phase 2: reduced costs scaled by s*d, s > 0 clearing c's denominators
        c_std: list[Rational] = [0] * total
        for i, c in enumerate(c_user):
            pos, neg = col_of[i]
            c_std[pos] += self._sense * c
            if neg is not None:
                c_std[neg] -= self._sense * c
        c_int = integer_row(c_std)
        z = [c_int[j] * d for j in slots] + [0]
        for i, row in enumerate(tableau):
            cb = c_int[basis[i]]
            if cb:
                z = [zj - cb * tj for zj, tj in zip(z, row)]
        status, d = self._iterate(tableau, basis, slots, partner, z, d)
        if status == UNBOUNDED:
            return LPResult(UNBOUNDED, None, None, tuple(basis))

        values = [0] * total  # times d
        for i, row in enumerate(tableau):
            values[basis[i]] = row[-1]
        X = [values[pos] - values[neg] if neg is not None else values[pos] for pos, neg in col_of]
        # z[-1] = -d * c_int . x_std, with c_int = s * c_std = s * sense * c_user
        scale = lcm(*(c.denominator for c in c_std))
        objective = Fraction(-self._sense * z[-1], scale * d)
        return LPResult(OPTIMAL, None, objective, tuple(basis), (X, d))

    @staticmethod
    def _iterate(tableau, basis, slots, partner, z, d) -> tuple[str, int]:
        """Run simplex pivots (Bland's rule) until optimal or unbounded.

        Returns the status and the final denominator.  The entering variable
        is the least label with a negative reduced cost: a slot's own label
        when z < 0, its partner's when z > 0, the slot negated first.
        Ratios rhs/a are compared by cross-multiplication, ties going to the
        least basic label; all pivots here are positive.
        """
        while True:
            enter = label = None
            for c, j in enumerate(slots):
                zc = z[c]
                if zc > 0:
                    j = partner[j]
                    if j is None:
                        continue
                elif zc == 0:
                    continue
                if label is None or j < label:
                    enter, label = c, j
            if enter is None:
                return OPTIMAL, d
            if label != slots[enter]:
                _negate(tableau, enter, z)
                slots[enter] = label
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
            d = _exchange(tableau, basis, slots, d, leave, enter, z)

    @staticmethod
    def _drive_out_artificials(tableau, basis, slots, partner, total, d) -> int:
        """Pivot zero-valued artificial basics onto real columns; drop dead rows.

        The column is the least real label with a nonzero entry (u, not v,
        for a free slot).  A dead row's artificial column is a unit vector
        of the starting matrix, so deleting both keeps d the basis
        determinant and the later divisions exact.  Pivots here may be
        negative.
        """
        i = 0
        while i < len(tableau):
            if basis[i] >= total:
                row = tableau[i]
                enter = label = None
                for c, j in enumerate(slots):
                    if j < total and row[c]:
                        k = partner[j]
                        if k is not None and k < j:
                            j = k
                        if label is None or j < label:
                            enter, label = c, j
                if enter is None:
                    del tableau[i]
                    del basis[i]
                    continue
                if label != slots[enter]:
                    _negate(tableau, enter)
                    slots[enter] = label
                d = _exchange(tableau, basis, slots, d, i, enter)
            i += 1
        return d


def _negate(tableau, c: int, z: Optional[list[int]] = None) -> None:
    """Negate slot c: it then holds the partner of its free variable."""
    for row in tableau:
        row[c] = -row[c]
    if z is not None:
        z[c] = -z[c]


def _exchange(tableau, basis, slots, d: int, r: int, c: int,
              z: Optional[list[int]] = None) -> int:
    """Pivot on (r, c) with `elim.pivot`, then give slot c the leaving variable.

    Its column was d times the unit vector e_r, so the pivot maps it to
    sign*d in row r, -sign*f_i in every other row and -sign*z_c in z, with
    f the entering column, z_c its reduced cost and sign = -1 when row r
    was negated.  Returns the new denominator.
    """
    sign = -1 if tableau[r][c] < 0 else 1
    column = [row[c] for row in tableau]
    zc = z[c] if z is not None else 0
    p = pivot(tableau, d, r, c, z)
    for row, f in zip(tableau, column):
        row[c] = -sign * f
    tableau[r][c] = sign * d
    if z is not None:
        z[c] = -sign * zc
    slots[c], basis[r] = basis[r], slots[c]
    return p
