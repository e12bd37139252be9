"""Reference implementations over `Fraction`, kept as test oracles.

These are the Gauss-Jordan routines the library used before its
fraction-free integer kernel (`bicomplex.elim`): the two-phase Bland
simplex, `solve_square`, `matrix_rank` and the 3-D branch of
`facet_enumeration`, copied unchanged except that the simplex also reports
its final basis.  The integer kernel must reproduce them exactly: same
statuses, solutions, bases and facet lists in the same order.

The gauges and the probe seeds of `extreme_points` are the per-query
`Fraction` code that ran before each polytope cached its gauge data and the
probes moved to integer coordinates: `gauge_hrep` is the closed form copied
verbatim as a function of the halfspaces, `gauge_vrep` the same LP on the
`Fraction` simplex, `probe_seeds` the lexicographic argmax over `Fraction`
points.  Values and their types must come out the same.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import inf, lcm
from typing import Iterable, Optional, Sequence

from bicomplex.backend import Real, rdiv, rlt
from bicomplex.errors import NotAbsorbingError
from bicomplex.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram, LPResult
from bicomplex.polytope import Halfspace, _dot, _frac_point, _primitive, _probe_forms


class FractionLinearProgram(LinearProgram):
    """The `Fraction` tableau simplex; construction is shared with the library."""

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

        rows: list[list[Fraction]] = []
        rhs: list[Fraction] = []
        slack_col = ncols
        slack_of_row: list[Optional[int]] = []
        for coeffs, b, kind in self._rows:
            # scale the row to integers: same feasible set, smaller pivots
            scale = lcm(b.denominator, *(c.denominator for c in coeffs))
            if scale != 1:
                coeffs = [c * scale for c in coeffs]
                b = b * scale
            row = [Fraction(0)] * total
            for i, c in enumerate(coeffs):
                pos, neg = col_of[i]
                row[pos] += c
                if neg is not None:
                    row[neg] -= c
            if kind == "le":
                row[slack_col] = Fraction(1)
                slack_of_row.append(slack_col)
                slack_col += 1
            else:
                slack_of_row.append(None)
            rows.append(row)
            rhs.append(b)

        # make rhs nonnegative
        for i in range(len(rows)):
            if rhs[i] < 0:
                rows[i] = [-v for v in rows[i]]
                rhs[i] = -rhs[i]
                if slack_of_row[i] is not None:
                    slack_of_row[i] = None  # slack coefficient now -1, unusable as basis

        # initial basis: slacks where possible, artificials elsewhere
        basis: list[int] = []
        art_cols: list[int] = []
        for i, row in enumerate(rows):
            sc = slack_of_row[i]
            if sc is not None and row[sc] == 1:
                basis.append(sc)
            else:
                art = total + len(art_cols)
                art_cols.append(art)
                basis.append(art)
        full = total + len(art_cols)
        for i, row in enumerate(rows):
            row.extend([Fraction(0)] * len(art_cols))
            if basis[i] >= total:
                row[basis[i]] = Fraction(1)

        tableau = [row + [rhs[i]] for i, row in enumerate(rows)]
        m = len(tableau)

        if art_cols:
            # phase 1: minimize the sum of artificials
            z = [Fraction(0)] * (full + 1)
            for j in art_cols:
                z[j] = Fraction(1)
            for i in range(m):
                if basis[i] >= total:
                    z = [zj - tj for zj, tj in zip(z, tableau[i])]
            self._iterate(tableau, basis, z, full)
            phase1 = -z[-1]
            if phase1 != 0:
                return LPResult(INFEASIBLE, None, None, tuple(basis))
            self._drive_out_artificials(tableau, basis, total)
            # drop artificial columns
            keep = list(range(total)) + [full]
            tableau[:] = [[row[j] for j in keep] for row in tableau]
            m = len(tableau)
            full = total

        # phase 2
        c_std = [Fraction(0)] * total
        for i, c in enumerate(c_user):
            pos, neg = col_of[i]
            c_std[pos] += self._sense * c
            if neg is not None:
                c_std[neg] -= self._sense * c
        z = list(c_std) + [Fraction(0)]
        for i in range(m):
            if z[basis[i]] != 0:
                coeff = z[basis[i]]
                z = [zj - coeff * tj for zj, tj in zip(z, tableau[i])]
        status = self._iterate(tableau, basis, z, full)
        if status == UNBOUNDED:
            return LPResult(UNBOUNDED, None, None, tuple(basis))

        values = [Fraction(0)] * total
        for i in range(m):
            if basis[i] < total:
                values[basis[i]] = tableau[i][-1]
        x = []
        for pos, neg in col_of:
            v = values[pos]
            if neg is not None:
                v -= values[neg]
            x.append(v)
        objective = sum(c * v for c, v in zip(c_user, x))
        return LPResult(OPTIMAL, x, objective, tuple(basis))

    @staticmethod
    def _iterate(tableau, basis, z, ncols) -> str:
        """Run simplex pivots (Bland's rule) until optimal or unbounded."""
        m = len(tableau)
        while True:
            enter = next((j for j in range(ncols) if z[j] < 0), None)
            if enter is None:
                return OPTIMAL
            leave, best = None, None
            for i in range(m):
                a = tableau[i][enter]
                if a > 0:
                    ratio = tableau[i][-1] / a
                    if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]
                    ):
                        best, leave = ratio, i
            if leave is None:
                return UNBOUNDED
            FractionLinearProgram._pivot(tableau, basis, z, leave, enter)

    @staticmethod
    def _pivot(tableau, basis, z, r, c) -> None:
        piv = tableau[r][c]
        tableau[r] = [v / piv if v else v for v in tableau[r]]
        row_r = tableau[r]
        for i in range(len(tableau)):
            if i != r and tableau[i][c] != 0:
                f = tableau[i][c]
                tableau[i] = [v - f * w if w else v for v, w in zip(tableau[i], row_r)]
        if z[c] != 0:
            f = z[c]
            z[:] = [v - f * w if w else v for v, w in zip(z, row_r)]
        basis[r] = c

    @staticmethod
    def _drive_out_artificials(tableau, basis, total) -> None:
        """Pivot zero-valued artificial basics onto real columns; drop dead rows."""
        i = 0
        while i < len(tableau):
            if basis[i] >= total:
                col = next((j for j in range(total) if tableau[i][j] != 0), None)
                if col is None:
                    del tableau[i]
                    del basis[i]
                    continue
                dummy = [Fraction(0)] * len(tableau[i])
                FractionLinearProgram._pivot(tableau, basis, dummy, i, col)
            i += 1


def solve_square(A: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> Optional[list[Fraction]]:
    """Solve A x = b exactly; None when A is singular."""
    n = len(b)
    M = [[Fraction(v) for v in row] + [Fraction(rhs)] for row, rhs in zip(A, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        inv = M[col][col]
        M[col] = [v / inv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [v - f * w for v, w in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


def matrix_rank(rows: Iterable[Sequence[Fraction]]) -> int:
    work = [list(map(Fraction, r)) for r in rows]
    rank, col = 0, 0
    ncols = len(work[0]) if work else 0
    while rank < len(work) and col < ncols:
        piv = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if piv is None:
            col += 1
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = work[rank][col]
        work[rank] = [v / inv for v in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                f = work[r][col]
                work[r] = [v - f * w for v, w in zip(work[r], work[rank])]
        rank += 1
        col += 1
    return rank


def facet_enumeration_3d(vertices) -> list[Halfspace]:
    """Facets of a full-dimensional 3-D polytope by the `Fraction` triple scan."""
    verts = [_frac_point(v) for v in vertices]
    faces: dict[tuple, Halfspace] = {}
    for i, j, k in combinations(range(len(verts)), 3):
        p, q, r = verts[i], verts[j], verts[k]
        u = [q[c] - p[c] for c in range(3)]
        w = [r[c] - p[c] for c in range(3)]
        n = (
            u[1] * w[2] - u[2] * w[1],
            u[2] * w[0] - u[0] * w[2],
            u[0] * w[1] - u[1] * w[0],
        )
        if n == (0, 0, 0):
            continue
        d = _dot(n, p)
        side_le = all(_dot(n, v) <= d for v in verts)
        side_ge = all(_dot(n, v) >= d for v in verts)
        if side_le:
            a = _primitive([Fraction(x) for x in n])
            key = (a, Fraction(_dot(a, p)))
            faces.setdefault(key, Halfspace(tuple(Fraction(v) for v in a), key[1]))
        if side_ge:
            a = _primitive([Fraction(-x) for x in n])
            key = (a, Fraction(_dot(a, p)))
            faces.setdefault(key, Halfspace(tuple(Fraction(v) for v in a), key[1]))
    return list(faces.values())


def gauge_hrep(halfspaces: Sequence[Halfspace], point: Sequence[Real]) -> Real:
    """Closed-form gauge max(0, max_i (a_i·x)/b_i); needs all b_i > 0."""
    best: Real = 0
    for h in halfspaces:
        if not rlt(0, h.b):
            raise NotAbsorbingError("gauge formula requires 0 in the interior")
        val = rdiv(_dot(h.a, point), h.b)
        if val > best:
            best = val
    return best


def gauge_vrep(vertices, point: Sequence[Real]) -> Real:
    """Gauge by LP: min sum(mu) with sum(mu_i v_i) = x, mu >= 0."""
    verts = [_frac_point(v) for v in vertices]
    p = _frac_point(point)
    lp = FractionLinearProgram(len(verts), nonneg=True)
    for c in range(len(p)):
        lp.add_eq([v[c] for v in verts], p[c])
    lp.set_minimize([1] * len(verts))
    res = lp.solve()
    if res.status != OPTIMAL:
        return inf
    return res.value


def probe_seeds(points) -> list[tuple[Fraction, ...]]:
    """The hull seeds of `extreme_points` (dim >= 3): each probe form's
    lexicographically largest maximizer over the unique `Fraction` points."""
    unique: list[tuple[Fraction, ...]] = []
    for p in map(_frac_point, points):
        if p not in unique:
            unique.append(p)
    seeds: list[tuple[Fraction, ...]] = []
    for form in _probe_forms(len(unique[0])):
        p = max(unique, key=lambda q: (_dot(form, q), q))
        if p not in seeds:
            seeds.append(p)
    return seeds
