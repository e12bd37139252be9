"""Reference implementations over `Fraction`, kept as test oracles.

These are the Gauss-Jordan routines the library used before its
fraction-free integer kernel (`bicomplex.elim`): the two-phase Bland
simplex, `solve_square`, `matrix_rank` and the 3-D branch of
`facet_enumeration`, copied unchanged except that the simplex also reports
its final basis.  The integer kernel must reproduce them exactly: same
statuses, solutions, bases and facet lists in the same order.

`facet_enumeration` and `vertex_enumeration` are the V↔H conversions of
dimensions 1-3 that one double-description routine replaced:
`facet_enumeration` copies the refusals (with the rank test on `Fraction`
points), the 1-D and 2-D branches and `_primitive` verbatim and ends in the
triple scan `facet_enumeration_3d`; `vertex_enumeration` is copied
verbatim, on this module's `solve_square`, and ends in
`hull_extreme_points` below, not in the library's hull.  Facets and vertices must come out in the same order with
the same types, or the same exception must be raised.

The gauges and the probe seeds of `extreme_points` are the per-query
`Fraction` code that ran before each polytope cached its gauge data and the
probes moved to integer coordinates: `gauge_hrep` is the closed form copied
verbatim as a function of the halfspaces, `gauge_vrep` the same LP on the
`Fraction` simplex, `probe_seeds` the lexicographic argmax over `Fraction`
points.  Values and their types must come out the same.  `extreme_points`
is the hull test of dimension >= 3 as it ran before its membership LPs
moved to integer coordinates (`point_in_hull` on `Fraction` points, on the
`Fraction` simplex): same points in the same order.

`hull_extreme_points` and `origin_interior` are the hull tests that the
double description replaced.  `hull_extreme_points` copies the old
deduplication, 1-D branch and 2-D monotone chain (`_convex_hull_2d`, which
the 2-D facet reference also uses) verbatim and ends in `extreme_points`;
`origin_interior` copies the vertex-list absorbency LP verbatim.  Points
must come out in the same order with the same types, and the same answer.

The gauge epigraph is the H-rep formulation the extension LPs of
`bicomplex.analysis` used before they moved to the V-rep epigraph: `_faces`,
`_max_over_body` and `_extension_interval` copied verbatim, and
`extend_dominated` with its `_extend_component` and `_complete_basis`
copied unchanged except that the shared helpers are imported from the
library.  It is the one-real-dimension-at-a-time chain that one LP per
component over the polar of the gauge body replaced, kept as an oracle for
the domination decision: `_max_over_body` on the faces is the largest value
of g on Y inside B, so both raise `DominationError` on the same inputs.

The complex path is the `Fraction`-over-`ComplexScalar` Gauss-Jordan code
that ran before complex ranks, inverses and graph solves moved to the
integer kernel through the real embedding: `_rref`, `complex_rank`,
`complex_solve`, `complex_invert` and `map_from_graph` copied verbatim.
`_overlap_witness`, `_hyperplane_disjoint_or_raise` and the LP of
`variety_extend_hyperplane` (as `variety_disjoint_or_raise`) are the three
hand-built disjointness LPs that a slack-LP helper once replaced, copied
verbatim.  Ranks, inverses, graph maps, error messages and every
raise-or-not decision must come out the same.  Separation and the variety
no longer run a disjointness LP (their extension LPs over the polar
decide), and `hyperplane_gauge_bound` no LP at all (one maximum of f per
component decides), so the three are the oracles for their decisions and
components only; their witnesses are checked exactly instead.

`VertexEpigraph` and `DifferenceEpigraph` are the two column epigraphs that
`polytope.GaugeBody` replaced, `RealPolytope.gauge_lp` and
`convex.DifferenceBody.gauge_lp` with the columns they read, copied
verbatim: the body's LPs must have the same rows and solve to the same
`LPResult`.  `sampled_gauge_bound` is the check `hyperplane_gauge_bound` ran
before it certified by `form_max` (B's vertices and a grid, against the
closed-form gauge), copied verbatim: both must accept or reject the same
(B, f) pairs.

`centroid` and `FractionGaugeBody` are the point groups as `Fraction`
tuples, before each `GaugeBody` group became integer rows over one
denominator: `convex._centroid`, the groups `RealPolytope.gauge_body` and
`DifferenceBody.__init__` built, and `GaugeBody.polar_max`,
`group_maxima`, `form_argmax` and `form_max` copied verbatim.  Values,
types and reprs must come out the same, and so must every polar-LP result.

`_dot` is the sum of products `bicomplex.polytope` used before every dot
product went through `backend.rdot`, copied verbatim for the references
above that call it.

`is_exact`, `req`, `rle`, `rlt`, `rsqrt`, `complex_mul` (the body of
`ComplexScalar.__mul__`) and `complex_abs2` (of `ComplexScalar.abs2`) are
the scalar kernel before its exact fast path, copied verbatim: it went
through `Fraction`'s operators for every exact operand.  Values, types and
reprs must come out the same, and so must raised errors.  This module's
other references use this `rlt`, not the library's.

The sums of products are the loops of `bicomplex.linear` and
`bicomplex.metric` before the exact dot kernel, copied verbatim as
functions of the object they were methods of: `eval_d`,
`bc_functional_call` (`BCLinearFunctional.__call__`),
`hyperbolic_functional_call` (`HyperbolicFunctional.__call__`),
`bc_map_call` (`BCLinearMap.__call__`), `eval_component`,
`functional_dbound`, `dmetric` and `dmetric_bc`, with `rdiv` as it was
before it built its quotient as one `Fraction`.  They run on the library's
scalar operators, one ring operation per term.  Values, types, reprs and
float bits must come out the same, and so must raised errors.  This
module's other references use this `rdiv`, not the library's.

The separation glue is the `Fraction` code that ran around the polar LP
before it moved to integer rows over one denominator:
`polar_extend_dominated` and `_polar_extend_component`
(`analysis.extend_dominated` and `_extend_component`),
`PolarDifferenceBody` with `meeting_points` (`convex.DifferenceBody`),
`integer_centroid` and `polar_difference_body` (`convex._centroid` and
`difference_body`) and `polar_separate_hyperbolic`
(`analysis.separate_hyperbolic`).  Their bodies are copied verbatim, on
this module's names (`matrix_rank` is this module's `Fraction` rank); only
the names and docstrings differ.  They still read the library's
`GaugeBody`: its polar LP, least-gauge LP and `group_maxima` are the parts
that did not change.  Results must be equal in value and type, and raised
errors in type, message and component.

`_parse_fraction`, `as_real`, `decode_real`, `_real` and `decode_polytope`
are the wire decoders before every number was read into a reduced integer
pair and a set into integer rows, copied verbatim: one `Fraction` (or
float) per coordinate, and a set built by `RealPolytope.from_vertices` or
`from_halfspaces`.  Values, types, reprs and every `SchemaError` message
must come out the same.
`_expect_dict`, `_expect_list`, `_decode_entries` and the decoders of
scalars, vectors, functionals, maps, rectangles, covers and sets
(`decode_dconvex`) are the serializers that built every path hint eagerly,
an f-string per entry, before hints were joined only to raise; copied
verbatim, on this module's `_real` and `decode_polytope`.  Values, types, reprs and every `SchemaError` message must come
out the same.

`_cone_rays` and `_primitive_ray` are the double description as it ran
before planar point sets took their facets from the hull's cyclic order
(`polytope._facet_rays`) and before it skipped the rows of its start cone,
copied verbatim.  `_facet_rays` must give the same set of (ray, mask)
pairs on planar points, and the library's `_cone_rays` the same rays,
masks and ray order on every cone.

`gauge_lp` is `GaugeBody.gauge_lp` before it handed its rows over as
integers, copied verbatim.  The gauge LP's rows must be the same once the
simplex scales them to integers, and every solve the same `LPResult`.
The extension LP that the closed form on the line and in the plane
replaced is `_polar_extend_component` above, on the library's unchanged
`polar_max`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from itertools import combinations, product
from math import gcd, inf, lcm
from operator import mul
from typing import Iterable, Optional, Sequence

from bicomplex import elim
from bicomplex.analysis import DHyperplane, SeparationCertificate
from bicomplex.backend import EPSILON, EXACT, FLOAT, Real, rdot
from bicomplex.convex import DConvexSet, is_dabsorbing
from bicomplex.errors import (
    BicomplexError,
    DegenerateBasisError,
    DimensionMismatch,
    DominationError,
    EmptyInteriorError,
    EmptySetError,
    LPUnboundedError,
    NotAbsorbingError,
    NotAGraphError,
    NotDisjointError,
    NotOpenError,
    SchemaError,
)
from bicomplex.linear import BCLinearFunctional, BCLinearMap, DLinearFunctional
from bicomplex.metric import RectSet
from bicomplex.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram, LPResult
from bicomplex.order import le
from bicomplex.polytope import (
    GaugeBody,
    Halfspace,
    Point,
    RealPolytope,
    _frac_point,
    _probe_forms,
    affine_rank,
    integer_affine_rank,
    integer_point,
    matrix_rank,
)
from bicomplex.scalars import BicomplexScalar, ComplexScalar, HyperbolicScalar, _as_complex
from bicomplex.vectors import BCVector, DVector


def _dot(a: Sequence[Real], b: Sequence[Real]) -> Real:
    return sum(x * y for x, y in zip(a, b))


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


def _primitive(vals: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector (same direction)."""
    denoms = [v.denominator for v in vals]
    scale = 1
    for d in denoms:
        scale = scale * d // gcd(scale, d)
    ints = [int(v * scale) for v in vals]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints)


def facet_enumeration(vertices, dim: int) -> list[Halfspace]:
    """Facets of a full-dimensional polytope from its points (dim <= 3): the
    refusals, then the 1-D and 2-D branches, then the 3-D triple scan."""
    if not vertices:
        raise EmptySetError("no vertices")
    if dim > 3:
        raise DimensionMismatch("V->H conversion supports dim <= 3 only")
    pts = [_frac_point(v) for v in vertices]
    if matrix_rank([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]) < dim:
        raise DimensionMismatch("V->H conversion needs a full-dimensional polytope")

    if dim == 1:
        xs = [Fraction(v[0]) for v in vertices]
        return [Halfspace((Fraction(1),), max(xs)), Halfspace((Fraction(-1),), -min(xs))]

    if dim == 2:
        hull = _convex_hull_2d([_frac_point(v) for v in vertices])
        faces = []
        for t in range(len(hull)):
            p, q = hull[t], hull[(t + 1) % len(hull)]
            d = (q[0] - p[0], q[1] - p[1])
            a = (d[1], -d[0])  # outward normal for a CCW hull
            n = _primitive(a)
            faces.append(Halfspace(tuple(Fraction(v) for v in n), _dot(n, p)))
        return faces

    return facet_enumeration_3d(vertices)


def vertex_enumeration(halfspaces: Sequence[Halfspace], dim: int) -> list[tuple[Fraction, ...]]:
    """Vertices of a bounded H-rep polytope (dim <= 3), ignoring strict flags."""
    if dim > 3:
        raise DimensionMismatch("H->V conversion supports dim <= 3 only")
    faces = [(tuple(Fraction(x) for x in h.a), Fraction(h.b)) for h in halfspaces]

    for c in range(dim):
        for sign in (1, -1):
            lp = LinearProgram(dim)
            for a, b in faces:
                lp.add_le(a, b)
            obj = [0] * dim
            obj[c] = sign
            lp.set_maximize(obj)
            if lp.solve().status == UNBOUNDED:
                raise LPUnboundedError("polytope is unbounded")

    def feasible(p):
        return all(_dot(a, p) <= b for a, b in faces)

    candidates: set[tuple[Fraction, ...]] = set()
    for combo in combinations(faces, dim):
        A = [list(a) for a, _ in combo]
        b = [b for _, b in combo]
        x = solve_square(A, b)
        if x is not None and feasible(x):
            candidates.add(tuple(x))
    if not candidates:
        raise EmptySetError("empty polytope")
    return hull_extreme_points(sorted(candidates))


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


def _convex_hull_2d(points: Sequence[Point]) -> list[Point]:
    """Monotone chain; returns hull vertices counter-clockwise."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return list(pts)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def hull_extreme_points(points) -> list[tuple[Fraction, ...]]:
    """`extreme_points` in every dimension as it ran before the double
    description: the deduplication, the 1-D branch and the 2-D monotone
    chain, then the dimension >= 3 branch below."""
    unique: list[Point] = []
    seen = set()
    for p in points:
        fp = _frac_point(p)
        if fp not in seen:
            seen.add(fp)
            unique.append(fp)
    if not unique:
        return []
    dim = len(unique[0])
    if len(unique) == 1:
        return unique

    if dim == 1:
        lo = min(unique)
        hi = max(unique)
        return [lo, hi] if lo != hi else [lo]

    if dim == 2:
        return _convex_hull_2d(unique)

    return extreme_points(unique)


def origin_interior(vertices, dim: int) -> bool:
    """Whether 0 is interior to the hull of a vertex list, by the LP the
    library ran before the double description."""
    verts = [_frac_point(v) for v in vertices]
    if affine_rank(verts) < dim:
        return False
    # 0 is interior iff no nonzero w satisfies w·v <= 0 for all vertices
    lp = LinearProgram(dim)
    total = [Fraction(0)] * dim
    for v in verts:
        lp.add_le(v, 0)
        total = [t + x for t, x in zip(total, v)]
    for c in range(dim):
        e = [0] * dim
        e[c] = 1
        lp.add_le(e, 1)
        e[c] = -1
        lp.add_le(e, 1)
    lp.set_minimize(total)  # minimize sum of w·v over vertices
    res = lp.solve()
    return res.status == OPTIMAL and res.value == 0


def point_in_hull(point, vertices) -> bool:
    """Exact membership of a point in the convex hull of finitely many points."""
    if not vertices:
        return False
    p = _frac_point(point)
    verts = [_frac_point(v) for v in vertices]
    dim = len(p)
    lp = FractionLinearProgram(len(verts), nonneg=True)
    for c in range(dim):
        lp.add_eq([v[c] for v in verts], p[c])
    lp.add_eq([1] * len(verts), 1)
    return lp.solve().status == OPTIMAL


def extreme_points(points) -> list[tuple[Fraction, ...]]:
    """The dimension >= 3 branch of `extreme_points`: probe seeds, then
    membership LPs against the seeds and against the reduced pool."""
    seeds = probe_seeds(points)
    seed_set = set(seeds)
    unique: list[tuple[Fraction, ...]] = []
    for p in map(_frac_point, points):
        if p not in unique:
            unique.append(p)
    survivors = [
        p for p in unique
        if p not in seed_set and not point_in_hull(p, seeds)
    ]
    pool = seeds + survivors
    keep = list(seeds)
    for p in survivors:
        others = [q for q in pool if q != p]
        if not point_in_hull(p, others):
            keep.append(p)
    return keep


# -- the H-rep gauge epigraph --------------------------------------------------


def _faces(P: RealPolytope) -> list[tuple[tuple[Fraction, ...], Fraction]]:
    """H-rep faces as exact (a, b) pairs (strictness is irrelevant to gauges)."""
    return [
        (tuple(Fraction(c) for c in hs.a), Fraction(hs.b))
        for hs in P.halfspaces()
    ]


def _max_over_body(
    faces: Sequence[tuple[tuple[Fraction, ...], Fraction]],
    span: Sequence[Sequence[Real]],
    objective: Sequence[Real],
) -> Optional[Fraction]:
    """max sum_i s_i*objective_i over {sum s_i u_i in the gauge body}.

    None signals an unbounded value (a recession direction with positive
    objective), which can only happen for unbounded bodies.
    """
    p = len(span)
    if p == 0:
        return Fraction(0)
    lp = LinearProgram(p)
    for a, b in faces:
        lp.add_le([sum(Fraction(c) * Fraction(u) for c, u in zip(a, vec)) for vec in span], b)
    lp.set_maximize(objective)
    res = lp.solve()
    if res.status == UNBOUNDED:
        return None
    if not res:
        raise BicomplexError("gauge body LP unexpectedly infeasible")
    return res.value


def _extension_interval(
    faces: Sequence[tuple[tuple[Fraction, ...], Fraction]],
    span: Sequence[Sequence[Fraction]],
    vals: Sequence[Fraction],
    xhat: Sequence[Fraction],
) -> tuple[Fraction, Fraction]:
    """The admissible value interval [lo, hi] for the next extension step.

    lo = sup_y g(y) - q(y - xhat),  hi = inf_y q(y + xhat) - g(y)
    over the current subspace; both are exact LPs with the epigraph variable t
    standing for the H-rep gauge max(0, max_i a_i.y / b_i).
    """
    p = len(span)

    def face_row(sign: int) -> LinearProgram:
        lp = LinearProgram(p + 1)
        for a, b in faces:
            row = [
                sum(c * u for c, u in zip(a, vec))
                for vec in span
            ]
            shift = sum(c * v for c, v in zip(a, xhat))
            # a.(y + sign*xhat) <= t*b
            lp.add_le(row + [-b], -sign * shift)
        lp.add_ge([0] * p + [1], 0)
        return lp

    lo_lp = face_row(-1)
    lo_lp.set_maximize(list(vals) + [-1])
    lo_res = lo_lp.solve()
    hi_lp = face_row(+1)
    hi_lp.set_minimize([-v for v in vals] + [1])
    hi_res = hi_lp.solve()
    if not lo_res or not hi_res:
        raise BicomplexError("extension interval LP failed")
    return lo_res.value, hi_res.value


def _complete_basis(span: list[list[Fraction]], n: int) -> list[int]:
    """Indices of standard basis vectors that extend span to all of R^n."""
    added = []
    current = [list(v) for v in span]
    rank = matrix_rank(current)
    for m in range(n):
        unit = [Fraction(0)] * n
        unit[m] = Fraction(1)
        if matrix_rank(current + [unit]) > rank:
            current.append(unit)
            added.append(m)
            rank += 1
        if rank == n:
            break
    return added


def _extend_component(
    faces: Sequence[tuple[tuple[Fraction, ...], Fraction]],
    basis: list[list[Fraction]],
    vals: list[Fraction],
    n: int,
    interp: Fraction,
) -> list[Fraction]:
    """One-dimension-at-a-time extension for a single component.

    Returns the coefficient vector of the extended functional on R^n.
    """
    span = [list(v) for v in basis]
    values = list(vals)
    for m in _complete_basis(span, n):
        xhat = [Fraction(0)] * n
        xhat[m] = Fraction(1)
        lo, hi = _extension_interval(faces, span, values, xhat)
        if lo > hi:
            raise BicomplexError("empty extension interval; domination was violated")
        span.append(xhat)
        values.append(lo + interp * (hi - lo))
    coeff = solve_square(span, values)
    if coeff is None:
        raise BicomplexError("extension basis became singular")
    return coeff


def extend_dominated(
    g: DLinearFunctional,
    basisY: Sequence[DVector],
    B: DConvexSet,
    interp: Fraction = Fraction(1, 2),
) -> DLinearFunctional:
    """Extend g from span(basisY) to the whole space under the gauge of B."""
    n = B.dim
    if g.dim != n or any(u.dim != n for u in basisY):
        raise DimensionMismatch("ambient dimensions disagree")
    if not is_dabsorbing(B):
        raise NotAbsorbingError("extension gauge needs an absorbing set")
    if not Fraction(0) <= interp <= Fraction(1):
        raise ValueError("interp must lie in [0, 1]")
    out: list[list[Fraction]] = []
    for l in (1, 2):
        span = [[Fraction(c) for c in u.part(l)] for u in basisY]
        if span and matrix_rank(span) < len(span):
            raise DegenerateBasisError(f"dependent basis in component {l}")
        coeffs = [Fraction(c) for c in g.component(l)]
        vals = [sum(c * u for c, u in zip(coeffs, vec)) for vec in span]
        faces = _faces(B.component(l))
        bound = _max_over_body(faces, span, vals)
        if bound is None or bound > 1:
            raise DominationError(f"g exceeds the gauge on Y in component {l}")
        full = _extend_component(faces, span, vals, n, interp)
        check = _max_over_body(faces, [[Fraction(1) if i == m else Fraction(0) for i in range(n)] for m in range(n)],
                               full)
        if check is None or check > 1:
            raise BicomplexError("extension failed its global gauge certificate")
        out.append(full)
    return DLinearFunctional.from_parts(out[0], out[1])


# -- the two column epigraphs and the sampled hyperplane bound -------------------


class VertexEpigraph:
    """`RealPolytope`'s V-rep gauge epigraph: `_vertex_columns` and
    `gauge_lp` copied verbatim, on the vertices of P."""

    def __init__(self, P: RealPolytope):
        self.dim = P.dim
        self._P = P
        self._gauge_columns: Optional[list[list[Fraction]]] = None

    def vertices(self):
        return self._P.vertices()

    def _vertex_columns(self) -> list[list[Fraction]]:
        if self._gauge_columns is None:
            verts = [_frac_point(v) for v in self.vertices()]
            self._gauge_columns = [[v[c] for v in verts] for c in range(self.dim)]
        return self._gauge_columns

    def gauge_lp(self, span: Sequence[Sequence[Real]], shift: Sequence[Real]) -> LinearProgram:
        columns = self._vertex_columns()
        p, k = len(span), len(columns[0])
        lp = LinearProgram(p + k, nonneg=[False] * p + [True] * k)
        for c, column in enumerate(columns):
            lp.add_eq([-u[c] for u in span] + column, shift[c])
        return lp


class DifferenceEpigraph:
    """`convex.DifferenceBody`'s epigraph of G = A_l - B_l + x0_l: its
    constructor (without the dimension check) and `gauge_lp` copied verbatim."""

    def __init__(self, A_l: RealPolytope, B_l: RealPolytope, x0_l: Sequence[Real]):
        self.dim = A_l.dim
        shift = [Fraction(x) for x in x0_l]
        self._x0 = shift
        self._a = [[Fraction(x) for x in v] for v in A_l.vertices()]
        self._b = [[Fraction(x) for x in v] for v in B_l.vertices()]
        self._columns = [[a[c] + shift[c] for a in self._a] + [-b[c] for b in self._b]
                         for c in range(self.dim)]
        self._weights = [1] * len(self._a) + [0] * len(self._b)
        self._balance = [1] * len(self._a) + [-1] * len(self._b)

    def gauge_lp(self, span: Sequence[Sequence[Real]], shift: Sequence[Real]) -> LinearProgram:
        p, k = len(span), len(self._weights)
        lp = LinearProgram(p + k, nonneg=[False] * p + [True] * k)
        for c, column in enumerate(self._columns):
            lp.add_eq([-u[c] for u in span] + column, shift[c])
        lp.add_eq([0] * p + self._balance, 0)
        return lp


def centroid(P: RealPolytope) -> tuple[Fraction, ...]:
    """`convex._centroid` on `Fraction` sums, copied verbatim."""
    verts = P.vertices()
    k = Fraction(len(verts))
    return tuple(sum(Fraction(v[i]) for v in verts) / k for i in range(len(verts[0])))


class FractionGaugeBody:
    """`polytope.GaugeBody` on `Fraction` point groups: its groups,
    `polar_max`, `group_maxima`, `form_argmax` and `form_max` copied
    verbatim, and the groups `RealPolytope.gauge_body` (`of_polytope`) and
    `convex.DifferenceBody.__init__` (`difference`) built."""

    def __init__(self, first: Sequence[Sequence[Fraction]],
                 second: Sequence[Sequence[Fraction]] = ()):
        self.dim = len(first[0])
        self._groups = (first, second) if second else (first,)

    @classmethod
    def of_polytope(cls, P: RealPolytope) -> FractionGaugeBody:
        return cls([_frac_point(v) for v in P.vertices()])

    @classmethod
    def difference(cls, A_l: RealPolytope, B_l: RealPolytope,
                   x0_l: Sequence[Real]) -> FractionGaugeBody:
        shift = [Fraction(x) for x in x0_l]
        return cls([[Fraction(x) + s for x, s in zip(a, shift)] for a in A_l.vertices()],
                   [[-Fraction(x) for x in b] for b in B_l.vertices()])

    def polar_max(self, span: Sequence[Sequence[Fraction]],
                  values: Sequence[Fraction]) -> LPResult:
        """max s over the f with f.u_j = s*values_j on the span and f <= 1 on the body.

        f <= 1 on the body is f in its polar: the sum over the groups of the
        largest value of f at a point of the group is at most 1.  For two
        groups a free beta splits that bound, f.p + beta <= 1 at each point p
        of the first group and f.q - beta <= 0 at each q of the second; one
        group needs no beta, f.p <= 1.  Variables are f (free, one per
        coordinate), s (free), then beta.  By LP duality s* is 1 over the
        maximum, over the points sum_j c_j u_j of the body, of sum_j c_j
        values_j.  The LP is unbounded exactly when every value is 0: f = 0
        with any s is feasible then, and a ray of the LP keeps f <= 0 on an
        absorbing body, so its f is 0 and s*values_j = 0.
        """
        n, two = self.dim, len(self._groups) == 2
        lp = LinearProgram(n + 1 + two)
        for u, v in zip(span, values):
            lp.add_eq([*u, -v] + [0] * two, 0)
        for group, rhs, sign in zip(self._groups, (1, 0), (1, -1)):
            for p in group:
                lp.add_le([*p, 0] + [sign] * two, rhs)
        lp.set_maximize([0] * n + [1] + [0] * two)
        return lp.solve()

    def group_maxima(self, coeffs: Sequence[Fraction]) -> list[Fraction]:
        """The largest value of an exact linear form at a point of each group."""
        return [max(rdot(coeffs, p) for p in group) for group in self._groups]

    def form_argmax(self, coeffs: Sequence[Fraction]) -> tuple[Fraction, Sequence[Fraction]]:
        """The maximum of an exact linear form over a one-group body (a
        polytope's vertices) and the first point that attains it."""
        points = self._groups[0]
        values = [rdot(coeffs, p) for p in points]
        top = max(values)
        return top, points[values.index(top)]

    def form_max(self, coeffs: Sequence[Fraction]) -> Fraction:
        """The maximum of an exact linear form over the body: its group maxima summed."""
        return sum(self.group_maxima(coeffs))


def _grid_points(dim: int) -> list[tuple[Fraction, ...]]:
    levels = [Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1)]
    if dim >= 3:
        levels = [Fraction(-1), Fraction(0), Fraction(1)]
    return [tuple(p) for p in product(levels, repeat=dim)]


def sampled_gauge_bound(B: DConvexSet, f: DLinearFunctional) -> DLinearFunctional:
    """The check `hyperplane_gauge_bound` ran after its disjointness LP, copied
    verbatim: -q_B(-x) <=' f(x) <=' q_B(x) at B's vertices and on a grid, then
    B inside {f <' 1} (weak at the closure vertices when B is open)."""
    n = B.dim
    for l in (1, 2):
        P = B.component(l)
        samples = list(P.vertices()) + _grid_points(n)
        for v in samples:
            fv = f.eval_component(l, v)
            q_plus = P.gauge(v)
            q_minus = P.gauge([-c for c in v])
            if not (-q_minus <= fv <= q_plus):
                raise BicomplexError("gauge bound check failed; construction is wrong")
        for v in P.vertices():
            fv = f.eval_component(l, v)
            if B.open:
                if fv > 1:
                    raise BicomplexError("open set escapes the unit level")
            elif fv >= 1:
                raise BicomplexError("closed set touches its separating hyperplane")
    return f


# -- the complex Gauss-Jordan path and the disjointness LPs ---------------------


def _rref(mat: list[list[ComplexScalar]], width: int) -> list[int]:
    """In-place reduced row echelon form on the first ``width`` columns.

    Returns the pivot column indices; entries beyond ``width`` ride along
    (augmented columns).
    """
    pivots: list[int] = []
    row = 0
    for col in range(width):
        piv = next((r for r in range(row, len(mat)) if not mat[r][col].is_zero()), None)
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        inv = ComplexScalar(1) / mat[row][col]
        mat[row] = [e * inv for e in mat[row]]
        for r in range(len(mat)):
            if r != row and not mat[r][col].is_zero():
                factor = mat[r][col]
                mat[r] = [e - factor * p for e, p in zip(mat[r], mat[row])]
        pivots.append(col)
        row += 1
        if row == len(mat):
            break
    return pivots


def complex_rank(rows: Sequence[Sequence[ComplexScalar]]) -> int:
    if not rows:
        return 0
    mat = [list(r) for r in rows]
    return len(_rref(mat, len(mat[0])))


def complex_solve(
    rows: Sequence[Sequence[ComplexScalar]],
    rhs: Sequence[ComplexScalar],
) -> Optional[list[ComplexScalar]]:
    """Any exact solution of a rectangular system, or None when inconsistent.

    Free variables are set to zero.
    """
    if not rows:
        return []
    width = len(rows[0])
    mat = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = _rref(mat, width)
    for r in range(len(pivots), len(mat)):
        if not mat[r][width].is_zero():
            return None
    x = [ComplexScalar(0)] * width
    for r, col in enumerate(pivots):
        x[col] = mat[r][width]
    return x


def complex_invert(
    rows: Sequence[Sequence[ComplexScalar]],
) -> Optional[list[list[ComplexScalar]]]:
    n = len(rows)
    one, zero = ComplexScalar(1), ComplexScalar(0)
    mat = [list(r) + [one if i == j else zero for j in range(n)] for i, r in enumerate(rows)]
    pivots = _rref(mat, n)
    if len(pivots) < n:
        return None
    return [row[n:] for row in mat]


def _overlap_witness(Pa: RealPolytope, Pb: RealPolytope, dim: int) -> Optional[tuple]:
    """A point interior to Pa and inside Pb, or None when none exists.

    Interiority on the Pa side implements openness: the LP maximizes a common
    slack t on Pa's faces, and only t > 0 counts as an intersection.  Pb may
    be lower-dimensional; its membership is encoded as a convex combination
    of vertices when a V-rep is available, avoiding any H-rep conversion.
    """
    vb = Pb.vertices() if Pb.has_vrep() else None
    k = len(vb) if vb is not None else 0
    # Variables: x (free), t (free), lambda (nonneg, V-rep route only).
    lp = LinearProgram(dim + 1 + k, nonneg=[False] * (dim + 1) + [True] * k)
    pad = [0] * k
    for a, b in _faces(Pa):
        lp.add_le(list(a) + [1] + pad, b)
    if vb is not None:
        for c in range(dim):
            row = [Fraction(1) if i == c else Fraction(0) for i in range(dim)]
            lp.add_eq(row + [0] + [-Fraction(v[c]) for v in vb], 0)
        lp.add_eq([0] * (dim + 1) + [1] * k, 1)
    else:
        for a, b in _faces(Pb):
            lp.add_le(list(a) + [0] + pad, b)
    lp.add_le([0] * dim + [1] + pad, 1)
    lp.set_maximize([0] * dim + [1] + pad)
    res = lp.solve()
    if res.status == INFEASIBLE:
        return None
    if res.status == UNBOUNDED:
        raise BicomplexError("capped slack LP cannot be unbounded")
    if res.value > 0:
        return tuple(res.x[:dim])
    return None


def _hyperplane_disjoint_or_raise(B: DConvexSet, L: DHyperplane) -> None:
    n = B.dim
    for l in (1, 2):
        coeffs, level = L.component_level(l)
        lp = LinearProgram(n + 1)
        for a, b in _faces(B.component(l)):
            lp.add_le(list(a) + [1 if B.open else 0], b)
        lp.add_eq([Fraction(c) for c in coeffs] + [0], level)
        lp.add_le([0] * n + [1], 1)
        lp.set_maximize([0] * n + [1])
        res = lp.solve()
        if res.status == INFEASIBLE:
            continue
        if not res:
            raise BicomplexError("hyperplane intersection LP failed")
        if (B.open and res.value > 0) or (not B.open and res.value >= 0):
            raise NotDisjointError(
                f"hyperplane meets component {l} of the set",
                component=l,
                witness=tuple(res.x[:n]),
            )


def variety_disjoint_or_raise(x0: DVector, basisM: Sequence[DVector], B: DConvexSet) -> None:
    """The slack LP on B's faces that decided `variety_extend_hyperplane`'s
    disjointness before its polar LP did, kept as an independent oracle."""
    n = B.dim
    for l in (1, 2):
        rows = [[Fraction(c) for c in u.part(l)] for u in basisM]
        point = [Fraction(c) for c in x0.part(l)]
        # Disjointness of the affine variety from the component set.
        lp = LinearProgram(len(rows) + n + 1)
        width = len(rows) + n + 1
        for a, b in _faces(B.component(l)):
            row = [Fraction(0)] * len(rows) + list(a) + [1 if B.open else 0]
            lp.add_le(row, b)
        for i in range(n):
            row = [vec[i] for vec in rows] + [
                Fraction(-1) if j == i else Fraction(0) for j in range(n)
            ] + [0]
            lp.add_eq(row, -point[i])
        lp.add_le([0] * (width - 1) + [1], 1)
        lp.set_maximize([0] * (width - 1) + [1])
        res = lp.solve()
        if res.status != INFEASIBLE:
            if not res:
                raise BicomplexError("variety intersection LP failed")
            if (B.open and res.value > 0) or (not B.open and res.value >= 0):
                witness = tuple(res.x[len(rows):len(rows) + n])
                raise NotDisjointError(
                    f"variety meets component {l} of the set",
                    component=l,
                    witness=witness,
                )


def map_from_graph(basisG: Sequence, n: int) -> BCLinearMap:
    """Recover T from a spanning set of its graph in BC^n x BC^m.

    The span is a graph over BC^n iff, per component, the first-block rows
    have full rank n and adjoining the second block adds no rank (no vertical
    directions).  T is then solved exactly column by column.
    """
    if not basisG:
        raise NotAGraphError("empty spanning set")
    total = basisG[0].dim
    if total <= n:
        raise DimensionMismatch("graph vectors must have dim n + m with m >= 1")
    m = total - n
    columns: list[list[list[ComplexScalar]]] = []
    for l in (1, 2):
        pick = (lambda Z: Z.z1) if l == 1 else (lambda Z: Z.z2)
        U = [[pick(v.coords[i]) for i in range(n)] for v in basisG]
        V = [[pick(v.coords[n + i]) for i in range(m)] for v in basisG]
        rank_u = complex_rank(U)
        if rank_u < n:
            raise NotAGraphError(f"projection to BC^n is not surjective in component {l}")
        joint = [u + v for u, v in zip(U, V)]
        if complex_rank(joint) > rank_u:
            raise NotAGraphError(f"vertical vector present in component {l}")
        # Solve sum_b c_b u_b = e_i and read off the image column sum_b c_b v_b.
        A = [[U[b][i] for b in range(len(basisG))] for i in range(n)]
        cols = []
        for i in range(n):
            rhs = [ComplexScalar(1) if r == i else ComplexScalar(0) for r in range(n)]
            c = complex_solve(A, rhs)
            if c is None:
                raise NotAGraphError("column solve failed despite full rank")
            col = []
            for j in range(m):
                acc = ComplexScalar(0)
                for b, cb in enumerate(c):
                    acc = acc + cb * V[b][j]
                col.append(acc)
            cols.append(col)
        columns.append(cols)
    matrix = tuple(
        tuple(BicomplexScalar(columns[0][i][j], columns[1][i][j]) for i in range(n))
        for j in range(m)
    )
    return BCLinearMap(matrix)


# -- the scalar kernel before the exact fast path -------------------------------


def is_exact(x: Real) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def req(a: Real, b: Real) -> bool:
    """Equality: exact when both operands are exact, ε-tolerant otherwise."""
    if is_exact(a) and is_exact(b):
        return a == b
    return abs(a - b) <= EPSILON


def rle(a: Real, b: Real) -> bool:
    """a ≤ b, treating ε-close floats as equal."""
    if is_exact(a) and is_exact(b):
        return a <= b
    return a <= b + EPSILON


def rlt(a: Real, b: Real) -> bool:
    """a < b strictly; ε-close float values do not count as strict."""
    if is_exact(a) and is_exact(b):
        return a < b
    return a < b - EPSILON


def rsqrt(x: Real) -> Real:
    """Square root, exact when ``x`` is a perfect rational square.

    Exact inputs whose numerator and denominator are perfect squares come
    back as Fractions (so e.g. one-dimensional Euclidean norms stay exact);
    anything else falls to ``math.sqrt``.
    """
    if x < 0:
        raise ValueError("negative radicand")
    if is_exact(x):
        frac = Fraction(x)
        rn = math.isqrt(frac.numerator)
        rd = math.isqrt(frac.denominator)
        if rn * rn == frac.numerator and rd * rd == frac.denominator:
            return Fraction(rn, rd)
        return math.sqrt(frac)
    return math.sqrt(x)


def complex_mul(self: ComplexScalar, other) -> ComplexScalar:
    other = _as_complex(other)
    return ComplexScalar(
        self.re * other.re - self.im * other.im,
        self.re * other.im + self.im * other.re,
    )


def complex_abs2(self: ComplexScalar) -> Real:
    """|z|^2 = re^2 + im^2, exact in the exact backend."""
    return self.re * self.re + self.im * self.im


# -- the sums of products before the exact dot kernel ---------------------------


def rdiv(a: Real, b: Real) -> Real:
    """a / b, staying exact when both operands are exact.

    Plain ``int / int`` would produce a float; this keeps rationals rational.
    """
    if is_exact(a) and is_exact(b):
        return Fraction(a) / Fraction(b)
    return a / b


def eval_d(f: DLinearFunctional, x: DVector) -> HyperbolicScalar:
    if f.dim != x.dim:
        raise DimensionMismatch(f"functional dim {f.dim} vs point dim {x.dim}")
    total = HyperbolicScalar.zero()
    for c, v in zip(f.coeffs.coords, x.coords):
        total = total + c * v
    return total


def bc_functional_call(self, x: BCVector) -> BicomplexScalar:
    if self.dim != x.dim:
        raise DimensionMismatch("functional dim vs point dim")
    total = BicomplexScalar.zero()
    for c, v in zip(self.coeffs.coords, x.coords):
        total = total + c * v
    return total


def hyperbolic_functional_call(self, x: BCVector) -> HyperbolicScalar:
    if x.dim != self.dim:
        raise DimensionMismatch("point dim mismatch")
    total = HyperbolicScalar.zero()
    for m, Z in enumerate(x.coords):
        alpha = HyperbolicScalar(Z.z1.re, Z.z2.re)
        beta = HyperbolicScalar(Z.z1.im, Z.z2.im)
        total = total + alpha * self.on_basis[m] + beta * self.on_ibasis[m]
    return total


def bc_map_call(self, x: BCVector) -> BCVector:
    if x.dim != self.cols:
        raise DimensionMismatch("map cols vs point dim")
    out = []
    for row in self.matrix:
        acc = BicomplexScalar.zero()
        for entry, v in zip(row, x.coords):
            acc = acc + entry * v
        out.append(acc)
    return BCVector(tuple(out))


def eval_component(self, l: int, v: Sequence[Real]) -> Real:
    c = self.component(l)
    if len(c) != len(v):
        raise DimensionMismatch("point dim mismatch")
    return sum(a * b for a, b in zip(c, v))


def functional_dbound(f: DLinearFunctional) -> HyperbolicScalar:
    """e1*||c1|| + e2*||c2||: a D-bound with |f(x)|_k <=' bound * ||x||_D."""
    sq1 = sum(c * c for c in f.coeffs.part1())
    sq2 = sum(c * c for c in f.coeffs.part2())
    return HyperbolicScalar(rsqrt(sq1), rsqrt(sq2))


def dmetric(x: DVector, y: DVector) -> HyperbolicScalar:
    if x.dim != y.dim:
        raise DimensionMismatch(f"dims {x.dim} vs {y.dim}")
    sq1 = sq2 = 0
    for a, b in zip(x.coords, y.coords):
        d = a - b
        sq1 += d.a1 * d.a1
        sq2 += d.a2 * d.a2
    return HyperbolicScalar(rsqrt(sq1), rsqrt(sq2))


def dmetric_bc(x: BCVector, y: BCVector) -> HyperbolicScalar:
    """Same metric on BC^n, with complex Euclidean component norms."""
    if x.dim != y.dim:
        raise DimensionMismatch(f"dims {x.dim} vs {y.dim}")
    sq1 = sq2 = 0
    for a, b in zip(x.coords, y.coords):
        d = a - b
        sq1 += d.z1.abs2()
        sq2 += d.z2.abs2()
    return HyperbolicScalar(rsqrt(sq1), rsqrt(sq2))


# -- the wire decoders before integer pairs ---------------------------------------


def _parse_fraction(text: str) -> Fraction:
    """``Fraction(text)``, with the canonical ``"-p/q"`` form read by ``int``.

    Only an optional single ``-``, ASCII digits and optionally ``/`` plus
    ASCII digits take the fast path (``int`` alone would also accept
    spaces, ``+``, ``_`` and non-ASCII digits); every other string goes to
    ``Fraction``'s own parser, so values and raised errors are unchanged.
    """
    num, slash, den = text.partition("/")
    digits = num[1:] if num.startswith("-") else num
    if digits.isdigit() and digits.isascii():
        if not slash:
            return Fraction(int(num))
        if den.isdigit() and den.isascii():
            return Fraction(int(num), int(den))
    return Fraction(text)


def as_real(value, backend: str = EXACT) -> Real:
    """Coerce ``value`` (number or ``"p/q"`` string) into the given backend."""
    if backend == EXACT:
        if isinstance(value, str):
            return _parse_fraction(value)
        return Fraction(value)
    if backend == FLOAT:
        if isinstance(value, str):
            return float(_parse_fraction(value))
        return float(value)
    raise ValueError(f"unknown backend {backend!r}")


def decode_real(obj, backend: str = EXACT) -> Real:
    """A JSON number or ``"p/q"`` string in the given backend.

    Values that are not finite (JSON ``NaN``, ``Infinity`` and numbers that
    overflow a float, such as ``1e400``), and exact values too large for the
    float backend, raise ``ValueError``.
    """
    if not isinstance(obj, (int, float, str)) or isinstance(obj, bool):
        raise TypeError(f"not a real-number encoding: {obj!r}")
    if isinstance(obj, float) and not math.isfinite(obj):
        raise ValueError(f"not a finite number: {obj!r}")
    try:
        return as_real(obj, backend)
    except OverflowError as exc:
        raise ValueError(f"too large for the {backend} backend: {obj!r}") from exc


def _real(obj, where: str, backend: str):
    try:
        return decode_real(obj, backend)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{where}: bad number {obj!r}") from exc


def decode_polytope(obj, backend: str = EXACT, where: str = "polytope") -> RealPolytope:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    if "vertices" in obj and "halfspaces" in obj:
        raise SchemaError(f"{where}: need either vertices or halfspaces, not both")
    if "vertices" in obj:
        verts = _expect_list(obj["vertices"], f"{where}.vertices")
        if not verts:
            raise SchemaError(f"{where}: no vertices")
        points = []
        for i, v in enumerate(verts):
            row = _expect_list(v, f"{where}.vertices[{i}]")
            points.append(tuple(_real(c, f"{where}.vertices[{i}]", backend) for c in row))
        if any(len(p) != len(points[0]) for p in points):
            raise SchemaError(f"{where}: mixed vertex dimensions")
        return RealPolytope.from_vertices(points)
    if "halfspaces" in obj:
        rows = _expect_list(obj["halfspaces"], f"{where}.halfspaces")
        faces = []
        dim = None
        for i, h in enumerate(rows):
            d = _expect_dict(h, ("a", "b"), f"{where}.halfspaces[{i}]")
            a = tuple(
                _real(c, f"{where}.halfspaces[{i}].a", backend)
                for c in _expect_list(d["a"], f"{where}.halfspaces[{i}].a")
            )
            if dim is None:
                dim = len(a)
            elif len(a) != dim:
                raise SchemaError(f"{where}: mixed halfspace dimensions")
            strict = d.get("strict", False)
            if not isinstance(strict, bool):
                raise SchemaError(f"{where}.halfspaces[{i}].strict: expected a boolean")
            faces.append(Halfspace(a, _real(d["b"], f"{where}.halfspaces[{i}].b", backend), strict))
        if dim is None:
            raise SchemaError(f"{where}: empty halfspace list")
        return RealPolytope.from_halfspaces(faces, dim)
    raise SchemaError(f"{where}: need either vertices or halfspaces")


# -- the decoders with eager path hints --------------------------------------------


def _expect_dict(obj, keys: tuple[str, ...], where: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise SchemaError(f"{where}: missing keys {missing}")
    return obj


def _expect_list(obj, where: str) -> list:
    if not isinstance(obj, list):
        raise SchemaError(f"{where}: expected an array")
    return obj


def _decode_entries(obj, key: str, noun: str, decode, where: str) -> tuple:
    """Decode every entry of the non-empty list obj[key]."""
    d = _expect_dict(obj, (key,), where)
    entries = _expect_list(d[key], f"{where}.{key}")
    if not entries:
        raise SchemaError(f"{where}: empty {noun} list")
    return tuple(decode(c, where=f"{where}.{key}[{i}]") for i, c in enumerate(entries))


def decode_hyperbolic(obj, backend: str = EXACT, *, where: str = "hyperbolic") -> HyperbolicScalar:
    d = _expect_dict(obj, ("e1", "e2"), where)
    return HyperbolicScalar(_real(d["e1"], where, backend), _real(d["e2"], where, backend))


def decode_complex(obj, *, where: str = "complex") -> ComplexScalar:
    d = _expect_dict(obj, ("re", "im"), where)
    return ComplexScalar(_real(d["re"], where, EXACT), _real(d["im"], where, EXACT))


def decode_bicomplex(obj, *, where: str = "bicomplex") -> BicomplexScalar:
    d = _expect_dict(obj, ("z1", "z2"), where)
    return BicomplexScalar(
        decode_complex(d["z1"], where=f"{where}.z1"),
        decode_complex(d["z2"], where=f"{where}.z2"),
    )


def decode_dvector(obj, backend: str = EXACT, *, where: str = "dvector") -> DVector:
    decode = partial(decode_hyperbolic, backend=backend)
    return DVector(_decode_entries(obj, "coords", "coordinate", decode, where))


def decode_bcvector(obj, *, where: str = "bcvector") -> BCVector:
    return BCVector(_decode_entries(obj, "coords", "coordinate", decode_bicomplex, where))


def decode_dfunctional(obj, *, where: str = "functional") -> DLinearFunctional:
    return DLinearFunctional(DVector(
        _decode_entries(obj, "coeffs", "coefficient", decode_hyperbolic, where)))


def decode_bcfunctional(obj, *, where: str = "functional") -> BCLinearFunctional:
    return BCLinearFunctional(BCVector(
        _decode_entries(obj, "coeffs", "coefficient", decode_bicomplex, where)))


def decode_map(obj, *, where: str = "map") -> BCLinearMap:
    d = _expect_dict(obj, ("rows",), where)
    rows = _expect_list(d["rows"], f"{where}.rows")
    if not rows:
        raise SchemaError(f"{where}: empty matrix")
    decoded = []
    for r, row in enumerate(rows):
        entries = _expect_list(row, f"{where}.rows[{r}]")
        decoded.append(tuple(
            decode_bicomplex(e, where=f"{where}.rows[{r}][{c}]") for c, e in enumerate(entries)
        ))
    width = len(decoded[0])
    if width == 0 or any(len(row) != width for row in decoded):
        raise SchemaError(f"{where}: ragged or empty rows")
    return BCLinearMap(tuple(decoded))


def decode_rectset(obj, *, where: str = "rect") -> RectSet:
    d = _expect_dict(obj, ("c1", "c2"), where)
    out = []
    for key in ("c1", "c2"):
        pair = _expect_list(d[key], f"{where}.{key}")
        if len(pair) != 2:
            raise SchemaError(f"{where}.{key}: expected [lo, hi]")
        out.append((_real(pair[0], f"{where}.{key}", EXACT), _real(pair[1], f"{where}.{key}", EXACT)))
    try:
        return RectSet(out[0], out[1])
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def decode_cover(obj) -> tuple[list[RectSet], RectSet]:
    """A cover file: {"bounding": RectSet, "cover": [RectSet, ...]}."""
    d = _expect_dict(obj, ("bounding", "cover"), "cover file")
    rects = _expect_list(d["cover"], "cover file.cover")
    cover = [decode_rectset(r, where=f"cover[{i}]") for i, r in enumerate(rects)]
    return cover, decode_rectset(d["bounding"], where="bounding")


def decode_dconvex(obj, backend: str = EXACT, *, where: str = "set") -> DConvexSet:
    d = _expect_dict(obj, ("p1", "p2"), where)
    open_flag = d.get("open", False)
    if not isinstance(open_flag, bool):
        raise SchemaError(f"{where}.open: expected a boolean")
    try:
        return DConvexSet(
            decode_polytope(d["p1"], backend, where=f"{where}.p1"),
            decode_polytope(d["p2"], backend, where=f"{where}.p2"),
            open=open_flag,
        )
    except SchemaError:
        raise
    except BicomplexError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


# -- the separation glue on Fractions ----------------------------------------------


def polar_extend_dominated(
    g: DLinearFunctional,
    basisY: Sequence[DVector],
    B: DConvexSet,
) -> DLinearFunctional:
    """`analysis.extend_dominated` before its span, values and division
    moved to integers."""
    n = B.dim
    if g.dim != n or any(u.dim != n for u in basisY):
        raise DimensionMismatch("ambient dimensions disagree")
    if not is_dabsorbing(B):
        raise NotAbsorbingError("extension gauge needs an absorbing set")
    out: list[list[Fraction]] = []
    for l in (1, 2):
        span = [[Fraction(c) for c in u.part(l)] for u in basisY]
        if span and matrix_rank(span) < len(span):
            raise DegenerateBasisError(f"dependent basis in component {l}", component=l)
        coeffs = [Fraction(c) for c in g.component(l)]
        full = _polar_extend_component(B.component(l).gauge_body(), span,
                                       [rdot(coeffs, vec) for vec in span], strict=False)
        if full is None:
            raise DominationError(f"g exceeds the gauge on Y in component {l}", component=l)
        out.append(full)
    return DLinearFunctional.from_parts(out[0], out[1])


def _polar_extend_component(P: GaugeBody, span: Sequence[Sequence[Fraction]],
                            values: Sequence[Fraction], strict: bool) -> Optional[list[Fraction]]:
    """`analysis._extend_component` before f*/s* was built on integers."""
    res = P.polar_max(span, values)  # feasible: f = 0, s = 0
    if res.status == UNBOUNDED:
        full = [Fraction(0)] * P.dim
    elif res.value < 1 or (strict and res.value == 1):
        return None
    else:
        full = [c / res.value for c in res.x[:P.dim]]
    if P.form_max(full) > 1:
        raise BicomplexError("extension failed its global gauge certificate")
    return full


class PolarDifferenceBody(GaugeBody):
    """`convex.DifferenceBody` before x0 came from the column sums and its
    witness from integer sums."""

    def __init__(self, A_l: RealPolytope, B_l: RealPolytope, x0_l: Sequence[Real]):
        if A_l.dim != B_l.dim or len(x0_l) != A_l.dim:
            raise DimensionMismatch("difference body parts differ in dimension")
        self._shift = x0_l
        (rows_a, L_a), (rows_b, L_b) = A_l.integer_vertices(), B_l.integer_vertices()
        X, L_x = integer_point(x0_l)
        E = lcm(L_a, L_x)
        ka, kx = E // L_a, E // L_x
        shift = [x * kx for x in X]
        super().__init__(([tuple(a * ka + s for a, s in zip(row, shift)) for row in rows_a], E),
                         ([tuple(-b for b in row) for row in rows_b], L_b))

    def origin_interior(self) -> bool:
        return True

    def meeting_points(self, a0_l: Sequence[Fraction], b0_l: Sequence[Fraction]):
        shift = [Fraction(x) for x in self._shift]
        res = self.least_gauge(shift)
        (rows_a, E), (rows_b, L_b) = self._groups
        lam, nu, t = res.x[:len(rows_a)], res.x[len(rows_a):], res.value
        a_star = tuple(sum(w * (Fraction(p[c], E) - s) for w, p in zip(lam, rows_a)) + (1 - t) * a
                       for c, (s, a) in enumerate(zip(shift, a0_l)))
        b_star = tuple(sum(-w * Fraction(p[c], L_b) for w, p in zip(nu, rows_b)) + (1 - t) * b
                       for c, b in enumerate(b0_l))
        return a_star, b_star


def integer_centroid(P: RealPolytope) -> tuple[Fraction, ...]:
    """`convex._centroid` on the integer vertex rows."""
    rows, L = P.integer_vertices()
    den = len(rows) * L
    return tuple(Fraction(sum(column), den) for column in zip(*rows))


def polar_difference_body(A: DConvexSet, B: DConvexSet) -> tuple[DConvexSet, DVector, DVector]:
    """`convex.difference_body` before x0 came from the column sums."""
    if A.dim != B.dim:
        raise DimensionMismatch("set dims differ")
    for l in (1, 2):
        if integer_affine_rank(A.component(l).integer_vertices()[0]) < A.dim:
            raise EmptyInteriorError(
                f"component {l} of the open set is lower-dimensional: its interior is empty",
                component=l,
            )
    a0 = DVector.from_parts(integer_centroid(A.p1), integer_centroid(A.p2))
    b0 = DVector.from_parts(integer_centroid(B.p1), integer_centroid(B.p2))
    x0 = b0 - a0
    G = DConvexSet(
        *(PolarDifferenceBody(A.component(l), B.component(l), x0.part(l)) for l in (1, 2)),
        open=A.open,
    )
    return G, a0, b0


def polar_separate_hyperbolic(A: DConvexSet, B: DConvexSet) -> SeparationCertificate:
    """`analysis.separate_hyperbolic` before its seed, extension and
    extrema moved to integers."""
    if not A.open:
        raise NotOpenError("strict separation needs an open first set")
    if A.dim != B.dim:
        raise DimensionMismatch("sets live in different dimensions")
    G, a0, b0 = polar_difference_body(A, B)
    x0 = b0 - a0
    # Seed functional: any ambient representative with g(x0) = 1 per
    # component, or 0 where x0_l = 0 (the centroids coincide).
    rep = []
    for l in (1, 2):
        part = [Fraction(c) for c in x0.part(l)]
        norm_sq = sum(c * c for c in part)
        rep.append([c / norm_sq for c in part] if norm_sq else part)
    g = DLinearFunctional.from_parts(rep[0], rep[1])
    try:
        f = polar_extend_dominated(g, [x0], G)
    except (DominationError, DegenerateBasisError) as exc:  # q_l(x0) < 1
        l = exc.component
        a_star, b_star = G.component(l).meeting_points(a0.part(l), b0.part(l))
        if a_star != b_star:
            raise BicomplexError(f"gauge weights gave no common point in component {l}")
        raise NotDisjointError(f"components {l} of A and B intersect",
                               component=l, witness=a_star) from None
    (mA1, mB1), (mA2, mB2) = (G.component(l).group_maxima(f.component(l)) for l in (1, 2))
    gamma = HyperbolicScalar(-mB1, -mB2)
    sup_A = HyperbolicScalar(mA1, mA2) - f(x0)
    if not le(sup_A, gamma):
        raise BicomplexError(f"f exceeds gamma={gamma} on A's closure (sup {sup_A})")
    if not all(any(f.component(l)) for l in (1, 2)):
        raise BicomplexError("separating functional is constant in a component")
    qg_x0 = HyperbolicScalar(1 / (mA1 + mB1), 1 / (mA2 + mB2))
    trace = {"x0": x0, "qg_x0": qg_x0, "a0": a0, "b0": b0}
    return SeparationCertificate(f, gamma, sup_A, trace)


def _cone_rays(rows: Sequence[Sequence[int]], n: int) -> tuple[Optional[list[list[int]]], list[int]]:
    """The primitive integer extreme rays of the cone {y : r.y <= 0 for each
    row r}, each with the bitmask of the rows it is tight on (bit j for row
    j); (None, []) when the rows do not span R^n (the cone holds a line).

    Double description (Motzkin, Raiffa, Thompson & Thrall 1953; Fukuda &
    Prodon 1996): one elimination of [R^T | I] picks the first n independent
    rows and inverts them, and minus row k of the inverse is the ray of
    their simplicial cone that leaves the k-th.  Each row r then cuts the
    cone: rays with r.y > 0 go, and each adjacent pair across r.y = 0 gives
    the ray where their edge crosses it.  Two rays are adjacent when no
    third is tight on every row both are tight on, at least n - 2 rows.
    """
    m = len(rows)
    T, _, picked = elim.eliminate(
        [[r[k] for r in rows] + [int(j == k) for j in range(n)] for k in range(n)], m)
    if len(picked) < n:
        return None, []
    rays = [_primitive_ray([-v for v in row[m:]]) for row in T]
    tight = [sum(1 << j for j in picked if j != i) for i in picked]  # bit j: row j is tight
    for i, row in enumerate(rows):
        values = [sum(map(mul, row, y)) for y in rays]
        keep = [k for k, v in enumerate(values) if v <= 0]
        new_rays = [rays[k] for k in keep]
        new_tight = [tight[k] | (1 << i if values[k] == 0 else 0) for k in keep]
        below = [k for k in keep if values[k] < 0]
        for p in (k for k, v in enumerate(values) if v > 0):
            for q in below:
                common = tight[p] & tight[q]
                if common.bit_count() >= n - 2 and not any(
                        k != p and k != q and z & common == common for k, z in enumerate(tight)):
                    new_rays.append(_primitive_ray([values[p] * a - values[q] * b
                                                    for a, b in zip(rays[q], rays[p])]))
                    new_tight.append(common | 1 << i)
        rays, tight = new_rays, new_tight
    return rays, tight


def _primitive_ray(y: list[int]) -> list[int]:
    """y divided by the gcd of its entries (y is nonzero)."""
    g = gcd(*y)
    return [v // g for v in y]


def gauge_lp(body: GaugeBody, point: Sequence[Real],
             span: Sequence[Sequence[Real]] = ()) -> LinearProgram:
    """`GaugeBody.gauge_lp` before it handed its rows over as integers,
    copied verbatim as a function of the body: one `Fraction` per
    coordinate of every column point."""
    self = body
    k, p = len(self._weights), len(span)
    lp = LinearProgram(k + p, nonneg=[True] * k + [False] * p)
    for c, x in zip(range(self.dim), point):
        lp.add_eq([*(Fraction(r[c], D) for rows, D in self._groups for r in rows),
                   *(-u[c] for u in span)], x)
    if self._balance:
        lp.add_eq(self._balance + [0] * p, 0)
    return lp
