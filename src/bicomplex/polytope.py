"""Exact real polytope geometry: V-rep/H-rep, conversions, gauges.

Everything here works over exact rationals (float inputs are converted to
their exact binary values), so hulls, conversions, memberships and gauges
are certificate-grade.  One double-description routine on integer rows
(`_cone_rays`, which hands back each ray's incidence bitmask) decides every
hull fact in every dimension: H→V runs it on the cone over the halfspaces;
V→H, `extreme_points` (in the coordinates of the affine hull) and the
facets a vertex list is gauged by, by polarity, on the cone of valid
inequalities.  The LPs left on a vertex list are hull membership
(`contains`), the least-gauge LP on the epigraph (`least_gauge`, at a
point or along an affine set's span) and the extension LP over the polar
(both on `GaugeBody`).

Elimination runs on integers: `matrix_rank` scales each row to integers
and pivots with the fraction-free kernel of `bicomplex.elim` (integer rows
T over one denominator d > 0, true matrix T/d), the same kernel under the
simplex of `bicomplex.lp`.  Rank and affine-rank tests, the double
description, hull membership and the vertex order (`_vertex_order`) work on
the points times the lcm of their denominators, in plain `int`s; only
returned values are built as `Fraction`s.

A `RealPolytope` holds the representation it was built with: integer rows
over one denominator as the exact decoder hands them over (vertex rows, or
face rows [*a, b]), or the vertices or `Halfspace`s it was given.  Nothing
else writes it, so each set-level fact is derived once and memoized:

- its integer vertex rows (`integer_vertices`: the vertex list times L, the
  lcm of its denominators, and L), held, scaled from the vertex list, or
  handed over by `vertex_enumeration` from the face rows (`_face_rows`);
  hull membership, the facets of a vertex list, the gauge body and
  `convex.difference_body` read them, so the vertices are scaled once;
- `vertices()` and `halfspaces()`, built from the rows on request, or the
  facets of a vertex list (`facet_enumeration`);
- its integer faces (`_integer_faces`: the face rows or the vertex list's
  facets), which `origin_interior` and the closed-form `gauge` read, so no
  gauge query solves an LP;
- its `GaugeBody` (`gauge_body`) on the integer vertex rows: the epigraph of
  `gauge_vrep` and a variety's witness, the polar's rows for the extension
  LP (`polar_max`) and the integer dots of `form_max` and `form_argmax`.

Membership (`contains`), absorbency and the gauge answer in the
representation the polytope was built with, never in one an earlier query
derived, so an answer does not depend on query history.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, inf, lcm
from operator import mul
from typing import Iterable, Optional, Sequence

from . import elim
from .backend import Real, is_exact, rdiv, rdot, rle, rlt
from .errors import (
    DimensionMismatch,
    EmptySetError,
    LPUnboundedError,
    NotAbsorbingError,
)
from .lp import OPTIMAL, LinearProgram, LPResult

Point = tuple[Real, ...]
# integer rows R over one denominator D > 0: the points R/D
IntegerGroup = tuple[list[tuple[int, ...]], int]


@dataclass(frozen=True, slots=True)
class Halfspace:
    """The constraint a·x <= b (or < b when strict)."""

    a: tuple[Real, ...]
    b: Real
    strict: bool = False

    def holds(self, point: Sequence[Real]) -> bool:
        v = rdot(self.a, point)
        return rlt(v, self.b) if self.strict else rle(v, self.b)


# -- exact linear algebra ---------------------------------------------------


def _frac_point(p: Sequence[Real]) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in p)


def _rational(x: Real) -> Real:
    """x itself when it is an int or a Fraction, else its exact Fraction."""
    return x if type(x) is int or type(x) is Fraction else Fraction(x)


def matrix_rank(rows: Iterable[Sequence[Fraction]]) -> int:
    return elim.rank([elim.integer_row(list(map(Fraction, r))) for r in rows])


def integer_points(points: Sequence[Point]) -> tuple[list[tuple[int, ...]], int]:
    """The points times L, the lcm of all their denominators, and L."""
    pts = [[_rational(x) for x in p] for p in points]
    scale = lcm(*(x.denominator for p in pts for x in p))
    return [tuple(x.numerator * (scale // x.denominator) for x in p) for p in pts], scale


def integer_point(point: Sequence[Real], exact_only: bool = False) -> Optional[tuple[list[int], int]]:
    """One point as integers X over L, the lcm of its denominators, in one pass:
    the row and scale of `integer_points([point])`.  A coordinate that is not
    exact (a float) is read as its exact value, or makes the answer None when
    `exact_only` is set.  L grows as the denominators come, and the integers
    taken so far are rescaled when it does."""
    X, L = [], 1
    for x in point:
        if type(x) is not Fraction and type(x) is not int:
            if exact_only and not is_exact(x):
                return None
            x = Fraction(x)
        d = x.denominator
        if L % d:
            k = d // gcd(L, d)
            X = [v * k for v in X]
            L *= k
        X.append(x.numerator * (L // d))
    return X, L


def integer_affine_rank(pts: Sequence[tuple[int, ...]]) -> int:
    """Dimension of the affine hull of nonempty integer points."""
    base = pts[0]
    return elim.rank([[x - y for x, y in zip(p, base)] for p in pts[1:]])


def affine_rank(points: Sequence[Point]) -> int:
    """Dimension of the affine hull of the points."""
    if len(points) <= 1:
        return 0
    return integer_affine_rank(integer_points(points)[0])


# -- hull machinery ---------------------------------------------------------


def point_in_hull(point: Sequence[Real], vertices: Sequence[Point]) -> bool:
    """Exact membership of a point in the convex hull of finitely many points."""
    return bool(vertices) and RealPolytope.from_vertices(vertices).contains(point)


def _lex_argmax(points: Sequence[tuple[int, ...]], form: Sequence[int]) -> int:
    """Index of the lexicographically largest maximizer of form . x — always
    extreme.  The points are integer coordinates: a positive common scale
    keeps both the values' order and the lexicographic order."""
    return max(range(len(points)), key=lambda i: (sum(map(mul, form, points[i])), points[i]))


def _probe_forms(dim: int) -> list[tuple[int, ...]]:
    forms: list[tuple[int, ...]] = []
    for c in range(dim):
        e = [0] * dim
        e[c] = 1
        forms.append(tuple(e))
        e2 = [0] * dim
        e2[c] = -1
        forms.append(tuple(e2))
    if dim <= 4:
        forms.extend(t for t in product((1, -1), repeat=dim))
    return forms


def extreme_points(points: Sequence[Point]) -> list[Point]:
    """The extreme points of the convex hull, ordered by `_vertex_order`.

    The pivot coordinates of one elimination of the differences map the
    affine hull one-to-one onto R^r, r its dimension.  There the double
    description gives the points on each facet of the hull, and a point is
    extreme exactly when no other point lies on every facet it lies on.
    """
    unique = list(dict.fromkeys(map(_frac_point, points)))
    if len(unique) <= 1:
        return unique
    scaled = integer_points(unique)[0]
    base = scaled[0]
    _, _, pivots = elim.eliminate([[x - y for x, y in zip(p, base)] for p in scaled[1:]],
                                  len(base))
    flat = [[p[c] for c in pivots] for p in scaled]
    _, on_facet = _cone_rays([[*p, -1] for p in flat], len(pivots) + 1)
    common = [-1] * len(flat)  # bit j of common[i]: point j is on every facet through point i
    for mask in on_facet:
        rest = mask
        while rest:
            common[(rest & -rest).bit_length() - 1] &= mask
            rest &= rest - 1
    keep = [i for i, c in enumerate(common) if c == 1 << i]
    return [unique[keep[i]] for i in _vertex_order([scaled[i] for i in keep])]


def _vertex_order(scaled: Sequence[tuple[int, ...]]) -> list[int]:
    """The library's order of extreme points given by integer coordinates: in
    dimensions 1 and 2 the lexicographically least first, then the others
    counter-clockwise around it; in higher dimensions the lexicographic
    maximizers of the probe forms, then the others as given."""
    dim = len(scaled[0])
    if dim <= 2:
        lo = min(range(len(scaled)), key=scaled.__getitem__)
        others = [i for i in range(len(scaled)) if i != lo]
        others.sort(key=lambda i: _angle_key([x - y for x, y in zip(scaled[i], scaled[lo])]))
        order = [lo, *others]
    else:
        order = []
        for form in _probe_forms(dim):
            i = _lex_argmax(scaled, form)
            if i not in order:
                order.append(i)
        order += [i for i in range(len(scaled)) if i not in order]
    return order


# -- V <-> H conversion -----------------------------------------------------


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


def _angle_key(a: Sequence[int]) -> tuple[int, Fraction]:
    """Orders nonzero normals in R^1 or R^2 by their angle in (-pi, pi]."""
    x, y = (*a, 0)[:2]
    if y:
        return (2 if y > 0 else 0, Fraction(-x, y))
    return (1 if x > 0 else 3, Fraction(0))


def facet_enumeration(vertices: Sequence[Point], dim: int) -> list[Halfspace]:
    """Facets of a full-dimensional polytope from its points.

    By polarity, the extreme rays (a, beta) of the cone a.p <= beta over the
    integer points p = L*v are the facets a.x <= beta/L.  They come by normal
    angle in (-pi, pi] in dimensions 1 and 2 (counter-clockwise from the
    lexicographically least vertex), else by the lexicographically first
    affinely independent dim-tuple of input indices on each facet.
    """
    if not vertices:
        raise EmptySetError("no vertices")
    pts, scale = integer_points(vertices)
    rays, tight = _cone_rays([[*p, -1] for p in pts], dim + 1)
    if rays is None:
        raise DimensionMismatch("V->H conversion needs a full-dimensional polytope")

    def first_basis(k: int) -> list[int]:
        basis: list[int] = []  # greedy, so the first basis of the matroid
        mask = tight[k]  # bit i: point i lies on the facet
        while mask and len(basis) < dim:  # dim points span the facet
            i = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            if integer_affine_rank([*(pts[j] for j in basis), pts[i]]) == len(basis):
                basis.append(i)
        return basis

    key = (lambda k: _angle_key(rays[k][:dim])) if dim <= 2 else first_basis
    faces = []
    for k in sorted(range(len(rays)), key=key):
        *a, beta = rays[k]
        g = gcd(*a)
        faces.append(Halfspace(tuple(Fraction(v // g) for v in a), Fraction(beta, g * scale)))
    return faces


def vertex_enumeration(faces: Sequence[Sequence[int]], dim: int) -> IntegerGroup:
    """The vertices of a bounded polytope, from the integer rows [*a, b] of its
    faces a.x <= b (strict or not), as rows over L in `_vertex_order`.

    The extreme rays (x, t) of the cone a.x <= b*t, t >= 0 over the set are
    its vertices x/t (t > 0) and its directions of recession (t = 0).  A
    primitive ray's x/t has denominators of lcm t: L is the lcm of the t's.
    """
    rays, _ = _cone_rays([*([*r[:-1], -r[-1]] for r in faces), [0] * dim + [-1]], dim + 1)
    if rays is None:  # the normals miss a direction: the set holds a line, or is empty
        lp = LinearProgram(dim)
        for *a, b in faces:
            lp.add_le(a, b)
        if lp.solve().status == OPTIMAL:
            raise LPUnboundedError("polytope is unbounded")
        raise EmptySetError("empty polytope")
    if not any(y[dim] for y in rays):
        raise EmptySetError("empty polytope")
    if not all(y[dim] for y in rays):
        raise LPUnboundedError("polytope is unbounded")
    scale = lcm(*(y[dim] for y in rays))
    rows = sorted(tuple(v * (scale // y[dim]) for v in y[:dim]) for y in rays)
    return [rows[i] for i in _vertex_order(rows)], scale


# -- the gauge epigraph on columns --------------------------------------------


class GaugeBody:
    """The sum of the hulls of one or two exact point groups, read through
    the epigraph of its gauge.

    Each group is held once as integer rows R over one denominator D > 0,
    the points being R/D (`RealPolytope.integer_vertices`); no `Fraction`
    copy of the points is kept.  A point of t*(conv(P) + conv(Q)) is
    sum_i lambda_i p_i + sum_j nu_j q_j with lambda, nu >= 0 and sum(lambda)
    = sum(nu) = t (the Minkowski-sum epigraph of Fukuda 2004), so q(z) <= t
    iff z is such a combination.  The columns are the points of both groups
    in order; the t-weight is 1 on each point of the first group and 0 on
    the second, and one balance row says sum(lambda) - sum(nu) = 0.  One
    group is a V-rep polytope: every weight 1, no balance row.  Each gauge
    LP builds the `Fraction` columns it reads, then the free columns -u_j
    of a span it is moved along, and one solve (`least_gauge`) minimizes
    its t-weighted sum for every caller; the extension LP
    (`polar_max`) reads the integer rows as the rows of the body's polar,
    and a linear form is evaluated by integer dots (`group_maxima`).
    """

    def __init__(self, first: IntegerGroup, second: Optional[IntegerGroup] = None):
        self.dim = len(first[0][0])
        self._groups = (first,) if second is None else (first, second)
        k = len(first[0])
        m = len(second[0]) if second is not None else 0
        self._weights = [1] * k + [0] * m
        self._balance = [1] * k + [-1] * m if second is not None else None
        self._last_maxima: Optional[tuple[tuple[Real, ...], list[Fraction]]] = None

    def gauge_body(self) -> GaugeBody:
        """Itself, so a body and a `RealPolytope` hand over their epigraph alike."""
        return self

    def gauge_lp(self, point: Sequence[Real],
                 span: Sequence[Sequence[Real]] = ()) -> LinearProgram:
        """The epigraph at a point, moved along a span, objective unset.

        Variables are the column weights mu (nonnegative), then one free s_j
        per span vector u_j; the rows say sum_k mu_k w_k - sum_j s_j u_j =
        point for the columns w_k, then the balance row when there is one.
        So q(point + sum_j s_j u_j) <= t holds exactly when some such (mu, s)
        has t-weighted sum t, and the least one is the least gauge on the
        affine set point + span(u) (the gauge at the point for no span).
        """
        k, p = len(self._weights), len(span)
        lp = LinearProgram(k + p, nonneg=[True] * k + [False] * p)
        for c, x in zip(range(self.dim), point):
            lp.add_eq([*(Fraction(r[c], D) for rows, D in self._groups for r in rows),
                       *(-u[c] for u in span)], x)
        if self._balance:
            lp.add_eq(self._balance + [0] * p, 0)
        return lp

    def least_gauge(self, point: Sequence[Real],
                    span: Sequence[Sequence[Real]] = ()) -> LPResult:
        """The gauge LP solved for its least t: x = (mu, s), value t.  The one
        solve behind `gauge`, `convex.DifferenceBody.meeting_points` and the
        witness of `bicomplex.analysis.variety_extend_hyperplane`."""
        lp = self.gauge_lp(point, span)
        lp.set_minimize(self._weights + [0] * len(span))
        return lp.solve()

    def gauge(self, point: Sequence[Real]) -> Real:
        """The least t over the epigraph at the point, inf when nothing absorbs it."""
        res = self.least_gauge(point)
        return res.value if res.status == OPTIMAL else inf

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

        Every row is handed over as integers.  A span row is scaled by the
        lcm of its denominators, as `LinearProgram.solve` scales each row
        itself.  A point row is the group's integer row R times D:
        f.R + D*beta <= D, f.R' - D'*beta <= 0, or f.R <= D for one group.
        A positive factor on an inequality with a nonnegative right-hand
        side only rescales its slack, which starts basic: the signs of the
        reduced costs, the ratio test and so Bland's pivots are unchanged,
        and with them every answer (x, value, basis).
        """
        n, two = self.dim, len(self._groups) == 2
        lp = LinearProgram(n + 1 + two)
        for u, v in zip(span, values):
            lp.add_eq(elim.integer_row([*u, -v]) + [0] * two, 0)
        for (rows, D), top, sign in zip(self._groups, (1, 0), (1, -1)):
            beta = [sign * D] * two
            for r in rows:
                lp.add_le([*r, 0, *beta], top * D)
        lp.set_maximize([0] * n + [1] + [0] * two)
        return lp.solve()

    def group_maxima(self, coeffs: Sequence[Real]) -> list[Fraction]:
        """The largest value of an exact linear form at a point of each group.

        The form is scaled to integers C/M once; a group's largest value is
        its largest integer dot C.R over M*D, one `Fraction` per group.  The
        last form's maxima are kept: the extension's certificate and the
        separation extrema read the same f over a difference body.
        """
        key = tuple(coeffs)
        if self._last_maxima is None or self._last_maxima[0] != key:
            C, M = integer_point(key)
            self._last_maxima = key, [Fraction(max(sum(map(mul, C, r)) for r in rows), M * D)
                                      for rows, D in self._groups]
        return list(self._last_maxima[1])

    def form_argmax(self, coeffs: Sequence[Real]) -> tuple[Fraction, tuple[Fraction, ...]]:
        """The maximum of an exact linear form over a one-group body (a
        polytope's vertices) and the first point that attains it."""
        rows, D = self._groups[0]
        C, M = integer_point(coeffs)
        values = [sum(map(mul, C, r)) for r in rows]
        top = max(values)
        return Fraction(top, M * D), tuple(Fraction(x, D) for x in rows[values.index(top)])

    def form_max(self, coeffs: Sequence[Real]) -> Fraction:
        """The maximum of an exact linear form over the body: its group maxima summed."""
        return sum(self.group_maxima(coeffs))


# -- the polytope type ------------------------------------------------------


class RealPolytope:
    """A polytope built from a V-rep or an H-rep (never both), converting lazily.

    The stored representations always describe the closed set; openness is
    a property of the containing DConvexSet (plus per-face strict flags on
    H-rep input).  Never mutated after construction, so the memoized facts
    listed in the module docstring stay valid; `has_vrep` reports whether
    vertices (or their integer rows) are held so far, `built_from_vertices`
    which representation it was constructed with.
    """

    _vertices = _halfspaces = _integer_vertices = _faces = _gauge_body = _gauge_faces = None

    def __init__(self, dim: int, vertices: Optional[Sequence[Point]] = None,
                 halfspaces: Optional[Sequence[Halfspace]] = None):
        if dim < 1:
            raise DimensionMismatch("dim must be >= 1")
        if vertices is None and halfspaces is None:
            raise EmptySetError("polytope needs at least one representation")
        if vertices is not None and halfspaces is not None:
            raise ValueError("polytope needs either vertices or halfspaces, not both")
        if vertices is not None:
            if not vertices:
                raise EmptySetError("V-rep must be nonempty")
            for v in vertices:
                if len(v) != dim:
                    raise DimensionMismatch("vertex length != dim")
            self._vertices = tuple(tuple(v) for v in vertices)
        else:
            for h in halfspaces:
                if len(h.a) != dim:
                    raise DimensionMismatch("halfspace normal length != dim")
            self._halfspaces = tuple(halfspaces)
        self.dim = dim
        self._built_from_vertices = vertices is not None

    @classmethod
    def from_vertices(cls, vertices: Sequence[Point]) -> RealPolytope:
        if not vertices:
            raise EmptySetError("V-rep must be nonempty")
        return cls(len(vertices[0]), vertices=vertices)

    @classmethod
    def from_integer_rows(cls, dim: int, vertices: Optional[IntegerGroup] = None,
                          faces: Optional[IntegerGroup] = None,
                          strict: Sequence[bool] = ()) -> RealPolytope:
        """The vertex list R/L, or the faces a.x <= b (< b where strict) whose
        rows [*a, b] are R/L, held as the integer rows (R, L)."""
        if dim < 1:
            raise DimensionMismatch("dim must be >= 1")
        P = cls.__new__(cls)
        P.dim, P._built_from_vertices = dim, vertices is not None
        P._integer_vertices, P._faces, P._strict = vertices, faces, tuple(strict)
        return P

    @classmethod
    def from_halfspaces(cls, halfspaces: Sequence[Halfspace], dim: int) -> RealPolytope:
        return cls(dim, halfspaces=halfspaces)

    @classmethod
    def box(cls, dim: int, lo: Real, hi: Real) -> RealPolytope:
        faces = []
        for c in range(dim):
            a = [0] * dim
            a[c] = 1
            faces.append(Halfspace(tuple(a), hi))
            a = [0] * dim
            a[c] = -1
            faces.append(Halfspace(tuple(a), -lo))
        return cls(dim, halfspaces=faces)

    @classmethod
    def whole_space(cls, dim: int) -> RealPolytope:
        return cls(dim, halfspaces=[])

    # -- representations ----------------------------------------------

    def has_vrep(self) -> bool:
        return self._vertices is not None or self._integer_vertices is not None

    def built_from_vertices(self) -> bool:
        return self._built_from_vertices

    def __repr__(self) -> str:
        """The representation it was built with, whatever has been derived since."""
        if self._built_from_vertices:
            return f"RealPolytope({self.dim}, vertices={self.vertices()!r})"
        return f"RealPolytope({self.dim}, halfspaces={self.halfspaces()!r})"

    def vertices(self) -> tuple[Point, ...]:
        if self._vertices is None:
            rows, scale = self.integer_vertices()
            self._vertices = tuple(tuple(Fraction(x, scale) for x in r) for r in rows)
        return self._vertices

    def halfspaces(self) -> tuple[Halfspace, ...]:
        if self._halfspaces is None and self._built_from_vertices:
            self._halfspaces = tuple(facet_enumeration(self.vertices(), self.dim))
        elif self._halfspaces is None:
            rows, scale = self._faces
            self._halfspaces = tuple(
                Halfspace(tuple(Fraction(x, scale) for x in r[:-1]), Fraction(r[-1], scale), s)
                for r, s in zip(rows, self._strict))
        return self._halfspaces

    def _face_rows(self) -> list[tuple[int, ...]]:
        """The rows [*a, b] of its halfspaces over one denominator, computed once."""
        if self._faces is None:
            self._faces = integer_points([(*h.a, h.b) for h in self._halfspaces])
        return self._faces[0]

    # -- queries --------------------------------------------------------

    def contains(self, point: Sequence[Real]) -> bool:
        """Closed membership, except that strict H-rep faces stay strict; decided
        in the representation it was built with (a vertex list by one LP on its rows)."""
        if len(point) != self.dim:
            raise DimensionMismatch("point length != dim")
        if not self._built_from_vertices:
            return all(h.holds(point) for h in self.halfspaces())
        rows, D = self.integer_vertices()
        p, M = integer_point(point)
        scale = lcm(D, M)
        lp = LinearProgram(len(rows), nonneg=True)
        for c, x in enumerate(p):
            lp.add_eq([r[c] * (scale // D) for r in rows], x * (scale // M))
        lp.add_eq([1] * len(rows), 1)
        return lp.solve().status == OPTIMAL

    def interior_contains(self, point: Sequence[Real]) -> bool:
        """Membership in the interior of the closure."""
        if len(point) != self.dim:
            raise DimensionMismatch("point length != dim")
        return all(rlt(rdot(h.a, point), h.b) for h in self.halfspaces())

    def origin_interior(self) -> bool:
        """Is 0 an interior point?  Read from `_integer_faces`, so decided
        once, in the representation the polytope was built with."""
        return self._integer_faces()[0]

    def translate(self, shift: Sequence[Real]) -> RealPolytope:
        """The polytope moved by ``shift``, in the representation it was built with."""
        if self._built_from_vertices:
            verts = [tuple(x + s for x, s in zip(v, shift)) for v in self.vertices()]
            return RealPolytope(self.dim, vertices=verts)
        faces = [
            Halfspace(h.a, h.b + rdot(h.a, shift), h.strict) for h in self.halfspaces()
        ]
        return RealPolytope(self.dim, halfspaces=faces)

    # -- gauges -----------------------------------------------------------

    def _integer_faces(self) -> tuple[bool, list[tuple[Sequence[int], int]]]:
        """Whether 0 is interior (every b > 0), and the faces a.x <= b scaled to
        integers (a, b), computed once: the `_face_rows` (none unless all are
        exact), or the facets (L*a).x <= beta of its vertex list, from the
        rays (a, beta) that `facet_enumeration` reads."""
        if self._gauge_faces is None:
            if self._built_from_vertices:
                pts, scale = self.integer_vertices()
                rays, _ = _cone_rays([[*p, -1] for p in pts], self.dim + 1)
                faces = [([scale * v for v in a], beta) for *a, beta in rays or ()]
                spans = rays is not None  # else the vertices are flat: 0 is not interior
                self._gauge_faces = (spans and all(b > 0 for _, b in faces), faces)
            elif self._halfspaces is None or all(
                    is_exact(h.b) and all(map(is_exact, h.a)) for h in self._halfspaces):
                rows = self._face_rows()
                self._gauge_faces = (all(r[-1] > 0 for r in rows), [(r[:-1], r[-1]) for r in rows])
            else:
                self._gauge_faces = (all(rlt(0, h.b) for h in self._halfspaces), [])
        return self._gauge_faces

    def gauge(self, point: Sequence[Real]) -> Real:
        """Closed-form gauge max(0, max_i (a_i·x)/b_i) on `_integer_faces`; needs
        all b_i > 0 (Rockafellar, "Convex Analysis", Sections 14-15).

        The point is scaled to integers x = X/L (L > 0) in one pass
        (`integer_point`), which also tells whether it is exact.  Each face
        value is then (a·X)/(b·L) with integer a, b > 0: the largest is found
        by cross-multiplying and divided out once.  A vertex list reads any
        point exactly and returns a `Fraction`, as `gauge_vrep` does;
        halfspaces take float points or faces through `rdiv`, and return the
        plain int 0 when no face value is positive.
        """
        absorbing, faces = self._integer_faces()
        if not absorbing:
            raise NotAbsorbingError("gauge formula requires 0 in the interior")
        vrep = self._built_from_vertices
        scaled = integer_point(point, exact_only=not vrep) if faces else None
        if scaled is not None:
            X, L = scaled
            num, den = 0, 1
            for a, b in faces:
                n = sum(map(mul, a, X))
                if n * den > num * b:
                    num, den = n, b
            return Fraction(num, den * L) if num or vrep else 0
        return max([0, *(rdiv(rdot(h.a, point), h.b) for h in self.halfspaces())])

    def integer_vertices(self) -> IntegerGroup:
        """(R, L): the vertex list times L, the lcm of its denominators, as
        integer rows (see the module docstring), computed once.  Read only."""
        if self._integer_vertices is None:
            self._integer_vertices = (integer_points(self._vertices) if self._built_from_vertices
                                      else vertex_enumeration(self._face_rows(), self.dim))
        return self._integer_vertices

    def gauge_body(self) -> GaugeBody:
        """The V-rep gauge epigraph on the integer vertex rows, built once."""
        if self._gauge_body is None:
            self._gauge_body = GaugeBody(self.integer_vertices())
        return self._gauge_body

    def gauge_vrep(self, point: Sequence[Real]) -> Real:
        """Gauge by LP: min sum(mu) with sum(mu_i v_i) = x, mu >= 0."""
        return self.gauge_body().gauge(point)
