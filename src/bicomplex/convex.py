"""D-convex sets as idempotent pairs of real polytopes.

A D-convex subset of D^n is exactly a product ``e1*P1 + e2*P2`` of two real
convex sets, so the library stores the pair plus one openness flag.  Gauges,
hulls, membership and Minkowski arithmetic all act componentwise.

The translated difference G = A - B + x0 of separation has two forms:
`minkowski_diff_translate` lists its vertices (up to |A|*|B| sums, then a
hull), and `difference_body` pairs two `DifferenceBody` gauges, each the
two-group `polytope.GaugeBody` on A_l + x0_l and -B_l, so G is read from
A's and B's vertices alone.  `difference_body` picks the base points itself
(the centroids of the vertex lists), so 0 is interior to G by construction
and no facet of A or B is read.  Centroids, affine ranks and both point
groups come from the integer vertex rows each `RealPolytope` holds once
(`integer_vertices`): a centroid is column sums over k*L, each coordinate of
x0 = b0 - a0 is one `Fraction` of the centroids' integers, and A's rows are
shifted by x0 on the lcm of the two denominators, so no `Fraction` is built
per point.  Each body keeps its x0_l (`DifferenceBody.shift`), which
`analysis.separate_hyperbolic` reads rather than subtracting again.  The
extension LPs read either form through the same `GaugeBody` epigraph (a
vertex list through the one its `RealPolytope` memoizes).  Separation does not gauge G to decide whether A
meets B: the extension LP's optimum is q_G(x0) in each component, and the
least-gauge LP of a `DifferenceBody` (`GaugeBody.least_gauge`, the solve
every gauge and variety witness shares) runs only for the witness of an
overlap (`meeting_points`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf, lcm
from operator import mul
from typing import Sequence

from .backend import Real, fraction_sum
from .errors import (
    DimensionMismatch,
    EmptyInputError,
    EmptyInteriorError,
    MembershipError,
    NotAbsorbingError,
)
from .polytope import (
    GaugeBody,
    RealPolytope,
    extreme_points,
    integer_affine_rank,
    integer_point,
)
from .scalars import HyperbolicScalar
from .vectors import DVector


@dataclass(frozen=True, slots=True)
class GaugeValue:
    """A hyperbolic gauge value; components may be +inf when nothing absorbs."""

    q1: Real
    q2: Real

    def is_finite(self) -> bool:
        """Only a float can be inf, so exact components are never compared with it."""
        return not (type(self.q1) is float and self.q1 == inf
                    or type(self.q2) is float and self.q2 == inf)

    def hyper(self) -> HyperbolicScalar:
        if not self.is_finite():
            raise NotAbsorbingError("gauge is infinite in some component")
        return HyperbolicScalar(self.q1, self.q2)


@dataclass(frozen=True, slots=True)
class DConvexSet:
    """The set e1*P1 + e2*P2; ``open`` means the interior of both components."""

    p1: RealPolytope
    p2: RealPolytope
    open: bool = False

    def __post_init__(self):
        if self.p1.dim != self.p2.dim:
            raise DimensionMismatch("component polytopes must share a dimension")

    @property
    def dim(self) -> int:
        return self.p1.dim

    def component(self, l: int) -> RealPolytope:
        if l == 1:
            return self.p1
        if l == 2:
            return self.p2
        raise ValueError("component must be 1 or 2")

    def contains(self, x: DVector) -> bool:
        """Membership, honoring the open flag (interior membership when open)."""
        if x.dim != self.dim:
            raise DimensionMismatch("point dim mismatch")
        if self.open:
            return self.p1.interior_contains(x.part1()) and self.p2.interior_contains(x.part2())
        return self.p1.contains(x.part1()) and self.p2.contains(x.part2())

    def vertex_points(self) -> list[DVector]:
        """All mixed vertices e1*v + e2*w of the component polytopes."""
        return [
            DVector.from_parts(v, w)
            for v in self.p1.vertices()
            for w in self.p2.vertices()
        ]


def dconvex_hull(points: Sequence[DVector]) -> DConvexSet:
    """Smallest D-convex superset: the pair of component hulls (closed)."""
    pts = list(points)
    if not pts:
        raise EmptyInputError("hull of nothing")
    dims = {p.dim for p in pts}
    if len(dims) != 1:
        raise DimensionMismatch("mixed dimensions")
    v1 = extreme_points([p.part1() for p in pts])
    v2 = extreme_points([p.part2() for p in pts])
    dim = dims.pop()
    return DConvexSet(
        RealPolytope(dim, vertices=v1),
        RealPolytope(dim, vertices=v2),
        open=False,
    )


def is_dconvex(points: Sequence[DVector]) -> bool:
    """Decide whether a finite point set is exactly a D-convex vertex family.

    The D-convex hull of the set is the product of the component hulls, whose
    vertex candidates are all mixed pairs e1*v + e2*w of component extreme
    points.  A finite set is closed under idempotent-weighted combinations
    exactly when it coincides with that candidate family.
    """
    pts = list(points)
    if not pts:
        return True
    v1 = extreme_points([p.part1() for p in pts])
    v2 = extreme_points([p.part2() for p in pts])
    candidates = {(v, w) for v in v1 for w in v2}
    as_pairs = {
        (tuple(map(Fraction, p.part1())), tuple(map(Fraction, p.part2()))) for p in pts
    }
    return as_pairs == candidates


def is_dabsorbing(B: DConvexSet) -> bool:
    """True iff 0 is interior to both component polytopes."""
    return B.p1.origin_interior() and B.p2.origin_interior()


def minkowski_gauge(B: DConvexSet, x: DVector) -> GaugeValue:
    """The hyperbolic Minkowski gauge e1*q1(x1) + e2*q2(x2).

    Each component gauges itself: a `RealPolytope` by the closed form
    max(0, max_i a_i·x / b_i) on its integer faces (the halfspaces it was
    built with, or its vertex list's facets), a `DifferenceBody` by its
    `GaugeBody` LP.  The route follows the representation a component was
    built with, never what earlier queries derived, so the value does not
    depend on query history.
    """
    if not is_dabsorbing(B):
        raise NotAbsorbingError("gauge needs 0 interior to both components")
    if x.dim != B.dim:
        raise DimensionMismatch("point dim mismatch")
    return GaugeValue(B.p1.gauge(x.part1()), B.p2.gauge(x.part2()))


def minkowski_diff_translate(A: DConvexSet, B: DConvexSet, a0: DVector, b0: DVector) -> DConvexSet:
    """G = A - B + x0 with x0 = b0 - a0; 0 always lands in G.

    The result is V-rep with vertices {a - b + x0} per component and carries
    A's openness (translation and Minkowski difference with a compact set
    preserve interiors of full-dimensional components).
    """
    if A.dim != B.dim:
        raise DimensionMismatch("set dims differ")
    if not A.contains(a0):
        raise MembershipError("a0 is not in A")
    if not B.contains(b0):
        raise MembershipError("b0 is not in B")
    x0 = b0 - a0
    comps = []
    for l in (1, 2):
        shift = x0.part(l)
        averts = A.component(l).vertices()
        bverts = B.component(l).vertices()
        pts = [
            tuple(av[c] - bv[c] + shift[c] for c in range(A.dim))
            for av in averts
            for bv in bverts
        ]
        comps.append(RealPolytope(A.dim, vertices=extreme_points(pts)))
    return DConvexSet(comps[0], comps[1], open=A.open)


class DifferenceBody(GaugeBody):
    """One component of G = A_l - B_l + x0_l, gauged without forming G.

    G is the sum of the hulls of A_l + x0_l and -B_l, so its gauge epigraph
    is the two-group `GaugeBody` on those points: |A| + |B| columns where
    G's vertex list needs up to |A|*|B| sums and a hull.  Both groups come
    from the polytopes' integer vertex rows (`RealPolytope.integer_vertices`)
    with no `Fraction` built: A's rows over L_A are shifted by x0_l on
    E = lcm(L_A, den x0_l), each a*(E/L_A) + X*(E/L_X) over E for x0_l =
    X/L_X, and B's rows are negated over L_B.  0 is interior by
    construction, not decided: `difference_body` builds bodies only for
    x0 = b0 - a0 with a0 the centroid of a full-dimensional A_l (so
    interior) and b0 the centroid of B_l, so 0 = a0 - b0 + x0 is interior
    to G.
    """

    def __init__(self, A_l: RealPolytope, B_l: RealPolytope, x0_l: Sequence[Real]):
        if A_l.dim != B_l.dim or len(x0_l) != A_l.dim:
            raise DimensionMismatch("difference body parts differ in dimension")
        self.shift = tuple(x0_l)  # x0_l, read by `analysis.separate_hyperbolic`
        (rows_a, L_a), (rows_b, L_b) = A_l.integer_vertices(), B_l.integer_vertices()
        X, L_x = self._integer_shift = integer_point(x0_l)
        E = lcm(L_a, L_x)
        ka, kx = E // L_a, E // L_x
        shift = [x * kx for x in X]
        super().__init__(([tuple(a * ka + s for a, s in zip(row, shift)) for row in rows_a], E),
                         ([tuple(-b for b in row) for row in rows_b], L_b))

    def origin_interior(self) -> bool:
        return True

    def meeting_points(self, a0_l: Sequence[Fraction], b0_l: Sequence[Fraction]):
        """(a*, b*) from the gauge LP at x0_l = b0_l - a0_l: t = q(x0_l) and
        weights lambda on A_l + x0_l, nu on -B_l with sum lambda (a + x0) -
        sum nu b = x0, so a* = sum lambda a + (1 - t) a0 = sum nu b + (1 - t) b0
        = b*.  For t < 1, a0 keeps weight 1 - t > 0: a* is interior to A_l.

        The weights are read as integers W over L_w (`LPResult.integer_x`),
        so each coordinate is a few integer dots over the group rows and one
        `Fraction`: a*_c = sum_i W_i R_ic/(L_w E) - (sum_i W_i) X_c/(L_w L_x)
        + (1 - t) a0_c with A's shifted rows R over E and x0_l = X/L_x, and
        b*_c = -sum_j W_j R'_jc/(L_w L_b) + (1 - t) b0_c with B's negated
        rows R' over L_b."""
        res = self.least_gauge(self.shift)
        (rows_a, E), (rows_b, L_b) = self._groups
        X, L_x = self._integer_shift
        W, L_w = res.integer_x
        lam, nu = W[:len(rows_a)], W[len(rows_a):]
        (A0, La), (B0, Lb) = integer_point(a0_l), integer_point(b0_l)
        tn, td = res.value.numerator, res.value.denominator
        rest = td - tn  # 1 - t over td
        weight = sum(lam)
        a_star = tuple(fraction_sum(((sum(map(mul, lam, column)), L_w * E),
                                     (-weight * x, L_w * L_x), (rest * a, td * La)))
                       for column, x, a in zip(zip(*rows_a), X, A0))
        b_star = tuple(fraction_sum(((-sum(map(mul, nu, column)), L_w * L_b), (rest * b, td * Lb)))
                       for column, b in zip(zip(*rows_b), B0))
        return a_star, b_star


def _centroid(P: RealPolytope) -> tuple[Fraction, ...]:
    """The mean of P's vertex list: column sums of its integer rows over k*L."""
    rows, L = P.integer_vertices()
    den = len(rows) * L
    return tuple(Fraction(sum(column), den) for column in zip(*rows))


def difference_body(A: DConvexSet, B: DConvexSet) -> tuple[DConvexSet, DVector, DVector]:
    """(G, a0, b0): G = A - B + x0 with x0 = b0 - a0, as a pair of `DifferenceBody` gauges.

    The same set as `minkowski_diff_translate`, but G is never formed, so
    the pair serves `extend_dominated`, `meeting_points` and
    `minkowski_gauge`, not membership or vertex queries.  a0 and b0 are the
    centroids of A's and B's vertex lists.  Every convex weight of a
    centroid is positive, so a0 is interior to A once each component of A
    is full-dimensional (Rockafellar, "Convex Analysis", Thm 6.9), and b0
    lies in B; then 0 is interior to G with no LP and no facet.  A
    lower-dimensional component of A raises `EmptyInteriorError`.  The
    centroids, the affine rank and both point groups of each body are read
    from the integer vertex rows each polytope holds once, and each
    coordinate of x0 = b0 - a0 is one `Fraction` of the centroids' integers
    (`backend.fraction_sum`).
    """
    if A.dim != B.dim:
        raise DimensionMismatch("set dims differ")
    for l in (1, 2):
        if integer_affine_rank(A.component(l).integer_vertices()[0]) < A.dim:
            raise EmptyInteriorError(
                f"component {l} of the open set is lower-dimensional: its interior is empty",
                component=l,
            )
    a0 = DVector.from_parts(_centroid(A.p1), _centroid(A.p2))
    b0 = DVector.from_parts(_centroid(B.p1), _centroid(B.p2))
    x0 = [tuple(fraction_sum(((b.numerator, b.denominator), (-a.numerator, a.denominator)))
                for a, b in zip(a0.part(l), b0.part(l))) for l in (1, 2)]
    G = DConvexSet(*(DifferenceBody(A.component(l), B.component(l), x0[l - 1]) for l in (1, 2)),
                   open=A.open)
    return G, a0, b0
