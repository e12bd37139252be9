"""D-convex sets as idempotent pairs of real polytopes.

A D-convex subset of D^n is exactly a product ``e1*P1 + e2*P2`` of two real
convex sets, so the library stores the pair plus one openness flag.  Gauges,
hulls, membership and Minkowski arithmetic all act componentwise.

The translated difference G = A - B + x0 of separation has two forms:
`minkowski_diff_translate` lists its vertices (up to |A|*|B| sums, then a
hull), and `difference_body` pairs two `DifferenceBody` gauges that read G
from A's and B's vertices alone.  The gauge and the extension LPs accept
either.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf
from operator import mul
from typing import Sequence

from .backend import Real
from .errors import (
    DimensionMismatch,
    EmptyInputError,
    MembershipError,
    NotAbsorbingError,
)
from .lp import OPTIMAL, LinearProgram
from .polytope import RealPolytope, extreme_points
from .scalars import HyperbolicScalar
from .vectors import DVector


@dataclass(frozen=True, slots=True)
class GaugeValue:
    """A hyperbolic gauge value; components may be +inf when nothing absorbs."""

    q1: Real
    q2: Real

    def is_finite(self) -> bool:
        return self.q1 != inf and self.q2 != inf

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

    H-rep components use the closed form max(0, max_i a_i·x / b_i); V-rep
    components solve the exact LP min sum(mu) with sum(mu_i v_i) = x.
    """
    if not is_dabsorbing(B):
        raise NotAbsorbingError("gauge needs 0 interior to both components")
    if x.dim != B.dim:
        raise DimensionMismatch("point dim mismatch")
    return GaugeValue(
        _component_gauge(B.p1, x.part1()),
        _component_gauge(B.p2, x.part2()),
    )


def _component_gauge(P: RealPolytope, v: Sequence[Real]) -> Real:
    if P.has_hrep():
        return P.gauge_hrep(v)
    return P.gauge_vrep(v)


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


class DifferenceBody:
    """One component of G = A_l - B_l + x0_l, gauged without forming G.

    A point of G is a - b + x0, so its gauge epigraph is
    y - t*x0 = sum_i lambda_i a_i - sum_j nu_j b_j with lambda, nu >= 0 and
    sum(lambda) = sum(nu) = t (the Minkowski-sum epigraph of Fukuda 2004):
    |A| + |B| columns where G's vertex list needs up to |A|*|B| sums and a
    hull.  With t = sum(lambda), the columns are a_i + x0 for lambda and
    -b_j for nu, one balance row says sum(lambda) - sum(nu) = 0, and the
    t-weights are 1 on lambda and 0 on nu.  The exact columns are built
    once, with the body.

    It offers what the gauge and the extension LPs read from a V-rep
    polytope: `gauge_lp`, `gauge_weights`, `gauge_vrep`, `form_max` and
    `origin_interior`.  The last is true by construction, not decided:
    `difference_body` builds bodies only for x0 = b0 - a0 with a0 interior
    to A and b0 in B, so 0 = a0 - b0 + x0 is interior to G.
    """

    def __init__(self, A_l: RealPolytope, B_l: RealPolytope, x0_l: Sequence[Real]):
        if A_l.dim != B_l.dim or len(x0_l) != A_l.dim:
            raise DimensionMismatch("difference body parts differ in dimension")
        self.dim = A_l.dim
        shift = [Fraction(x) for x in x0_l]
        self._x0 = shift
        self._a = [[Fraction(x) for x in v] for v in A_l.vertices()]
        self._b = [[Fraction(x) for x in v] for v in B_l.vertices()]
        self._columns = [[a[c] + shift[c] for a in self._a] + [-b[c] for b in self._b]
                         for c in range(self.dim)]
        self._weights = [1] * len(self._a) + [0] * len(self._b)
        self._balance = [1] * len(self._a) + [-1] * len(self._b)

    def has_hrep(self) -> bool:
        return False

    def origin_interior(self) -> bool:
        return True

    def gauge_lp(self, span: Sequence[Sequence[Real]], shift: Sequence[Real]) -> LinearProgram:
        """The epigraph over an affine subspace, objective unset: variables
        s (free, one per span vector), then lambda and nu (nonnegative), with
        the rows of `RealPolytope.gauge_lp` and the balance row."""
        p, k = len(span), len(self._weights)
        lp = LinearProgram(p + k, nonneg=[False] * p + [True] * k)
        for c, column in enumerate(self._columns):
            lp.add_eq([-u[c] for u in span] + column, shift[c])
        lp.add_eq([0] * p + self._balance, 0)
        return lp

    def gauge_weights(self) -> list[int]:
        """The t-weight of each column of `gauge_lp`: 1 on lambda, 0 on nu."""
        return self._weights

    def gauge_vrep(self, point: Sequence[Real]) -> Real:
        """q_G(point): the least t over the epigraph, inf when nothing absorbs it."""
        lp = self.gauge_lp((), point)
        lp.set_minimize(self._weights)
        res = lp.solve()
        return res.value if res.status == OPTIMAL else inf

    def form_max(self, coeffs: Sequence[Fraction]) -> Fraction:
        """max over G of an exact linear form f: max_A f - min_B f + f(x0)."""
        return (max(sum(map(mul, coeffs, a)) for a in self._a)
                - min(sum(map(mul, coeffs, b)) for b in self._b)
                + sum(map(mul, coeffs, self._x0)))


def difference_body(A: DConvexSet, B: DConvexSet, a0: DVector, b0: DVector) -> DConvexSet:
    """G = A - B + x0 with x0 = b0 - a0, as a pair of `DifferenceBody` gauges.

    The same set as `minkowski_diff_translate`, but G is never formed, so
    the pair serves `minkowski_gauge` and `extend_dominated`, not membership
    or vertex queries.  a0 must be interior to A (which is membership when A
    is open) and b0 in B; then 0 is interior to G with no LP.
    """
    if A.dim != B.dim:
        raise DimensionMismatch("set dims differ")
    if not all(A.component(l).interior_contains(a0.part(l)) for l in (1, 2)):
        raise MembershipError("a0 is not in A")
    if not B.contains(b0):
        raise MembershipError("b0 is not in B")
    x0 = b0 - a0
    return DConvexSet(
        *(DifferenceBody(A.component(l), B.component(l), x0.part(l)) for l in (1, 2)),
        open=A.open,
    )
