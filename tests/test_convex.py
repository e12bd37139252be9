"""D-convex sets, gauges, hulls, absorbency, Minkowski arithmetic."""

from fractions import Fraction
from math import inf
from random import Random

import pytest

from bicomplex.convex import (
    DConvexSet,
    GaugeValue,
    dconvex_hull,
    is_dabsorbing,
    is_dconvex,
    minkowski_diff_translate,
    minkowski_gauge,
)
from bicomplex.errors import EmptyInputError, MembershipError, NotAbsorbingError
from bicomplex.generators import rand_absorbing_pair, rand_dvector
from bicomplex.order import le
from bicomplex.polytope import RealPolytope
from bicomplex.scalars import HyperbolicScalar
from bicomplex.vectors import DVector


def h(a, b):
    return HyperbolicScalar(Fraction(a), Fraction(b))


def box_pair(lo=-1, hi=1, open_flag=False) -> DConvexSet:
    B = RealPolytope.box(1, Fraction(lo), Fraction(hi))
    return DConvexSet(B, B, open=open_flag)


class TestGauge:
    def test_unit_interval_pair(self):
        q = minkowski_gauge(box_pair(), DVector.of(h(2, 3))).hyper()
        assert q == h(2, 3)

    def test_zero(self):
        q = minkowski_gauge(box_pair(), DVector.zero(1)).hyper()
        assert q.is_zero()

    def test_boundary_is_one(self):
        q = minkowski_gauge(box_pair(), DVector.of(h(1, -1))).hyper()
        assert q == h(1, 1)

    def test_membership_iff_gauge_le_one(self):
        rng = Random("gauge-member")
        for _ in range(50):
            A = rand_absorbing_pair(rng, 2)
            x = rand_dvector(rng, 2)
            q = minkowski_gauge(A, x).hyper()
            assert le(q, HyperbolicScalar.one()) == A.contains(x)

    def test_open_membership_strict(self):
        A = box_pair(open_flag=True)
        assert not A.contains(DVector.of(h(1, 0)))
        assert A.contains(DVector.of(HyperbolicScalar(Fraction(1, 2), 0)))

    def test_nonabsorbing_rejected(self):
        P = RealPolytope.from_vertices([(Fraction(1),), (Fraction(2),)])
        with pytest.raises(NotAbsorbingError):
            minkowski_gauge(DConvexSet(P, P), DVector.of(h(1, 1))).hyper()

    def test_sublinear_and_homogeneous(self):
        rng = Random("gauge-laws")
        for _ in range(30):
            A = rand_absorbing_pair(rng, 2)
            x, y = rand_dvector(rng, 2), rand_dvector(rng, 2)
            qx = minkowski_gauge(A, x).hyper()
            qy = minkowski_gauge(A, y).hyper()
            qs = minkowski_gauge(A, x + y).hyper()
            assert le(qs, qx + qy)
            lam = h(3, Fraction(1, 2))
            assert minkowski_gauge(A, x.scale(lam)).hyper() == lam * qx


class TestHulls:
    def test_component_hulls(self):
        pts = [DVector.of(h(0, 0)), DVector.of(h(1, 0))]
        hull = dconvex_hull(pts)
        assert sorted(hull.p1.vertices()) == [(0,), (1,)]
        assert list(hull.p2.vertices()) == [(0,)]

    def test_single_point(self):
        hull = dconvex_hull([DVector.of(h(2, 3))])
        assert list(hull.p1.vertices()) == [(2,)]
        assert list(hull.p2.vertices()) == [(3,)]

    def test_idempotence(self):
        rng = Random("hull-idem")
        pts = [rand_dvector(rng, 2) for _ in range(6)]
        hull = dconvex_hull(pts)
        again = dconvex_hull(hull.vertex_points())
        assert sorted(again.p1.vertices()) == sorted(hull.p1.vertices())
        assert sorted(again.p2.vertices()) == sorted(hull.p2.vertices())

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            dconvex_hull([])


class TestDConvexity:
    def test_pair_fails_product_passes(self):
        x, y = DVector.of(h(0, 0)), DVector.of(h(1, 1))
        # the idempotent weight e1 mixes parts: needs (0,1) and (1,0) too
        assert not is_dconvex([x, y])
        full = [x, y, DVector.of(h(0, 1)), DVector.of(h(1, 0))]
        assert is_dconvex(full)

    def test_singleton(self):
        assert is_dconvex([DVector.of(h(5, -5))])

    def test_midpoint_in_hull(self):
        x, y = DVector.of(h(0, 0)), DVector.of(h(2, 2))
        hull = dconvex_hull([x, y])
        mid = x.scale(HyperbolicScalar(Fraction(1, 2), Fraction(1, 2))) + y.scale(
            HyperbolicScalar(Fraction(1, 2), Fraction(1, 2))
        )
        assert hull.contains(mid)


class TestAbsorbing:
    def test_box_around_zero(self):
        assert is_dabsorbing(box_pair())

    def test_shifted_box_not_absorbing(self):
        P = RealPolytope.from_vertices([(Fraction(1),), (Fraction(2),)])
        good = RealPolytope.box(1, Fraction(-1), Fraction(1))
        assert not is_dabsorbing(DConvexSet(P, good))

    def test_whole_space(self):
        W = RealPolytope.whole_space(1)
        assert is_dabsorbing(DConvexSet(W, W))


class TestMinkowskiDifference:
    def test_point_minus_itself(self):
        p = RealPolytope.from_vertices([(Fraction(2),)])
        S = DConvexSet(p, p)
        x = DVector.of(h(2, 2))
        G = minkowski_diff_translate(S, S, x, x)
        assert list(G.p1.vertices()) == [(0,)]
        assert list(G.p2.vertices()) == [(0,)]

    def test_interval_minus_point(self):
        A = box_pair()
        B = DConvexSet(
            RealPolytope.from_vertices([(Fraction(2),)]),
            RealPolytope.from_vertices([(Fraction(2),)]),
        )
        G = minkowski_diff_translate(A, B, DVector.zero(1), DVector.of(h(2, 2)))
        assert sorted(G.p1.vertices()) == [(-1,), (1,)]
        assert sorted(G.p2.vertices()) == [(-1,), (1,)]

    def test_zero_always_inside(self):
        rng = Random("diff-zero")
        for _ in range(20):
            A = rand_absorbing_pair(rng, 2)
            B = rand_absorbing_pair(rng, 2)
            G = minkowski_diff_translate(A, B, DVector.zero(2), DVector.zero(2))
            assert G.contains(DVector.zero(2))

    def test_membership_enforced(self):
        A = box_pair()
        far = DVector.of(h(9, 9))
        with pytest.raises(MembershipError):
            minkowski_diff_translate(A, A, far, DVector.zero(1))


class TestGaugeValue:
    def test_segment_gauge_rejected_up_front(self):
        P = RealPolytope.from_vertices([(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))])
        S = DConvexSet(P, P)
        with pytest.raises(NotAbsorbingError):
            minkowski_gauge(S, DVector.of(h(0, 0), h(1, 1)))

    def test_infinite_marker(self):
        gv = GaugeValue(Fraction(1), inf)
        assert not gv.is_finite()
        with pytest.raises(NotAbsorbingError):
            gv.hyper()
        assert GaugeValue(Fraction(1), Fraction(2)).hyper() == HyperbolicScalar(
            Fraction(1), Fraction(2)
        )

    def test_is_finite_compares_no_exact_component_with_inf(self, monkeypatch):
        compared = []
        eq = Fraction.__eq__
        monkeypatch.setattr(Fraction, "__eq__", lambda a, b: compared.append(b) or eq(a, b))
        for q in (Fraction(1, 3), Fraction(0), 2, 0, 1.5):
            assert GaugeValue(q, Fraction(5)).is_finite() and GaugeValue(7, q).is_finite()
        for q in (Fraction(1, 3), 2, 1.5):
            assert not GaugeValue(q, float("inf")).is_finite()
            assert not GaugeValue(float("inf"), q).is_finite()
        assert compared == []
