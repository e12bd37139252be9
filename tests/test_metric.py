"""D-valued metrics, balls, and the nested-ball cover witness."""

from fractions import Fraction
from random import Random

import pytest

from bicomplex.errors import NotACoverError
from bicomplex.generators import rand_cover, rand_dvector, rand_hyperbolic
from bicomplex.metric import (
    DBall,
    RectSet,
    baire_witness,
    ball_contains,
    ball_in_rect,
    check_exact_cover,
    dmetric,
    dnorm,
)
from bicomplex.order import le, lt_strict
from bicomplex.scalars import HyperbolicScalar
from bicomplex.vectors import DVector


def h(a, b):
    return HyperbolicScalar(Fraction(a), Fraction(b))


class TestMetric:
    def test_self_distance_zero(self):
        x = DVector.of(h(3, -1), h(2, 5))
        assert dmetric(x, x).is_zero()

    def test_component_absolute_differences(self):
        assert dmetric(DVector.of(h(0, 0)), DVector.of(h(3, 4))) == h(3, 4)

    def test_triangle_inequality(self):
        rng = Random("triangle")
        for _ in range(300):
            x, y, z = (rand_dvector(rng, 2) for _ in range(3))
            assert le(dmetric(x, z), dmetric(x, y) + dmetric(y, z))

    def test_symmetry_and_translation_invariance(self):
        rng = Random("sym")
        for _ in range(100):
            x, y, t = (rand_dvector(rng, 2) for _ in range(3))
            assert dmetric(x, y) == dmetric(y, x)
            assert dmetric(x + t, y + t) == dmetric(x, y)

    def test_norm_identities(self):
        rng = Random("norm-ids")
        for _ in range(100):
            x, y = rand_dvector(rng, 3), rand_dvector(rng, 3)
            assert dnorm(x).is_zero() == all(c.is_zero() for c in x.coords)
            assert le(dnorm(x + y), dnorm(x) + dnorm(y))
            assert dnorm(-x) == dnorm(x)

    def test_scalar_continuity_bound(self):
        rng = Random("scalar-cont")
        for _ in range(100):
            lam, lam0 = rand_hyperbolic(rng), rand_hyperbolic(rng)
            x, x0 = rand_dvector(rng, 2), rand_dvector(rng, 2)
            lhs = dnorm(x.scale(lam) - x0.scale(lam0))
            rhs = lam.abs_k() * dnorm(x - x0) + (lam - lam0).abs_k() * dnorm(x0)
            assert le(lhs, rhs)


class TestBalls:
    def test_center_inside(self):
        B = DBall(DVector.of(h(0, 0)), h(1, 2))
        assert ball_contains(B, B.center)

    def test_boundary_excluded(self):
        B = DBall(DVector.of(h(0, 0)), h(1, 2))
        assert not ball_contains(B, DVector.of(h(1, 0)))

    def test_componentwise_strict(self):
        B = DBall(DVector.of(h(0, 0)), h(1, 2))
        assert ball_contains(B, DVector.of(HyperbolicScalar(0.5, 1.5)))

    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError):
            DBall(DVector.of(h(0, 0)), h(1, 0))


class TestCovers:
    def quadrants(self):
        return [
            RectSet((Fraction(-1), Fraction(0)), (Fraction(-1), Fraction(0))),
            RectSet((Fraction(-1), Fraction(0)), (Fraction(0), Fraction(1))),
            RectSet((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0))),
            RectSet((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1))),
        ]

    def bounding(self):
        return RectSet((Fraction(-1), Fraction(1)), (Fraction(-1), Fraction(1)))

    def test_quadrant_cover_witness(self):
        idx, ball = baire_witness(self.quadrants(), self.bounding())
        assert 0 <= idx < 4
        assert ball_in_rect(ball, self.quadrants()[idx])
        assert lt_strict(HyperbolicScalar.zero(), ball.radius)

    def test_single_rectangle_cover(self):
        idx, ball = baire_witness([self.bounding()], self.bounding())
        assert idx == 0
        assert ball_in_rect(ball, self.bounding())

    def test_gap_detected(self):
        rects = self.quadrants()
        rects[3] = RectSet((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1, 2)))
        with pytest.raises(NotACoverError) as info:
            baire_witness(rects, self.bounding())
        w = info.value.witness
        assert w is not None
        B = self.bounding()
        assert B.contains(w)
        assert not any(r.contains(w) for r in rects)

    def test_bounding_box_is_required(self):
        with pytest.raises(TypeError):
            baire_witness(self.quadrants())

    def test_exact_cover_check_passes(self):
        check_exact_cover(self.quadrants(), self.bounding())

    def test_random_covers(self):
        rng = Random("covers")
        for _ in range(20):
            cover, bounding = rand_cover(rng)
            idx, ball = baire_witness(cover, bounding)
            assert ball_in_rect(ball, cover[idx])
