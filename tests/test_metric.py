"""D-valued metrics, balls, and the nested-ball cover witness."""

from fractions import Fraction
from random import Random

import pytest

from bicomplex.backend import EPSILON
from bicomplex.errors import NotACoverError
from bicomplex.generators import punctured_cover, rand_cover, rand_dvector, rand_hyperbolic
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


def _cover_verdict(cover, bounding):
    """What `check_exact_cover` says: None, or (message, witness)."""
    try:
        check_exact_cover(cover, bounding)
    except NotACoverError as exc:
        return str(exc), exc.witness
    return None


def _brute_force_verdict(cover, bounding):
    """Every grid-cell center against every rectangle, with plain comparisons
    (ε-tolerant once a float is involved, as `rle` and `rlt` are)."""
    def le(a, b):
        return a <= b + EPSILON if isinstance(a, float) or isinstance(b, float) else a <= b

    def lt(a, b):
        return a < b - EPSILON if isinstance(a, float) or isinstance(b, float) else a < b

    for F in cover:
        for l, (lo, hi), (blo, bhi) in ((1, F.c1, bounding.c1), (2, F.c2, bounding.c2)):
            if lt(lo, blo) or lt(bhi, hi):
                out = lo if lt(lo, blo) else hi
                witness = HyperbolicScalar(out, F.c2[0]) if l == 1 else HyperbolicScalar(F.c1[0], out)
                return "rectangle overflows the bounding box", witness

    def centers(values):
        distinct = sorted(set(values))
        return distinct if len(distinct) == 1 else [(a + b) / 2 for a, b in zip(distinct, distinct[1:])]

    xs = [*bounding.c1, *(v for F in cover for v in F.c1)]
    ys = [*bounding.c2, *(v for F in cover for v in F.c2)]
    for cx in centers(xs):
        for cy in centers(ys):
            if not any(le(F.c1[0], cx) and le(cx, F.c1[1]) and le(F.c2[0], cy) and le(cy, F.c2[1])
                       for F in cover):
                return "uncovered point", HyperbolicScalar(cx, cy)
    return None


def _overflowing(rng, cover, bounding):
    """The cover with one member pushed past one side of the box."""
    cover = list(cover)
    k, l, high = rng.randrange(len(cover)), rng.choice((1, 2)), rng.random() < 0.5
    F = cover[k]
    lo, hi = F.interval(l)
    blo, bhi = bounding.interval(l)
    step = Fraction(rng.randint(1, 8), 4)
    edge = (lo, bhi + step) if high else (blo - step, hi)
    cover[k] = RectSet(edge, F.c2) if l == 1 else RectSet(F.c1, edge)
    return cover


def _jittered_float_cover(rng, cover, bounding):
    """The cover in floats, each inner edge moved by 0, 0.3, 0.8 or 3 EPSILON
    either way: a gap or overlap within the tolerance is covered."""
    box = ((float(bounding.c1[0]), float(bounding.c1[1])), (float(bounding.c2[0]), float(bounding.c2[1])))

    def move(v, l):
        v = float(v)
        if v in box[l - 1]:
            return v
        return v + rng.choice((0, 0.3, 0.8, 3)) * rng.choice((-1, 1)) * EPSILON

    rects = [RectSet((move(F.c1[0], 1), move(F.c1[1], 1)), (move(F.c2[0], 2), move(F.c2[1], 2)))
             for F in cover]
    return rects, RectSet(*box)


class TestCoverGrid:
    """`check_exact_cover` marks a grid of cell centers per rectangle; its
    verdict and first witness are those of the per-center test."""

    BOX = RectSet((Fraction(0), Fraction(2)), (Fraction(0), Fraction(2)))
    INSIDE = RectSet((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1)))

    @pytest.mark.parametrize("F, witness", [
        (RectSet((Fraction(1), Fraction(3)), (Fraction(0), Fraction(1))), (3, 0)),
        (RectSet((Fraction(-1), Fraction(1)), (Fraction(0), Fraction(1))), (-1, 0)),
        (RectSet((Fraction(0), Fraction(1)), (Fraction(1), Fraction(3))), (0, 3)),
        (RectSet((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(1))), (0, -1)),
    ])
    def test_overflow_witness_lies_in_the_rectangle_outside_the_box(self, F, witness):
        with pytest.raises(NotACoverError, match="overflows") as info:
            check_exact_cover([self.INSIDE, F], self.BOX)
        w = info.value.witness
        assert w == HyperbolicScalar(*witness)
        assert F.contains(w) and not self.BOX.contains(w)

    @pytest.mark.parametrize("c1, c2", [
        ((0, 1 + 1e-12), (0, 1)),
        ((-1e-12, 1), (0, 1)),
        ((0, 1), (0, 1 + 1e-12)),
        ((0.0, 1.0), (-1e-12, 1.0)),
    ])
    def test_float_edge_within_epsilon_of_the_box_does_not_overflow(self, c1, c2):
        # the box reads such an edge as on it (`RectSet.contains` is ε-tolerant),
        # so the rectangle covers the box exactly as the cover check reads it
        box = RectSet((0, 1), (0, 1))
        F = RectSet(c1, c2)
        assert box.contains(HyperbolicScalar(c1[1], c2[0])) and box.contains(HyperbolicScalar(c1[0], c2[1]))
        check_exact_cover([F], box)

    @pytest.mark.parametrize("c1, c2, witness", [
        ((0, 1 + 1e-6), (0, 1), (1 + 1e-6, 0)),
        ((-1e-6, 1), (0, 1), (-1e-6, 0)),
        ((0, 1), (0, 1 + 1e-6), (0, 1 + 1e-6)),
        ((0, 1), (-1e-6, 1), (0, -1e-6)),
    ])
    def test_float_overflow_beyond_epsilon_is_refused(self, c1, c2, witness):
        box = RectSet((0, 1), (0, 1))
        F = RectSet(c1, c2)
        with pytest.raises(NotACoverError, match="overflows") as info:
            check_exact_cover([F], box)
        w = info.value.witness
        assert w == HyperbolicScalar(*witness)
        assert F.contains(w) and not box.contains(w)

    def test_exact_overflow_has_no_tolerance(self):
        tiny = Fraction(1, 10**12)
        box = RectSet((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1)))
        for F in (RectSet((Fraction(0), 1 + tiny), (Fraction(0), Fraction(1))),
                  RectSet((Fraction(0), Fraction(1)), (-tiny, Fraction(1)))):
            with pytest.raises(NotACoverError, match="overflows") as info:
                check_exact_cover([F], box)
            assert F.contains(info.value.witness) and not box.contains(info.value.witness)
        check_exact_cover([RectSet((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1)))], box)

    def test_matches_the_brute_force_check_on_random_covers(self):
        verdicts = {"covered": 0, "uncovered point": 0, "rectangle overflows the bounding box": 0}
        for k in range(250):
            rng = Random(f"cover-grid:{k}")
            splits = rng.randint(0, 9)
            pairs = [rand_cover(rng, splits), punctured_cover(rng, max(splits, 1))]
            cover, bounding = rand_cover(rng, splits)
            pairs.append((_overflowing(rng, cover, bounding), bounding))
            for cover, bounding in pairs:
                got, want = _cover_verdict(cover, bounding), _brute_force_verdict(cover, bounding)
                assert got == want and repr(got) == repr(want)
                verdicts["covered" if got is None else got[0]] += 1
        assert min(verdicts.values()) >= 200, verdicts

    def test_covers_mixing_exact_and_float_edges_within_epsilon(self):
        # `rle` is not monotone along sorted centers that mix exact and float
        # values, so a bisection of the centers would miss cells here
        half = Fraction(1, 2)
        edges = [half, half + Fraction(1, 10**12), half - Fraction(1, 10**12), half + Fraction(3, 10**10),
                 0.5 - 1e-12, 0.5 + 1e-12, 0.5 + 5e-10, Fraction(1, 4), 0.25, Fraction(3, 4), Fraction(0), Fraction(1)]
        thirds = [Fraction(0), half, Fraction(1)]
        box = RectSet((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1)))
        for k in range(3000):
            rng = Random(k)
            cover = [RectSet(tuple(sorted(rng.sample(edges, 2))), tuple(sorted(rng.sample(thirds, 2))))
                     for _ in range(rng.randint(1, 4))]
            got, want = _cover_verdict(cover, box), _brute_force_verdict(cover, box)
            assert got == want and repr(got) == repr(want)

    def test_float_covers_keep_the_tolerance(self):
        tolerated = uncovered = 0
        for k in range(300):
            rng = Random(f"float-cover-grid:{k}")
            cover, bounding = _jittered_float_cover(rng, *rand_cover(rng, rng.randint(2, 9)))
            got, want = _cover_verdict(cover, bounding), _brute_force_verdict(cover, bounding)
            assert got == want and repr(got) == repr(want)
            uncovered += got is not None
            # covered only because gaps within EPSILON count as covered
            exact = [RectSet(tuple(map(Fraction, F.c1)), tuple(map(Fraction, F.c2))) for F in cover]
            exact_box = RectSet(tuple(map(Fraction, bounding.c1)), tuple(map(Fraction, bounding.c2)))
            tolerated += got is None and _cover_verdict(exact, exact_box) is not None
        assert tolerated >= 20 and uncovered >= 20, (tolerated, uncovered)
