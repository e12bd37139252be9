"""Exact polytope geometry: hulls, representations, gauges, linear algebra."""

import json
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from bicomplex.errors import EmptySetError, NotAbsorbingError
from bicomplex.lp import LinearProgram, OPTIMAL
from bicomplex.polytope import (
    Halfspace,
    RealPolytope,
    extreme_points,
    matrix_rank,
    point_in_hull,
)
from bicomplex.serialize import encode_polytope


def fr(*vals):
    return tuple(Fraction(v) for v in vals)


def brute_force_extremes(points):
    """A point is extreme iff it is outside the hull of the others."""
    unique = []
    for p in points:
        q = fr(*p)
        if q not in unique:
            unique.append(q)
    if len(unique) == 1:
        return unique
    return [p for p in unique if not point_in_hull(p, [q for q in unique if q != p])]


class TestLinearAlgebra:
    def test_matrix_rank(self):
        assert matrix_rank([[1, 0], [0, 1]]) == 2
        assert matrix_rank([[1, 2], [2, 4]]) == 1
        assert matrix_rank([[0, 0]]) == 0


class TestExtremePoints:
    def test_interval(self):
        pts = [fr(0), fr(3), fr(1), fr(2)]
        assert sorted(extreme_points(pts)) == [fr(0), fr(3)]

    def test_duplicates_collapse(self):
        pts = [fr(1, 1), fr(1, 1), fr(0, 0)]
        assert sorted(extreme_points(pts)) == [fr(0, 0), fr(1, 1)]

    def test_midpoints_dropped_2d(self):
        square = [fr(0, 0), fr(2, 0), fr(0, 2), fr(2, 2)]
        pts = square + [fr(1, 1), fr(1, 0), fr(2, 1)]
        assert sorted(extreme_points(pts)) == sorted(square)

    def test_matches_brute_force(self):
        rng = Random("extremes")
        for trial in range(40):
            dim = 1 + trial % 3
            pts = [
                fr(*[Fraction(rng.randint(-8, 8), rng.randint(1, 2)) for _ in range(dim)])
                for _ in range(3 + trial % 7)
            ]
            # add some midpoints to create interior/boundary non-extreme points
            for a, b in list(combinations(pts[:4], 2)):
                pts.append(tuple((x + y) / 2 for x, y in zip(a, b)))
            assert sorted(extreme_points(pts)) == sorted(brute_force_extremes(pts))

    def test_single_point(self):
        assert extreme_points([fr(5, 5, 5)]) == [fr(5, 5, 5)]


class TestRepresentations:
    def test_box_halfspaces_to_vertices(self):
        B = RealPolytope.box(2, Fraction(-1), Fraction(1))
        expect = {fr(-1, -1), fr(-1, 1), fr(1, -1), fr(1, 1)}
        assert set(B.vertices()) == expect

    def test_vertices_to_halfspaces_round_trip(self):
        verts = [fr(0, 0), fr(2, 0), fr(0, 2)]
        P = RealPolytope.from_vertices(verts)
        Q = RealPolytope.from_halfspaces(P.halfspaces(), 2)
        assert sorted(Q.vertices()) == sorted(verts)

    def test_dim3_round_trip(self):
        verts = [fr(*v) for v in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))]
        P = RealPolytope.from_vertices(verts)
        Q = RealPolytope.from_halfspaces(P.halfspaces(), 3)
        assert sorted(Q.vertices()) == sorted(verts)

    def test_empty_vrep_rejected(self):
        with pytest.raises(EmptySetError):
            RealPolytope.from_vertices([])

    def test_both_representations_rejected(self):
        # the box (±1, ±1) with unchecked faces |x_i| <= 10 would answer
        # contains((5, 0)) from the vertices and interior_contains from the faces
        square = [fr(x, y) for x in (-1, 1) for y in (-1, 1)]
        faces = [Halfspace(fr(*a), Fraction(10)) for a in ((1, 0), (-1, 0), (0, 1), (0, -1))]
        with pytest.raises(ValueError, match="not both"):
            RealPolytope(2, vertices=square, halfspaces=faces)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_translate_keeps_the_built_representation(self, dim):
        faces = [Halfspace(tuple(Fraction(s if i == c else 0) for i in range(dim)), Fraction(c + 1, 2),
                           strict=c == 0)
                 for c in range(dim) for s in (1, -1)]
        shift = [Fraction(c + 1, 3) for c in range(dim)]
        before = RealPolytope.from_halfspaces(faces, dim).translate(shift)
        used = RealPolytope.from_halfspaces(faces, dim)
        used.vertices()
        after = used.translate(shift)
        assert not after.built_from_vertices()
        assert json.dumps(encode_polytope(after)) == json.dumps(encode_polytope(before))
        verts = RealPolytope.from_vertices(used.vertices())
        verts.halfspaces()
        assert verts.translate(shift).built_from_vertices()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_repr_is_the_built_representation(self, dim):
        # failure records print polytopes: the text must not hold an address
        # or depend on which representation has been derived since
        faces = [Halfspace(tuple(Fraction(s if i == c else 0) for i in range(dim)), Fraction(c + 1, 2))
                 for c in range(dim) for s in (1, -1)]
        H1, H2 = (RealPolytope.from_halfspaces(faces, dim) for _ in range(2))
        V1, V2 = (RealPolytope.from_vertices(H1.vertices()) for _ in range(2))
        texts = {P: repr(P) for P in (H1, H2, V1, V2)}
        assert texts[H1] == texts[H2] and texts[V1] == texts[V2] != texts[H1]
        assert not any("0x" in t for t in texts.values())
        assert texts[H1].startswith("RealPolytope(") and "halfspaces=" in texts[H1]
        assert "vertices=" in texts[V1]
        H2.vertices()
        V2.halfspaces()
        assert repr(H2) == texts[H1] and repr(V2) == texts[V1]


class TestMembership:
    def test_contains(self):
        P = RealPolytope.from_vertices([fr(0, 0), fr(2, 0), fr(0, 2)])
        assert P.contains(fr(1, 0))
        assert P.contains(fr(Fraction(1, 2), Fraction(1, 2)))
        assert not P.contains(fr(2, 2))

    def test_interior(self):
        P = RealPolytope.box(1, Fraction(-1), Fraction(1))
        assert P.interior_contains(fr(0))
        assert not P.interior_contains(fr(1))

    def test_point_in_hull(self):
        tri = [fr(0, 0), fr(4, 0), fr(0, 4)]
        assert point_in_hull(fr(1, 1), tri)
        assert not point_in_hull(fr(3, 3), tri)


class TestGauges:
    def test_hrep_closed_form(self):
        B = RealPolytope.box(1, Fraction(-1), Fraction(1))
        assert B.gauge(fr(2)) == 2
        assert B.gauge(fr(0)) == 0
        assert B.gauge(fr(-3)) == 3

    def test_vrep_lp_agrees(self):
        B = RealPolytope.from_vertices([fr(-1, -1), fr(1, -1), fr(0, 2)])
        for pt in (fr(0, 0), fr(1, 1), fr(Fraction(1, 2), Fraction(-1, 2)), fr(0, 2)):
            assert B.gauge_vrep(pt) == B.gauge(pt)

    def test_boundary_point_gauges_to_one(self):
        B = RealPolytope.box(2, Fraction(-2), Fraction(2))
        assert B.gauge(fr(2, 1)) == 1

    def test_nonabsorbing_rejected(self):
        P = RealPolytope.from_vertices([fr(1), fr(2)])
        with pytest.raises(NotAbsorbingError):
            P.gauge(fr(1))

    def test_gauge_vrep_infinite_outside_cone(self):
        P = RealPolytope.from_vertices([fr(0, 0), fr(1, 0)])
        # (0,1) is never inside alpha*P
        from math import inf

        assert P.gauge_vrep(fr(0, 1)) == inf


class TestHalfspace:
    def test_strict_flag_default(self):
        hs = Halfspace((Fraction(1),), Fraction(1))
        assert not hs.strict

    def test_lp_cross_check_gauge(self):
        # independent check of gauge_vrep: min alpha with x in alpha*conv(V)
        V = [fr(-1, -1), fr(1, -1), fr(0, 2)]
        P = RealPolytope.from_vertices(V)
        x = fr(Fraction(1, 3), Fraction(1, 3))
        lp = LinearProgram(1 + len(V), nonneg=True)
        for d in range(2):
            lp.add_eq([0] + [v[d] for v in V], x[d])
        lp.add_eq([-1] + [1] * len(V), 0)
        lp.set_minimize([1] + [0] * len(V))
        res = lp.solve()
        assert res.status == OPTIMAL
        assert res.value == P.gauge_vrep(x)
