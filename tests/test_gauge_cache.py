"""Per-polytope gauge data against the per-query `Fraction` code it replaced.

A `RealPolytope` decides its absorbency once, builds its exact vertex
columns once and scales its faces to integers once; every gauge query then
reuses them.  Seeded sets and points go through the cached methods and
through the references in ``fraction_reference.py``: values and their types
must agree (the closed form returns the plain int 0 when no face value is
positive, a `Fraction` otherwise), on the first query and on every later one.
"""

from fractions import Fraction
from math import inf
from random import Random

import pytest

import fraction_reference as ref
from bicomplex import generators as gen
from bicomplex.convex import DConvexSet, minkowski_gauge
from bicomplex.errors import DimensionMismatch, NotAbsorbingError
from bicomplex.lp import OPTIMAL, LinearProgram
from bicomplex.polytope import Halfspace, RealPolytope, extreme_points
from bicomplex.vectors import DVector

F = Fraction


def _scaled_faces(P: RealPolytope, rng: Random) -> list[Halfspace]:
    """P's faces, each times a random positive rational (the same set)."""
    faces = []
    for h in P.halfspaces():
        k = F(rng.randint(1, 9), rng.randint(1, 4))
        faces.append(Halfspace(tuple(k * x for x in h.a), k * h.b))
    return faces


def _points(P: RealPolytope, rng: Random) -> list[tuple]:
    """Rational, integer and float points, the origin, vertices and beyond."""
    dim = P.dim
    verts = P.vertices()
    pts = [tuple(gen.rand_fraction(rng) for _ in range(dim)) for _ in range(6)]
    pts += [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(3)]
    pts += [tuple(rng.uniform(-3, 3) for _ in range(dim)) for _ in range(2)]
    pts += [(0,) * dim, (F(0),) * dim, verts[0], tuple(2 * x for x in verts[-1])]
    return pts


def _absorbing_polytopes(seed: str, count: int):
    rng = Random(seed)
    for i in range(count):
        yield rng, gen.rand_absorbing_polytope(rng, 1 + i % 3)


def test_hrep_gauge_matches_reference_value_and_type():
    checked = 0
    for rng, V in _absorbing_polytopes("gauge-cache:hrep", 60):
        for faces in (V.halfspaces(), _scaled_faces(V, rng),
                      [Halfspace(tuple(float(x) for x in h.a), float(h.b)) for h in V.halfspaces()]):
            P = RealPolytope.from_halfspaces(faces, V.dim)
            for x in _points(V, rng):
                for _ in range(2):  # the first query fills the cache, the second reuses it
                    got, want = P.gauge(x), ref.gauge_hrep(faces, x)
                    assert type(got) is type(want), (faces, x, got, want)
                    assert got == want, (faces, x)
                checked += 1
    assert checked > 2000


def test_hrep_gauge_zero_is_a_plain_int():
    P = RealPolytope.box(2, F(-1), F(2))
    assert type(P.gauge((F(0), F(0)))) is int
    assert type(P.gauge((F(-1, 3), F(0)))) is Fraction
    assert P.gauge((F(-1, 3), F(0))) == F(1, 3)
    assert RealPolytope.whole_space(2).gauge((F(5), F(1))) == 0


def test_vrep_gauge_matches_reference():
    for rng, P in _absorbing_polytopes("gauge-cache:vrep", 30):
        for x in _points(P, rng):
            got = P.gauge_vrep(x)
            assert got == ref.gauge_vrep(P.vertices(), x)
            assert type(got) is Fraction
    flat = RealPolytope.from_vertices([(F(0), F(0)), (F(1), F(0))])
    assert flat.gauge_vrep((F(1), F(0))) == 1
    assert flat.gauge_vrep((F(0), F(1))) == inf == ref.gauge_vrep(flat.vertices(), (0, 1))


def _origin_cases():
    """Vertex lists with 0 inside, on the boundary, outside, or flat."""
    rng = Random("gauge-cache:origin")
    cases = []
    for i in range(45):
        P = gen.rand_absorbing_polytope(rng, 1 + i % 3)
        verts = list(P.vertices())
        cases.append(verts)
        cases.append([tuple(x - y for x, y in zip(v, verts[0])) for v in verts])
        cases.append([tuple(x + 9 for x in v) for v in verts])
    cases.append([(F(-1), F(0)), (F(1), F(0))])  # a segment through 0 in the plane
    return cases


def test_memoized_origin_interior_agrees_with_a_fresh_polytope():
    answers = set()
    for verts in _origin_cases():
        dim = len(verts[0])
        fresh = RealPolytope.from_vertices(verts).origin_interior()
        P = RealPolytope.from_vertices(verts)
        assert P.origin_interior() == fresh
        assert P.origin_interior() == fresh  # memoized
        try:
            faces = P.halfspaces()
        except DimensionMismatch:  # flat sets have no facets; 0 is never interior
            assert fresh is False
            continue
        assert P.origin_interior() == fresh  # the memo survives the conversion
        Q = RealPolytope.from_vertices(verts)
        Q.halfspaces()  # converted before the first query: still decided from the vertices
        assert Q.origin_interior() == fresh
        assert RealPolytope.from_halfspaces(faces, dim).origin_interior() == fresh
        answers.add(fresh)
    assert answers == {True, False}


def test_not_absorbing_raised_on_every_call():
    faces = [Halfspace((F(1),), F(2)), Halfspace((F(-1),), F(0))]  # [0, 2]: 0 on a face
    P = RealPolytope.from_halfspaces(faces, 1)
    for x in [(F(1),), (F(1),), (F(0),), (1.5,)]:
        with pytest.raises(NotAbsorbingError):
            P.gauge(x)
        with pytest.raises(NotAbsorbingError):
            ref.gauge_hrep(faces, x)
    S = DConvexSet(P, RealPolytope.box(1, F(-1), F(1)))
    x = DVector.from_parts((F(1),), (F(0),))
    for _ in range(3):
        with pytest.raises(NotAbsorbingError):
            minkowski_gauge(S, x)


def test_lp_keeps_exact_coefficients_and_fraction_results():
    lp = LinearProgram(2, nonneg=True)
    lp.add_le([1, 2], 4)
    lp.add_le([F(3, 2), 0.5], 3)
    lp.set_maximize([1, 1])
    assert lp._rows[0][0] == [1, 2] and type(lp._rows[0][0][0]) is int
    assert lp._rows[1][0] == [F(3, 2), F(1, 2)]
    res = lp.solve()
    assert res.status == OPTIMAL
    assert all(type(v) is Fraction for v in res.x) and type(res.value) is Fraction
    assert res.value == F(14, 5)


def test_extreme_point_seeds_match_the_fraction_probes():
    rng = Random("gauge-cache:seeds")
    for trial in range(60):
        dim = 3 + trial % 2
        pts = [tuple(F(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(dim))
               for _ in range(4 + trial % 9)]
        pts += pts[:2]  # duplicates are dropped before probing
        seeds = ref.probe_seeds(pts)
        assert extreme_points(pts)[:len(seeds)] == seeds


def test_extreme_points_match_the_fraction_hull_tests_in_order():
    # the double description keeps the old hull's points in the same order
    # with the same types in dimensions 1-5: duplicates, midpoints and
    # interior points included, on full, flat and float point sets
    rng = Random("gauge-cache:hull")
    for trial in range(150):
        dim = 1 + trial % 5
        pts = [tuple(F(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(dim))
               for _ in range(2 + trial % 11)]
        kind = trial // 5 % 3
        if kind == 1:  # flat: on the hyperplane x_last = 2
            pts = [p[:-1] + (F(2),) for p in pts]
        elif kind == 2:  # binary floats
            pts = [tuple(float(x) for x in p) for p in pts]
        pts += pts[:2]
        pts += [tuple((x + y) / 2 for x, y in zip(pts[i], pts[i + 1])) for i in range(2)]
        pts.append(tuple(sum(c) / len(pts) for c in zip(*pts)))
        got, want = extreme_points(pts), ref.hull_extreme_points(pts)
        assert [[(type(x), x) for x in p] for p in got] == \
            [[(type(x), x) for x in p] for p in want], (dim, pts)
