"""Vertex order and vertex-list absorbency against the hull tests they replaced.

`extreme_points`, the vertex order of `vertex_enumeration` and the
vertex-list `origin_interior` all come from the double description
(``test_gauge_cache.py`` checks `extreme_points` itself).  Seeded point
sets in dimensions 1-5 (full-dimensional, flat, collinear, float and with
duplicates and interior points) go through the library and through the
references in ``fraction_reference.py``: the same vertices in the same
order with the same types, and the same absorbency answer.  None of them
solves an LP.
"""

from fractions import Fraction
from random import Random

import pytest

import fraction_reference as ref
from bicomplex import generators as gen
from bicomplex.errors import BicomplexError
from bicomplex.lp import LinearProgram
from bicomplex.polytope import RealPolytope, extreme_points, facet_enumeration

F = Fraction


def _point_sets(seed: str, count: int):
    """(dim, points): full, flat, float, duplicated, collinear and one-point sets."""
    rng = Random(seed)
    for trial in range(count):
        dim = 1 + trial % 5
        kind = trial // 5 % 6
        n = rng.randint(2, 11)
        pts = [tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(dim))
               for _ in range(n)]
        if kind == 1:  # flat: on the hyperplane x_last = 2
            pts = [p[:-1] + (F(2),) for p in pts]
        elif kind == 2:  # binary floats, converted to their exact values
            pts = [tuple(float(x) for x in p) for p in pts]
        elif kind == 3:  # duplicates, a midpoint and the centroid
            pts += pts[:3] + [tuple((x + y) / 2 for x, y in zip(pts[0], pts[1]))]
            pts.append(tuple(sum(c) / len(pts) for c in zip(*pts)))
        elif kind == 4:  # collinear, ends included
            a, b = pts[0], pts[1]
            pts = [tuple(x + F(rng.randint(-3, 3), 2) * (y - x) for x, y in zip(a, b))
                   for _ in range(n)]
        elif kind == 5:  # a small integer grid: many interior and boundary points
            pts = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(n + 8)]
        yield dim, pts
    yield 3, [(F(1), F(2), F(3))] * 3
    yield 2, [(0.5, 0.25)]


def _typed(points):
    return [tuple((type(x), x) for x in p) for p in points]


def test_vertex_enumeration_keeps_the_old_vertex_order():
    rng = Random("hull-facts:vertices")
    checked = 0
    for dim, pts in _point_sets("hull-facts:vertices", 150):
        try:
            faces = facet_enumeration(pts, dim)
        except BicomplexError:  # flat sets have no facets
            continue
        if rng.getrandbits(1):
            rng.shuffle(faces)
        got = RealPolytope.from_halfspaces(faces, dim).vertices()
        want = ref.hull_extreme_points(sorted(map(tuple, got)))
        assert _typed(got) == _typed(want)
        if dim <= 3:
            assert _typed(got) == _typed(ref.vertex_enumeration(faces, dim))
        checked += 1
    assert checked > 60


def _origin_cases():
    """Vertex lists that absorb, that hold 0 on the boundary or outside,
    that are flat, or that are a single point."""
    rng = Random("hull-facts:origin")
    for i in range(60):
        dim = 1 + i % 4
        verts = list(gen.rand_absorbing_polytope(rng, dim).vertices())
        yield dim, verts
        yield dim, [tuple(x - y for x, y in zip(v, verts[0])) for v in verts]
        yield dim, [tuple(x + F(1, 3) for x in v) for v in verts]
        yield dim, [tuple(float(x) for x in v) for v in verts]
        if dim > 1:  # flat, through 0 and off it
            yield dim, [v[:-1] + (F(0),) for v in verts]
            yield dim, [v[:-1] + (F(1),) for v in verts]
        yield dim, [verts[0]]
        yield dim, [(F(0),) * dim]


def test_vertex_list_origin_interior_matches_the_old_lp():
    answers = {True: 0, False: 0}
    for dim, verts in _origin_cases():
        got = RealPolytope.from_vertices(verts).origin_interior()
        assert got is ref.origin_interior(verts, dim), (dim, verts)
        answers[got] += 1
    assert min(answers.values()) > 30


def test_hull_facts_solve_no_lp(monkeypatch):
    def refuse(self):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(LinearProgram, "solve", refuse)
    spanning = 0
    for dim, pts in _point_sets("hull-facts:no-lp", 100):
        assert extreme_points(pts)
        try:
            faces = facet_enumeration(pts, dim)
        except BicomplexError:  # flat: no facets to enumerate vertices from
            continue
        assert RealPolytope.from_halfspaces(faces, dim).vertices()
        spanning += 1
    assert spanning > 40
    for dim, verts in _origin_cases():
        RealPolytope.from_vertices(verts).origin_interior()
    with pytest.raises(AssertionError):  # the patch is live: membership still solves an LP
        RealPolytope.from_vertices([(F(0),), (F(1),)]).contains((F(1, 2),))
