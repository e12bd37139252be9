"""The closed-form gauge of a vertex list against the LP it replaced.

A `RealPolytope` built from vertices gauges itself by max_i a_i·x / b_i
over the facets one double description finds, and reads its absorbency
from the same facets.  Seeded vertex lists in dimensions 1-5 (with
duplicate and interior points, float vertices, flat and one-point lists)
and points (rational, float, 0, on a facet and at a vertex) go through
`minkowski_gauge` and `origin_interior`, and through the references in
``fraction_reference.py``: the LP gauge `gauge_vrep`, value and type, and
the absorbency LP `origin_interior`.
"""

from fractions import Fraction
from random import Random

import pytest

import fraction_reference as ref
from bicomplex.convex import DConvexSet, minkowski_gauge
from bicomplex.lp import LinearProgram
from bicomplex.polytope import RealPolytope, extreme_points
from bicomplex.vectors import DVector

F = Fraction


def _rational(rng: Random) -> Fraction:
    return F(rng.randint(-12, 12), rng.randint(1, 4))


def _vertex_lists(seed: str, count: int):
    """(dim, vertices): point sets and their reflections through 0, so 0 is
    interior once they span, with duplicates, interior points and 0 itself
    mixed in, or every coordinate a binary float."""
    rng = Random(seed)
    for trial in range(count):
        dim = 1 + trial % 5
        half = [tuple(_rational(rng) for _ in range(dim)) for _ in range(dim + rng.randint(0, 3))]
        verts = half + [tuple(-x for x in p) for p in half]
        kind = trial // 5 % 3
        if kind == 1:  # duplicates, a midpoint, the origin
            verts += verts[:2] + [tuple((x + y) / 2 for x, y in zip(verts[0], verts[1]))]
            verts.append((F(0),) * dim)
        elif kind == 2:
            verts = [tuple(float(x) for x in v) for v in verts]
        rng.shuffle(verts)
        yield dim, verts


def _queries(rng: Random, verts, dim: int):
    """Rational and float points, 0, every extreme point, twice one, and each
    rational point scaled onto the boundary, i.e. onto a facet."""
    pts = [tuple(_rational(rng) for _ in range(dim)) for _ in range(3)]
    pts += [tuple(rng.uniform(-5, 5) for _ in range(dim))]
    on_facet = [tuple(x / ref.gauge_vrep(verts, p) for x in p) for p in pts[:3] if any(p)]
    corners = extreme_points(verts)
    return [*pts, (0,) * dim, (F(0),) * dim, *corners, tuple(2 * x for x in corners[0]),
            *on_facet]


def _absorbing_lists(seed: str, count: int):
    for dim, verts in _vertex_lists(seed, count):
        if ref.origin_interior(verts, dim):
            yield dim, verts


def test_vertex_list_gauge_matches_the_lp_in_value_and_type():
    rng = Random("facet-gauge:value")
    checked, dims = 0, set()
    for dim, verts in _absorbing_lists("facet-gauge:sets", 60):
        # the same set twice, listed in two orders
        S = DConvexSet(RealPolytope.from_vertices(verts), RealPolytope.from_vertices(verts[::-1]))
        for x in _queries(rng, verts, dim):
            want = ref.gauge_vrep(verts, x)
            q = minkowski_gauge(S, DVector.from_parts(x, x))
            for got in (q.q1, q.q2):
                assert type(got) is Fraction and type(want) is Fraction, (verts, x, got)
                assert got == want, (verts, x)
            checked += 1
        dims.add(dim)
    assert dims == {1, 2, 3, 4, 5}
    assert checked > 400


def test_gauge_at_zero_is_a_fraction_zero():
    for dim, verts in _absorbing_lists("facet-gauge:zero", 10):
        S = DConvexSet(RealPolytope.from_vertices(verts), RealPolytope.from_vertices(verts))
        for zero in ((0,) * dim, (F(0),) * dim, (0.0,) * dim):
            q = minkowski_gauge(S, DVector.from_parts(zero, zero))
            assert type(q.q1) is Fraction and q.q1 == 0 == ref.gauge_vrep(verts, zero)


def _origin_cases():
    """Absorbing lists, the same lists moved so that 0 is a vertex or
    outside, flat lists through 0 and off it, collinear points through 0,
    and single points."""
    for dim, verts in _vertex_lists("facet-gauge:origin", 50):
        yield dim, verts
        yield dim, [tuple(x - y for x, y in zip(v, verts[0])) for v in verts]
        yield dim, [tuple(x + 7 for x in v) for v in verts]
        if dim > 1:
            yield dim, [v[:-1] + (F(0),) for v in verts]
            yield dim, [v[:-1] + (F(1, 2),) for v in verts]
            yield dim, [tuple(k * x for x in verts[0]) for k in (-1, 1, 2)]
        yield dim, [verts[0]]
        yield dim, [(F(0),) * dim]


def test_vertex_list_origin_interior_matches_the_reference_lp():
    answers = {True: 0, False: 0}
    for dim, verts in _origin_cases():
        got = RealPolytope.from_vertices(verts).origin_interior()
        assert got is ref.origin_interior(verts, dim), (dim, verts)
        answers[got] += 1
    assert min(answers.values()) > 40


def test_vertex_list_gauge_solves_no_lp(monkeypatch):
    rng = Random("facet-gauge:no-lp")
    cases = []
    for dim, verts in _absorbing_lists("facet-gauge:no-lp", 30):
        for x in _queries(rng, verts, dim):
            cases.append((verts, x, ref.gauge_vrep(verts, x)))

    def refuse(self):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(LinearProgram, "solve", refuse)
    for verts, x, want in cases:
        P = RealPolytope.from_vertices(verts)
        q = minkowski_gauge(DConvexSet(P, P), DVector.from_parts(x, x))
        assert q.q1 == q.q2 == want
        with pytest.raises(AssertionError, match="an LP was solved"):
            P.gauge_vrep(x)  # the independent LP leg keeps its LP
    assert len(cases) > 150
