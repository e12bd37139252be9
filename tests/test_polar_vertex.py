"""The extension's optimum read from edge normals, against the polar LP.

On a body in R^1 or R^2 with one span vector u and a nonzero value v,
`analysis._extend_component` takes s* and f*/s* from the edge normals of
the body's point groups (`GaugeBody.polar_vertex`) and solves no LP, unless
two normals tie and f* is not unique.  ``fraction_reference.py`` keeps the
LP path (`_polar_extend_component`, on the unchanged `polar_max`).

- On bodies of one or two groups, each a point, a segment or a polygon (on
  the line: a point or a segment), with 0 interior, v of both signs and 0,
  and ``strict`` both ways, the result (f*/s* or None, types included) is
  the LP path's, and s* is the LP's optimum.
- Through a vertex of the body, two normals tie: the closed form reports
  it and the LP picks f.  Over the seeds 1-3 `separate` pools of the
  benchmark, 9 of the 498 planar extensions tie and fall back; none of the
  196 on the line can.

`GaugeBody.gauge_lp` hands its rows over as integers: they must be the
reference's `Fraction` rows (``fraction_reference.gauge_lp``) as the
simplex scales them, with or without a span, and every solve the same
(status, x, value, basis).  The planar masks that `polytope._facet_rays`
now reads from the chain's sorted order are checked in
``test_facet_rays.py``.
"""

from fractions import Fraction
from random import Random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fraction_reference as ref
from bicomplex import elim
from bicomplex import generators as gen
from bicomplex.analysis import _extend_component
from bicomplex.convex import DifferenceBody, _centroid
from bicomplex.lp import OPTIMAL
from bicomplex.polytope import GaugeBody, RealPolytope
from bicomplex.vectors import DVector

F = Fraction
SETTINGS = settings(max_examples=400, deadline=None, derandomize=True)
SMALL = st.integers(-6, 6)


@st.composite
def group(draw, dim: int, kind: str):
    """Integer points forming a point (maybe repeated), a segment (collinear
    points, at least two distinct) or a polygon (spanning the plane)."""
    base = draw(st.tuples(*[SMALL] * dim))
    if kind == "point":
        return [base] * draw(st.integers(1, 3))
    if kind == "segment":
        d = draw(st.tuples(*[st.integers(-3, 3)] * dim).filter(any))
        ts = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=6).filter(
            lambda ts: len(set(ts)) > 1))
        return [tuple(b + t * c for b, c in zip(base, d)) for t in ts]
    pts = draw(st.lists(st.tuples(SMALL, SMALL), min_size=3, max_size=9))
    assume(elim.rank([[x - y for x, y in zip(p, pts[0])] for p in pts[1:]]) == 2)
    return pts


@st.composite
def bodies(draw):
    """A `GaugeBody` of one or two groups whose sum spans its space, moved so
    that 0 = the sum of the groups' centroids, which is interior."""
    dim = draw(st.sampled_from([1, 2]))
    kinds = ["point", "segment"] + (["polygon"] if dim == 2 else [])
    full = "segment" if dim == 1 else "polygon"
    if draw(st.booleans()):  # one group, times k over k*n
        P = draw(group(dim, full))
        k, n = draw(st.integers(1, 3)), len(P)
        total = [sum(c) for c in zip(*P)]
        return GaugeBody(([tuple(k * (n * x - s) for x, s in zip(p, total)) for p in P], k * n))
    P, Q = draw(group(dim, draw(st.sampled_from(kinds)))), draw(group(dim, draw(st.sampled_from(kinds))))
    assume(elim.rank([[x - y for x, y in zip(p, P[0])] for p in P[1:]]
                     + [[x - y for x, y in zip(q, Q[0])] for q in Q[1:]]) == dim)
    d2, n1, n2 = draw(st.integers(1, 4)), len(P), len(Q)  # Q's points are q/d2
    sp, sq = [sum(c) for c in zip(*P)], [sum(c) for c in zip(*Q)]
    first = [tuple(n1 * n2 * d2 * x - n2 * d2 * a - n1 * b for x, a, b in zip(p, sp, sq)) for p in P]
    return GaugeBody((first, n1 * n2 * d2), ([tuple(q) for q in Q], d2))


def _vertex_of(body: GaugeBody) -> list[Fraction]:
    """The lexicographically greatest point of the body, a vertex: the sum of
    each group's lexicographically greatest point."""
    return [sum(F(max(rows)[c], D) for rows, D in body._groups) for c in range(body.dim)]


VALUES = st.one_of(st.sampled_from([0, 1, -1]),
                   st.builds(F, st.integers(-6, 6), st.integers(1, 5)))


def _check(body, u, v, strict):
    """The library's extension step is the LP path's; returns whether the
    closed form found a unique optimum (None when v = 0)."""
    got = _extend_component(body, [u], [v], strict)
    want = ref._polar_extend_component(body, [u], [v], strict)
    assert repr(got) == repr(want)
    if not v:
        return None
    p, q, full = body.polar_vertex(u, v)
    res = body.polar_max([u], [v])
    assert res.status == OPTIMAL and F(p, q) == res.value
    if full is not None:
        assert full == [x / res.value for x in res.x[:body.dim]]
    return full is not None


@SETTINGS
@given(bodies(), st.data(), VALUES, st.booleans())
def test_closed_form_is_the_lp_path(body, data, v, strict):
    u = data.draw(st.lists(st.builds(F, SMALL, st.integers(1, 4)), min_size=body.dim,
                           max_size=body.dim).filter(any))
    _check(body, u, v, strict)


@SETTINGS
@given(bodies(), st.integers(1, 4), st.sampled_from([1, -1, F(1, 2), F(-3, 2), 2]), st.booleans())
def test_ray_through_a_vertex_ties_in_the_plane(body, scale, v, strict):
    """w = sign(v)*u through a vertex of the body, scaled so that s* is
    below, at or above 1: two edge normals tie in the plane, never on the
    line."""
    u = [F(x, scale) if v > 0 else F(-x, scale) for x in _vertex_of(body)]
    assert _check(body, u, v, strict) is (body.dim == 1)


def test_tie_and_unique_by_hand():
    square = GaugeBody(([(-1, -1), (1, -1), (1, 1), (-1, 1)], 1))
    # through the corner (1, 1): the faces x <= 1 and y <= 1 tie
    assert square.polar_vertex([1, 1], 1) == (1, 1, None)
    # along (2, 1): x <= 1 alone, s* = 2, f*/s* = a*v/(a.u) = (1/2, 0)
    assert square.polar_vertex([2, 1], 1) == (2, 1, [F(1, 2), F(0)])
    assert _extend_component(square, [[2, 1]], [1], strict=False) == [F(1, 2), F(0)]
    assert _extend_component(square, [[F(1, 2), 0]], [1], strict=True) is None  # s* = 1/2
    # the segment [-1, 1] plus the point -1 over 2: the interval [-3/2, 1/2];
    # v < 0 makes w = -u, whose side -x <= 3/2 gives s* = (3/(3/2))/(1/2) = 4
    line = GaugeBody(([(-1,), (1,)], 1), ([(-1,)], 2))
    assert line.polar_vertex([3], F(-1, 2)) == (12, 3, [F(-1, 6)])


# -- the gauge LP on integer rows ---------------------------------------------------


def _scaled(lp):
    """Each row [*coeffs, b] as `LinearProgram.solve` scales it to integers."""
    return [(elim.integer_row([*coeffs, b]), kind) for coeffs, b, kind in lp._rows]


def _gauge_lps_agree(body, point, span):
    new, old = body.gauge_lp(point, span), ref.gauge_lp(body, point, span)
    assert (new.n, new.nonneg, _scaled(new)) == (old.n, old.nonneg, _scaled(old))
    assert all(type(c) is int for coeffs, b, _ in new._rows for c in (*coeffs, b))
    for lp in (new, old):
        lp.set_minimize(body._weights + [0] * len(span))
    got = new.solve()
    assert got == old.solve() and got.integer_x == old.solve().integer_x
    return got.status


@SETTINGS
@given(bodies(), st.data())
def test_gauge_lp_rows_are_the_fraction_rows_scaled(body, data):
    coords = st.lists(st.builds(F, SMALL, st.integers(1, 6)), min_size=body.dim, max_size=body.dim)
    span = data.draw(st.lists(coords, max_size=2))
    _gauge_lps_agree(body, data.draw(coords), span)


def test_gauge_lp_on_seeded_bodies_in_dimensions_1_to_3():
    rng = Random("polar-vertex:gauge-lp")
    solved = {"optimal": 0, "infeasible": 0}
    for trial in range(24):
        dim = 1 + trial % 3
        A, B = gen.rand_separation_instance(rng, dim)
        x0 = (DVector.from_parts(_centroid(B.p1), _centroid(B.p2))
              - DVector.from_parts(_centroid(A.p1), _centroid(A.p2)))
        for l in (1, 2):
            away = RealPolytope.from_vertices(  # 0 outside: some gauges are infeasible
                [tuple(x + 9 for x in v) for v in A.component(l).vertices()])
            for body in (A.component(l).gauge_body(), away.gauge_body(),
                         DifferenceBody(A.component(l), B.component(l), x0.part(l))):
                for p in range(3):
                    span = [[gen.rand_fraction(rng) for _ in range(dim)] for _ in range(p)]
                    point = [gen.rand_fraction(rng, -9, 9) for _ in range(dim)]
                    if trial % 4 == 3:  # float coordinates enter as their exact values
                        point[0] = float(point[0]) + 0.1
                    solved[_gauge_lps_agree(body, point, span)] += 1
    assert min(solved.values()) > 0
