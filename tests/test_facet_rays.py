"""Facet rays from the hull's cyclic order and the leaner double description.

`polytope._facet_rays` reads the facets of planar integer points from
Andrew's monotone chain and hands every other dimension to `_cone_rays`,
which no longer cuts by the rows of its start cone.  The double
description as it ran before both changes is kept in
``fraction_reference.py``:

- on planar point sets (random, with duplicates, with points on the edges,
  all collinear, one or two points, large coordinates) `_facet_rays` gives
  the reference's set of (ray, mask) pairs, or None where it does;
- on random cones with n = 2-5 the library's `_cone_rays` gives the
  reference's rays, masks and order, on the rows of V→H, of H→V with the
  row t >= 0, and of `extreme_points` in the coordinates of an affine hull;
- `facet_enumeration`, `extreme_points`, `origin_interior` and
  `RealPolytope.gauge` give the same answers as with the reference's rays.
"""

from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_reference as ref
from bicomplex import elim, polytope
from bicomplex.errors import BicomplexError
from bicomplex.polytope import RealPolytope, extreme_points, facet_enumeration

F = Fraction
SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)
SMALL = st.integers(-6, 6)
POINT_2D = st.tuples(SMALL, SMALL)


def _reference_facet_rays(points):
    return ref._cone_rays([[*p, -1] for p in points], len(points[0]) + 1)


@contextmanager
def _reference_rays():
    """The library with its facet rays found as before: the reference DD on [*p, -1]."""
    with mock.patch.object(polytope, "_facet_rays", _reference_facet_rays):
        yield


@st.composite
def planar_points(draw):
    """Integer points in the plane: random, duplicated, with points on the
    segments between two of them, all collinear, one or two, or large."""
    kind = draw(st.sampled_from(["random", "duplicates", "on-edges", "collinear", "few", "large"]))
    if kind == "few":
        return draw(st.lists(POINT_2D, min_size=1, max_size=2))
    if kind == "large":
        big = st.integers(-(2**70), 2**70)
        pts = draw(st.lists(st.tuples(big, big), min_size=1, max_size=10))
        return pts + draw(st.lists(st.sampled_from(pts), max_size=3))
    if kind == "collinear":
        (x, y), (dx, dy) = draw(POINT_2D), draw(POINT_2D)
        ts = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=8))
        return [(x + t * dx, y + t * dy) for t in ts]
    pts = draw(st.lists(POINT_2D, min_size=1, max_size=12))
    if kind == "duplicates":
        pts += draw(st.lists(st.sampled_from(pts), min_size=1, max_size=6))
    elif kind == "on-edges":  # the corners of the bounding box, points on its
        # sides, and points a + t(b - a)/4 between two of the points (times 4)
        pts = [(4 * x, 4 * y) for x, y in pts]
        xs, ys = [x for x, _ in pts], [y for _, y in pts]
        lo, hi = (min(xs), min(ys)), (max(xs), max(ys))
        pts += [lo, hi, (lo[0], hi[1]), (hi[0], lo[1]), ((lo[0] + hi[0]) // 2, lo[1]),
                (hi[0], (lo[1] + hi[1]) // 2), (lo[0], (lo[1] + hi[1]) // 2)]
        for _ in range(draw(st.integers(1, 4))):
            (ax, ay), (bx, by) = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
            pts += [(ax + (bx - ax) * t // 4, ay + (by - ay) * t // 4) for t in (1, 2, 3)]
    return draw(st.permutations(pts))


def _pairs(result):
    rays, masks = result
    return None if rays is None else sorted(zip(map(tuple, rays), masks))


@SETTINGS
@given(planar_points())
def test_planar_facet_rays_match_the_double_description(points):
    got = polytope._facet_rays(points)
    assert _pairs(got) == _pairs(_reference_facet_rays(points))
    if got[0] is None:
        assert got == (None, [])


@SETTINGS
@given(st.lists(st.tuples(SMALL, SMALL, SMALL), min_size=1, max_size=10))
def test_facet_rays_off_the_plane_are_the_double_description(points):
    assert polytope._facet_rays(points) == _reference_facet_rays(points)


# -- the double description itself ---------------------------------------------------


@st.composite
def vrep_rows(draw):
    """The rows [*p, -1] of V→H on integer points of dimension n - 1, some
    on the grid {-1, 0, 1}^(n-1), where many points share each facet."""
    dim = draw(st.integers(1, 4))
    coord = draw(st.sampled_from([SMALL, st.integers(-1, 1)]))
    pts = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=12))
    return [[*p, -1] for p in pts], dim + 1


@st.composite
def hrep_rows(draw):
    """The rows [*a, -b] of H→V on faces a.x <= b, then the row t >= 0."""
    dim = draw(st.integers(1, 4))
    faces = draw(st.lists(st.tuples(*[SMALL] * (dim + 1)), min_size=1, max_size=9))
    return [*([*f[:-1], -f[-1]] for f in faces), [0] * dim + [-1]], dim + 1


@st.composite
def affine_hull_rows(draw):
    """`extreme_points`' rows: points on an affine set of dimension r in R^D,
    read in the pivot coordinates of one elimination of their differences
    (no pivot when the points coincide: `extreme_points` stops before)."""
    r = draw(st.integers(1, 4))
    D = draw(st.integers(r, 5))
    basis = draw(st.lists(st.tuples(*[SMALL] * D), min_size=r, max_size=r))
    origin = draw(st.tuples(*[SMALL] * D))
    coeffs = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * r), min_size=1, max_size=9))
    pts = [tuple(o + sum(c * u[k] for c, u in zip(cs, basis)) for k, o in enumerate(origin))
           for cs in coeffs]
    base = pts[0]
    _, _, pivots = elim.eliminate([[x - y for x, y in zip(p, base)] for p in pts[1:]], D)
    return [[*(p[c] for c in pivots), -1] for p in pts], len(pivots) + 1


@SETTINGS
@given(st.one_of(vrep_rows(), hrep_rows(), affine_hull_rows().filter(lambda c: c[1] >= 2)))
def test_cone_rays_keep_rays_masks_and_order(case):
    rows, n = case
    assert 2 <= n <= 5
    assert polytope._cone_rays(rows, n) == ref._cone_rays(rows, n)


# -- the answers built on the rays ----------------------------------------------------


def _outcome(fn, *args):
    """fn's answer with the types of its numbers, or the type of its error."""
    try:
        return repr(fn(*args))
    except BicomplexError as exc:
        return type(exc).__name__, str(exc)


def _queries(points):
    """facet_enumeration, extreme_points, and a fresh polytope's absorbency and
    gauges, on the points as given and moved so that 0 is their centroid."""
    dim = len(points[0])
    verts = [tuple(F(x) for x in p) for p in points]
    centroid = [sum(c) / len(verts) for c in zip(*verts)]
    centred = [tuple(x - m for x, m in zip(v, centroid)) for v in verts]
    probes = [(F(1),) * dim, tuple(F(k - 1, 3) for k in range(dim)), (F(0),) * dim]
    answers = [_outcome(facet_enumeration, verts, dim), _outcome(extreme_points, verts)]
    for vs in (verts, centred):
        P = RealPolytope.from_vertices(vs)
        answers.append(_outcome(P.origin_interior))
        answers += [_outcome(P.gauge, x) for x in probes]
    return answers


@SETTINGS
@given(st.one_of(planar_points(), vrep_rows().map(lambda c: [tuple(r[:-1]) for r in c[0]])))
def test_hull_answers_unchanged(points):
    got = _queries(points)
    with _reference_rays():
        assert got == _queries(points)


@SETTINGS
@given(planar_points())
def test_planar_facets_match_the_monotone_chain_reference(points):
    verts = [tuple(F(x) for x in p) for p in points]
    assert _outcome(facet_enumeration, verts, 2) == _outcome(ref.facet_enumeration, verts, 2)
