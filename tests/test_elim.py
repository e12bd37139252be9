"""The fraction-free integer kernel against the `Fraction` reference code.

Seeded random instances go through both the library and the reference
routines in ``fraction_reference.py`` (the `Fraction` Gauss-Jordan code the
kernel replaced).  Everything must agree exactly: LP statuses, solutions,
values and final bases, on random and on polar-shaped LPs; ranks; V<->H
conversions in dimensions 1-3, in order and with their types, or the same
refusal.  The simplex's tableau must hold only its nonbasic columns.
"""

from collections import Counter
from fractions import Fraction
from random import Random

import pytest

import fraction_reference as ref
from bicomplex import elim, generators as gen, lp as lp_module
from bicomplex.convex import difference_body
from bicomplex.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram
from bicomplex.errors import BicomplexError
from bicomplex.polytope import (
    Halfspace,
    RealPolytope,
    facet_enumeration,
    matrix_rank,
)

F = Fraction


def _rational(rng: Random, lo: int = -3, hi: int = 3) -> Fraction:
    return F(rng.randint(lo, hi), rng.choice((1, 1, 2, 3)))


def _random_lp_spec(rng: Random) -> dict:
    """Constraints and objective of a small LP with the degenerate cases mixed in.

    Zero right-hand sides give ratio-test ties; copies and sums of
    equalities give redundant rows that phase 1 leaves on dead artificials.
    """
    n = rng.randint(1, 4)
    nonneg = [rng.random() < 0.6 for _ in range(n)]
    rows = []
    for _ in range(rng.randint(1, 5)):
        coeffs = [_rational(rng) for _ in range(n)]
        rhs = F(0) if rng.random() < 0.3 else _rational(rng, -4, 4)
        rows.append((rng.choice(("le", "le", "ge", "eq")), coeffs, rhs))
    eqs = [r for r in rows if r[0] == "eq"]
    if eqs and rng.random() < 0.5:
        _, coeffs, rhs = rng.choice(eqs)
        k = F(rng.choice((-2, -1, 2, 3)), rng.choice((1, 2)))
        rows.append(("eq", [k * c for c in coeffs], k * rhs))
    if len(eqs) >= 2 and rng.random() < 0.5:
        (_, c1, b1), (_, c2, b2) = rng.sample(eqs, 2)
        rows.append(("eq", [x + y for x, y in zip(c1, c2)], b1 + b2))
    rng.shuffle(rows)
    objective = [_rational(rng) for _ in range(n)]
    return {"n": n, "nonneg": nonneg, "rows": rows, "sense": rng.choice(("min", "max")),
            "objective": objective if rng.random() < 0.9 else None}


def _build(cls, spec: dict) -> LinearProgram:
    lp = cls(spec["n"], nonneg=spec["nonneg"])
    for kind, coeffs, rhs in spec["rows"]:
        getattr(lp, f"add_{kind}")(coeffs, rhs)
    if spec["objective"] is not None:
        getattr(lp, f"set_{spec['sense']}imize")(spec["objective"])
    return lp


@pytest.fixture
def negative_pivots(monkeypatch):
    """Counts pivots the simplex makes on a negative entry."""
    seen = Counter()

    def recording_pivot(rows, d, r, c, z=None):
        seen["negative"] += rows[r][c] < 0
        return elim.pivot(rows, d, r, c, z)

    monkeypatch.setattr(lp_module, "pivot", recording_pivot)
    return seen


def test_random_lps_match_fraction_simplex(negative_pivots):
    rng = Random("elim:lp")
    seen = Counter()
    for _ in range(1500):
        spec = _random_lp_spec(rng)
        got = _build(LinearProgram, spec).solve()
        want = _build(ref.FractionLinearProgram, spec).solve()
        assert (got.status, got.x, got.value, got.basis) == (
            want.status, want.x, want.value, want.basis), spec
        assert got.x is None or all(type(v) is Fraction for v in got.x)
        seen[got.status] += 1
        seen["dead row"] += len(got.basis) < len(spec["rows"])
    # every path of the kernel was exercised
    assert seen[OPTIMAL] > 100 and seen[INFEASIBLE] > 100 and seen[UNBOUNDED] > 100
    assert seen["dead row"] > 20
    assert negative_pivots["negative"] > 20


def _polar_lp_spec(rng: Random) -> dict:
    """An LP shaped like `GaugeBody.polar_max`: free f (one per coordinate),
    s and, for two point groups, beta; one zero-rhs equality f.u = s*v;
    f.p + D*beta <= D at each integer point p of the first group and
    f.q - D'*beta <= 0 at each q of the second; maximise s."""
    dim, two = rng.randint(1, 3), rng.random() < 0.7
    u = [_rational(rng) for _ in range(dim)]
    v = F(0) if rng.random() < 0.1 else _rational(rng)
    rows = [("eq", [*u, -v] + [0] * two, 0)]
    for top, sign in ((1, 1), (0, -1))[:1 + two]:
        D = rng.randint(1, 6)
        for _ in range(rng.randint(1, 6)):
            rows.append(("le", [rng.randint(-9, 9) for _ in range(dim)] + [0] + [sign * D] * two,
                         top * D))
    return {"n": dim + 1 + two, "nonneg": [False] * (dim + 1 + two), "rows": rows,
            "sense": "max", "objective": [0] * dim + [1] + [0] * two}


def test_polar_shaped_lps_match_fraction_simplex():
    rng = Random("elim:polar")
    seen = Counter()
    for _ in range(600):
        spec = _polar_lp_spec(rng)
        got = _build(LinearProgram, spec).solve()
        want = _build(ref.FractionLinearProgram, spec).solve()
        assert (got.status, got.x, got.value, got.basis) == (
            want.status, want.x, want.value, want.basis), spec
        assert got.x is None or all(type(v) is Fraction for v in got.x)
        seen[got.status] += 1
    assert seen[OPTIMAL] > 100 and seen[UNBOUNDED] > 100


@pytest.fixture
def pivot_widths(monkeypatch):
    """(columns, rows) of every tableau the simplex pivots, rhs column included."""
    seen = []

    def recording_pivot(rows, d, r, c, z=None):
        seen.append((len(rows[0]), len(rows)))
        return elim.pivot(rows, d, r, c, z)

    monkeypatch.setattr(lp_module, "pivot", recording_pivot)
    return seen


def _nonbasic_widths(spec: dict, rows: int) -> tuple[int, int]:
    """The widths a nonbasic-only tableau of the spec with ``rows`` rows can have.

    One slot per nonbasic variable, a free pair counting once, plus the rhs.
    While the artificials are in play that is the user variables plus the
    slacks of the <= rows negated for a negative rhs; after phase 1 it is
    the user variables plus all slacks less the rows left.
    """
    n = spec["n"]
    le = [(kind, rhs) for kind, _, rhs in spec["rows"] if kind != "eq"]
    negative = sum(1 for kind, rhs in le if (rhs < 0 if kind == "le" else rhs > 0))
    return n + negative + 1, n + len(le) - rows + 1


def test_tableau_holds_only_nonbasic_columns(pivot_widths):
    rng = Random("elim:width")
    pivots = 0
    for _ in range(400):
        spec = _random_lp_spec(rng) if rng.random() < 0.5 else _polar_lp_spec(rng)
        pivot_widths.clear()
        _build(LinearProgram, spec).solve()
        for width, rows in pivot_widths:
            assert width in _nonbasic_widths(spec, rows) and rows <= len(spec["rows"]), spec
        pivots += len(pivot_widths)
    assert pivots > 1000


def test_three_dimensional_polar_lp_width(pivot_widths):
    """A 3-D two-group polar LP (a difference body's first component):
    f (3), s and beta are 5 free variables and no <= row has a negative rhs,
    so the tableau is 5 slots and the rhs while the span row's artificial is
    in play, and 4 slots and the rhs once it has left the basis and is
    dropped.  The split standard form would carry 10 columns for the free
    variables, one per slack and one for the artificial."""
    A, B = gen.rand_separation_instance(Random("elim:width-3d"), 3)
    G, a0, b0 = difference_body(A, B)
    body = G.component(1)
    assert body.polar_max([[F(x) for x in (b0 - a0).part(1)]], [1]).status == OPTIMAL
    points = sum(len(rows) for rows, _ in body._groups)
    assert pivot_widths and {width for width, _ in pivot_widths} == {6, 5}
    assert all(rows == points + 1 for _, rows in pivot_widths)


def test_degenerate_tie_breaks_by_basis_index():
    # x1 and x2 tie in the ratio test at zero; Bland takes the lower basic index
    spec = {"n": 2, "nonneg": [True, True], "sense": "max", "objective": [1, 1],
            "rows": [("le", [1, 1], 0), ("le", [1, -1], 0), ("le", [1, 0], 2)]}
    got = _build(LinearProgram, spec).solve()
    want = _build(ref.FractionLinearProgram, spec).solve()
    assert (got.status, got.x, got.basis) == (want.status, want.x, want.basis)
    assert got.value == 0


def test_redundant_equality_row_is_dropped():
    spec = {"n": 2, "nonneg": [True, True], "sense": "min", "objective": [1, 2],
            "rows": [("eq", [1, 1], 2), ("eq", [2, 2], 4), ("eq", [F(1, 2), F(1, 2)], 1)]}
    got = _build(LinearProgram, spec).solve()
    want = _build(ref.FractionLinearProgram, spec).solve()
    assert (got.status, got.x, got.value, got.basis) == (
        want.status, want.x, want.value, want.basis)
    assert got.x == [2, 0] and len(got.basis) == 1


def test_pivot_keeps_denominator_positive_and_exact():
    rows = [[2, 3, 5], [4, -1, 7]]
    d = elim.pivot(rows, 1, 1, 1)  # pivot on -1
    assert d == 1 and rows[1] == [-4, 1, -7]
    d = elim.pivot(rows, d, 0, 0)
    # rows/d is the reduced form of 2x + 3y = 5, 4x - y = 7
    assert d == 14 and [[F(v, d) for v in r] for r in rows] == [[1, 0, F(13, 7)], [0, 1, F(3, 7)]]


def _random_matrix(rng: Random, m: int, n: int) -> list[list[Fraction]]:
    rows = [[_rational(rng) for _ in range(n)] for _ in range(m)]
    if m >= 2 and rng.random() < 0.4:  # a dependent row
        k = _rational(rng)
        rows[rng.randrange(m)] = [k * a + b for a, b in zip(rows[0], rows[1])]
    return rows


def test_rank_matches_fraction_elimination():
    rng = Random("elim:matrix")
    deficient = 0
    for _ in range(600):
        m, n = rng.randint(0, 5), rng.randint(1, 5)
        rows = _random_matrix(rng, m, n)
        rank = matrix_rank(rows)
        assert rank == ref.matrix_rank(rows)
        deficient += rank < min(m, n)
    assert deficient > 25


def test_rank_of_empty_and_zero_rows():
    assert matrix_rank([]) == 0
    assert matrix_rank([[0, 0], [0, 0]]) == 0
    assert matrix_rank([[]]) == 0


def _typed(x):
    """x with the type of every scalar alongside its value."""
    if isinstance(x, Halfspace):
        return ("Halfspace", _typed(x.a), _typed(x.b), x.strict)
    if isinstance(x, (list, tuple)):
        return (type(x).__name__, [_typed(v) for v in x])
    return (type(x).__name__, x)


def _outcome(convert, *args):
    """The typed result of a conversion, or the class of what it raised."""
    try:
        return _typed(convert(*args))
    except BicomplexError as e:
        return type(e).__name__


def _coordinate(rng: Random):
    return rng.uniform(-3, 3) if rng.random() < 0.1 else _rational(rng)


def _random_cloud(rng: Random, dim: int) -> list[tuple]:
    base = [tuple(_coordinate(rng) for _ in range(dim)) for _ in range(rng.randint(1, 9))]
    extra = []
    for _ in range(rng.randint(0, 4)):  # points on edges, faces, or repeated
        p, q = rng.choice(base), rng.choice(base)
        t = F(rng.randint(0, 4), 4)
        extra.append(tuple(F(a) + t * (F(b) - F(a)) for a, b in zip(p, q)))
    pts = base + extra
    rng.shuffle(pts)
    return pts


def test_facet_enumeration_matches_fraction_reference():
    """Facets in order, with their types, or the same refusal, in dims 1-3."""
    rng = Random("elim:facets")
    full = Counter()
    for _ in range(360):
        dim = rng.randint(1, 3)
        pts = _random_cloud(rng, dim)
        got = _outcome(facet_enumeration, pts, dim)
        assert got == _outcome(ref.facet_enumeration, pts, dim)
        full[dim] += got != "DimensionMismatch"
    assert min(full.values()) > 60


def _random_faces(rng: Random, dim: int) -> list[Halfspace]:
    """Halfspaces mixing a box, random cuts (some through no point), zero
    normals, repeated faces, a flattening opposite pair and strict flags."""
    faces = []
    if rng.random() < 0.6:
        for c in range(dim):
            for sign in (1, -1):
                a = [0] * dim
                a[c] = sign
                faces.append(Halfspace(tuple(a), _rational(rng, 0, 3) + 1, rng.random() < 0.2))
    for _ in range(rng.randint(0, 6)):
        a = tuple(_coordinate(rng) if rng.random() < 0.8 else 0 for _ in range(dim))
        faces.append(Halfspace(a, _coordinate(rng), rng.random() < 0.2))
    if rng.random() < 0.1:
        faces.append(Halfspace((0,) * dim, rng.choice((-1, 0, 1))))
    if faces and rng.random() < 0.2:
        faces += rng.sample(faces, rng.randint(1, len(faces)))
    if faces and rng.random() < 0.15:
        h = rng.choice(faces)
        faces.append(Halfspace(tuple(-x for x in h.a), -h.b))
    rng.shuffle(faces)
    return faces


def _enumerated_vertices(faces: list[Halfspace], dim: int) -> list[tuple]:
    """The vertex list `vertex_enumeration` gives a halfspace list."""
    return list(RealPolytope.from_halfspaces(faces, dim).vertices())


def test_vertex_enumeration_matches_fraction_reference():
    """Vertices in order, with their types, or the same refusal, in dims 1-3:
    bounded, empty (0.x <= -1 too), unbounded (the whole space too), flat,
    redundant and repeated faces, strict flags."""
    rng = Random("elim:vertices")
    seen = Counter()
    cases = [(faces, dim) for dim in (1, 2, 3)
             for faces in ([], [Halfspace((0,) * dim, -1)], [Halfspace((0,) * dim, 0)])]
    cases += [(_random_faces(rng, dim), dim) for dim in (1, 2, 3) for _ in range(120)]
    for faces, dim in cases:
        got = _outcome(_enumerated_vertices, faces, dim)
        assert got == _outcome(ref.vertex_enumeration, faces, dim)
        seen[got if isinstance(got, str) else dim] += 1
    assert min(seen[k] for k in (1, 2, 3, "EmptySetError", "LPUnboundedError")) > 20
