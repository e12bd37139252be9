"""The complex path and the disjointness LPs against the `Fraction` reference code.

Complex ranks, inverses and graph maps now run on the integer kernel through
the real embedding X + iY -> [[X, -Y], [Y, X]].  Seeded instances go through
both the library and the verbatim copies of the code they replaced
(``fraction_reference.py``): ranks, inverses, graph maps, error messages and
every raise-or-not decision must agree exactly, touching sets included.
The variety check decides by the extension's polar LP over the set's
points, not by the reference's slack LP on its faces, and takes its witness
from a least-gauge LP along the span: the decision and the component must
agree, and each witness is checked by exact evaluation instead, on the
variety and within every face (strictly when the set is open).  `hyperplane_gauge_bound` decides by
the maximum of f over the set's points, not by the reference's LP: the
decision and the component must agree, and each witness must lie on
{f = 1} and within every face (strictly when the set is open).
Separation decides overlap by the extension LP over the polar of
G = A - B + x0, whose optimum is q_G(x0), not by the reference's overlap LP: the two must agree on every meet-or-miss, and each
witness is checked exactly, strictly inside every face of the open set and
inside the other.
"""

from collections import Counter
from fractions import Fraction
from random import Random

import pytest

import fraction_reference as ref
from bicomplex import generators as gen
from bicomplex.analysis import (
    complex_invert,
    complex_rank,
    hyperplane_gauge_bound,
    hyperplane_normalize,
    inverse_map,
    map_from_graph,
    separate_hyperbolic,
    variety_extend_hyperplane,
)
from bicomplex.convex import DConvexSet
from bicomplex.errors import NotAGraphError, NotBijectiveError, NotDisjointError
from bicomplex.linear import BCLinearMap, DLinearFunctional
from bicomplex.polytope import RealPolytope, affine_rank, extreme_points, matrix_rank
from bicomplex.scalars import BicomplexScalar, ComplexScalar, HyperbolicScalar
from bicomplex.vectors import DVector

F = Fraction


def _rational(rng: Random) -> Fraction:
    return F(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) if rng.random() < 0.8 else F(0)


def _complex(rng: Random) -> ComplexScalar:
    return ComplexScalar(_rational(rng), _rational(rng) if rng.random() < 0.7 else F(0))


def _complex_matrix(rng: Random, m: int, n: int) -> list[list[ComplexScalar]]:
    """A random matrix, often with a row that is a complex combination of two others."""
    rows = [[_complex(rng) for _ in range(n)] for _ in range(m)]
    if m >= 3 and rng.random() < 0.4:
        a, b = _complex(rng), _complex(rng)
        rows[rng.randrange(m)] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows


def test_complex_rank_and_inverse_match_fraction_gauss_jordan():
    rng = Random("theorem-kernel:complex")
    seen = Counter()
    for _ in range(1500):
        m, n = rng.randint(0, 4), rng.randint(1, 4)
        rows = _complex_matrix(rng, m, n)
        assert complex_rank(rows) == ref.complex_rank(rows), rows
        square = _complex_matrix(rng, n, n)
        got, want = complex_invert(square), ref.complex_invert([list(r) for r in square])
        assert repr(got) == repr(want), square  # types too: Fraction, never int
        seen["singular" if got is None else "inverted"] += 1
    assert seen["singular"] > 100 and seen["inverted"] > 500


def _redundant(rng: Random, vectors: list) -> list:
    vectors = list(vectors)
    for _ in range(rng.randint(0, 2)):
        a, b = rng.randrange(len(vectors)), rng.randrange(len(vectors))
        extra = vectors[a].scale(gen.rand_bicomplex(rng)) + vectors[b].scale(gen.rand_bicomplex(rng))
        vectors.insert(rng.randrange(len(vectors) + 1), extra)
    return vectors


def _graph_outcome(fn, span, n) -> str:
    try:
        return repr(fn(span, n).matrix)
    except NotAGraphError as exc:
        return f"NotAGraphError: {exc}"


def test_graph_maps_and_errors_match_fraction_gauss_jordan():
    rng = Random("theorem-kernel:graph")
    seen = Counter()
    for i in range(400):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        if i % 2:
            span = _redundant(rng, gen.rand_non_graph(rng, n, m))
        else:
            span = _redundant(rng, gen.rand_graph_basis(rng, n, m)[0])
        got = _graph_outcome(map_from_graph, span, n)
        assert got == _graph_outcome(ref.map_from_graph, span, n)
        seen[got.split(" in component")[0] if got.startswith("NotAGraph") else "graph"] += 1
    assert seen["graph"] > 150
    assert seen["NotAGraphError: vertical vector present"] > 30
    assert seen["NotAGraphError: projection to BC^n is not surjective"] > 30


def _touching(P: RealPolytope, rng: Random) -> RealPolytope:
    """A vertex of P, or the segment from it outwards: meets P's closure only there."""
    v = rng.choice(extreme_points(P.vertices()))
    if rng.random() < 0.5:
        return RealPolytope.from_vertices([v])
    return RealPolytope.from_vertices([v, tuple(2 * F(c) for c in v)])


def _beyond(P: RealPolytope, rng: Random, dim: int) -> RealPolytope:
    """A small polytope strictly past P along one axis."""
    axis, sign = rng.randrange(dim), rng.choice((1, -1))
    reach = max(sign * F(v[axis]) for v in P.vertices())
    pts = [[gen.rand_fraction(rng, -1, 1) for _ in range(dim)] for _ in range(rng.randint(1, 3))]
    low = min(sign * p[axis] for p in pts)
    for p in pts:
        p[axis] += sign * (reach - low + F(rng.randint(0, 2), 2))  # a gap of 0 touches
    return RealPolytope.from_vertices([tuple(p) for p in pts])


def test_overlap_witnesses_match_reference_lp():
    """Separation meets or misses where the reference overlap LP does; its witnesses are exact."""
    rng = Random("theorem-kernel:overlap")
    seen = Counter()
    for i in range(240):
        dim = 1 + i % 3
        Pa = gen.rand_absorbing_polytope(rng, dim)
        kind = rng.choice(("overlap", "touching", "beyond"))
        if kind == "overlap":
            Pb = gen.rand_absorbing_polytope(rng, dim)
        elif kind == "touching":
            Pb = _touching(Pa, rng)
        else:
            Pb = _beyond(Pa, rng, dim)
        if rng.random() < 0.5 and affine_rank(Pb.vertices()) == dim:
            Pb = RealPolytope.from_halfspaces(Pb.halfspaces(), dim)
            kind += "-hrep"
        meets = ref._overlap_witness(Pa, Pb, dim) is not None
        got = _disjoint_outcome(separate_hyperbolic, DConvexSet(Pa, Pa, open=True),
                                DConvexSet(Pb, Pb))
        assert (got is not None) == meets, (kind, Pa.vertices(), Pb)
        if kind.startswith("touching"):
            assert got is None  # the open first set misses its closure points
        if got is not None:
            component, w = got
            assert component == 1
            assert all(sum(F(c) * x for c, x in zip(h.a, w)) < F(h.b) for h in Pa.halfspaces())
            if Pb.built_from_vertices():
                assert ref.point_in_hull(w, Pb.vertices()), (kind, w, Pb)
            else:
                assert all(sum(F(c) * x for c, x in zip(h.a, w)) <= F(h.b) for h in Pb.halfspaces())
        seen[kind, got is None] += 1
    assert seen["overlap", False] > 30 and seen["overlap-hrep", False] > 30
    assert seen["touching", True] > 30 and seen["beyond-hrep", True] > 10


def _disjoint_outcome(fn, *args):
    try:
        fn(*args)
        return None
    except NotDisjointError as exc:
        return exc.component, exc.witness


def test_hyperplane_witnesses_match_reference_lp():
    """Levels crossing, touching and beyond each component, open and closed sets."""
    rng = Random("theorem-kernel:hyperplane")
    seen = Counter()
    for i in range(240):
        dim = 1 + i % 3
        B = gen.rand_absorbing_pair(rng, dim, open_flag=bool(rng.getrandbits(1)))
        g = DLinearFunctional(DVector.from_parts(
            [gen.rand_nonzero_fraction(rng) for _ in range(dim)],
            [gen.rand_nonzero_fraction(rng) for _ in range(dim)],
        ))
        levels = []
        for l in (1, 2):
            values = [g.eval_component(l, v) for v in B.component(l).vertices()]
            top, bottom = max(values), min(values)
            levels.append(rng.choice((top / 2, bottom / 3, top, bottom, top + 1, bottom - 1)))
        L = hyperplane_normalize(g, HyperbolicScalar(*levels))
        got = _disjoint_outcome(hyperplane_gauge_bound, B, L)
        want = _disjoint_outcome(ref._hyperplane_disjoint_or_raise, B, L)
        assert (got is None) == (want is None)
        seen[B.open, got is None] += 1
        if got is None:
            continue
        l, w = got
        assert l == want[0]
        assert sum(F(c) * x for c, x in zip(L.f.component(l), w)) == 1  # on {f_l = 1}
        for h in B.component(l).halfspaces():
            value = sum(F(a) * x for a, x in zip(h.a, w))
            assert value < h.b if B.open else value <= h.b
    assert min(seen.values()) > 10


def _variety(rng: Random, B: DConvexSet, level) -> tuple[DVector, list[DVector]]:
    """x0 + span(M) inside {w.x = level(peak)} per component, M of rank < dim."""
    dim, k = B.dim, rng.randrange(B.dim)
    x_parts, m_parts = [], []
    for l in (1, 2):
        w = [gen.rand_nonzero_fraction(rng) for _ in range(dim)]
        peak = max(sum(a * F(c) for a, c in zip(w, v)) for v in B.component(l).vertices())
        norm = sum(a * a for a in w)
        x_parts.append([level(peak) * a / norm for a in w])
        m_parts.append([[-w[j] / w[0] if c == 0 else F(c == j) for c in range(dim)]
                        for j in range(1, k + 1)])
    basis = [DVector.from_parts(m_parts[0][j], m_parts[1][j]) for j in range(k)]
    return DVector.from_parts(*x_parts), basis


def test_variety_decisions_match_and_witnesses_check_exactly():
    rng = Random("theorem-kernel:variety")
    seen = Counter()
    for i in range(180):
        B = gen.rand_absorbing_pair(rng, 1 + i % 3, open_flag=bool(rng.getrandbits(1)))
        level = rng.choice((lambda p: p / 2, lambda p: p, lambda p: -p, lambda p: p + 1))
        x0, basis = _variety(rng, B, level)
        want = _disjoint_outcome(ref.variety_disjoint_or_raise, x0, basis, B)
        got = _disjoint_outcome(variety_extend_hyperplane, x0, basis, B)
        assert (got is None) == (want is None)
        seen[B.open, got is None] += 1
        if got is None:
            continue
        l, w = got
        assert l == want[0]
        rows = [[F(c) for c in u.part(l)] for u in basis]
        offset = [F(c) - F(p) for c, p in zip(w, x0.part(l))]
        assert matrix_rank(rows + [offset]) == matrix_rank(rows)  # w in x0 + span(M)
        for h in B.component(l).halfspaces():
            value = sum(F(a) * F(c) for a, c in zip(h.a, w))
            assert value < h.b if B.open else value <= h.b
    assert min(seen.values()) > 15


def _bc(re1, im1=0.0, re2=None, im2=None) -> BicomplexScalar:
    re2 = re1 if re2 is None else re2
    im2 = im1 if im2 is None else im2
    return BicomplexScalar(ComplexScalar(re1, im1), ComplexScalar(re2, im2))


def _exact_product_is_identity(T: BCLinearMap, T_inv: BCLinearMap) -> bool:
    n = T.rows
    for l in (1, 2):
        M, N = T.component(l), T_inv.component(l)
        for i in range(n):
            for j in range(n):
                acc = ComplexScalar(F(0), F(0))
                for t in range(n):
                    acc = acc + ComplexScalar(F(M[i][t].re), F(M[i][t].im)) * N[t][j]
                if (acc.re, acc.im) != (int(i == j), 0):
                    return False
    return True


class TestFloatMaps:
    """Float entries are read as their exact binary values: inverses are exact."""

    @pytest.mark.parametrize("T", [
        BCLinearMap(((_bc(1.0), _bc(0.0)), (_bc(0.0), _bc(1.0)))),
        BCLinearMap(((_bc(2.0, 0.5, 4.0, -0.25), _bc(0.0)), (_bc(0.0), _bc(0.125, 0.0, 8.0)))),
    ], ids=["identity", "diagonal"])
    def test_inverse_has_fraction_entries_and_exact_product(self, T):
        T_inv, _ = inverse_map(T)
        for row in T_inv.matrix:
            for e in row:
                for z in (e.z1, e.z2):
                    assert type(z.re) is Fraction and type(z.im) is Fraction
        assert _exact_product_is_identity(T, T_inv)

    def test_nearly_singular_map_is_decided_on_exact_values(self):
        eps = 2.0 ** -40  # far below the float comparison tolerance
        T = BCLinearMap(((_bc(1.0), _bc(1.0)), (_bc(1.0), _bc(1.0 + eps))))
        assert complex_rank(T.component(1)) == 2
        T_inv, _ = inverse_map(T)
        assert _exact_product_is_identity(T, T_inv)
        assert T_inv.matrix[1][1].z1.re == 1 / F(eps)
        exactly_singular = BCLinearMap(((_bc(1.0), _bc(1.0)), (_bc(1.0), _bc(1.0))))
        with pytest.raises(NotBijectiveError):
            inverse_map(exactly_singular)
