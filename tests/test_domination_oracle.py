"""The domination decision of `extend_dominated` against an independent float LP (HiGHS).

`extend_dominated(g, Y, B)` must raise `DominationError` exactly when g
exceeds the gauge of B on Y in some component, that is when
c_l = max{g(y) : y in Y and in B_l} is above 1.  Here
`scipy.optimize.linprog` computes c_l from the input alone and shares no
code with `bicomplex.lp`: y = sum_j s_j u_j is written as sum_k mu_k v_k
with mu >= 0 and sum(mu) <= 1 over a vertex list, or kept inside the input
halfspaces of an H-rep body.  g is scaled per component so that c_l is at
least 9/8 or at most 7/8, so no float tolerance can flip a decision; the
`Fraction` chain of ``fraction_reference.py`` (one real dimension at a
time on the faces) must take the same decision.

A returned f must equal g on the span exactly, and its maximum over the
input vertex list must be at most 1 by plain `Fraction` evaluation, which
is f <= q_B everywhere.  On V-rep bodies, their H-rep twins and boxes in
dimensions 1-3, with spans of every rank below the dimension.
"""

from fractions import Fraction
from itertools import product
from random import Random

import pytest

pytest.importorskip("scipy")
from scipy.optimize import linprog  # noqa: E402

import fraction_reference as ref  # noqa: E402
from bicomplex import generators as gen  # noqa: E402
from bicomplex.analysis import extend_dominated  # noqa: E402
from bicomplex.convex import DConvexSet  # noqa: E402
from bicomplex.errors import DominationError  # noqa: E402
from bicomplex.linear import DLinearFunctional  # noqa: E402
from bicomplex.polytope import RealPolytope, matrix_rank  # noqa: E402
from bicomplex.vectors import DVector  # noqa: E402

F = Fraction
MARGIN = F(1, 8)
TARGETS = (F(1, 2), F(7, 8), F(9, 8), F(2))


def _bodies(rng: Random, dim: int):
    """(body, vertex list, halfspaces): a symmetric and a lopsided V-rep
    body, their H-rep twins, and a box."""
    sym = gen.rand_absorbing_polytope(rng, dim)
    # scaling each point by its own positive factor keeps 0 interior
    lop = RealPolytope.from_vertices([
        tuple(k * x for x in v) for v, k in
        zip(sym.vertices(), (F(rng.randint(1, 4), 2) for _ in sym.vertices()))
    ])
    out = []
    for P in (sym, lop):
        V = [tuple(map(F, v)) for v in P.vertices()]
        faces = RealPolytope.from_vertices(V).halfspaces()  # on a copy: P stays V-rep
        out.append((P, V, faces))
        out.append((RealPolytope.from_halfspaces(faces, dim), V, faces))
    lo, hi = -F(rng.randint(1, 8), 4), F(rng.randint(1, 8), 4)
    box = RealPolytope.box(dim, lo, hi)
    out.append((box, list(product((lo, hi), repeat=dim)), box.halfspaces()))
    return out


def _highs_peak(span, values, V, faces) -> float:
    """max sum_j s_j values_j over sum_j s_j u_j in the body (HiGHS), read
    from its input: the halfspaces when given, else the vertex list."""
    p = len(span)
    if p == 0:
        return 0.0
    cost = [-float(v) for v in values]
    if faces is not None:
        a_ub = [[float(sum(F(c) * u[i] for i, c in enumerate(h.a))) for u in span] for h in faces]
        res = linprog(cost, A_ub=a_ub, b_ub=[float(h.b) for h in faces],
                      bounds=[(None, None)] * p, method="highs")
    else:
        k, dim = len(V), len(V[0])
        a_eq = [[float(u[i]) for u in span] + [-float(v[i]) for v in V] for i in range(dim)]
        res = linprog(cost + [0.0] * k, A_ub=[[0.0] * p + [1.0] * k], b_ub=[1.0],
                      A_eq=a_eq, b_eq=[0.0] * dim,
                      bounds=[(None, None)] * p + [(0, None)] * k, method="highs")
    assert res.status == 0, res.message
    return -res.fun


def _basis(rng: Random, dim: int, rank: int) -> list[DVector]:
    while True:
        basis = [gen.rand_dvector(rng, dim) for _ in range(rank)]
        if all(matrix_rank([list(map(F, v.part(l))) for v in basis]) == rank for l in (1, 2)):
            return basis


def _dot(f, x) -> Fraction:
    return sum(F(c) * F(v) for c, v in zip(f, x))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DominationError:
        return DominationError


def test_domination_is_decided_as_highs_decides():
    rng = Random("domination-oracle")
    decided = {True: 0, False: 0}
    for trial in range(24):
        dim = 1 + trial % 3
        b1, b2 = _bodies(rng, dim), _bodies(rng, dim)
        for (P1, V1, H1), (P2, V2, H2) in zip(b1, b2):
            B = DConvexSet(P1, P2)
            twin = DConvexSet(RealPolytope.from_halfspaces(H1, dim),
                              RealPolytope.from_halfspaces(H2, dim))
            rank = (trial // 3) % dim
            basis = _basis(rng, dim, rank)
            g = gen.rand_dfunctional(rng, dim)
            parts, peaks = [], []
            for l, V, H in ((1, V1, H1), (2, V2, H2)):
                H = None if B.component(l).built_from_vertices() else H
                span = [list(map(F, u.part(l))) for u in basis]
                coeffs = [F(c) for c in g.component(l)]
                peak = _highs_peak(span, [_dot(coeffs, u) for u in span], V, H)
                if peak > 1e-9:  # scale g_l so that its peak lands on a target
                    scale = F(float(rng.choice(TARGETS)) / peak).limit_denominator(10**6)
                    coeffs = [c * scale for c in coeffs]
                    peak = _highs_peak(span, [_dot(coeffs, u) for u in span], V, H)
                    assert abs(peak - 1) >= MARGIN - F(1, 1000), peak
                parts.append(coeffs)
                peaks.append(peak)
            g = DLinearFunctional.from_parts(*parts)
            dominated = max(peaks) <= 1
            got = _outcome(extend_dominated, g, basis, B)
            assert (got is not DominationError) == dominated, (dim, rank, peaks)
            assert (_outcome(ref.extend_dominated, g, basis, twin) is not DominationError) == dominated
            decided[dominated] += 1
            if not dominated:
                continue
            for l, V in ((1, V1), (2, V2)):
                f_l, g_l = got.component(l), g.component(l)
                assert all(_dot(f_l, u.part(l)) == _dot(g_l, u.part(l)) for u in basis)
                assert max(_dot(f_l, v) for v in V) <= 1
    assert decided[True] > 60 and decided[False] > 25


def test_peak_exactly_one_extends():
    # Y = span{(1, 1)} in both components.  On the diamond conv(+-e1, +-e2)
    # y = s(1, 1) lies in it for |s| <= 1/2, so g1 = (1, 1) peaks at exactly
    # 1; on the box [-1, 1]^2, |s| <= 1 and g2 = (1, 0) peaks at 1 too.
    diamond = [(F(1), F(0)), (F(0), F(1)), (F(-1), F(0)), (F(0), F(-1))]
    box = list(product((F(-1), F(1)), repeat=2))
    B = DConvexSet(RealPolytope.from_vertices(diamond), RealPolytope.box(2, F(-1), F(1)))
    g = DLinearFunctional.from_parts([F(1), F(1)], [F(1), F(0)])
    u = DVector.from_parts([F(1), F(1)], [F(1), F(1)])
    f = extend_dominated(g, [u], B)
    assert f(u) == g(u)
    for l, V in ((1, diamond), (2, box)):
        assert max(_dot(f.component(l), v) for v in V) == 1
