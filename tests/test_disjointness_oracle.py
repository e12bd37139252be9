"""The disjointness decisions against an independent float LP (HiGHS).

`hyperplane_gauge_bound` decides whether {f = 1} meets an absorbing set by
the maximum of f over the set's points, `variety_extend_hyperplane` whether
x0 + span(M) meets it by its extension's polar LP (they meet when its
optimum is below 1, or at 1 for a closed set), and `separate_hyperbolic`
decides the overlap of an open A with B by the extension LP over the polar
of G = A - B + x0, whose optimum is q_G(x0) (they meet when it is below 1).
Here `scipy.optimize.linprog` decides the same questions from the vertex
lists alone and shares no code with `bicomplex.lp`: a point meets conv(V)
when it is sum_i mu_i v_i with mu >= 0 and sum(mu) = 1, and meets its
interior when some such mu has every mu_i > 0, so the oracle maximizes
s <= min_i mu_i.  Every instance is built
with a margin of at least 1/8: a meeting set reaches 1/8 into the other, a
missing one stays 1/8 away (in the functional's value for hyperplanes and
varieties), so no float tolerance can flip a decision.

Strict separability of the separation suite's pairs is decided the same
way, one component at a time, against `separate_hyperbolic`.
"""

from collections import Counter
from fractions import Fraction
from random import Random

import pytest

pytest.importorskip("scipy")
from scipy.optimize import linprog  # noqa: E402

from bicomplex import generators as gen  # noqa: E402
from bicomplex.analysis import (  # noqa: E402
    hyperplane_gauge_bound,
    hyperplane_normalize,
    separate_hyperbolic,
    variety_extend_hyperplane,
)
from bicomplex.convex import DConvexSet  # noqa: E402
from bicomplex.errors import NotDisjointError  # noqa: E402
from bicomplex.linear import DLinearFunctional  # noqa: E402
from bicomplex.polytope import RealPolytope, affine_rank  # noqa: E402
from bicomplex.scalars import HyperbolicScalar  # noqa: E402
from bicomplex.vectors import DVector  # noqa: E402

F = Fraction
MARGIN = F(1, 8)


def _meets(V, strict: bool, rows=(), extra=()) -> bool:
    """Does conv(V), or its interior when strict, meet {x : C x + D z = e}?

    ``rows`` holds (C, D, e) with x = sum_i mu_i v_i substituted; ``extra``
    gives the bounds of the variables z.
    """
    k, m = len(V), len(extra)
    a_eq = [[1.0] * k + [0.0] + [0.0] * m]
    b_eq = [1.0]
    for C, D, e in rows:
        a_eq.append([float(sum(c * F(x) for c, x in zip(C, v))) for v in V]
                    + [0.0] + [float(d) for d in D])
        b_eq.append(float(e))
    a_ub = [[-1.0 if j == i else 0.0 for j in range(k)] + [1.0] + [0.0] * m for i in range(k)]
    bounds = [(0, None)] * k + [(None, 1) if strict else (0, 0)] + list(extra)
    res = linprog([0.0] * k + [-1.0] + [0.0] * m, A_ub=a_ub, b_ub=[0.0] * k,
                  A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if res.status == 2:
        return False
    assert res.status == 0, res.message
    return not strict or -res.fun > 1e-6


def _padded_polytope(rng: Random, dim: int) -> RealPolytope:
    """An absorbing polytope holding +-e_c/4, so the origin is 1/8 inside it."""
    P = gen.rand_absorbing_polytope(rng, dim)
    pads = [tuple(F(s, 4) if i == c else F(0) for i in range(dim)) for c in range(dim) for s in (1, -1)]
    return RealPolytope.from_vertices(list(P.vertices()) + pads)


def _far_side(V, rng: Random, dim: int) -> RealPolytope:
    """A small polytope at least 1/8 past conv(V) along one axis."""
    axis, sign = rng.randrange(dim), rng.choice((1, -1))
    reach = max(sign * F(v[axis]) for v in V)
    pts = [[gen.rand_fraction(rng, -1, 1) for _ in range(dim)] for _ in range(rng.randint(1, 3))]
    low = min(sign * p[axis] for p in pts)
    for p in pts:
        p[axis] += sign * (reach - low + MARGIN * rng.randint(1, 4))
    return RealPolytope.from_vertices([tuple(p) for p in pts])


def test_overlap_decisions_agree_with_highs():
    rng = Random("oracle:overlap")
    seen = Counter()
    for i in range(120):
        dim = 1 + i % 3
        Pa = _padded_polytope(rng, dim)
        if rng.getrandbits(1):  # holds the origin, 1/8 inside Pa
            Pb = RealPolytope.from_vertices(list(gen.rand_absorbing_polytope(rng, dim).vertices()))
        else:
            Pb = _far_side(Pa.vertices(), rng, dim)
        Vb = Pb.vertices()
        rows = [([int(i == c) for i in range(dim)], [-F(v[c]) for v in Vb], 0) for c in range(dim)]
        rows.append(([0] * dim, [1] * len(Vb), 1))
        want = _meets(Pa.vertices(), True, rows, [(0, None)] * len(Vb))
        if affine_rank(Vb) == dim and rng.getrandbits(1):
            Pb = RealPolytope.from_halfspaces(Pb.halfspaces(), dim)
        A, B = DConvexSet(Pa, Pa, open=True), DConvexSet(Pb, Pb)
        assert _first_meeting(separate_hyperbolic, A, B) == (1 if want else None)
        seen[want, Pb.built_from_vertices()] += 1
    assert min(seen.values()) > 10


def _functional(rng: Random, dim: int) -> DLinearFunctional:
    return DLinearFunctional(DVector.from_parts(
        [gen.rand_nonzero_fraction(rng) for _ in range(dim)],
        [gen.rand_nonzero_fraction(rng) for _ in range(dim)],
    ))


def _level(rng: Random, bottom: Fraction, top: Fraction, inside: bool) -> Fraction:
    """A nonzero level 1/8 inside (bottom, top) when asked and possible, else 1/8 beyond it."""
    levels = [bottom + MARGIN * j for j in range(1, int((top - bottom) / MARGIN))]
    levels = [c for c in levels if c != 0]
    if inside and levels:
        return rng.choice(levels)
    return rng.choice((top + MARGIN * rng.randint(1, 8), bottom - MARGIN * rng.randint(1, 8)))


def _first_meeting(fn, *args):
    try:
        fn(*args)
        return None
    except NotDisjointError as exc:
        return exc.component


def test_hyperplane_decisions_agree_with_highs():
    rng = Random("oracle:hyperplane")
    seen = Counter()
    for i in range(120):
        dim = 1 + i % 3
        B = gen.rand_absorbing_pair(rng, dim, open_flag=bool(rng.getrandbits(1)))
        g = _functional(rng, dim)
        levels, want = [], None
        for l in (1, 2):
            V = B.component(l).vertices()
            values = [g.eval_component(l, v) for v in V]
            c = _level(rng, min(values), max(values), rng.getrandbits(1))
            levels.append(c)
            if want is None and _meets(V, B.open, [(g.component(l), [], c)]):
                want = l
        L = hyperplane_normalize(g, HyperbolicScalar(*levels))
        assert _first_meeting(hyperplane_gauge_bound, B, L) == want
        seen[B.open, want] += 1
    assert min(seen.values()) > 5 and len(seen) == 6


def test_variety_decisions_agree_with_highs():
    """x0 + span(M) inside {w.x = c}: 1/8 beyond the set, or a crossing hyperplane."""
    rng = Random("oracle:variety")
    seen = Counter()
    for i in range(90):
        dim = 1 + i % 3
        B = gen.rand_absorbing_pair(rng, dim, open_flag=bool(rng.getrandbits(1)))
        crossing = rng.getrandbits(1)  # only a hyperplane is sure to cross at an inside level
        k = dim - 1 if crossing else rng.randrange(dim)
        x_parts, m_parts, want = [], [], None
        for l in (1, 2):
            V = B.component(l).vertices()
            w = [gen.rand_nonzero_fraction(rng) for _ in range(dim)]
            values = [sum(a * F(x) for a, x in zip(w, v)) for v in V]
            c = _level(rng, min(values), max(values), crossing)
            x0 = [c * a / sum(a * a for a in w) for a in w]
            M = [[-w[j] / w[0] if col == 0 else F(col == j) for col in range(dim)]
                 for j in range(1, k + 1)]
            x_parts.append(x0)
            m_parts.append(M)
            rows = [([int(j == r) for j in range(dim)], [-u[r] for u in M], x0[r])
                    for r in range(dim)]
            if want is None and _meets(V, B.open, rows, [(None, None)] * k):
                want = l
        basis = [DVector.from_parts(m_parts[0][j], m_parts[1][j]) for j in range(k)]
        x0 = DVector.from_parts(*x_parts)
        assert _first_meeting(variety_extend_hyperplane, x0, basis, B) == want
        seen[B.open, want is None] += 1
    assert min(seen.values()) > 5


def _separable(Va, Vb) -> bool:
    """Is there a w with max w.a < min w.b over the two vertex lists?

    Maximizes the gap s in w.a + s <= c <= w.b over w in [-1, 1]^n.  The
    separation suite's gapped components sit at least 1 beyond A's radius
    along an axis, so s >= 1 there, and its overlapping components both hold
    the origin inside, so s = 0: the threshold 1/2 is far from both.
    """
    n = len(Va[0])
    a_ub = [[float(x) for x in a] + [-1.0, 1.0] for a in Va]
    a_ub += [[-float(x) for x in b] + [1.0, 0.0] for b in Vb]
    res = linprog([0.0] * (n + 1) + [-1.0], A_ub=a_ub, b_ub=[0.0] * len(a_ub),
                  bounds=[(-1, 1)] * n + [(None, None), (None, 1)], method="highs")
    assert res.status == 0, res.message
    return -res.fun > 0.5


def test_separation_decisions_agree_with_highs():
    rng = Random("oracle:separation")
    seen = Counter()
    for i in range(90):
        dim = 1 + i % 3
        if i % 2:
            A, B, _ = gen.rand_overlap_instance(rng, dim)
        else:
            A, B = gen.rand_separation_instance(rng, dim)
        apart = [_separable(A.component(l).vertices(), B.component(l).vertices())
                 for l in (1, 2)]
        try:
            separate_hyperbolic(A, B)
            got = None
        except NotDisjointError as exc:
            got = exc.component
        assert got == (None if all(apart) else apart.index(False) + 1)
        seen[tuple(apart)] += 1
    assert seen[True, True] == 45 and min(seen.values()) > 5
