"""The V-rep gauge epigraph against the H-rep one it replaced.

The extension LPs of `bicomplex.analysis` read the gauge as
q(z) <= t iff z = sum_k mu_k v_k, sum(mu) = t, mu >= 0; the references in
``fraction_reference.py`` read it from the faces, q(z) <= t iff a.z <= t*b
for every face.  Both are LPs whose optimum values are fixed by the gauge,
so lo, hi, body maxima and extended functionals must be exactly equal on
V-rep bodies, on their H-rep twins and on boxes, in dimensions 1-3, with
spans of every rank below the dimension; failures must match too.
"""

from fractions import Fraction
from random import Random

import pytest

import fraction_reference as ref
from bicomplex import generators as gen
from bicomplex.analysis import (
    _complete_basis,
    _extension_interval,
    _max_over_body,
    extend_dominated,
)
from bicomplex.convex import DConvexSet
from bicomplex.errors import BicomplexError, LPUnboundedError
from bicomplex.linear import DLinearFunctional
from bicomplex.polytope import Halfspace, RealPolytope, matrix_rank
from bicomplex.scalars import HyperbolicScalar
from bicomplex.vectors import DVector

F = Fraction
INTERPS = (F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4))


def _outcome(fn, *args, **kwargs):
    """The value, or the type of the library error raised instead."""
    try:
        return fn(*args, **kwargs)
    except BicomplexError as exc:
        return type(exc)


def _hrep_twin(P: RealPolytope) -> RealPolytope:
    """The same set built from its faces (found on a copy, so P stays V-rep)."""
    return RealPolytope.from_halfspaces(RealPolytope.from_vertices(P.vertices()).halfspaces(), P.dim)


def _bodies(rng: Random, dim: int) -> list[RealPolytope]:
    """A symmetric and a lopsided V-rep body, their H-rep twins, and a box."""
    sym = gen.rand_absorbing_polytope(rng, dim)
    # scaling each point by its own positive factor keeps 0 interior
    lop = RealPolytope.from_vertices([
        tuple(F(rng.randint(1, 4), 2) * x for x in v) for v in sym.vertices()
    ])
    box = RealPolytope.box(dim, -F(rng.randint(1, 8), 4), F(rng.randint(1, 8), 4))
    return [sym, lop, _hrep_twin(sym), _hrep_twin(lop), box]


def _span(rng: Random, dim: int, rank: int) -> list[list[Fraction]]:
    while True:
        span = [[gen.rand_fraction(rng) for _ in range(dim)] for _ in range(rank)]
        if matrix_rank(span) == rank:
            return span


def _directions(rng: Random, span: list[list[Fraction]], dim: int) -> list[list[Fraction]]:
    """Unit vectors completing the span, and one random vector off it."""
    units = []
    for m in _complete_basis(span, dim):
        e = [F(0)] * dim
        e[m] = F(1)
        units.append(e)
    off = _span(rng, dim, 1)[0]
    while matrix_rank(span + [off]) == len(span):
        off = _span(rng, dim, 1)[0]
    return units + [off]


def test_interval_and_body_maximum_match_the_hrep_epigraph():
    rng = Random("vrep-epigraph:interval")
    finite = raised = 0
    for trial in range(24):
        dim = 1 + trial % 3
        for P in _bodies(rng, dim):
            faces = ref._faces(_hrep_twin(P) if P.has_vrep() else P)
            for rank in range(dim):
                span = _span(rng, dim, rank)
                vals = [gen.rand_fraction(rng) for _ in span]
                bound = ref._max_over_body(faces, span, vals)
                assert _max_over_body(P, span, vals) == bound
                # the interval LPs are bounded once g <= q on the span
                tries = [vals] + ([[v / (2 * bound) for v in vals]] if bound else [])
                for vs in tries:
                    for xhat in _directions(rng, span, dim):
                        want = _outcome(ref._extension_interval, faces, span, vs, xhat)
                        got = _outcome(_extension_interval, P, span, vs, xhat)
                        assert got == want, (P.has_vrep(), span, vs, xhat)
                        if isinstance(want, tuple):
                            assert all(type(v) is Fraction for v in got)
                            finite += 1
                        else:
                            raised += 1
            # the full span: the maximum of a form over the body, which the
            # global certificate now takes at the vertices
            identity = [[F(int(i == m)) for i in range(dim)] for m in range(dim)]
            form = [gen.rand_fraction(rng) for _ in range(dim)]
            top = ref._max_over_body(faces, identity, form)
            assert _max_over_body(P, identity, form) == top
            assert max(sum(c * F(x) for c, x in zip(form, v)) for v in P.vertices()) == top
    assert finite > 300 and raised > 20


def _basis(rng: Random, dim: int, rank: int) -> list[DVector]:
    while True:
        basis = [gen.rand_dvector(rng, dim) for _ in range(rank)]
        if all(matrix_rank([list(map(F, v.part(l))) for v in basis]) == rank for l in (1, 2)):
            return basis


def test_extend_dominated_matches_the_hrep_epigraph_for_every_interp():
    rng = Random("vrep-epigraph:extend")
    half = HyperbolicScalar(F(1, 2), F(1, 2))
    extended = 0
    for trial in range(18):
        dim = 1 + trial % 3
        b1, b2 = _bodies(rng, dim), _bodies(rng, dim)
        for i in range(len(b1)):
            B = DConvexSet(b1[i], b2[i])
            twin = DConvexSet(*(P if P.has_hrep() else _hrep_twin(P) for P in (b1[i], b2[i])))
            basis = _basis(rng, dim, (trial // 3) % dim)
            g = gen.rand_dfunctional(rng, dim)
            for _ in range(4):
                want = [_outcome(ref.extend_dominated, g, basis, twin, interp)
                        for interp in INTERPS]
                got = [_outcome(extend_dominated, g, basis, B, interp)
                       for interp in INTERPS]
                assert got == want, (dim, i, basis, g)
                if isinstance(want[0], DLinearFunctional):
                    extended += 1
                    break
                g = DLinearFunctional(g.coeffs.scale(half))
    assert extended > 60


def test_unbounded_hrep_body_is_refused():
    # The V-rep epigraph needs vertices: an unbounded H-rep body raises
    # LPUnboundedError even where its H-rep gauge would admit an extension.
    g = DLinearFunctional.from_parts([F(0), F(0)], [F(0), F(0)])
    half = RealPolytope.from_halfspaces(
        [Halfspace((1, 0), 1), Halfspace((0, 1), 1), Halfspace((0, -1), 1)], 2)
    for P in (RealPolytope.whole_space(2), half):
        for basis in ([], [DVector.from_parts([F(1), F(0)], [F(1), F(0)])]):
            with pytest.raises(LPUnboundedError):
                extend_dominated(g, basis, DConvexSet(P, P))
