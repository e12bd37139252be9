"""The one column epigraph, `polytope.GaugeBody`, against the two it replaced.

`RealPolytope.gauge_lp` read a V-rep polytope and `convex.DifferenceBody.gauge_lp`
read G = A - B + x0; ``fraction_reference.py`` keeps both verbatim.  On
seeded bodies and points in dimensions 1-3 the body's gauge LP must have the
same variables as theirs with an empty span, and the same rows once the
simplex scales each to integers (the body hands its rows over already
scaled), so the simplex takes the same pivots: every `LPResult` (status, x, value, basis) must be equal
under the gauge's objective.

`hyperplane_gauge_bound` decides and certifies -q_B(-x) <=' f(x) <=' q_B(x)
by one maximum of f over B's points per component; the reference samples
B's vertices and a grid against the closed-form gauge.  Both must accept or
reject the same (B, f), with f's maximum over B below, at and above 1, for
open and closed B given by vertices or by halfspaces.
"""

from fractions import Fraction
from random import Random

import pytest

import fraction_reference as ref
from bicomplex import elim
from bicomplex import generators as gen
from bicomplex.analysis import (
    DHyperplane,
    hyperplane_gauge_bound,
    hyperplane_normalize,
)
from bicomplex.convex import DConvexSet, DifferenceBody, _centroid
from bicomplex.errors import BicomplexError, NotDisjointError
from bicomplex.linear import DLinearFunctional
from bicomplex.polytope import RealPolytope
from bicomplex.scalars import HyperbolicScalar
from bicomplex.vectors import DVector

F = Fraction
ONE = HyperbolicScalar.one()


def _hrep_twin(P: RealPolytope) -> RealPolytope:
    """The same set built from its faces (found on a copy, so P stays V-rep)."""
    return RealPolytope.from_halfspaces(RealPolytope.from_vertices(P.vertices()).halfspaces(), P.dim)


def _epigraph_pairs(rng: Random, dim: int):
    """(new body, reference epigraph): a polytope, its H-rep twin, a copy moved
    off the origin (so gauges can be infeasible), and two difference bodies."""
    P = gen.rand_absorbing_polytope(rng, dim)
    away = RealPolytope.from_vertices([tuple(x + 9 for x in v) for v in P.vertices()])
    for Q in (P, _hrep_twin(P), away):
        yield Q.gauge_body(), ref.VertexEpigraph(Q)
    A, B = gen.rand_separation_instance(rng, dim)
    x0 = (DVector.from_parts(_centroid(B.p1), _centroid(B.p2))
          - DVector.from_parts(_centroid(A.p1), _centroid(A.p2)))
    for l in (1, 2):
        args = (A.component(l), B.component(l), x0.part(l))
        yield DifferenceBody(*args), ref.DifferenceEpigraph(*args)


def _scaled(lp):
    """Each row [*coeffs, b] as `LinearProgram.solve` scales it to integers."""
    return [(elim.integer_row([*coeffs, b]), kind) for coeffs, b, kind in lp._rows]


def test_lp_rows_and_results_match_both_epigraphs():
    rng = Random("gauge-body:lp")
    solved = {"optimal": 0, "infeasible": 0}
    for trial in range(18):
        dim = 1 + trial % 3
        for body, old in _epigraph_pairs(rng, dim):
            for m in range(dim):
                for xhat in ([gen.rand_fraction(rng) for _ in range(dim)],
                             [F(int(i == m)) for i in range(dim)]):
                    new, want = body.gauge_lp(xhat), old.gauge_lp((), xhat)
                    for lp in (new, want):
                        lp.set_minimize(body._weights)
                    assert (new.n, new.nonneg, _scaled(new)) == (want.n, want.nonneg, _scaled(want))
                    got = new.solve()
                    assert got == want.solve(), (dim, xhat)
                    solved[got.status] += 1
    assert min(solved.values()) > 0 and solved["optimal"] > 200


def _hyperplane_cases():
    """(B, f) with max f over B_l equal to s_l, for s_l below, at and above 1."""
    rng = Random("gauge-body:hyperplane")
    cases = []
    for trial in range(12):
        dim = 1 + trial % 3
        V = gen.rand_absorbing_pair(rng, dim)
        g = gen.rand_dfunctional(rng, dim)
        while not all(any(g.component(l)) for l in (1, 2)):
            g = gen.rand_dfunctional(rng, dim)
        peaks = [max(g.eval_component(l, v) for v in V.component(l).vertices()) for l in (1, 2)]
        for parts in ((V.p1, V.p2), (_hrep_twin(V.p1), _hrep_twin(V.p2))):
            for open_flag in (False, True):
                B = DConvexSet(*parts, open=open_flag)
                for s1 in (F(1, 2), F(1), F(2)):
                    for s2 in (F(3, 4), F(1), F(3, 2)):
                        f = DLinearFunctional.from_parts(
                            [c * s1 / peaks[0] for c in g.component(1)],
                            [c * s2 / peaks[1] for c in g.component(2)])
                        cases.append((B, f, (s1, s2)))
    return cases


def _accepts(check, *args) -> bool:
    try:
        check(*args)
    except BicomplexError:
        return False
    return True


def test_form_max_certificate_accepts_what_the_sampled_check_accepts():
    accepted = rejected = 0
    for B, f, scales in _hyperplane_cases():
        want = _accepts(ref.sampled_gauge_bound, B, hyperplane_normalize(f, ONE).f)
        got = _accepts(hyperplane_gauge_bound, B, DHyperplane(f, ONE))
        assert got == want, (B, f, scales)
        assert got == all(s < 1 or (B.open and s == 1) for s in scales)
        accepted += got
        rejected += not got
    assert accepted > 50 and rejected > 300


@pytest.mark.parametrize("open_flag, scale, witness", [
    (True, F(2), (F(1, 2), F(-1, 2))),
    (False, F(1), (F(1), F(-1))),
])
def test_refusal_witness_is_the_scaled_first_maximizer(open_flag, scale, witness):
    """Over the box's vertices (-1, -1), (1, -1), (1, 1), (-1, 1), in that
    order, f_1 = scale * x_1 is largest first at (1, -1): an open box with
    maximum 2 and a closed one with maximum exactly 1 both meet {f = 1} in
    component 1, at that vertex divided by the maximum."""
    box = RealPolytope.box(2, F(-1), F(1))
    B = DConvexSet(box, box, open=open_flag)
    f = DLinearFunctional.from_parts([scale, F(0)], [F(1, 2), F(0)])
    with pytest.raises(NotDisjointError) as exc:
        hyperplane_gauge_bound(B, DHyperplane(f, ONE))
    assert (exc.value.component, exc.value.witness) == (1, witness)
