"""Constructive functional-analysis routines with exact certificates.

Covers dominated extension, strict separation with verified certificates,
hyperplane normalization and gauge bounds, variety extension, uniform
boundedness, open/inverse mapping radii, and graph reconstruction.
"""

from fractions import Fraction
from itertools import product
from random import Random

import pytest

from bicomplex import polytope
from bicomplex.analysis import (
    DHyperplane,
    MapFamily,
    extend_dominated,
    hyperplane_gauge_bound,
    hyperplane_normalize,
    inverse_map,
    map_from_graph,
    omt_delta,
    separate_bicomplex,
    separate_hyperbolic,
    ubp_bound,
    variety_extend_hyperplane,
)
from bicomplex.convex import DConvexSet, DifferenceBody, minkowski_gauge
from bicomplex.errors import (
    DegenerateBasisError,
    DegenerateFunctionalError,
    DegenerateVarietyError,
    DimensionMismatch,
    DominationError,
    EmptyFamilyError,
    LPUnboundedError,
    NotAbsorbingError,
    NotAGraphError,
    NotBijectiveError,
    NotDisjointError,
    NotOpenError,
    NotSurjectiveError,
    ZeroDivisorLevelError,
)
from bicomplex.generators import rand_overlap_instance
from bicomplex.linear import (
    BCLinearFunctional,
    BCLinearMap,
    DLinearFunctional,
    hyperbolic_part,
)
from bicomplex.lp import LinearProgram
from bicomplex.order import le, lt_strict
from bicomplex.polytope import GaugeBody, Halfspace, RealPolytope, affine_rank
from bicomplex.scalars import BicomplexScalar, ComplexScalar, HyperbolicScalar
from bicomplex.vectors import BCVector, DVector

F = Fraction


def h(a, b):
    return HyperbolicScalar(F(a), F(b))


def box_pair(dim=1, lo=-1, hi=1, open_flag=False) -> DConvexSet:
    B = RealPolytope.box(dim, F(lo), F(hi))
    return DConvexSet(B, B, open=open_flag)


def point_pair(p1, p2) -> DConvexSet:
    return DConvexSet(
        RealPolytope.from_vertices([tuple(F(c) for c in p1)]),
        RealPolytope.from_vertices([tuple(F(c) for c in p2)]),
    )


def scalar_map(c1, c2) -> BCLinearMap:
    return BCLinearMap(((BicomplexScalar(ComplexScalar(F(c1)), ComplexScalar(F(c2))),),))


class TestExtendDominated:
    def test_full_subspace_returns_g(self):
        g = DLinearFunctional.from_parts([F(1, 2)], [F(1, 2)])
        f = extend_dominated(g, [DVector.of(h(1, 1))], box_pair())
        assert f == g

    def test_zero_on_zero_subspace(self):
        g = DLinearFunctional.from_parts([F(0), F(0)], [F(0), F(0)])
        f = extend_dominated(g, [], box_pair(dim=2))
        assert f.component(1) == (0, 0) and f.component(2) == (0, 0)

    def test_axis_extension_takes_midpoint(self):
        # g = x1/2 on the first axis; over the unit box f <= 1 is
        # |f1| + |f2| <= 1, so the largest scale s with f1 = s/2 is s = 2 at
        # f2 = 0 only, the middle of the admissible slopes [-1/2, 1/2].
        g = DLinearFunctional.from_parts([F(1, 2), F(0)], [F(1, 2), F(0)])
        f = extend_dominated(g, [DVector.of(h(1, 1), h(0, 0))], box_pair(dim=2))
        assert f.component(1) == (F(1, 2), 0)
        assert f.component(2) == (F(1, 2), 0)

    def test_result_dominated_everywhere(self):
        g = DLinearFunctional.from_parts([F(1, 2), F(0)], [F(1, 4), F(0)])
        B = box_pair(dim=2)
        f = extend_dominated(g, [DVector.of(h(1, 1), h(0, 0))], B)
        rng = Random("dominated")
        for _ in range(25):
            x = DVector.from_parts(
                [F(rng.randint(-8, 8), 4) for _ in range(2)],
                [F(rng.randint(-8, 8), 4) for _ in range(2)],
            )
            assert le(f(x), minkowski_gauge(B, x).hyper())

    def test_domination_violation_rejected(self):
        g = DLinearFunctional.from_parts([F(2)], [F(2)])
        with pytest.raises(DominationError):
            extend_dominated(g, [DVector.of(h(1, 1))], box_pair())

    def test_dependent_basis_rejected(self):
        g = DLinearFunctional.from_parts([F(0), F(0)], [F(0), F(0)])
        u = DVector.of(h(1, 1), h(0, 0))
        with pytest.raises(DegenerateBasisError):
            extend_dominated(g, [u, u], box_pair(dim=2))

    def test_one_lp_per_component(self, monkeypatch):
        # 3-D, a 1-D span, g nonzero on it in both components: one solve each
        B = DConvexSet(RealPolytope.box(3, F(-1), F(2)),
                       RealPolytope.from_vertices([(F(2), F(0), F(0)), (F(-1), F(1), F(0)),
                                                   (F(-1), F(-1), F(1)), (F(0), F(0), F(-3))]))
        g = DLinearFunctional.from_parts([F(1, 8), F(1, 6), F(0)], [F(1, 5), F(0), F(-1, 7)])
        u = DVector.from_parts([F(1), F(1), F(0)], [F(1), F(-1), F(1)])
        for l in (1, 2):
            B.component(l).gauge_body()
        solves = []
        solve = LinearProgram.solve
        monkeypatch.setattr(LinearProgram, "solve", lambda lp: solves.append(lp) or solve(lp))
        f = extend_dominated(g, [u], B)
        assert len(solves) == 2
        assert f(u) == g(u) and not f(u).is_zero()

    @pytest.mark.parametrize("x, open_flag, f_part, refusal", [
        ((2, 0, 0), False, (F(1, 2), F(0), F(0)), None),  # misses the box: f = x1/2
        ((1, 0, 0), False, None, (1, (F(1), F(0), F(0)))),  # touches the closed box
        ((1, 0, 0), True, (F(1), F(0), F(0)), None),  # touches the open box's boundary
    ])
    def test_variety_decided_and_extended_by_the_same_lp(self, x, open_flag, f_part, refusal,
                                                         monkeypatch):
        """x0 + span(e2) against the vertex box [-1, 1]^3 in both components:
        one polar LP per component decides and extends, or refuses component 1
        with one least-gauge LP for the witness; no halfspace list is built for B."""
        box = RealPolytope.from_vertices(list(product((F(-1), F(1)), repeat=3)))
        B = DConvexSet(box, box, open=open_flag)
        x0 = DVector.from_parts(list(map(F, x)), list(map(F, x)))
        e2 = DVector.from_parts([F(0), F(1), F(0)], [F(0), F(1), F(0)])
        solves, facets = [], []
        solve, enumerate_facets = LinearProgram.solve, polytope.facet_enumeration
        monkeypatch.setattr(LinearProgram, "solve", lambda lp: solves.append(lp) or solve(lp))
        monkeypatch.setattr(polytope, "facet_enumeration",
                            lambda *args: facets.append(args) or enumerate_facets(*args))
        if refusal:
            with pytest.raises(NotDisjointError) as exc:
                variety_extend_hyperplane(x0, [e2], B)
            assert (exc.value.component, exc.value.witness) == refusal
        else:
            f = variety_extend_hyperplane(x0, [e2], B).f
            assert f.component(1) == f.component(2) == f_part
        assert len(solves) == 2 and facets == []

    def test_needs_absorbing_gauge(self):
        g = DLinearFunctional.from_parts([F(0)], [F(0)])
        shifted = point_pair((2,), (2,))
        with pytest.raises(NotAbsorbingError):
            extend_dominated(g, [], shifted)


class TestSeparation:
    def test_interval_vs_points_certificate(self):
        A = box_pair(open_flag=True)
        B = point_pair((3,), (5,))
        cert = separate_hyperbolic(A, B)
        assert cert.f.component(1) == (F(1, 3),)
        assert cert.f.component(2) == (F(1, 5),)
        assert cert.gamma == h(1, 1)

    def test_certificate_inequalities_hold(self):
        A = box_pair(open_flag=True)
        B = point_pair((3,), (5,))
        cert = separate_hyperbolic(A, B)
        # f = (x/3, x/5) peaks on A's closure at x = 1 and equals gamma at B
        assert cert.sup_A == h(F(1, 3), F(1, 5))
        assert lt_strict(cert.sup_A, cert.gamma)
        for l in (1, 2):
            values = [cert.f.eval_component(l, v) for v in A.component(l).vertices()]
            assert max(values) == (cert.sup_A.a1, cert.sup_A.a2)[l - 1]

    def test_one_pass_of_group_maxima_per_component(self, monkeypatch):
        # the extension's global check and the certificate's extrema each
        # read f over the difference body's groups once per component
        A = box_pair(dim=2, open_flag=True)
        B = point_pair((3, 1), (5, -2))
        calls = []
        group_maxima = GaugeBody.group_maxima
        monkeypatch.setattr(GaugeBody, "group_maxima",
                            lambda body, coeffs: calls.append(body) or group_maxima(body, coeffs))
        cert = separate_hyperbolic(A, B)
        assert lt_strict(cert.sup_A, cert.gamma)
        assert len(calls) == 4
        assert all(isinstance(body, DifferenceBody) for body in calls)
        assert len(set(map(id, calls))) == 2  # one body per component, read twice each

    def test_overlap_raises_with_witness(self):
        A = box_pair(dim=2, open_flag=True)
        B = point_pair((0, 0), (0, 0))
        with pytest.raises(NotDisjointError) as exc:
            separate_hyperbolic(A, B)
        err = exc.value
        assert err.component in (1, 2)
        assert tuple(err.witness) == (0, 0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_overlap_witness_ignores_derived_vertices(self, dim):
        # an H-rep B is read by its faces even once its vertices are known
        rng = Random(f"overlap-route:{dim}")
        for _ in range(6):
            A, B0, _ = rand_overlap_instance(rng, dim)
            witnesses = []
            for derive in (False, True):
                B = DConvexSet(*(RealPolytope.from_halfspaces(P.halfspaces(), dim)
                                 if affine_rank(P.vertices()) == dim else P
                                 for P in (B0.p1, B0.p2)))
                if derive:
                    B.p1.vertices(), B.p2.vertices()
                with pytest.raises(NotDisjointError) as exc:
                    separate_hyperbolic(A, B)
                witnesses.append((exc.value.component, exc.value.witness))
            assert witnesses[0] == witnesses[1]

    @pytest.mark.parametrize("B1, B2, outcome, solves", [
        (((3,),), ((5,),), None, 2),  # disjoint: one polar LP per component
        (((0,), (2,)), ((5,),), 1, 2),  # component 1 overlaps: its polar LP, then the witness
        (((5,),), ((0,), (2,)), 2, 3),  # only component 2 overlaps
        (((-1,), (1,)), ((5,),), 1, 1),  # the centroids coincide in component 1: no polar LP
    ])
    def test_one_lp_per_component(self, B1, B2, outcome, solves, monkeypatch):
        # the polar LP of the extension decides overlap; the gauge LP at x0
        # runs only for the witness of the component that overlaps
        segment = RealPolytope.from_vertices([(F(-1),), (F(1),)])
        A = DConvexSet(segment, segment, open=True)
        B = DConvexSet(*(RealPolytope.from_vertices([tuple(map(F, p)) for p in part])
                         for part in (B1, B2)))
        count = []
        solve = LinearProgram.solve
        monkeypatch.setattr(LinearProgram, "solve", lambda lp: count.append(lp) or solve(lp))
        if outcome is None:
            separate_hyperbolic(A, B)
        else:
            with pytest.raises(NotDisjointError) as exc:
                separate_hyperbolic(A, B)
            assert exc.value.component == outcome
        assert len(count) == solves

    def test_closed_first_set_rejected(self):
        with pytest.raises(NotOpenError):
            separate_hyperbolic(box_pair(), point_pair((3,), (3,)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            separate_hyperbolic(box_pair(open_flag=True), point_pair((3, 0), (3, 0)))

    def test_bicomplex_lift(self):
        A = box_pair(dim=2, open_flag=True)
        B = point_pair((3, 0), (3, 0))
        hbc, gamma = separate_bicomplex(A, B)
        cert = separate_hyperbolic(A, B)
        assert gamma == cert.gamma
        f_d = hyperbolic_part(hbc)
        # The lift's hyperbolic part restates the certificate on interleaved
        # (re, im) coordinates.
        for v1 in A.p1.vertices():
            for v2 in A.p2.vertices():
                x = BCVector(
                    (BicomplexScalar(ComplexScalar(v1[0], v1[1]), ComplexScalar(v2[0], v2[1])),)
                )
                expected = HyperbolicScalar(
                    cert.f.eval_component(1, v1), cert.f.eval_component(2, v2)
                )
                assert f_d(x) == expected
                assert lt_strict(f_d(x), gamma)

    def test_bicomplex_needs_even_dimension(self):
        with pytest.raises(DimensionMismatch):
            separate_bicomplex(box_pair(open_flag=True), point_pair((3,), (3,)))


class TestHyperplane:
    def test_normalize_to_level_one(self):
        g = DLinearFunctional.from_parts([F(2)], [F(4)])
        L = hyperplane_normalize(g, h(2, 4))
        assert L.f.component(1) == (1,) and L.f.component(2) == (1,)
        assert L.c == HyperbolicScalar.one()

    def test_normalize_invariant_under_invertible_rescale(self):
        g = DLinearFunctional.from_parts([F(2), F(1)], [F(4), F(-1)])
        c = h(2, 4)
        lam = h(3, F(-1, 2))
        rescaled = DLinearFunctional(g.coeffs.scale(lam))
        assert hyperplane_normalize(rescaled, lam * c) == hyperplane_normalize(g, c)

    def test_zero_divisor_level_rejected(self):
        g = DLinearFunctional.from_parts([F(1)], [F(1)])
        with pytest.raises(ZeroDivisorLevelError):
            hyperplane_normalize(g, h(1, 0))

    def test_degenerate_functional_rejected(self):
        g = DLinearFunctional.from_parts([F(0)], [F(1)])
        with pytest.raises(DegenerateFunctionalError):
            hyperplane_normalize(g, h(1, 1))

    def test_contains_and_component_level(self):
        L = hyperplane_normalize(DLinearFunctional.from_parts([F(1)], [F(1)]), h(2, 2))
        assert L.contains(DVector.of(h(2, 2)))
        assert not L.contains(DVector.of(h(0, 0)))
        coeffs, level = L.component_level(1)
        assert coeffs == (F(1, 2),) and level == 1

    def test_gauge_bound_on_unit_box(self):
        L = DHyperplane(DLinearFunctional.from_parts([F(1)], [F(1)]), h(2, 2))
        f = hyperplane_gauge_bound(box_pair(), L)
        assert f.component(1) == (F(1, 2),)
        assert f.component(2) == (F(1, 2),)

    def test_gauge_bound_dominates_gauge(self):
        B = box_pair(dim=2)
        L = DHyperplane(
            DLinearFunctional.from_parts([F(1), F(0)], [F(1), F(0)]), h(3, 3)
        )
        f = hyperplane_gauge_bound(B, L)
        rng = Random("hyperplane-gauge")
        for _ in range(25):
            x = DVector.from_parts(
                [F(rng.randint(-8, 8), 4) for _ in range(2)],
                [F(rng.randint(-8, 8), 4) for _ in range(2)],
            )
            q = minkowski_gauge(B, x).hyper()
            assert le(f(x), q)
            assert le(-q, f(x))

    def test_gauge_bound_on_four_dimensional_vertex_box(self):
        box = RealPolytope.from_vertices(list(product((F(-1), F(1)), repeat=4)))
        B = DConvexSet(box, box)
        L = DHyperplane(DLinearFunctional.from_parts([F(1), F(1), F(0), F(0)],
                                                     [F(0), F(0), F(0), F(1)]), h(4, 2))
        f = hyperplane_gauge_bound(B, L)
        assert f.component(1) == (F(1, 4), F(1, 4), F(0), F(0))
        assert f.component(2) == (F(0), F(0), F(0), F(1, 2))
        assert len(box.halfspaces()) == 8

    @pytest.mark.parametrize("open_flag", [False, True])
    def test_one_exact_pass_decides_without_lp_or_facets(self, open_flag, monkeypatch):
        """A vertex box whose largest value of f is exactly 1 at (1, 1): the
        closed box touches {f = 1} there and is refused with that vertex,
        the open one misses it.  Neither solves an LP or builds a halfspace list."""
        solves, facets = [], []
        solve, enumerate_facets = LinearProgram.solve, polytope.facet_enumeration
        monkeypatch.setattr(LinearProgram, "solve", lambda lp: solves.append(lp) or solve(lp))
        monkeypatch.setattr(polytope, "facet_enumeration",
                            lambda *args: facets.append(args) or enumerate_facets(*args))
        box = RealPolytope.from_vertices(list(product((F(-1), F(1)), repeat=2)))
        B = DConvexSet(box, box, open=open_flag)
        L = DHyperplane(DLinearFunctional.from_parts([F(1, 2), F(1, 2)], [F(1, 4), F(0)]),
                        HyperbolicScalar.one())
        if open_flag:
            assert hyperplane_gauge_bound(B, L).component(1) == (F(1, 2), F(1, 2))
        else:
            with pytest.raises(NotDisjointError) as exc:
                hyperplane_gauge_bound(B, L)
            assert (exc.value.component, exc.value.witness) == (1, (F(1), F(1)))
        assert solves == [] and facets == []

    def test_vertex_list_rays_found_once_per_component(self, monkeypatch):
        """The gauge bound, then the variety extension, on one vertex-list B:
        each engine's absorbency test reads the facet rays of each component's
        vertex rows, which `_cone_rays` finds once and `_integer_faces`
        memoizes.  No halfspace list is built."""
        rays, facets = [], []
        cone_rays, enumerate_facets = polytope._cone_rays, polytope.facet_enumeration
        monkeypatch.setattr(polytope, "_cone_rays", lambda *args: rays.append(args) or cone_rays(*args))
        monkeypatch.setattr(polytope, "facet_enumeration",
                            lambda *args: facets.append(args) or enumerate_facets(*args))
        square = RealPolytope.from_vertices(list(product((F(-1), F(1)), repeat=2)))
        triangle = RealPolytope.from_vertices([(F(-1), F(-1)), (F(2), F(-1)), (F(-1), F(2))])
        B = DConvexSet(square, triangle)
        L = DHyperplane(DLinearFunctional.from_parts([F(1, 4), F(0)], [F(0), F(1, 4)]),
                        HyperbolicScalar.one())
        assert hyperplane_gauge_bound(B, L).component(2) == (F(0), F(1, 4))
        x0 = DVector.from_parts([F(3), F(0)], [F(3), F(0)])
        e2 = DVector.from_parts([F(0), F(1)], [F(0), F(1)])
        assert variety_extend_hyperplane(x0, [e2], B).f.component(1) == (F(1, 3), F(0))
        assert len(rays) == 2 and facets == []
        assert square._halfspaces is None and triangle._halfspaces is None

    def test_crossing_level_raises(self):
        L = DHyperplane(DLinearFunctional.from_parts([F(1)], [F(1)]), h(F(1, 2), F(1, 2)))
        with pytest.raises(NotDisjointError):
            hyperplane_gauge_bound(box_pair(), L)

    def test_gauge_bound_needs_absorbing_set(self):
        L = DHyperplane(DLinearFunctional.from_parts([F(1)], [F(1)]), h(2, 2))
        with pytest.raises(NotAbsorbingError):
            hyperplane_gauge_bound(point_pair((2,), (2,)), L)


class TestVarietyExtension:
    def test_axis_variety(self):
        x0 = DVector.of(h(2, 2), h(0, 0))
        direction = DVector.of(h(0, 0), h(1, 1))
        L = variety_extend_hyperplane(x0, [direction], box_pair(dim=2))
        assert L.c == HyperbolicScalar.one()
        assert L.f(x0) == h(1, 1)
        assert L.f(direction) == h(0, 0)
        assert L.f.component(1) == (F(1, 2), 0)
        assert L.f.component(2) == (F(1, 2), 0)

    def test_variety_membership_preserved(self):
        x0 = DVector.of(h(2, 2), h(0, 0))
        direction = DVector.of(h(0, 0), h(1, 1))
        L = variety_extend_hyperplane(x0, [direction], box_pair(dim=2))
        for t in (F(-2), F(0), F(3, 2)):
            p = x0 + direction.scale(h(t, t))
            assert L.contains(p)

    def test_x0_in_span_rejected(self):
        x0 = DVector.of(h(1, 1), h(0, 0))
        with pytest.raises(DegenerateVarietyError):
            variety_extend_hyperplane(x0, [x0], box_pair(dim=2))

    def test_crossing_variety_rejected(self):
        x0 = DVector.of(h(F(1, 2), F(1, 2)), h(0, 0))
        direction = DVector.of(h(0, 0), h(1, 1))
        with pytest.raises(NotDisjointError):
            variety_extend_hyperplane(x0, [direction], box_pair(dim=2))

    @pytest.mark.parametrize("x2, error, component", [
        (2, DegenerateBasisError, 1),  # both components miss B
        (F(1, 2), NotDisjointError, 2),  # only component 2 meets B
    ])
    def test_disjointness_precedes_dependent_basis(self, x2, error, component):
        box = RealPolytope.from_vertices(list(product((F(-1), F(1)), repeat=3)))
        x0 = DVector.from_parts([F(2), F(0), F(0)], [F(x2), F(0), F(0)])
        e2 = DVector.from_parts([F(0), F(1), F(0)], [F(0), F(1), F(0)])
        with pytest.raises(error) as exc:
            variety_extend_hyperplane(x0, [e2, e2], DConvexSet(box, box))
        assert exc.value.component == component

    @pytest.mark.parametrize("x", [F(1, 2), F(2)])
    def test_unbounded_hrep_set_is_refused_like_extend_dominated(self, x):
        # B = {x <= 1} is read through its vertices, which do not exist, whether
        # the variety {x0} meets it (x0 = 1/2) or not (x0 = 2)
        ray = RealPolytope.from_halfspaces([Halfspace((F(1),), F(1))], 1)
        B = DConvexSet(ray, ray)
        with pytest.raises(LPUnboundedError):
            variety_extend_hyperplane(DVector.of(h(x, x)), [], B)
        with pytest.raises(LPUnboundedError):
            extend_dominated(DLinearFunctional.from_parts([F(1, 2)], [F(1, 2)]),
                             [DVector.of(h(1, 1))], B)


class TestUniformBoundedness:
    def test_identity_family(self):
        M, delta = ubp_bound(MapFamily((BCLinearMap.identity(1),)), HyperbolicScalar(1.0, 1.0))
        assert M == HyperbolicScalar(1.0, 1.0)
        assert delta == HyperbolicScalar(1.0, 1.0)

    def test_componentwise_supremum(self):
        family = MapFamily((scalar_map(2, 1), scalar_map(1, 3)))
        M, delta = ubp_bound(family, HyperbolicScalar(6.0, 6.0))
        assert M == HyperbolicScalar(2.0, 3.0)
        assert delta == HyperbolicScalar(3.0, 2.0)

    def test_small_vectors_stay_small(self):
        family = MapFamily((scalar_map(2, 1), scalar_map(1, 3)))
        eps = HyperbolicScalar(6.0, 6.0)
        _, delta = ubp_bound(family, eps)
        x = BCVector((BicomplexScalar(ComplexScalar(F(5, 2)), ComplexScalar(F(3, 2))),))
        # |x|_D = (5/2, 3/2) <' delta = (3, 2), so every image stays below eps.
        from bicomplex.scalars import dnorm_k

        for T in family.maps:
            y = T(x)
            norm = dnorm_k(y.coords[0])
            assert float(norm.a1) < float(eps.a1) and float(norm.a2) < float(eps.a2)

    def test_empty_family_rejected(self):
        with pytest.raises(EmptyFamilyError):
            ubp_bound(MapFamily(()), HyperbolicScalar(1.0, 1.0))

    def test_eps_must_be_strictly_positive(self):
        with pytest.raises(ValueError):
            ubp_bound(MapFamily((BCLinearMap.identity(1),)), HyperbolicScalar(1.0, 0.0))

    def test_mixed_shapes_rejected(self):
        with pytest.raises(DimensionMismatch):
            MapFamily((BCLinearMap.identity(1), BCLinearMap.identity(2)))


class TestOpenMapping:
    def test_identity_radius(self):
        assert omt_delta(BCLinearMap.identity(2)).delta == HyperbolicScalar(1.0, 1.0)

    def test_componentwise_scaling_radius(self):
        assert omt_delta(scalar_map(2, 3)).delta == HyperbolicScalar(2.0, 3.0)

    def test_zero_map_not_surjective(self):
        with pytest.raises(NotSurjectiveError):
            omt_delta(scalar_map(0, 0))

    def test_single_component_failure_reported(self):
        with pytest.raises(NotSurjectiveError) as exc:
            omt_delta(scalar_map(0, 1))
        assert exc.value.component == 1


class TestInverseMapping:
    def test_identity(self):
        inv, bound = inverse_map(BCLinearMap.identity(2))
        assert inv == BCLinearMap.identity(2)
        assert bound == HyperbolicScalar(1.0, 1.0)

    def test_diagonal_inverse_exact(self):
        T = scalar_map(2, 4)
        inv, bound = inverse_map(T)
        assert inv.matrix[0][0] == BicomplexScalar(
            ComplexScalar(F(1, 2)), ComplexScalar(F(1, 4))
        )
        assert bound == HyperbolicScalar(0.5, 0.25)

    def test_product_is_identity_exactly(self):
        rng = Random("inverse")
        from bicomplex.generators import rand_component_invertible_map

        for _ in range(10):
            n = rng.randint(1, 3)
            T = rand_component_invertible_map(rng, n)
            inv, _ = inverse_map(T)
            composed = BCLinearMap(
                tuple(
                    tuple(
                        sum(
                            (T.matrix[r][k] * inv.matrix[k][c] for k in range(n)),
                            BicomplexScalar.zero(),
                        )
                        for c in range(n)
                    )
                    for r in range(n)
                )
            )
            assert composed == BCLinearMap.identity(n)

    def test_singular_component_rejected(self):
        with pytest.raises(NotBijectiveError) as exc:
            inverse_map(scalar_map(0, 1))
        assert exc.value.component == 1

    def test_non_square_rejected(self):
        zero = BicomplexScalar.zero()
        with pytest.raises(NotBijectiveError):
            inverse_map(BCLinearMap(((zero, zero),)))


class TestGraphReconstruction:
    def test_identity_graph(self):
        one = BicomplexScalar.one()
        T = map_from_graph([BCVector((one, one))], 1)
        assert T.matrix == ((one,),)

    def test_scaling_graph(self):
        one = BicomplexScalar.one()
        c = BicomplexScalar(ComplexScalar(2), ComplexScalar(5))
        T = map_from_graph([BCVector((one, c))], 1)
        assert T.matrix == ((c,),)

    def test_vertical_vector_rejected(self):
        zero, one = BicomplexScalar.zero(), BicomplexScalar.one()
        with pytest.raises(NotAGraphError):
            map_from_graph([BCVector((zero, one))], 1)

    def test_deficient_projection_rejected(self):
        zero, one = BicomplexScalar.zero(), BicomplexScalar.one()
        with pytest.raises(NotAGraphError):
            map_from_graph([BCVector((zero, zero, one, zero))], 2)

    def test_needs_a_codomain(self):
        one = BicomplexScalar.one()
        with pytest.raises(DimensionMismatch):
            map_from_graph([BCVector((one,))], 1)

    def test_empty_rejected(self):
        with pytest.raises(NotAGraphError):
            map_from_graph([], 1)

    def test_roundtrip_random_maps(self):
        from bicomplex.generators import rand_bcmap, rand_graph_basis

        rng = Random("graph-roundtrip")
        for _ in range(10):
            n, m = rng.randint(1, 2), rng.randint(1, 2)
            basis, T = rand_graph_basis(rng, n, m)
            assert map_from_graph(basis, n) == T
