"""The separation glue on integers, against the `Fraction` code it replaced.

`separate_hyperbolic` reads x0 from the column sums of `difference_body`,
seeds g as X*L/|X|^2 per coordinate, and builds f = X*q/(L*p), the
extrema and the overlap witness from integer dots; `extend_dominated`
tests its span's rank and forms its values on integer rows.
``fraction_reference.py`` keeps the `Fraction` versions verbatim
(`polar_separate_hyperbolic`, `polar_extend_dominated`,
`polar_difference_body` and `PolarDifferenceBody.meeting_points`).

On seeded instances in dimensions 1-3 (V-rep and H-rep A, overlaps in
each component, coinciding centroids, touching pairs; for the extension,
g vanishing on Y, dependent bases, int and float entries, difference
bodies), every result must be equal in value and type (by repr), and every
raised error in type, message, component and witness.
"""

from fractions import Fraction
from random import Random

import pytest

import fraction_reference as ref
from bicomplex import generators as gen
from bicomplex.analysis import extend_dominated, separate_hyperbolic
from bicomplex.convex import DConvexSet, difference_body
from bicomplex.errors import DegenerateBasisError, DominationError, NotDisjointError
from bicomplex.linear import DLinearFunctional
from bicomplex.polytope import RealPolytope
from bicomplex.vectors import DVector

F = Fraction


def _outcome(fn, *args) -> tuple:
    """repr of the value (types included), or the error's class, message,
    component and witness."""
    try:
        value = fn(*args)
    except Exception as exc:  # the same class, message and fields are required
        return (type(exc), str(exc), getattr(exc, "component", None),
                repr(getattr(exc, "witness", None)))
    return (repr(value),)


def _hrep(S: DConvexSet) -> DConvexSet:
    return DConvexSet(*(RealPolytope.from_halfspaces(P.halfspaces(), P.dim) for P in (S.p1, S.p2)),
                      open=S.open)


def _touching_component(rng: Random, dim: int) -> tuple[RealPolytope, RealPolytope]:
    """(A_l, B_l): the segment B_l = [v, v + s] meets A_l's closure only at
    its vertex v, the unique maximizer of a direction w with w.s > 0."""
    P = gen.rand_absorbing_polytope(rng, dim)
    pts = sorted({tuple(F(c) for c in p) for p in P.vertices()})
    while True:
        w = [rng.randint(-3, 3) for _ in range(dim)]
        values = [sum(a * b for a, b in zip(w, p)) for p in pts]
        if any(w) and values.count(max(values)) == 1:
            break
    v = pts[values.index(max(values))]
    while True:
        s = [gen.rand_fraction(rng, -1, 1, 2) for _ in range(dim)]
        if sum(a * b for a, b in zip(w, s)) > 0:
            return P, RealPolytope.from_vertices([v, tuple(a + b for a, b in zip(v, s))])


def _pairs(dim: int):
    """(kind, A, B) separation inputs of one dimension."""
    rng = Random(f"glue:{dim}")
    for _ in range(4):
        A, B = gen.rand_separation_instance(rng, dim)
        yield "apart", A, B
        yield "apart-hrep", _hrep(A), B
        A, B, component = gen.rand_overlap_instance(rng, dim)
        yield f"overlap-{component}", A, B
        (a1, b1), (a2, b2) = _touching_component(rng, dim), _touching_component(rng, dim)
        yield "touching", DConvexSet(a1, a2, open=True), DConvexSet(b1, b2)
        for l in (1, 2):  # B_l = A_l: the centroids coincide in component l
            A, B = gen.rand_separation_instance(rng, dim)
            parts = [B.p1, B.p2]
            parts[l - 1] = A.component(l)
            yield f"centroid-{l}", A, DConvexSet(*parts)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_separation_matches_the_fraction_glue(dim):
    kinds = set()
    for kind, A, B in _pairs(dim):
        got = _outcome(separate_hyperbolic, A, B)
        want = _outcome(ref.polar_separate_hyperbolic, A, B)
        assert got == want, kind
        kinds.add((kind, got[0] if len(got) > 1 else "certificate"))
    outcomes = {outcome for _, outcome in kinds}
    assert "certificate" in outcomes
    assert any(kind == "touching" and outcome == "certificate" for kind, outcome in kinds)
    raised = {(kind.split("-")[0], outcome) for kind, outcome in kinds}
    assert ("centroid", NotDisjointError) in raised


def test_overlaps_are_met_in_both_components():
    components = set()
    for dim in (1, 2, 3):
        for kind, A, B in _pairs(dim):
            if kind.startswith("overlap"):
                try:
                    separate_hyperbolic(A, B)
                except NotDisjointError as exc:
                    components.add(exc.component)
    assert components == {1, 2}


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_difference_body_and_witnesses_match(dim):
    for kind, A, B in _pairs(dim):
        try:
            G, a0, b0 = difference_body(A, B)
        except Exception:
            assert _outcome(difference_body, A, B) == _outcome(ref.polar_difference_body, A, B)
            continue
        H, a0_ref, b0_ref = ref.polar_difference_body(A, B)
        assert (repr(a0), repr(b0)) == (repr(a0_ref), repr(b0_ref))
        for l in (1, 2):
            body, old = G.component(l), H.component(l)
            assert repr(tuple(body.shift)) == repr(tuple(old._shift))
            assert body._groups == old._groups
            assert repr(body.meeting_points(a0.part(l), b0.part(l))) == repr(
                old.meeting_points(a0_ref.part(l), b0_ref.part(l)))


def _functional(rng: Random, dim: int, zero: int = 0) -> DLinearFunctional:
    parts = [[gen.rand_fraction(rng) for _ in range(dim)] for _ in (1, 2)]
    if zero:
        parts[zero - 1] = [F(0)] * dim
    return DLinearFunctional.from_parts(*parts)


def _extension_inputs(dim: int):
    """(g, Y, B) with B absorbing, a difference body or an H-rep set."""
    rng = Random(f"glue-extend:{dim}")
    for i in range(12):
        B = gen.rand_absorbing_pair(rng, dim)
        if i % 3 == 1:
            B = _hrep(B)
        elif i % 3 == 2:
            B = difference_body(*gen.rand_separation_instance(rng, dim))[0]
        u = gen.rand_dvector(rng, dim)
        w = gen.rand_dvector(rng, dim)
        yield _functional(rng, dim), [u], B
        yield _functional(rng, dim), [], B
        yield _functional(rng, dim, zero=1 + i % 2), [u], B  # g vanishes in one component
        twice = DVector.from_parts([2 * c for c in u.part1()], [-c for c in u.part2()])
        yield _functional(rng, dim), [u, twice], B  # dependent
        if dim > 1:
            yield _functional(rng, dim), [u, w], B
        small = DLinearFunctional.from_parts([F(1, 8)] * dim, [F(-1, 9)] * dim)
        yield small, [u], B
        ints = DVector.from_parts([1] + [0] * (dim - 1), [0] * (dim - 1) + [-2])
        yield DLinearFunctional.from_parts([0.125] * dim, [F(1, 16)] * dim), [ints], B


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_extension_matches_the_fraction_glue(dim):
    outcomes = set()
    for g, Y, B in _extension_inputs(dim):
        got = _outcome(extend_dominated, g, Y, B)
        assert got == _outcome(ref.polar_extend_dominated, g, Y, B)
        outcomes.add(got[0] if len(got) > 1 else "extension")
    assert {"extension", DominationError, DegenerateBasisError} <= outcomes
