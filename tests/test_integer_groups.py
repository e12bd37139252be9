"""Integer point groups against the `Fraction` groups they replaced.

Every `GaugeBody` group is integer rows over one denominator: a polytope's
vertex list times the lcm of its denominators (`integer_vertices`), and a
difference body's A_l + x0_l and -B_l built from those rows.
``fraction_reference.py`` keeps the `Fraction` code verbatim: `centroid`
and `FractionGaugeBody` (the groups, `group_maxima`, `form_argmax`,
`form_max` and the polar LP's rows).  On seeded pairs in dimensions 1-3,
with A given by vertices, by halfspaces and by float vertices, centroids
and every form's maxima must equal theirs in value, type and repr, and
every polar LP must solve to the same result.
"""

from fractions import Fraction
from random import Random

import pytest

import fraction_reference as ref
from bicomplex import generators as gen
from bicomplex.analysis import separate_hyperbolic
from bicomplex.convex import DConvexSet, DifferenceBody, _centroid, difference_body
from bicomplex.errors import BicomplexError
from bicomplex.polytope import GaugeBody, RealPolytope

F = Fraction


def _floats(P: RealPolytope, scale: float) -> RealPolytope:
    """P's vertices scaled by a float, so each coordinate is an inexact binary value."""
    return RealPolytope.from_vertices([tuple(float(x) * scale for x in v) for v in P.vertices()])


def _pairs():
    """(A, B) on seeded separation and overlap pairs: A as its vertex list,
    as halfspaces and as float vertices, in turn."""
    rng = Random("integer-groups")
    pairs = []
    for dim in (1, 2, 3):
        for i in range(6):
            if i % 3 == 2:
                A, B, _ = gen.rand_overlap_instance(rng, dim)
            else:
                A, B = gen.rand_separation_instance(rng, dim)
            if i % 3 == 1:
                A = DConvexSet(*(RealPolytope.from_halfspaces(P.halfspaces(), dim)
                                 for P in (A.p1, A.p2)), open=True)
            elif i % 3 == 2:
                A = DConvexSet(_floats(A.p1, 1.1), _floats(A.p2, 0.3), open=True)
                B = DConvexSet(_floats(B.p1, 0.7), B.p2)
            pairs.append((rng, A, B))
    return pairs


def _same(got, want):
    assert got == want
    assert type(got) is type(want)
    assert repr(got) == repr(want)


def _bodies(A, B):
    """(integer body, Fraction reference, polytope part) for every group of a pair."""
    G, a0, b0 = difference_body(A, B)
    x0 = b0 - a0
    for l in (1, 2):
        yield G.component(l), ref.FractionGaugeBody.difference(
            A.component(l), B.component(l), x0.part(l)), None
        for P in (A.component(l), B.component(l)):
            yield P.gauge_body(), ref.FractionGaugeBody.of_polytope(P), P


def test_centroids_match_fraction_sums():
    floats = 0
    for _, A, B in _pairs():
        for P in (A.p1, A.p2, B.p1, B.p2):
            got, want = _centroid(P), ref.centroid(P)
            _same(got, want)
            assert all(type(x) is Fraction for x in got)
            floats += any(type(x) is float for v in P.vertices() for x in v)
        G, a0, b0 = difference_body(A, B)
        _same(a0.part(1) + a0.part(2), ref.centroid(A.p1) + ref.centroid(A.p2))
        _same(b0.part(1) + b0.part(2), ref.centroid(B.p1) + ref.centroid(B.p2))
    assert floats == 18


def test_group_maxima_match_the_fraction_groups():
    checked = 0
    for rng, A, B in _pairs():
        forms = [[gen.rand_fraction(rng) for _ in range(A.dim)] for _ in range(4)]
        try:
            cert = separate_hyperbolic(A, B)
        except BicomplexError:
            cert = None
        for body, old, P in _bodies(A, B):
            mine = forms + ([list(cert.f.component(l)) for l in (1, 2)] if cert else [])
            for coeffs in mine:
                _same(body.group_maxima(coeffs), old.group_maxima(coeffs))
                _same(body.form_max(coeffs), old.form_max(coeffs))
                if P is not None:
                    _same(body.form_argmax(coeffs), old.form_argmax(coeffs))
                checked += 1
    assert checked > 500


def test_polar_lp_results_match_the_fraction_rows():
    statuses = {"optimal": 0, "unbounded": 0}
    for rng, A, B in _pairs():
        G, a0, b0 = difference_body(A, B)
        x0 = b0 - a0
        for body, old, _ in _bodies(A, B):
            for span in ([[F(x) for x in x0.part(1)]],
                         [[gen.rand_fraction(rng) for _ in range(A.dim)]],
                         [[gen.rand_fraction(rng) for _ in range(A.dim)] for _ in range(A.dim)]):
                values = [gen.rand_fraction(rng) for _ in span]
                got, want = body.polar_max(span, values), old.polar_max(span, values)
                assert (got.status, got.x, got.value, got.basis) == (
                    want.status, want.x, want.value, want.basis)
                assert repr(got) == repr(want)
                statuses[got.status] = statuses.get(got.status, 0) + 1
    assert statuses["optimal"] > 200 and statuses["unbounded"] > 0


def _counting_fractions(monkeypatch, built: list):
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)


def test_group_maxima_builds_one_fraction_per_group(monkeypatch):
    """One form over a seeded 3-D difference body of 8 + 8 points builds 2
    `Fraction`s, one per group; a `Fraction` dot per point built 16."""
    rng = Random(21)

    def polytope():
        return RealPolytope.from_vertices(
            [tuple(gen.rand_fraction(rng, den=6) for _ in range(3)) for _ in range(8)])

    body = DifferenceBody(polytope(), polytope(), [gen.rand_fraction(rng) for _ in range(3)])
    coeffs = [gen.rand_fraction(rng, den=5) for _ in range(3)]
    built = []
    _counting_fractions(monkeypatch, built)
    maxima = body.group_maxima(coeffs)
    monkeypatch.undo()
    assert len(built) == 2
    assert all(type(m) is Fraction for m in maxima)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_separation_reads_f_over_each_body_once(monkeypatch, dim):
    """The extension's global certificate evaluates f over each difference
    body; the separation extrema then read the same maxima and build no
    `Fraction`."""
    A, B = gen.rand_separation_instance(Random(f"integer-groups:once:{dim}"), dim)
    group_maxima, new = GaugeBody.group_maxima, Fraction.__new__
    built_per_call = []

    def counted(body, coeffs):
        built = []
        _counting_fractions(monkeypatch, built)
        try:
            return group_maxima(body, coeffs)
        finally:
            monkeypatch.setattr(Fraction, "__new__", new)
            built_per_call.append(len(built))

    monkeypatch.setattr(GaugeBody, "group_maxima", counted)
    separate_hyperbolic(A, B)
    assert built_per_call == [2, 2, 0, 0]
