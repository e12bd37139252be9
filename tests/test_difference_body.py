"""The G-free difference body against the vertex list it replaced.

`convex.difference_body` gauges G = A - B + x0 from the |A| + |B| columns
a_i + x0 and -b_j with one balance row; `convex.minkowski_diff_translate`
lists G's vertices (every a - b + x0, then a hull).  Both describe the same
set, so on seeded separation pairs in 1-3 D, with A given by vertices or by
halfspaces, the gauge, every extension and the maximum of a linear form
must come out exactly equal, failures included.  `difference_body` picks
its own base points, the centroids: a0 must be interior to A and b0 in B,
and a flat component of A is refused.  Separation itself must never form
G nor read a facet: the last test makes the vertex-list path and facet
enumeration raise and still certifies the pairs.
"""

import io
import json
from fractions import Fraction
from random import Random

import pytest

from bicomplex import convex, polytope
from bicomplex import generators as gen
from bicomplex.analysis import extend_dominated
from bicomplex.cli import cmd_separate
from bicomplex.convex import (
    DConvexSet,
    _centroid,
    difference_body,
    minkowski_diff_translate,
    minkowski_gauge,
)
from bicomplex.errors import BicomplexError, EmptyInteriorError
from bicomplex.linear import DLinearFunctional
from bicomplex.polytope import RealPolytope
from bicomplex.serialize import encode_dconvex
from bicomplex.vectors import DVector

F = Fraction


def _outcome(fn, *args):
    """The value, or the type of the library error raised instead."""
    try:
        return fn(*args)
    except BicomplexError as exc:
        return type(exc)


def _pairs(tag: str, per_dim: int):
    """(rng, A, B, G, a0, b0) on seeded separation pairs; every other A as halfspaces."""
    rng = Random(f"difference-body:{tag}")
    out = []
    for dim in (1, 2, 3):
        for i in range(per_dim):
            A, B = gen.rand_separation_instance(rng, dim)
            if i % 2:
                A = DConvexSet(*(RealPolytope.from_halfspaces(P.halfspaces(), dim)
                                 for P in (A.p1, A.p2)), open=True)
            body, a0, b0 = difference_body(A, B)
            out.append((rng, A, B, body, a0, b0))
    return out


def test_gauge_matches_the_vertex_list():
    checked = 0
    for rng, A, B, body, a0, b0 in _pairs("gauge", 4):
        G = minkowski_diff_translate(A, B, a0, b0)
        points = [b0 - a0, a0 - b0, DVector.zero(A.dim)]
        points += [gen.rand_dvector(rng, A.dim) for _ in range(5)]
        for x in points:
            assert minkowski_gauge(body, x) == minkowski_gauge(G, x), (A, B, x)
            checked += 1
    assert checked == 96


def test_extend_dominated_matches_the_vertex_list_for_every_interp():
    """One call per body: the one-LP extension has no interp left to vary."""
    extended = 0
    for rng, A, B, body, a0, b0 in _pairs("extend", 2):
        G = minkowski_diff_translate(A, B, a0, b0)
        x0 = b0 - a0
        seed = DLinearFunctional.from_parts(
            *([c / sum(c * c for c in x0.part(l)) for c in x0.part(l)] for l in (1, 2)))
        for g, basis in ((seed, [x0]), (gen.rand_dfunctional(rng, A.dim), [])):
            want = _outcome(extend_dominated, g, basis, G)
            got = _outcome(extend_dominated, g, basis, body)
            assert got == want, (A, B, g, basis)
            extended += isinstance(got, DLinearFunctional)
    assert extended == 12


def test_global_bound_is_the_maximum_over_the_vertex_list():
    for rng, A, B, body, a0, b0 in _pairs("bound", 4):
        G = minkowski_diff_translate(A, B, a0, b0)
        for l in (1, 2):
            for _ in range(4):
                form = [gen.rand_fraction(rng) for _ in range(A.dim)]
                top = max(sum(c * F(x) for c, x in zip(form, v))
                          for v in G.component(l).vertices())
                assert body.component(l).form_max(form) == top


def test_base_points_are_interior_to_a_and_in_b():
    """a0 strictly inside every face of A_l, b0 a convex combination of B_l's vertices."""
    checked = 0
    for _, A, B, _, a0, b0 in _pairs("base-points", 4):
        for l in (1, 2):
            a, b = a0.part(l), b0.part(l)
            for h in A.component(l).halfspaces():
                assert sum(F(c) * x for c, x in zip(h.a, a)) < F(h.b), (A, a0)
            verts = [tuple(map(F, v)) for v in B.component(l).vertices()]
            weight = F(1, len(verts))
            assert tuple(sum(weight * v[c] for v in verts) for c in range(A.dim)) == tuple(b)
            checked += 1
    assert checked == 24


def test_flat_component_of_a_is_refused():
    A, B = gen.rand_separation_instance(Random("difference-body:flat"), 2)
    segment = RealPolytope.from_vertices([(F(-1), F(0)), (F(1), F(0))])
    for l, parts in ((1, (segment, A.p2)), (2, (A.p1, segment))):
        with pytest.raises(EmptyInteriorError) as info:
            difference_body(DConvexSet(*parts, open=True), B)
        assert info.value.component == l


def _raise(*args, **kwargs):
    raise AssertionError("separation formed G")


def test_separation_never_forms_the_difference(monkeypatch, tmp_path):
    rng = Random("difference-body:no-G")
    pairs = [gen.rand_separation_instance(rng, dim) for dim in (1, 2, 3) for _ in range(3)]
    docs = [{"A": encode_dconvex(A), "B": encode_dconvex(B)} for A, B in pairs]
    originals = {convex.minkowski_diff_translate, polytope.extreme_points,
                 polytope.facet_enumeration}
    for module in (convex, polytope):
        for name, value in list(vars(module).items()):
            if any(value is fn for fn in originals):
                monkeypatch.setattr(module, name, _raise)
    for i, doc in enumerate(docs):
        path = tmp_path / f"pair-{i}.json"
        path.write_text(json.dumps(doc))
        buf = io.StringIO()
        assert cmd_separate(str(path), out=buf) == 0
        cert = json.loads(buf.getvalue())
        for e, key in (("e1", "p1"), ("e2", "p2")):
            f = [F(c[e]) for c in cert["f"]["coeffs"]]
            gamma = F(cert["gamma"][e])

            def value(v):
                return sum(a * F(x) for a, x in zip(f, v))

            assert any(f)
            assert max(map(value, doc["A"][key]["vertices"])) <= gamma
            assert min(map(value, doc["B"][key]["vertices"])) >= gamma
