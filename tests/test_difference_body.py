"""The G-free difference body against the vertex list it replaced.

`convex.difference_body` gauges G = A - B + x0 from the |A| + |B| columns
a_i + x0 and -b_j with one balance row; `convex.minkowski_diff_translate`
lists G's vertices (every a - b + x0, then a hull).  Both describe the same
set, so on seeded separation pairs in 1-3 D, with A given by vertices or by
halfspaces, the gauge, every extension and the maximum of a linear form
must come out exactly equal, failures included.  Separation itself must
never form G: the last test makes the vertex-list path raise and still
certifies the pairs.
"""

import io
import json
from fractions import Fraction
from random import Random

import pytest

from bicomplex import convex, polytope
from bicomplex import generators as gen
from bicomplex.analysis import _centroid, extend_dominated
from bicomplex.cli import cmd_separate
from bicomplex.convex import (
    DConvexSet,
    difference_body,
    minkowski_diff_translate,
    minkowski_gauge,
)
from bicomplex.errors import BicomplexError, MembershipError
from bicomplex.linear import DLinearFunctional
from bicomplex.polytope import RealPolytope
from bicomplex.serialize import encode_dconvex
from bicomplex.vectors import DVector

F = Fraction
INTERPS = (F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4))


def _outcome(fn, *args):
    """The value, or the type of the library error raised instead."""
    try:
        return fn(*args)
    except BicomplexError as exc:
        return type(exc)


def _pairs(tag: str, per_dim: int):
    """(A, B, a0, b0) on seeded separation pairs; every other A as halfspaces."""
    rng = Random(f"difference-body:{tag}")
    out = []
    for dim in (1, 2, 3):
        for i in range(per_dim):
            A, B = gen.rand_separation_instance(rng, dim)
            if i % 2:
                A = DConvexSet(*(RealPolytope.from_halfspaces(P.halfspaces(), dim)
                                 for P in (A.p1, A.p2)), open=True)
            a0 = DVector.from_parts(_centroid(A.p1), _centroid(A.p2))
            b0 = DVector.from_parts(_centroid(B.p1), _centroid(B.p2))
            out.append((rng, A, B, a0, b0))
    return out


def test_gauge_matches_the_vertex_list():
    checked = 0
    for rng, A, B, a0, b0 in _pairs("gauge", 4):
        G = minkowski_diff_translate(A, B, a0, b0)
        body = difference_body(A, B, a0, b0)
        points = [b0 - a0, a0 - b0, DVector.zero(A.dim)]
        points += [gen.rand_dvector(rng, A.dim) for _ in range(5)]
        for x in points:
            assert minkowski_gauge(body, x) == minkowski_gauge(G, x), (A, B, x)
            checked += 1
    assert checked == 96


def test_extend_dominated_matches_the_vertex_list_for_every_interp():
    extended = 0
    for rng, A, B, a0, b0 in _pairs("extend", 2):
        G = minkowski_diff_translate(A, B, a0, b0)
        body = difference_body(A, B, a0, b0)
        x0 = b0 - a0
        seed = DLinearFunctional.from_parts(
            *([c / sum(c * c for c in x0.part(l)) for c in x0.part(l)] for l in (1, 2)))
        for g, basis in ((seed, [x0]), (gen.rand_dfunctional(rng, A.dim), [])):
            want = [_outcome(extend_dominated, g, basis, G, t) for t in INTERPS]
            got = [_outcome(extend_dominated, g, basis, body, t) for t in INTERPS]
            assert got == want, (A, B, g, basis)
            extended += sum(isinstance(f, DLinearFunctional) for f in got)
    assert extended >= 30


def test_global_bound_is_the_maximum_over_the_vertex_list():
    for rng, A, B, a0, b0 in _pairs("bound", 4):
        G = minkowski_diff_translate(A, B, a0, b0)
        body = difference_body(A, B, a0, b0)
        for l in (1, 2):
            for _ in range(4):
                form = [gen.rand_fraction(rng) for _ in range(A.dim)]
                top = max(sum(c * F(x) for c, x in zip(form, v))
                          for v in G.component(l).vertices())
                assert body.component(l).form_max(form) == top


def test_membership_is_checked():
    A, B = gen.rand_separation_instance(Random("difference-body:membership"), 2)
    inside = DVector.zero(2)
    with pytest.raises(MembershipError):
        difference_body(A, B, inside, inside)  # 0 is not in B
    far = DVector.from_parts([F(100), F(0)], [F(0), F(0)])
    with pytest.raises(MembershipError):
        difference_body(A, B, far, inside)


def _raise(*args, **kwargs):
    raise AssertionError("separation formed G")


def test_separation_never_forms_the_difference(monkeypatch, tmp_path):
    rng = Random("difference-body:no-G")
    pairs = [gen.rand_separation_instance(rng, dim) for dim in (1, 2, 3) for _ in range(3)]
    docs = [{"A": encode_dconvex(A), "B": encode_dconvex(B)} for A, B in pairs]
    originals = {convex.minkowski_diff_translate, polytope.extreme_points}
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
