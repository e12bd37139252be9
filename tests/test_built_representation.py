"""Answers follow the representation a set was given, not its query history.

`RealPolytope.contains` and the gauge of `convex.minkowski_gauge` pick their
route by `built_from_vertices()`: a set given by vertices answers by hull
membership and by the vertex LP even after its faces were derived, whose
float tests round.  H->V conversion treats every face alike, zero normals
included, so an empty 1-D H-rep set is refused as empty, as in 2-D.
"""

import io
import json
from fractions import Fraction
from itertools import product

import pytest

from bicomplex.backend import FLOAT
from bicomplex.cli import cmd_separate
from bicomplex.convex import minkowski_gauge
from bicomplex.errors import EmptySetError
from bicomplex.polytope import Halfspace, RealPolytope
from bicomplex.serialize import decode_dconvex
from bicomplex.vectors import DVector


def _empty_faces(dim: int) -> list[dict]:
    """The box [-1, 1]^dim and the face 0.x <= -1, which nothing satisfies."""
    faces = []
    for c in range(dim):
        for sign in (1, -1):
            a = [0] * dim
            a[c] = sign
            faces.append({"a": a, "b": 1})
    return faces + [{"a": [0] * dim, "b": -1}]


@pytest.mark.parametrize("dim", [1, 2])
def test_zero_normal_face_empties_the_set(dim):
    faces = [Halfspace(tuple(h["a"]), h["b"]) for h in _empty_faces(dim)]
    with pytest.raises(EmptySetError):
        RealPolytope.from_halfspaces(faces, dim).vertices()


def test_empty_hrep_set_is_refused_alike_in_one_and_two_dimensions(tmp_path):
    records = []
    for dim in (1, 2):
        box = {"vertices": [list(v) for v in product((-1, 1), repeat=dim)]}
        far = {"vertices": [[3] * dim]}
        empty = {"halfspaces": _empty_faces(dim)}
        path = tmp_path / f"pair-{dim}.json"
        path.write_text(json.dumps({"A": {"p1": box, "p2": box, "open": True},
                                    "B": {"p1": far, "p2": empty}}))
        buf, err = io.StringIO(), io.StringIO()
        assert cmd_separate(str(path), out=buf, err=err) == 1
        assert err.getvalue() == ""
        records.append(json.loads(buf.getvalue()))
    assert records[0] == records[1]
    assert records[0]["status"] == "refused" and records[0]["error"] == "EmptySetError"


def test_gauge_of_a_vertex_set_ignores_derived_faces():
    triangle = {"vertices": [["-0.3", "-0.3"], ["0.9", "0"], ["0", "0.9"]]}
    S = decode_dconvex({"p1": triangle, "p2": triangle}, FLOAT)
    x = DVector.from_parts([0.7, 0.6], [-0.2, 0.5])
    before = minkowski_gauge(S, x)
    S.p1.halfspaces()
    S.p2.halfspaces()
    after = minkowski_gauge(S, x)
    assert after == before
    assert all(type(q) is Fraction for q in (after.q1, after.q2))


def test_membership_of_a_vertex_set_ignores_derived_faces():
    P = RealPolytope.from_vertices([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    point = (0.5, 0.5 + 1e-10)
    assert not P.contains(point)
    P.halfspaces()
    assert not P.contains(point)
