"""Decoding straight to integer rows, against the `Fraction` decoders it replaced.

In the exact backend `serialize.decode_polytope` reads every number once
into a reduced integer pair (`backend.decode_pair`) and builds a vertex
list from its integer rows over the lcm of all denominators, a halfspace
list from each face's row [*a, b] over the lcm of its own.  The `Fraction`
vertices and the `Halfspace`s are built only on request.
``fraction_reference.py`` keeps the decoders as they were: one `Fraction`
(or float) per coordinate, then `RealPolytope.from_vertices` or
`from_halfspaces`.

* Every decoded polytope (vertex and halfspace lists, both backends, JSON
  ints, floats and unreduced strings) must match the reference's in its
  integer vertex rows, repr, vertices and halfspaces (values, types and
  order), encoding, and membership answers.
* Decoding a vertex list and gauging it builds no `Fraction` per vertex
  coordinate; a halfspace list builds no `Halfspace` until asked for one.
* On arbitrary JSON-like values the parser gives the reference's value and
  type, or raises the same error (the same `SchemaError` message through
  the decoders).
"""

import json
import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_reference as ref
from bicomplex import generators as gen
from bicomplex.backend import EXACT, FLOAT, decode_pair, decode_real
from bicomplex.convex import DConvexSet, minkowski_gauge
from bicomplex.errors import BicomplexError, SchemaError
from bicomplex.polytope import Halfspace, RealPolytope, integer_points
from bicomplex.serialize import (
    decode_dconvex,
    decode_dvector,
    decode_hyperbolic,
    decode_polytope,
    encode_dconvex,
    encode_dvector,
    encode_polytope,
)

F = Fraction
SETTINGS = settings(max_examples=400, deadline=None, derandomize=True)


# -- documents ---------------------------------------------------------------------


def _wire(x: Fraction, rng: Random):
    """One exact value as the wire may send it: reduced or unreduced "p/q",
    a JSON int when integral, or a JSON float when a binary fraction."""
    choice = rng.random()
    if choice < 0.3:
        k = rng.randint(2, 5)
        return f"{x.numerator * k}/{x.denominator * k}"
    if choice < 0.45 and x.denominator == 1:
        return int(x)
    if choice < 0.6 and x.denominator & (x.denominator - 1) == 0:
        return float(x)
    return str(x)


def _documents():
    """Vertex and halfspace lists in dimensions 1-3: absorbing sets, shifted
    and flat vertex lists, strict flags, floats, ints and unreduced strings."""
    rng = Random("decode-rows")
    docs = []
    for i in range(90):
        dim = 1 + i % 3
        P = gen.rand_absorbing_polytope(rng, dim)
        verts = [tuple(F(x) for x in v) for v in P.vertices()]
        if i % 5 == 1:
            verts = [tuple(x + F(1, 3) for x in v) for v in verts]
        if i % 5 == 2 and dim > 1:
            verts = [v[:-1] + (F(1, 2),) for v in verts]
        if i % 5 == 3:
            verts = [v for v in verts for _ in range(2)]
        docs.append({"vertices": [[_wire(x, rng) for x in v] for v in verts]})
        if i % 5 == 2 and dim > 1:
            continue
        faces = []
        for h in RealPolytope.from_vertices(verts).halfspaces():
            k = F(rng.randint(1, 6), rng.randint(1, 4))
            face = {"a": [_wire(k * x, rng) for x in h.a], "b": _wire(k * h.b, rng)}
            if rng.random() < 0.3:
                face["strict"] = rng.random() < 0.5
            faces.append(face)
        if i % 7 == 0:  # unbounded: one face dropped
            faces.pop(rng.randrange(len(faces)))
        docs.append({"halfspaces": faces})
    return docs


DOCUMENTS = _documents()


def _points(doc, dim: int, rng: Random) -> list[tuple]:
    """The origin, vertices and a midpoint, random rational points and a float point."""
    pts = [tuple(F(0) for _ in range(dim))]
    if "vertices" in doc:
        verts = [tuple(map(F, v)) for v in doc["vertices"]]
        pts += verts[:3]
        pts.append(tuple((a + b) / 2 for a, b in zip(verts[0], verts[-1])))
    pts += [tuple(gen.rand_fraction(rng, -3, 3, 3) for _ in range(dim)) for _ in range(3)]
    pts.append(tuple(rng.uniform(-2, 2) for _ in range(dim)))
    return pts


def _typed(x):
    """x with the type of every scalar alongside its value."""
    if isinstance(x, Halfspace):
        return ("Halfspace", _typed(x.a), _typed(x.b), x.strict)
    if isinstance(x, (list, tuple)):
        return (type(x).__name__, [_typed(v) for v in x])
    return (type(x).__name__, repr(x))


def _outcome(fn):
    try:
        return _typed(fn())
    except BicomplexError as exc:
        return type(exc).__name__, str(exc)


# -- every decoded polytope ---------------------------------------------------------


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_decoded_polytopes_match_the_fraction_decoder(backend):
    kinds = {"vertices": 0, "halfspaces": 0}
    rng = Random(f"decode-rows:points:{backend}")
    for doc in DOCUMENTS:
        def new():
            return decode_polytope(json.loads(json.dumps(doc)), backend)

        def old():
            return ref.decode_polytope(json.loads(json.dumps(doc)), backend)

        dim = new().dim
        # each fact from a fresh decode, so no query relies on another's memo
        assert repr(new()) == repr(old())
        assert _outcome(lambda: new().vertices()) == _outcome(lambda: old().vertices())
        assert _outcome(lambda: new().halfspaces()) == _outcome(lambda: old().halfspaces())
        assert json.dumps(encode_polytope(new())) == json.dumps(encode_polytope(old()))
        try:
            rows = new().integer_vertices()
        except BicomplexError as exc:
            with pytest.raises(type(exc)):
                old().integer_vertices()
        else:
            assert rows == integer_points(new().vertices())
            assert rows == old().integer_vertices()
        Q, R = new(), old()
        for x in _points(doc, dim, rng):
            assert Q.contains(x) is R.contains(x)
            assert _outcome(lambda: Q.interior_contains(x)) == _outcome(lambda: R.interior_contains(x))
        assert repr(Q) == repr(R)
        kinds["vertices" if "vertices" in doc else "halfspaces"] += 1
    assert min(kinds.values()) > 60


def test_unreduced_and_typed_numbers_decode_to_the_same_values():
    doc = {"vertices": [["6/4", 2, 0.5], ["-4/8", "0", -1], ["3", "-10/4", 0.25]]}
    P = decode_polytope(doc)
    assert P.integer_vertices() == ([(6, 8, 2), (-2, 0, -4), (12, -10, 1)], 4)
    assert P.vertices() == ((F(3, 2), F(2), F(1, 2)), (F(-1, 2), F(0), F(-1)),
                            (F(3), F(-5, 2), F(1, 4)))
    assert all(type(x) is Fraction for v in P.vertices() for x in v)
    H = decode_polytope({"halfspaces": [{"a": ["2/4", 1], "b": "6/4", "strict": True}]})
    assert H.halfspaces() == (Halfspace((F(1, 2), F(1)), F(3, 2), True),)
    assert _typed(H.halfspaces()) == _typed(ref.decode_polytope(
        {"halfspaces": [{"a": ["2/4", 1], "b": "6/4", "strict": True}]}).halfspaces())


# -- what decoding builds ---------------------------------------------------------------


def _counting(monkeypatch, cls, name: str, built: list):
    original = getattr(cls, name)

    def counting(*args, **kwargs):
        built.append(args[1:])
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, counting)


def test_vertex_list_decodes_and_gauges_without_a_fraction_per_coordinate(monkeypatch):
    """A 3-D set of two vertex lists and 8 gauge queries: decoding builds no
    `Fraction`, and each query builds its two gauge values, however many
    vertices the set has.  One `Fraction` per coordinate built 6 per vertex."""
    rng = Random("decode-rows:count")
    S = gen.rand_absorbing_pair(rng, 3)
    coords = 3 * (len(S.p1.vertices()) + len(S.p2.vertices()))
    assert coords >= 24
    doc = json.loads(json.dumps(encode_dconvex(S)))
    points = [decode_dvector(encode_dvector(gen.rand_dvector(rng, 3))) for _ in range(8)]
    built = []
    _counting(monkeypatch, Fraction, "__new__", built)
    T = decode_dconvex(doc)
    decoded = len(built)
    values = [minkowski_gauge(T, x) for x in points]
    monkeypatch.undo()
    assert decoded == 0
    assert len(built) == 2 * len(points)
    assert values == [minkowski_gauge(S, x) for x in points]


def test_halfspace_list_builds_no_halfspace_until_asked(monkeypatch):
    """Decoding a 3-D halfspace list, gauging it and enumerating its vertices
    build no `Halfspace`; `halfspaces()` then builds one per face, once."""
    rng = Random("decode-rows:halfspaces")
    P = gen.rand_absorbing_polytope(rng, 3)
    faces = [{"a": [str(x) for x in h.a], "b": str(h.b)} for h in P.halfspaces()]
    doc = {"p1": {"halfspaces": faces}, "p2": {"vertices": [[str(x) for x in v] for v in P.vertices()]}}
    points = [gen.rand_dvector(rng, 3) for _ in range(8)]
    built = []
    _counting(monkeypatch, Halfspace, "__init__", built)
    S = decode_dconvex(json.loads(json.dumps(doc)))
    values = [minkowski_gauge(S, x) for x in points]
    vertices = S.p1.vertices()
    rows = S.p1.integer_vertices()
    assert len(built) == 0
    hs = S.p1.halfspaces()
    assert len(built) == len(faces) and S.p1.halfspaces() is hs
    monkeypatch.undo()
    R = DConvexSet(ref.decode_polytope(doc["p1"]), ref.decode_polytope(doc["p2"]))
    assert values == [minkowski_gauge(R, x) for x in points]
    assert _typed(vertices) == _typed(R.p1.vertices())
    assert rows == integer_points(vertices)


# -- the parser and the schema errors ---------------------------------------------------


PAIRS = st.builds(
    lambda sign, n, slash, d: f"{sign}{n}" + (f"/{d}" if slash else ""),
    st.sampled_from(["", "-", "+", " ", "--"]),
    st.one_of(st.integers(0, 10**6), st.integers(0, 10**40)),
    st.booleans(),
    st.integers(0, 60),
)
TEXTS = st.one_of(
    PAIRS,
    st.text(max_size=12),
    st.text(alphabet="0123456789-/+._ e١", max_size=10),
)
VALUES = st.one_of(
    TEXTS,
    st.integers(),
    st.integers(-(2**1100), 2**1100),
    st.floats(),  # nan, ±inf and the extremes
    st.booleans(),
    st.none(),
    st.lists(st.integers(), max_size=2),
)


def _result(fn, x):
    """Value and type (a float's repr too, for its sign and bits), or the error."""
    try:
        value = fn(x)
    except Exception as exc:  # the same class and message are required
        return type(exc).__name__, str(exc)
    return value, type(value), repr(value) if isinstance(value, float) else None


@SETTINGS
@given(VALUES)
def test_parser_matches_the_fraction_parser(x):
    for backend in (EXACT, FLOAT):
        assert _result(lambda v: decode_real(v, backend), x) == _result(
            lambda v: ref.decode_real(v, backend), x)
    want = _result(lambda v: ref.decode_real(v, EXACT), x)
    got = _result(decode_pair, x)
    if isinstance(want[0], Fraction):
        assert got[0] == (want[0].numerator, want[0].denominator)
        assert math.gcd(*got[0]) == 1 and got[0][1] > 0
    else:
        assert got == want


@SETTINGS
@given(VALUES, st.sampled_from([EXACT, FLOAT]))
def test_decoders_give_the_same_value_or_schema_error(x, backend):
    def hyperbolic(v):
        h = decode_hyperbolic({"e1": v, "e2": 1}, backend)
        return h.a1

    assert _result(hyperbolic, x) == _result(lambda v: ref._real(v, "hyperbolic", backend), x)
    for doc in ({"vertices": [[x, 1], [0, x]]},
                {"halfspaces": [{"a": [x, 1], "b": 1}, {"a": [1, 0], "b": x, "strict": True}]}):
        got = _result(lambda d: repr(decode_polytope(d, backend)), doc)
        assert got == _result(lambda d: repr(ref.decode_polytope(d, backend)), doc)


@pytest.mark.parametrize("doc, message", [
    ({"vertices": []}, "polytope: no vertices"),
    ({"vertices": [[1], [1, 2]]}, "polytope: mixed vertex dimensions"),
    ({"halfspaces": []}, "polytope: empty halfspace list"),
    ({"halfspaces": [{"a": [1], "b": 1}, {"a": [1, 2], "b": 1}]},
     "polytope: mixed halfspace dimensions"),
    ({"halfspaces": [{"a": [1], "b": 1, "strict": 1}]},
     "polytope.halfspaces[0].strict: expected a boolean"),
    ({"vertices": [["1/0"]]}, "polytope.vertices[0]: bad number '1/0'"),
    ({"halfspaces": [{"a": ["1/0"], "b": 1}]}, "polytope.halfspaces[0].a: bad number '1/0'"),
    ({"halfspaces": [{"a": [1], "b": "1/0"}]}, "polytope.halfspaces[0].b: bad number '1/0'"),
])
def test_schema_error_messages_are_pinned(doc, message):
    for decode in (decode_polytope, ref.decode_polytope):
        with pytest.raises(SchemaError) as info:
            decode(doc)
        assert str(info.value) == message


@pytest.mark.parametrize("component", [{"vertices": [[]]}, {"halfspaces": [{"a": [], "b": 1}]}])
def test_zero_dimensional_sets_are_refused_alike(component):
    doc = {"p1": component, "p2": {"vertices": [[0]]}}
    with pytest.raises(SchemaError) as info:
        decode_dconvex(doc)
    assert str(info.value) == "set: dim must be >= 1"
    with pytest.raises(BicomplexError) as new:
        decode_polytope(component)
    with pytest.raises(BicomplexError) as old:
        ref.decode_polytope(component)
    assert (type(new.value), str(new.value)) == (type(old.value), str(old.value))
