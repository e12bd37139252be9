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
* Path hints are joined only to raise: on arbitrary JSON-like documents,
  shaped like each decoder's input or not, every decoder gives the value
  (repr, so types too) or the `SchemaError` message of the reference
  decoders, which build every hint eagerly.
* The closed-form gauge scales each point to integers in one pass
  (`polytope.integer_point`): its values and types equal a reference
  through `rdiv` on int, `Fraction`, float and mixed points, and decoding
  and gauging a point builds one `Fraction` per coordinate and per
  `Fraction` result component and calls `integer_points` zero times.
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
from bicomplex import polytope
from bicomplex import serialize
from bicomplex.backend import EXACT, FLOAT, decode_pair, decode_real, rdiv, rdot
from bicomplex.convex import DConvexSet, minkowski_gauge
from bicomplex.errors import BicomplexError, SchemaError
from bicomplex.polytope import Halfspace, RealPolytope, integer_point, integer_points
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
    ({"vertices": [[1, 2], [3, "x"]]}, "polytope.vertices[1]: bad number 'x'"),
    ({"vertices": [[1, 2], 3]}, "polytope.vertices[1]: expected an array"),
    ({"halfspaces": [{"a": [1], "b": 1}, {"a": [1, None], "b": 1}]}, "polytope.halfspaces[1].a: bad number None"),
    ({"halfspaces": [{"a": [1], "b": 1}, {"a": [2], "b": 1.5}, {"a": [1], "b": [1]}]},
     "polytope.halfspaces[2].b: bad number [1]"),
    ({"halfspaces": [{"a": [1], "b": 1}, {"a": 1, "b": 1}]}, "polytope.halfspaces[1].a: expected an array"),
    ({"halfspaces": [{"a": [1], "b": 1}, {"b": 1}]}, "polytope.halfspaces[1]: missing keys ['a']"),
    ({"halfspaces": {"a": [1], "b": 1}}, "polytope.halfspaces: expected an array"),
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


# -- path hints joined only to raise ---------------------------------------------------


NUMBERS = st.one_of(
    st.fractions(max_denominator=12).map(str),
    st.integers(-5, 5),
    st.sampled_from([0.5, -0.25, 2.0, "3/6", "-4/2", "0"]),
)
KEYS = st.sampled_from(["e1", "e2", "coords", "coeffs", "re", "im", "z1", "z2", "rows", "a", "b",
                        "strict", "vertices", "halfspaces", "c1", "c2", "cover", "bounding", "x"])
JSON = st.recursive(
    st.one_of(VALUES, NUMBERS),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(KEYS, inner, max_size=3)),
    max_leaves=6,
)


def _shaped(strategy):
    """Mostly the shape a decoder wants, sometimes any JSON-like value."""
    return st.one_of(strategy, strategy, strategy, JSON)


NUMBERISH = st.one_of(NUMBERS, NUMBERS, NUMBERS, VALUES)
HYPERBOLIC = _shaped(st.fixed_dictionaries({"e1": NUMBERISH, "e2": NUMBERISH}))
COMPLEX = _shaped(st.fixed_dictionaries({"re": NUMBERISH, "im": NUMBERISH}))
BICOMPLEX = _shaped(st.fixed_dictionaries({"z1": COMPLEX, "z2": COMPLEX}))


def _listed(key: str, entry):
    return _shaped(st.fixed_dictionaries({key: _shaped(st.lists(entry, max_size=3))}))


POLYTOPES = st.one_of(
    _listed("vertices", _shaped(st.lists(NUMBERISH, min_size=1, max_size=3))),
    _listed("halfspaces", _shaped(st.fixed_dictionaries(
        {"a": _shaped(st.lists(NUMBERISH, min_size=1, max_size=3)), "b": NUMBERISH},
        optional={"strict": _shaped(st.booleans())}))),
)
RECT = _shaped(st.fixed_dictionaries({"c1": _shaped(st.lists(NUMBERISH, min_size=2, max_size=2)),
                                      "c2": _shaped(st.lists(NUMBERISH, min_size=2, max_size=2))}))


def _same_outcome(new, old, doc):
    """The same repr, or the same exception class and message."""
    assert _result(lambda d: repr(new(d)), doc) == _result(lambda d: repr(old(d)), doc)


@SETTINGS
@given(HYPERBOLIC, st.sampled_from([EXACT, FLOAT, "fixed"]))
def test_hyperbolic_decoder_matches_the_eager_reference(doc, backend):
    _same_outcome(lambda d: decode_hyperbolic(d, backend, where="h"),
                  lambda d: ref.decode_hyperbolic(d, backend, where="h"), doc)


@SETTINGS
@given(_listed("coords", HYPERBOLIC), st.sampled_from([EXACT, FLOAT]))
def test_point_decoder_matches_the_eager_reference(doc, backend):
    _same_outcome(lambda d: decode_dvector(d, backend, where="point"),
                  lambda d: ref.decode_dvector(d, backend, where="point"), doc)


@SETTINGS
@given(POLYTOPES, st.sampled_from([EXACT, FLOAT]))
def test_polytope_decoder_matches_the_eager_reference(doc, backend):
    _same_outcome(lambda d: decode_polytope(d, backend, where="set.p1"),
                  lambda d: ref.decode_polytope(d, backend, where="set.p1"), doc)


@SETTINGS
@given(_listed("coeffs", HYPERBOLIC), _listed("coords", BICOMPLEX), _listed("coeffs", BICOMPLEX))
def test_functional_and_vector_decoders_match_the_eager_reference(hyperbolic, coords, coeffs):
    _same_outcome(serialize.decode_dfunctional, ref.decode_dfunctional, hyperbolic)
    _same_outcome(serialize.decode_bcvector, ref.decode_bcvector, coords)
    _same_outcome(serialize.decode_bcfunctional, ref.decode_bcfunctional, coeffs)
    _same_outcome(serialize.decode_complex, ref.decode_complex, coords)


@SETTINGS
@given(_listed("rows", _shaped(st.lists(BICOMPLEX, max_size=2))), RECT,
       _shaped(st.fixed_dictionaries({"bounding": RECT, "cover": _shaped(st.lists(RECT, max_size=3))})))
def test_map_and_cover_decoders_match_the_eager_reference(matrix, rect, cover):
    _same_outcome(serialize.decode_map, ref.decode_map, matrix)
    _same_outcome(serialize.decode_rectset, ref.decode_rectset, rect)
    _same_outcome(serialize.decode_cover, ref.decode_cover, cover)


@pytest.mark.parametrize("decode, doc, message", [
    (decode_dvector, {"coords": [{"e1": 1, "e2": 1}, {"e1": 1, "e2": "x"}]}, "point.coords[1]: bad number 'x'"),
    (decode_dvector, {"coords": [{"e1": None, "e2": "x"}]}, "point.coords[0]: bad number None"),
    (decode_dvector, {"coords": [{"e1": 1}]}, "point.coords[0]: missing keys ['e2']"),
    (decode_dvector, {"coords": [[1, 2]]}, "point.coords[0]: expected an object"),
    (decode_dvector, {"coords": {}}, "point.coords: expected an array"),
    (decode_dvector, {"coords": []}, "point: empty coordinate list"),
    (serialize.decode_map, {"rows": [[{"z1": {"re": 1, "im": 1}, "z2": {"re": 1, "im": "1/0"}}]]},
     "point.rows[0][0].z2: bad number '1/0'"),
    (serialize.decode_bcfunctional, {"coeffs": [{"z1": {"re": 1}, "z2": {}}]},
     "point.coeffs[0].z1: missing keys ['im']"),
])
def test_path_hints_are_pinned(decode, doc, message):
    with pytest.raises(SchemaError) as info:
        decode(doc, where="point")
    assert str(info.value) == message


def test_cover_path_hints_are_pinned():
    rect = {"c1": [0, 1], "c2": [0, 1]}
    for doc, message in [
        ({"bounding": rect, "cover": [rect, {"c1": [0, "x"], "c2": [0, 1]}]}, "cover[1].c1: bad number 'x'"),
        ({"bounding": rect, "cover": [{"c1": [0, 1], "c2": [1]}]}, "cover[0].c2: expected [lo, hi]"),
        ({"bounding": rect, "cover": [{"c1": [1, 0], "c2": [0, 1]}]}, "cover[0]: interval must have lo <= hi"),
        ({"bounding": {"c1": [0, 1], "c2": 3}, "cover": []}, "bounding.c2: expected an array"),
    ]:
        for decode in (serialize.decode_cover, ref.decode_cover):
            with pytest.raises(SchemaError) as info:
                decode(doc)
            assert str(info.value) == message


# -- the closed-form gauge on one-pass integer points ----------------------------------------


def _reference_gauge(P: RealPolytope, point):
    """max(0, max_i a_i·x / b_i) through `rdiv` on the halfspaces (a vertex
    list's facets): a vertex list reads the point exactly and its zero is
    `Fraction(0)`, a halfspace list's zero is the int 0."""
    if P.built_from_vertices():
        x = [Fraction(c) for c in point]
        return max([Fraction(0), *(rdiv(rdot(h.a, x), h.b) for h in P.halfspaces())])
    return max([0, *(rdiv(rdot(h.a, point), h.b) for h in P.halfspaces())])


GAUGE_SETS = {
    "vertices-1d": {"vertices": [["-1/2"], [2]]},
    "vertices-2d": {"vertices": [[-1, -1], [3, "-1/3"], ["1/2", 2]]},
    "vertices-3d": {"vertices": [[1, 0, 0], [0, 1, 0], [0, 0, 1], ["-1/3", "-1/3", "-1/3"]]},
    "halfspaces-2d": {"halfspaces": [{"a": [1, 0], "b": 2}, {"a": [-1, 0], "b": "1/2"},
                                     {"a": [0, "3/2"], "b": 1}, {"a": [0, -1], "b": 3, "strict": True}]},
    "halfspaces-unbounded": {"halfspaces": [{"a": [1, 0], "b": 1}, {"a": [0, 1], "b": "2/3"}]},
    "halfspaces-float": {"halfspaces": [{"a": [1.0, 0], "b": 0.5}, {"a": [-1, 0], "b": 1},
                                        {"a": [0, 1], "b": 1}, {"a": [0, -1], "b": 0.25}]},
}
GAUGE_POINTS = [
    (0, 0, 0), (Fraction(0), Fraction(0), Fraction(0)), (0.0, 0.0, 0.0),
    (1, 2, 3), (-2, -5, -1), (Fraction(1, 3), Fraction(-5, 7), Fraction(2)),
    (Fraction(-7, 4), Fraction(1, 6), Fraction(-1, 10)), (0.75, -0.5, 1.25), (-3.5, -0.125, -2.0),
    (Fraction(1, 2), 0.25, 1), (1, Fraction(-2, 3), 0.5), (-1.5, 2, Fraction(3, 8)),
]


@pytest.mark.parametrize("name", sorted(GAUGE_SETS))
@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_gauge_values_and_types_match_the_rdiv_reference(name, backend):
    P = decode_polytope(GAUGE_SETS[name], backend)
    seen = set()
    for point in GAUGE_POINTS:
        x = point[:P.dim]
        got, want = P.gauge(x), _reference_gauge(P, x)
        assert (got, type(got)) == (want, type(want)), (name, x)
        seen.add((type(got).__name__, got > 0))
    if name == "halfspaces-unbounded" and backend == EXACT:
        assert {("int", False), ("Fraction", True), ("float", True)} <= seen
    if name.startswith("vertices"):
        assert {t for t, _ in seen} == {"Fraction"} and ("Fraction", False) in seen


@pytest.mark.parametrize("point", [(1, Fraction(-2, 3), 7), (Fraction(3, 4), Fraction(5, 6), Fraction(-1, 9)),
                                   (0.5, Fraction(1, 3), -2), (), (Fraction(4, 2),), (True, 3)])
def test_integer_point_is_integer_points_of_one_point(point):
    (X,), L = integer_points([point])
    assert integer_point(point) == (list(X), L)
    exact = all(type(x) in (int, Fraction) for x in point)
    assert integer_point(point, exact_only=True) == ((list(X), L) if exact else None)


@pytest.mark.parametrize("name", sorted(GAUGE_SETS))
def test_decoding_and_gauging_a_point_builds_one_fraction_per_number(monkeypatch, name):
    """One `Fraction` per coordinate of the decoded point, one per result
    component that is a `Fraction`, and no `integer_points` call."""
    P = decode_polytope(GAUGE_SETS[name])
    S = DConvexSet(P, P)
    minkowski_gauge(S, decode_dvector(encode_dvector(gen.rand_dvector(Random(0), P.dim))))
    for point in GAUGE_POINTS:
        x = point[:P.dim]
        doc = json.loads(json.dumps({"coords": [{"e1": serialize.encode_real(c), "e2": serialize.encode_real(-c)}
                                                for c in x]}))
        built, scaled = [], []
        _counting(monkeypatch, Fraction, "__new__", built)
        monkeypatch.setattr(polytope, "integer_points", lambda *a: scaled.append(a))
        q = minkowski_gauge(S, decode_dvector(doc))
        monkeypatch.undo()
        fractions = sum(type(c) is Fraction for c in (q.q1, q.q2))
        assert scaled == []
        assert len(built) == 2 * P.dim + fractions, (name, x, q)
