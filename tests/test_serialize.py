"""JSON wire-format round-trips and schema validation."""

import json
from fractions import Fraction
from random import Random

import pytest

from bicomplex.analysis import extend_dominated, separate_hyperbolic
from bicomplex.backend import EXACT, FLOAT, decode_real
from bicomplex.convex import DConvexSet
from bicomplex.errors import SchemaError
from bicomplex.generators import (
    rand_bcfunctional,
    rand_bcmap,
    rand_bcvector,
    rand_bicomplex,
    rand_cover,
    rand_dfunctional,
    rand_dvector,
    rand_hyperbolic,
    rand_separation_instance,
)
from bicomplex.polytope import Halfspace, RealPolytope
from bicomplex.scalars import ComplexScalar, HyperbolicScalar
from bicomplex.serialize import (
    decode_bcfunctional,
    decode_bcvector,
    decode_bicomplex,
    decode_certificate,
    decode_complex,
    decode_cover,
    decode_dconvex,
    decode_dfunctional,
    decode_dvector,
    decode_hyperbolic,
    decode_hyperplane,
    decode_map,
    decode_polytope,
    decode_rectset,
    encode_bcfunctional,
    encode_bcvector,
    encode_bicomplex,
    encode_certificate,
    encode_complex,
    encode_cover,
    encode_dconvex,
    encode_dfunctional,
    encode_dvector,
    encode_hyperbolic,
    encode_hyperplane,
    encode_map,
    encode_polytope,
    encode_rectset,
)
from bicomplex.analysis import DHyperplane
from bicomplex.linear import DLinearFunctional
from bicomplex.metric import RectSet

F = Fraction


def through_json(obj):
    """Force a real serialization pass, not just dict identity."""
    return json.loads(json.dumps(obj))


class TestScalarCodecs:
    def test_fraction_encoding_is_string(self):
        doc = encode_hyperbolic(HyperbolicScalar(F(1, 2), F(3)))
        assert doc == {"e1": "1/2", "e2": "3"}

    def test_roundtrips(self):
        rng = Random("scalar-codec")
        for _ in range(25):
            a = rand_hyperbolic(rng)
            assert decode_hyperbolic(through_json(encode_hyperbolic(a))) == a
            z = rand_bicomplex(rng)
            assert decode_bicomplex(through_json(encode_bicomplex(z))) == z
            assert decode_complex(through_json(encode_complex(z.z1))) == z.z1

    def test_float_backend_decodes_to_floats(self):
        v = decode_hyperbolic({"e1": "1/2", "e2": 1}, FLOAT)
        assert v.a1 == 0.5 and isinstance(v.a1, float)
        assert v.a2 == 1.0 and isinstance(v.a2, float)

    def test_missing_key_rejected(self):
        with pytest.raises(SchemaError):
            decode_hyperbolic({"e1": 1})

    def test_bad_number_rejected(self):
        with pytest.raises(SchemaError):
            decode_hyperbolic({"e1": "zero", "e2": 1})
        with pytest.raises(SchemaError):
            decode_hyperbolic({"e1": True, "e2": 1})
        with pytest.raises(SchemaError):
            decode_hyperbolic({"e1": "1/0", "e2": 1})

    @pytest.mark.parametrize("text", [
        "3/4", "-17/12", "5", "1/0", " 1/2", "1/ 2", "-3/-4", "--3", "+2",
        "3_0", "1.5", "1e3", "\u0661/\u0662", "", "-", "1/", "-0", "007/010",
    ])
    def test_as_real_parses_strings_like_fraction(self, text):
        def outcome(parse):
            try:
                value = parse(text)
            except Exception as exc:
                return type(exc)
            return value, type(value)

        assert outcome(decode_real) == outcome(Fraction)
        assert outcome(lambda t: decode_real(t, FLOAT)) == outcome(lambda t: float(Fraction(t)))


class TestVectorAndMapCodecs:
    def test_roundtrips(self):
        rng = Random("vector-codec")
        for _ in range(15):
            dim = rng.randint(1, 3)
            x = rand_dvector(rng, dim)
            assert decode_dvector(through_json(encode_dvector(x))) == x
            y = rand_bcvector(rng, dim)
            assert decode_bcvector(through_json(encode_bcvector(y))) == y
            f = rand_dfunctional(rng, dim)
            assert decode_dfunctional(through_json(encode_dfunctional(f))) == f
            g = rand_bcfunctional(rng, dim)
            assert decode_bcfunctional(through_json(encode_bcfunctional(g))) == g
            T = rand_bcmap(rng, rng.randint(1, 2), dim)
            assert decode_map(through_json(encode_map(T))) == T

    def test_empty_collections_rejected(self):
        with pytest.raises(SchemaError):
            decode_dvector({"coords": []})
        with pytest.raises(SchemaError):
            decode_bcfunctional({"coeffs": []})
        with pytest.raises(SchemaError):
            decode_map({"rows": []})

    @pytest.mark.parametrize("decode, key, noun, inner, where", [
        (decode_dvector, "coords", "coordinate", "hyperbolic", "dvector"),
        (decode_bcvector, "coords", "coordinate", "bicomplex", "bcvector"),
        (decode_dfunctional, "coeffs", "coefficient", "hyperbolic", "functional"),
        (decode_bcfunctional, "coeffs", "coefficient", "bicomplex", "functional"),
    ])
    def test_list_decoders_error_messages(self, decode, key, noun, inner, where):
        keys = "['e1', 'e2']" if inner == "hyperbolic" else "['z1', 'z2']"
        cases = [
            ([], f"{where}: expected an object"),
            ({}, f"{where}: missing keys ['{key}']"),
            ({key: {}}, f"{where}.{key}: expected an array"),
            ({key: []}, f"{where}: empty {noun} list"),
            ({key: [7]}, f"{where}.{key}[0]: expected an object"),
            ({key: [{}]}, f"{where}.{key}[0]: missing keys {keys}"),
        ]
        for obj, message in cases:
            with pytest.raises(SchemaError) as info:
                decode(obj)
            assert str(info.value) == message

    def test_ragged_matrix_rejected(self):
        z = encode_bicomplex(rand_bicomplex(Random("ragged")))
        with pytest.raises(SchemaError):
            decode_map({"rows": [[z, z], [z]]})


class TestGeometryCodecs:
    def test_vrep_roundtrip(self):
        P = RealPolytope.box(2, F(-1), F(1))
        doc = through_json(encode_polytope(P))
        Q = decode_polytope(doc)
        assert sorted(Q.vertices()) == sorted(P.vertices())

    def test_hrep_roundtrip_keeps_strict_flags(self):
        faces = [
            Halfspace((F(1),), F(1), True),
            Halfspace((F(-1),), F(1), False),
        ]
        P = RealPolytope.from_halfspaces(faces, 1)
        doc = through_json(encode_polytope(P))
        Q = decode_polytope(doc)
        got = Q.halfspaces()
        assert [(hs.a, hs.b, hs.strict) for hs in got] == [
            ((F(1),), F(1), True),
            ((F(-1),), F(1), False),
        ]

    def test_encoding_keeps_the_built_representation(self):
        # deriving the other representation, directly or inside an
        # extension, leaves the written form as it was built
        B = DConvexSet(RealPolytope.box(2, F(-1), F(1)), RealPolytope.box(2, F(-2), F(1, 2)))
        hrep = json.dumps(encode_dconvex(B))
        assert "halfspaces" in json.loads(hrep)["p1"]
        B.component(1).vertices()
        assert json.dumps(encode_dconvex(B)) == hrep
        extend_dominated(DLinearFunctional.from_parts([F(0), F(0)], [F(0), F(0)]), [], B)
        assert B.component(2).has_vrep()
        assert json.dumps(encode_dconvex(B)) == hrep
        V = RealPolytope.from_vertices([(F(0), F(1)), (F(1), F(-1)), (F(-1), F(-1))])
        vrep = json.dumps(encode_polytope(V))
        V.halfspaces()
        assert json.dumps(encode_polytope(V)) == vrep and "vertices" in vrep

    def test_polytope_schema_errors(self):
        with pytest.raises(SchemaError):
            decode_polytope({})
        with pytest.raises(SchemaError):
            decode_polytope({"vertices": []})
        with pytest.raises(SchemaError):
            decode_polytope({"vertices": [[1], [1, 2]]})
        with pytest.raises(SchemaError):
            decode_polytope({"halfspaces": [{"a": [1], "b": 1, "strict": "yes"}]})
        with pytest.raises(SchemaError, match="need either vertices or halfspaces"):
            decode_polytope({"vertices": [[-1], [1]], "halfspaces": "garbage"})

    def test_dconvex_roundtrip_with_open_flag(self):
        A = DConvexSet(
            RealPolytope.box(1, F(-1), F(1)),
            RealPolytope.box(1, F(0), F(2)),
            open=True,
        )
        doc = through_json(encode_dconvex(A))
        got = decode_dconvex(doc)
        assert got.open
        assert sorted(got.p1.vertices()) == sorted(A.p1.vertices())
        assert sorted(got.p2.vertices()) == sorted(A.p2.vertices())

    def test_dconvex_component_dimension_mismatch_is_schema_error(self):
        doc = {
            "p1": {"vertices": [[0], [1]]},
            "p2": {"vertices": [[0, 0], [1, 1]]},
        }
        with pytest.raises(SchemaError):
            decode_dconvex(doc)

    def test_rectset_roundtrip_and_validation(self):
        R = RectSet((F(-1), F(1)), (F(0), F(2)))
        assert decode_rectset(through_json(encode_rectset(R))) == R
        with pytest.raises(SchemaError):
            decode_rectset({"c1": [0, 1, 2], "c2": [0, 1]})
        with pytest.raises(SchemaError):
            decode_rectset({"c1": [1, 0], "c2": [0, 1]})

    def test_cover_roundtrip(self):
        cover, bounding = rand_cover(Random("cover-codec"))
        doc = through_json(encode_cover(cover, bounding))
        got_cover, got_bounding = decode_cover(doc)
        assert got_cover == cover
        assert got_bounding == bounding


class TestCertificateCodecs:
    def build_cert(self):
        A, B = rand_separation_instance(Random("cert-codec"), 2)
        return separate_hyperbolic(A, B)

    def test_certificate_roundtrip(self):
        cert = self.build_cert()
        doc = through_json(encode_certificate(cert))
        assert doc["schema"] == 3
        assert set(doc) == {"schema", "f", "gamma", "sup_A", "trace"}
        assert set(doc["trace"]) == {"x0", "qg_x0", "a0", "b0"}
        got = decode_certificate(doc)
        assert got == cert

    def test_certificate_schema_errors(self):
        cert = self.build_cert()
        doc = through_json(encode_certificate(cert))
        for schema in (1, 2, 4, "3", None):
            with pytest.raises(SchemaError, match="unsupported schema"):
                decode_certificate({**doc, "schema": schema})
        # a schema-2 document: the same keys, and interp in its trace
        with pytest.raises(SchemaError, match="unsupported schema"):
            decode_certificate({**doc, "schema": 2, "trace": {**doc["trace"], "interp": "1/2"}})
        # a schema-1 document: no schema or sup_A, a G in its trace and checks
        old = {k: v for k, v in doc.items() if k not in ("schema", "sup_A")}
        old["trace"] = {**doc["trace"], "G": {}}
        old["checks"] = []
        with pytest.raises(SchemaError, match="missing keys"):
            decode_certificate(old)
        with pytest.raises(SchemaError):
            decode_certificate({**doc, "trace": {"x0": doc["trace"]["x0"]}})
        with pytest.raises(SchemaError):
            decode_certificate({"f": doc["f"], "gamma": doc["gamma"]})

    def test_hyperplane_roundtrip(self):
        L = DHyperplane(
            DLinearFunctional.from_parts([F(1, 2), F(3)], [F(-1), F(2, 7)]),
            HyperbolicScalar(F(1), F(1)),
        )
        got = decode_hyperplane(through_json(encode_hyperplane(L)))
        assert got == L


class TestBackendParameters:
    """Only the decoders on the `gauge --backend float` path take a backend,
    and every decoder takes `where` by keyword, so a stale positional backend
    raises instead of being read."""

    def test_exact_decoders_refuse_a_positional_backend(self):
        rng = Random("stale-backend")
        z = rand_bicomplex(rng)
        cover, bounding = rand_cover(rng)
        L = DHyperplane(DLinearFunctional.from_parts([F(1, 2)], [F(3)]), HyperbolicScalar(F(1), F(1)))
        cases = [
            (decode_complex, encode_complex(z.z1)),
            (decode_bicomplex, encode_bicomplex(z)),
            (decode_bcvector, encode_bcvector(rand_bcvector(rng, 2))),
            (decode_dfunctional, encode_dfunctional(rand_dfunctional(rng, 2))),
            (decode_bcfunctional, encode_bcfunctional(rand_bcfunctional(rng, 2))),
            (decode_map, encode_map(rand_bcmap(rng, 2, 2))),
            (decode_rectset, encode_rectset(bounding)),
            (decode_cover, encode_cover(cover, bounding)),
            (decode_certificate, encode_certificate(TestCertificateCodecs().build_cert())),
            (decode_hyperplane, encode_hyperplane(L)),
        ]
        for decode, doc in cases:
            decode(through_json(doc))
            with pytest.raises(TypeError):
                decode(through_json(doc), EXACT)

    def test_gauge_path_decoders_take_a_backend_and_where_by_keyword(self):
        h = {"e1": "1/2", "e2": 1}
        square = {"vertices": [[-1, -1], [1, -1], [1, 1], [-1, 1]]}
        assert decode_hyperbolic(h, FLOAT, where="h") == HyperbolicScalar(0.5, 1.0)
        assert decode_dvector({"coords": [h]}, FLOAT).coords == (HyperbolicScalar(0.5, 1.0),)
        assert decode_polytope(square, FLOAT).vertices()[0] == (-1.0, -1.0)
        assert decode_dconvex({"p1": square, "p2": square}, FLOAT).p1.dim == 2
        for decode, doc in ((decode_hyperbolic, h), (decode_dvector, {"coords": [h]}),
                            (decode_polytope, square), (decode_dconvex, {"p1": square, "p2": square})):
            with pytest.raises(TypeError):
                decode(doc, EXACT, "where")
