"""JSON wire formats for the domain types.

Exact rationals travel as "p/q" strings, everything else as plain JSON
numbers, so certificate files round-trip without precision loss.  All
decoders validate shape and raise :class:`SchemaError` with a path hint;
they never partially construct objects.  Every decoder reads numbers
exactly, except the four on the `gauge --backend float` path (sets,
polytopes, points and hyperbolic scalars), which take a ``backend``.  In the
exact backend a polytope's numbers become reduced pairs
(`backend.decode_pair`), then the integer rows of its vertices or faces
[*a, b] over the lcm of their denominators.
"""

from __future__ import annotations

from functools import partial
from math import lcm

from .analysis import DHyperplane, SeparationCertificate
from .backend import EXACT, decode_pair, decode_real, encode_real
from .convex import DConvexSet
from .errors import BicomplexError, SchemaError
from .linear import BCLinearFunctional, BCLinearMap, DLinearFunctional
from .metric import RectSet
from .polytope import Halfspace, RealPolytope
from .scalars import BicomplexScalar, ComplexScalar, HyperbolicScalar
from .vectors import BCVector, DVector


def _real(obj, where: str, backend: str):
    try:
        return decode_real(obj, backend)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{where}: bad number {obj!r}") from exc


def _pair(obj, where: str) -> tuple[int, int]:
    """The exact reduced pair (n, d) of a number, refused as `_real` refuses it."""
    try:
        return decode_pair(obj)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{where}: bad number {obj!r}") from exc


def _expect_dict(obj, keys: tuple[str, ...], where: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise SchemaError(f"{where}: missing keys {missing}")
    return obj


def _expect_list(obj, where: str) -> list:
    if not isinstance(obj, list):
        raise SchemaError(f"{where}: expected an array")
    return obj


def _decode_entries(obj, key: str, noun: str, decode, where: str) -> tuple:
    """Decode every entry of the non-empty list obj[key]."""
    d = _expect_dict(obj, (key,), where)
    entries = _expect_list(d[key], f"{where}.{key}")
    if not entries:
        raise SchemaError(f"{where}: empty {noun} list")
    return tuple(decode(c, where=f"{where}.{key}[{i}]") for i, c in enumerate(entries))


# -- scalars ------------------------------------------------------------------


def encode_hyperbolic(h: HyperbolicScalar) -> dict:
    return {"e1": encode_real(h.a1), "e2": encode_real(h.a2)}


def decode_hyperbolic(obj, backend: str = EXACT, *, where: str = "hyperbolic") -> HyperbolicScalar:
    d = _expect_dict(obj, ("e1", "e2"), where)
    return HyperbolicScalar(_real(d["e1"], where, backend), _real(d["e2"], where, backend))


def encode_complex(z: ComplexScalar) -> dict:
    return {"re": encode_real(z.re), "im": encode_real(z.im)}


def decode_complex(obj, *, where: str = "complex") -> ComplexScalar:
    d = _expect_dict(obj, ("re", "im"), where)
    return ComplexScalar(_real(d["re"], where, EXACT), _real(d["im"], where, EXACT))


def encode_bicomplex(Z: BicomplexScalar) -> dict:
    return {"z1": encode_complex(Z.z1), "z2": encode_complex(Z.z2)}


def decode_bicomplex(obj, *, where: str = "bicomplex") -> BicomplexScalar:
    d = _expect_dict(obj, ("z1", "z2"), where)
    return BicomplexScalar(
        decode_complex(d["z1"], where=f"{where}.z1"),
        decode_complex(d["z2"], where=f"{where}.z2"),
    )


# -- vectors and functionals ---------------------------------------------------


def encode_dvector(x: DVector) -> dict:
    return {"coords": [encode_hyperbolic(h) for h in x.coords]}


def decode_dvector(obj, backend: str = EXACT, *, where: str = "dvector") -> DVector:
    decode = partial(decode_hyperbolic, backend=backend)
    return DVector(_decode_entries(obj, "coords", "coordinate", decode, where))


def encode_bcvector(x: BCVector) -> dict:
    return {"coords": [encode_bicomplex(Z) for Z in x.coords]}


def decode_bcvector(obj, *, where: str = "bcvector") -> BCVector:
    return BCVector(_decode_entries(obj, "coords", "coordinate", decode_bicomplex, where))


def encode_dfunctional(f: DLinearFunctional) -> dict:
    return {"coeffs": [encode_hyperbolic(h) for h in f.coeffs.coords]}


def decode_dfunctional(obj, *, where: str = "functional") -> DLinearFunctional:
    return DLinearFunctional(DVector(
        _decode_entries(obj, "coeffs", "coefficient", decode_hyperbolic, where)))


def encode_bcfunctional(h: BCLinearFunctional) -> dict:
    return {"coeffs": [encode_bicomplex(Z) for Z in h.coeffs.coords]}


def decode_bcfunctional(obj, *, where: str = "functional") -> BCLinearFunctional:
    return BCLinearFunctional(BCVector(
        _decode_entries(obj, "coeffs", "coefficient", decode_bicomplex, where)))


def encode_map(T: BCLinearMap) -> dict:
    return {"rows": [[encode_bicomplex(e) for e in row] for row in T.matrix]}


def decode_map(obj, *, where: str = "map") -> BCLinearMap:
    d = _expect_dict(obj, ("rows",), where)
    rows = _expect_list(d["rows"], f"{where}.rows")
    if not rows:
        raise SchemaError(f"{where}: empty matrix")
    decoded = []
    for r, row in enumerate(rows):
        entries = _expect_list(row, f"{where}.rows[{r}]")
        decoded.append(tuple(
            decode_bicomplex(e, where=f"{where}.rows[{r}][{c}]") for c, e in enumerate(entries)
        ))
    width = len(decoded[0])
    if width == 0 or any(len(row) != width for row in decoded):
        raise SchemaError(f"{where}: ragged or empty rows")
    return BCLinearMap(tuple(decoded))


# -- geometry -----------------------------------------------------------------


def encode_polytope(P: RealPolytope) -> dict:
    """The representation P was built with, whatever it has derived since."""
    if P.built_from_vertices():
        return {"vertices": [[encode_real(c) for c in v] for v in P.vertices()]}
    return {
        "halfspaces": [
            {"a": [encode_real(c) for c in h.a], "b": encode_real(h.b), "strict": h.strict}
            for h in P.halfspaces()
        ]
    }


def _integer_rows(rows: list[list[tuple[int, int]]]) -> tuple[list[tuple[int, ...]], int]:
    """Rows of reduced pairs (n, d) as integers n*(L/d) over L, the lcm of every d."""
    scale = lcm(*(d for row in rows for _, d in row))
    return [tuple(n * (scale // d) for n, d in row) for row in rows], scale


def decode_polytope(obj, backend: str = EXACT, *, where: str = "polytope") -> RealPolytope:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    if "vertices" in obj and "halfspaces" in obj:
        raise SchemaError(f"{where}: need either vertices or halfspaces, not both")
    exact = backend == EXACT
    number = _pair if exact else partial(_real, backend=backend)
    if "vertices" in obj:
        verts = _expect_list(obj["vertices"], f"{where}.vertices")
        if not verts:
            raise SchemaError(f"{where}: no vertices")
        points = [[number(c, f"{where}.vertices[{i}]")
                   for c in _expect_list(v, f"{where}.vertices[{i}]")] for i, v in enumerate(verts)]
        if any(len(p) != len(points[0]) for p in points):
            raise SchemaError(f"{where}: mixed vertex dimensions")
        if exact:
            return RealPolytope.from_integer_rows(len(points[0]), vertices=_integer_rows(points))
        return RealPolytope.from_vertices([tuple(p) for p in points])
    if "halfspaces" in obj:
        rows = _expect_list(obj["halfspaces"], f"{where}.halfspaces")
        faces, flags = [], []
        for i, h in enumerate(rows):
            at = f"{where}.halfspaces[{i}]"
            d = _expect_dict(h, ("a", "b"), at)
            a = [number(c, f"{at}.a") for c in _expect_list(d["a"], f"{at}.a")]
            if faces and len(a) != len(faces[0]) - 1:
                raise SchemaError(f"{where}: mixed halfspace dimensions")
            strict = d.get("strict", False)
            if not isinstance(strict, bool):
                raise SchemaError(f"{at}.strict: expected a boolean")
            faces.append([*a, number(d["b"], f"{at}.b")])
            flags.append(strict)
        if not faces:
            raise SchemaError(f"{where}: empty halfspace list")
        dim = len(faces[0]) - 1
        if exact:
            return RealPolytope.from_integer_rows(dim, faces=_integer_rows(faces), strict=flags)
        return RealPolytope(dim, halfspaces=[Halfspace(tuple(f[:-1]), f[-1], s)
                                             for f, s in zip(faces, flags)])
    raise SchemaError(f"{where}: need either vertices or halfspaces")


def encode_dconvex(S: DConvexSet) -> dict:
    return {"p1": encode_polytope(S.p1), "p2": encode_polytope(S.p2), "open": S.open}


def decode_dconvex(obj, backend: str = EXACT, *, where: str = "set") -> DConvexSet:
    d = _expect_dict(obj, ("p1", "p2"), where)
    open_flag = d.get("open", False)
    if not isinstance(open_flag, bool):
        raise SchemaError(f"{where}.open: expected a boolean")
    try:
        return DConvexSet(
            decode_polytope(d["p1"], backend, where=f"{where}.p1"),
            decode_polytope(d["p2"], backend, where=f"{where}.p2"),
            open=open_flag,
        )
    except SchemaError:
        raise
    except BicomplexError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def encode_rectset(R: RectSet) -> dict:
    return {
        "c1": [encode_real(R.c1[0]), encode_real(R.c1[1])],
        "c2": [encode_real(R.c2[0]), encode_real(R.c2[1])],
    }


def decode_rectset(obj, *, where: str = "rect") -> RectSet:
    d = _expect_dict(obj, ("c1", "c2"), where)
    out = []
    for key in ("c1", "c2"):
        pair = _expect_list(d[key], f"{where}.{key}")
        if len(pair) != 2:
            raise SchemaError(f"{where}.{key}: expected [lo, hi]")
        out.append((_real(pair[0], f"{where}.{key}", EXACT), _real(pair[1], f"{where}.{key}", EXACT)))
    try:
        return RectSet(out[0], out[1])
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def encode_cover(cover: list[RectSet], bounding: RectSet) -> dict:
    return {
        "bounding": encode_rectset(bounding),
        "cover": [encode_rectset(r) for r in cover],
    }


def decode_cover(obj) -> tuple[list[RectSet], RectSet]:
    """A cover file: {"bounding": RectSet, "cover": [RectSet, ...]}."""
    d = _expect_dict(obj, ("bounding", "cover"), "cover file")
    rects = _expect_list(d["cover"], "cover file.cover")
    cover = [decode_rectset(r, where=f"cover[{i}]") for i, r in enumerate(rects)]
    return cover, decode_rectset(d["bounding"], where="bounding")


# -- certificates and hyperplanes ----------------------------------------------


CERTIFICATE_SCHEMA = 3


def encode_certificate(cert: SeparationCertificate) -> dict:
    trace = cert.trace
    return {
        "schema": CERTIFICATE_SCHEMA,
        "f": encode_dfunctional(cert.f),
        "gamma": encode_hyperbolic(cert.gamma),
        "sup_A": encode_hyperbolic(cert.sup_A),
        "trace": {
            "x0": encode_dvector(trace["x0"]),
            "qg_x0": encode_hyperbolic(trace["qg_x0"]),
            "a0": encode_dvector(trace["a0"]),
            "b0": encode_dvector(trace["b0"]),
        },
    }


def decode_certificate(obj) -> SeparationCertificate:
    """A schema-3 certificate; any other document is a schema error."""
    d = _expect_dict(obj, ("schema", "f", "gamma", "sup_A", "trace"), "certificate")
    if d["schema"] != CERTIFICATE_SCHEMA:
        raise SchemaError(f"certificate: unsupported schema {d['schema']!r}")
    t = _expect_dict(d["trace"], ("x0", "qg_x0", "a0", "b0"), "certificate.trace")
    trace = {
        "x0": decode_dvector(t["x0"], where="trace.x0"),
        "qg_x0": decode_hyperbolic(t["qg_x0"], where="trace.qg_x0"),
        "a0": decode_dvector(t["a0"], where="trace.a0"),
        "b0": decode_dvector(t["b0"], where="trace.b0"),
    }
    return SeparationCertificate(
        decode_dfunctional(d["f"], where="certificate.f"),
        decode_hyperbolic(d["gamma"], where="certificate.gamma"),
        decode_hyperbolic(d["sup_A"], where="certificate.sup_A"),
        trace,
    )


def encode_hyperplane(L: DHyperplane) -> dict:
    return {"f": encode_dfunctional(L.f), "c": encode_hyperbolic(L.c)}


def decode_hyperplane(obj) -> DHyperplane:
    d = _expect_dict(obj, ("f", "c"), "hyperplane")
    return DHyperplane(
        decode_dfunctional(d["f"], where="hyperplane.f"),
        decode_hyperbolic(d["c"], where="hyperplane.c"),
    )
