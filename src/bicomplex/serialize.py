"""JSON wire formats for the domain types.

Exact rationals travel as "p/q" strings, everything else as plain JSON
numbers, so certificate files round-trip without precision loss.  All
decoders validate shape and raise :class:`SchemaError` with a path hint;
they never partially construct objects.  Every decoder reads numbers
exactly, except the four on the `gauge --backend float` path (sets,
polytopes, points and hyperbolic scalars), which take a ``backend``.  In the
exact backend a polytope's numbers become reduced pairs
(`backend.decode_pair`), then the integer rows of its vertices or faces
[*a, b] over the lcm of their denominators.  Points, functionals and
hyperbolic scalars share one loop (`_hyperbolics`), which reads each
component once: `decode_pair` and one `Fraction` in the exact backend,
`decode_real` in the float one.

From a set down, a path hint is handed down in parts, ``where`` and a
format filled with the indices (``".p1.vertices[{}]", i``), and joined only
when a decoder raises: decoding builds no location string per component,
number, coordinate, vertex, face or entry.
"""

from __future__ import annotations

from fractions import Fraction
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

# what `decode_pair` and `decode_real` raise for a value that is not a number
_BAD_NUMBER = (TypeError, ValueError, ZeroDivisionError)


def _where(where: str, fmt: str, args: tuple) -> str:
    """The path hint where + fmt.format(*args), built only for a message."""
    return where + fmt.format(*args)


def _number(obj, read, where: str, fmt: str = "", *args):
    """read(obj), a value that is not a number refused with its path hint."""
    try:
        return read(obj)
    except _BAD_NUMBER as exc:
        raise SchemaError(f"{_where(where, fmt, args)}: bad number {obj!r}") from exc


def _numbers(values, read, where: str, fmt: str = "", *args) -> list:
    """The JSON array values read number by number, refused as `_expect_list`
    and `_number` refuse it."""
    if not isinstance(values, list):
        raise SchemaError(f"{_where(where, fmt, args)}: expected an array")
    out = []
    try:
        for v in values:
            out.append(read(v))
    except _BAD_NUMBER as exc:  # values[len(out)] is the one read refused
        raise SchemaError(f"{_where(where, fmt, args)}: bad number {values[len(out)]!r}") from exc
    return out


def _expect_dict(obj, keys: tuple[str, ...], where: str, fmt: str = "", *args) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(f"{_where(where, fmt, args)}: expected an object")
    for key in keys:
        if key not in obj:
            missing = [k for k in keys if k not in obj]
            raise SchemaError(f"{_where(where, fmt, args)}: missing keys {missing}")
    return obj


def _expect_list(obj, where: str, fmt: str = "", *args) -> list:
    if not isinstance(obj, list):
        raise SchemaError(f"{_where(where, fmt, args)}: expected an array")
    return obj


def _entries(obj, key: str, noun: str, where: str) -> list:
    """The non-empty list obj[key]."""
    entries = _expect_list(_expect_dict(obj, (key,), where)[key], where, ".{}", key)
    if not entries:
        raise SchemaError(f"{where}: empty {noun} list")
    return entries


# -- scalars ------------------------------------------------------------------


def encode_hyperbolic(h: HyperbolicScalar) -> dict:
    return {"e1": encode_real(h.a1), "e2": encode_real(h.a2)}


def _hyperbolics(objs, backend: str, where: str, fmt: str) -> list[HyperbolicScalar]:
    """Each of objs as a hyperbolic scalar, in one loop; the path hint of
    objs[i] is where + fmt.format(i).  The backend picks the number decoder
    once: `decode_pair` and one `Fraction` per component when exact, else
    `decode_real`."""
    exact = backend == EXACT
    out = []
    for i, obj in enumerate(objs):
        d = _expect_dict(obj, ("e1", "e2"), where, fmt, i)
        e1, e2 = d["e1"], d["e2"]
        try:
            if exact:
                (n1, d1), (n2, d2) = decode_pair(e1), decode_pair(e2)
                a1, a2 = Fraction(n1, d1), Fraction(n2, d2)
            else:
                a1, a2 = decode_real(e1, backend), decode_real(e2, backend)
        except _BAD_NUMBER:  # read again one by one, so the first bad one is named
            read = partial(decode_real, backend=backend)
            _number(e1, read, where, fmt, i)
            _number(e2, read, where, fmt, i)
            raise
        out.append(HyperbolicScalar(a1, a2))
    return out


def decode_hyperbolic(obj, backend: str = EXACT, *, where: str = "hyperbolic") -> HyperbolicScalar:
    return _hyperbolics((obj,), backend, where, "")[0]


def encode_complex(z: ComplexScalar) -> dict:
    return {"re": encode_real(z.re), "im": encode_real(z.im)}


def _complex(obj, where: str, fmt: str = "", *args) -> ComplexScalar:
    d = _expect_dict(obj, ("re", "im"), where, fmt, *args)
    return ComplexScalar(_number(d["re"], decode_real, where, fmt, *args),
                         _number(d["im"], decode_real, where, fmt, *args))


def decode_complex(obj, *, where: str = "complex") -> ComplexScalar:
    return _complex(obj, where)


def encode_bicomplex(Z: BicomplexScalar) -> dict:
    return {"z1": encode_complex(Z.z1), "z2": encode_complex(Z.z2)}


def _bicomplex(obj, where: str, fmt: str = "", *args) -> BicomplexScalar:
    d = _expect_dict(obj, ("z1", "z2"), where, fmt, *args)
    return BicomplexScalar(_complex(d["z1"], where, fmt + ".z1", *args),
                           _complex(d["z2"], where, fmt + ".z2", *args))


def decode_bicomplex(obj, *, where: str = "bicomplex") -> BicomplexScalar:
    return _bicomplex(obj, where)


# -- vectors and functionals ---------------------------------------------------


def encode_dvector(x: DVector) -> dict:
    return {"coords": [encode_hyperbolic(h) for h in x.coords]}


def decode_dvector(obj, backend: str = EXACT, *, where: str = "dvector") -> DVector:
    coords = _entries(obj, "coords", "coordinate", where)
    return DVector(tuple(_hyperbolics(coords, backend, where, ".coords[{}]")))


def encode_bcvector(x: BCVector) -> dict:
    return {"coords": [encode_bicomplex(Z) for Z in x.coords]}


def _bicomplexes(obj, key: str, noun: str, where: str) -> tuple[BicomplexScalar, ...]:
    """Decode every entry of the non-empty list obj[key]."""
    return tuple(_bicomplex(c, where, ".{}[{}]", key, i)
                 for i, c in enumerate(_entries(obj, key, noun, where)))


def decode_bcvector(obj, *, where: str = "bcvector") -> BCVector:
    return BCVector(_bicomplexes(obj, "coords", "coordinate", where))


def encode_dfunctional(f: DLinearFunctional) -> dict:
    return {"coeffs": [encode_hyperbolic(h) for h in f.coeffs.coords]}


def decode_dfunctional(obj, *, where: str = "functional") -> DLinearFunctional:
    coeffs = _entries(obj, "coeffs", "coefficient", where)
    return DLinearFunctional(DVector(tuple(_hyperbolics(coeffs, EXACT, where, ".coeffs[{}]"))))


def encode_bcfunctional(h: BCLinearFunctional) -> dict:
    return {"coeffs": [encode_bicomplex(Z) for Z in h.coeffs.coords]}


def decode_bcfunctional(obj, *, where: str = "functional") -> BCLinearFunctional:
    return BCLinearFunctional(BCVector(_bicomplexes(obj, "coeffs", "coefficient", where)))


def encode_map(T: BCLinearMap) -> dict:
    return {"rows": [[encode_bicomplex(e) for e in row] for row in T.matrix]}


def decode_map(obj, *, where: str = "map") -> BCLinearMap:
    d = _expect_dict(obj, ("rows",), where)
    rows = _expect_list(d["rows"], where, ".rows")
    if not rows:
        raise SchemaError(f"{where}: empty matrix")
    decoded = []
    for r, row in enumerate(rows):
        entries = _expect_list(row, where, ".rows[{}]", r)
        decoded.append(tuple(
            _bicomplex(e, where, ".rows[{}][{}]", r, c) for c, e in enumerate(entries)
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
    scale = lcm(*[d for row in rows for _, d in row])
    return [tuple([n * (scale // d) for n, d in row]) for row in rows], scale


def _polytope(obj, backend: str, where: str, fmt: str = "") -> RealPolytope:
    """A polytope whose path hint is where + fmt (a set's component, ".p1")."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{_where(where, fmt, ())}: expected an object")
    if "vertices" in obj and "halfspaces" in obj:
        raise SchemaError(f"{_where(where, fmt, ())}: need either vertices or halfspaces, not both")
    exact = backend == EXACT
    read = decode_pair if exact else partial(decode_real, backend=backend)
    if "vertices" in obj:
        verts = _expect_list(obj["vertices"], where, fmt + ".vertices")
        if not verts:
            raise SchemaError(f"{_where(where, fmt, ())}: no vertices")
        row = fmt + ".vertices[{}]"
        points = [_numbers(v, read, where, row, i) for i, v in enumerate(verts)]
        if any(len(p) != len(points[0]) for p in points):
            raise SchemaError(f"{_where(where, fmt, ())}: mixed vertex dimensions")
        if exact:
            return RealPolytope.from_integer_rows(len(points[0]), vertices=_integer_rows(points))
        return RealPolytope.from_vertices([tuple(p) for p in points])
    if "halfspaces" in obj:
        rows = _expect_list(obj["halfspaces"], where, fmt + ".halfspaces")
        row = fmt + ".halfspaces[{}]"
        row_a, row_b = row + ".a", row + ".b"
        faces, flags = [], []
        for i, h in enumerate(rows):
            d = _expect_dict(h, ("a", "b"), where, row, i)
            face = _numbers(d["a"], read, where, row_a, i)
            if faces and len(face) != len(faces[0]) - 1:
                raise SchemaError(f"{_where(where, fmt, ())}: mixed halfspace dimensions")
            strict = d.get("strict", False)
            if not isinstance(strict, bool):
                raise SchemaError(f"{_where(where, row, (i,))}.strict: expected a boolean")
            face.append(_number(d["b"], read, where, row_b, i))
            faces.append(face)
            flags.append(strict)
        if not faces:
            raise SchemaError(f"{_where(where, fmt, ())}: empty halfspace list")
        dim = len(faces[0]) - 1
        if exact:
            return RealPolytope.from_integer_rows(dim, faces=_integer_rows(faces), strict=flags)
        return RealPolytope(dim, halfspaces=[Halfspace(tuple(f[:-1]), f[-1], s)
                                             for f, s in zip(faces, flags)])
    raise SchemaError(f"{_where(where, fmt, ())}: need either vertices or halfspaces")


def decode_polytope(obj, backend: str = EXACT, *, where: str = "polytope") -> RealPolytope:
    return _polytope(obj, backend, where)


def encode_dconvex(S: DConvexSet) -> dict:
    return {"p1": encode_polytope(S.p1), "p2": encode_polytope(S.p2), "open": S.open}


def decode_dconvex(obj, backend: str = EXACT, *, where: str = "set") -> DConvexSet:
    d = _expect_dict(obj, ("p1", "p2"), where)
    open_flag = d.get("open", False)
    if not isinstance(open_flag, bool):
        raise SchemaError(f"{where}.open: expected a boolean")
    try:
        return DConvexSet(
            _polytope(d["p1"], backend, where, ".p1"),
            _polytope(d["p2"], backend, where, ".p2"),
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


def _rectset(obj, where: str, fmt: str = "", *args) -> RectSet:
    d = _expect_dict(obj, ("c1", "c2"), where, fmt, *args)
    fmt_key = fmt + ".{}"
    out = []
    for key in ("c1", "c2"):
        pair = _expect_list(d[key], where, fmt_key, *args, key)
        if len(pair) != 2:
            raise SchemaError(f"{_where(where, fmt_key, (*args, key))}: expected [lo, hi]")
        out.append((_number(pair[0], decode_real, where, fmt_key, *args, key),
                    _number(pair[1], decode_real, where, fmt_key, *args, key)))
    try:
        return RectSet(out[0], out[1])
    except ValueError as exc:
        raise SchemaError(f"{_where(where, fmt, args)}: {exc}") from exc


def decode_rectset(obj, *, where: str = "rect") -> RectSet:
    return _rectset(obj, where)


def encode_cover(cover: list[RectSet], bounding: RectSet) -> dict:
    return {
        "bounding": encode_rectset(bounding),
        "cover": [encode_rectset(r) for r in cover],
    }


def decode_cover(obj) -> tuple[list[RectSet], RectSet]:
    """A cover file: {"bounding": RectSet, "cover": [RectSet, ...]}."""
    d = _expect_dict(obj, ("bounding", "cover"), "cover file")
    rects = _expect_list(d["cover"], "cover file.cover")
    cover = [_rectset(r, "cover", "[{}]", i) for i, r in enumerate(rects)]
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
