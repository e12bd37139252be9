"""Output checks for the benchmark, independent of the library under test.

Nothing here imports ``bicomplex``: certificates are re-parsed from their
JSON text and evaluated with plain ``Fraction`` arithmetic at the vertices of
the *input* sets, witnesses are tested for membership with
``scipy.optimize.linprog``, and gauge values are recomputed from the input
JSON (closed form for halfspaces, ``linprog`` for vertex lists).

Every check returns ``None`` when the output is right and a short reason
string when it is not.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product

FLOAT_TOL = 1e-9


def _q(obj) -> Fraction:
    """An exact rational from a JSON number or a "p/q" string."""
    if isinstance(obj, bool) or not isinstance(obj, (int, str)):
        raise ValueError(f"not an exact rational: {obj!r}")
    return Fraction(obj)


def _points(poly: dict) -> list[tuple[Fraction, ...]]:
    return [tuple(_q(c) for c in v) for v in poly["vertices"]]


def _dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _hyper(obj: dict) -> tuple[Fraction, Fraction]:
    return _q(obj["e1"]), _q(obj["e2"])


# -- separate ----------------------------------------------------------------------


def check_certificate(pair: dict, text: str, touching: bool) -> str | None:
    """f(a) <' gamma on A's product vertices and gamma <=' f(b) on B's.

    ``pair`` is the input document {"A", "B"} with vertex-list components.
    For a pair with a positive gap the A side must be strict at every vertex
    of A's closure.  When A and B touch on the boundary of A, some vertex of
    the closure reaches gamma, and strict separation of the *open* A means:
    weak at the closure vertices and a nonconstant functional in each
    component (a nonconstant linear form attains its maximum over a
    full-dimensional polytope only on the boundary).
    """
    try:
        doc = json.loads(text)
        if doc.get("status") != "separated":
            return f"status {doc.get('status')!r}, expected 'separated'"
        coeffs = [_hyper(c) for c in doc["f"]["coeffs"]]
        gamma = _hyper(doc["gamma"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparseable certificate: {exc!r}"
    f1 = [c[0] for c in coeffs]
    f2 = [c[1] for c in coeffs]
    A, B = pair["A"], pair["B"]
    a1, a2 = _points(A["p1"]), _points(A["p2"])
    b1, b2 = _points(B["p1"]), _points(B["p2"])
    if len(f1) != len(a1[0]):
        return "functional dimension differs from the input"
    if touching and (not any(f1) or not any(f2)):
        return "functional is constant in a component"
    for v1, v2 in product(a1, a2):
        val = (_dot(f1, v1), _dot(f2, v2))
        if touching:
            ok = val[0] <= gamma[0] and val[1] <= gamma[1]
        else:
            ok = val[0] < gamma[0] and val[1] < gamma[1]
        if not ok:
            return f"A vertex {v1, v2} gives {val}, gamma {gamma}"
    for v1, v2 in product(b1, b2):
        val = (_dot(f1, v1), _dot(f2, v2))
        if not (gamma[0] <= val[0] and gamma[1] <= val[1]):
            return f"B vertex {v1, v2} gives {val}, below gamma {gamma}"
    return None


def _in_hull(point: list[float], verts: list[tuple[Fraction, ...]]) -> bool:
    """Is point a convex combination of verts (within FLOAT_TOL)?"""
    from scipy.optimize import linprog

    k = len(verts)
    rows = [[float(v[c]) for v in verts] for c in range(len(point))]
    rows.append([1.0] * k)
    res = linprog(
        [0.0] * k, A_eq=rows, b_eq=list(point) + [1.0],
        bounds=[(0, None)] * k, method="highs",
    )
    return res.status == 0


def check_witness(pair: dict, text: str, component: int) -> str | None:
    """A not-disjoint record whose witness lies in both input components."""
    try:
        doc = json.loads(text)
        if doc.get("status") != "not-disjoint":
            return f"status {doc.get('status')!r}, expected 'not-disjoint'"
        witness = [float(_q(c)) for c in doc["witness"]]
        reported = doc["component"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparseable witness record: {exc!r}"
    if reported != component:
        return f"witness in component {reported}, expected {component}"
    key = f"p{component}"
    for side in ("A", "B"):
        if not _in_hull(witness, _points(pair[side][key])):
            return f"witness {witness} is outside {side}.{key}"
    return None


# -- gauge -------------------------------------------------------------------------


def _hrep_gauge(poly: dict, x: tuple[Fraction, ...]) -> Fraction:
    best = Fraction(0)
    for h in poly["halfspaces"]:
        best = max(best, _dot([_q(c) for c in h["a"]], x) / _q(h["b"]))
    return best


def _vrep_gauge(poly: dict, x: tuple[Fraction, ...]) -> float:
    """min sum(mu) subject to sum(mu_i v_i) = x, mu >= 0."""
    from scipy.optimize import linprog

    verts = _points(poly)
    rows = [[float(v[c]) for v in verts] for c in range(len(x))]
    res = linprog(
        [1.0] * len(verts), A_eq=rows, b_eq=[float(c) for c in x],
        bounds=[(0, None)] * len(verts), method="highs",
    )
    if res.status != 0:
        raise ValueError(f"reference gauge LP failed: {res.message}")
    return float(res.fun)


def check_gauge(request: dict, values: list[tuple[str, str]]) -> str | None:
    """Gauge components against a reference computed from the input JSON."""
    S = request["set"]
    if len(values) != len(request["points"]):
        return "wrong number of gauge values"
    for point, (g1, g2) in zip(request["points"], values):
        got = (_q(g1), _q(g2))
        for l, key in ((0, "p1"), (1, "p2")):
            x = tuple(_q(c[f"e{l + 1}"]) for c in point["coords"])
            poly = S[key]
            if "halfspaces" in poly:
                want = _hrep_gauge(poly, x)
                if got[l] != want:
                    return f"{key} gauge {got[l]} at {x}, expected {want}"
            else:
                want = _vrep_gauge(poly, x)
                if abs(float(got[l]) - want) > FLOAT_TOL * max(1.0, abs(want)):
                    return f"{key} gauge {got[l]} at {x}, reference {want}"
    return None


# -- verify ------------------------------------------------------------------------


def check_report(text: str) -> str | None:
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return f"unparseable report: {exc!r}"
    if doc.get("ok") is not True:
        return "report is not ok"
    return None
