"""The three workloads: seeded inputs, one request each, and its output check.

Each workload is a closed loop of one client in one process.  Inputs are
drawn from ``random.Random`` seeded by the workload seed, through the
library's public generators, and stored as JSON before timing starts; a
request then decodes fresh objects from that JSON, as the CLI does.

Mixes are fixed slot patterns, shuffled per block, so the share of each
category in a run does not depend on how many requests complete.  The
weights put p50 and p90 inside one cluster each rather than on a boundary
between two clusters (a boundary quantile jumps between them from seed to
seed):

* ``separate``: p50 in the 2-D certificates (42%, with 32% of the mix
  cheaper and 26% dearer), p90 inside the 3-D certificates (26%).  A
  quarter of the 2-D pairs send A as halfspaces, which puts vertex
  enumeration on the path.  Boundary-touching pairs are not in the timed
  mix: every one of them raises at the commit that introduced the
  benchmark (a known defect), and the timed loop must run without
  failures.  ``prepare_touching`` makes them for an untimed probe instead.
* ``gauge``: p50 in the 2-D vertex-list sets (30%, 35% cheaper halfspace
  sets below), p90 in the 3-D ones (35%).
* ``verify``: p50 in ``metric`` (30%, 35% cheaper ``order`` and ``algebra``
  below), p90 in ``linear`` (30%, with the dearest 5%, ``theorems``, above).
  ``theorems`` costs 10x ``linear`` and varies by suite seed (CV 0.3), so a
  p90 inside it moved 10-14% from seed to seed.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Any, Callable

from bicomplex import cli, convex, serialize
from bicomplex import generators as gen
from bicomplex.backend import encode_real
from bicomplex.polytope import RealPolytope

import check

GAUGE_POINTS = 8  # gauge queries per decoded set: the work a per-set cache could share


@dataclass
class Request:
    category: str
    payload: Any  # what the request sends
    expect: Any = None  # what the output check needs from the input side


def _blocks(rng: Random, weights: dict[str, int], blocks: int) -> list[str]:
    slots: list[str] = []
    for _ in range(blocks):
        block = [cat for cat, w in weights.items() for _ in range(w)]
        rng.shuffle(block)
        slots.extend(block)
    return slots


# -- separate ----------------------------------------------------------------------

SEPARATE_WEIGHTS = {  # per 38 requests
    "sep-1d": 6, "sep-2d": 12, "hsep-2d": 4, "sep-3d": 10,
    "overlap-1d": 2, "overlap-2d": 2, "overlap-3d": 2,
}
SEPARATE_BLOCKS = 5


def _balanced_separations(rng: Random, dim: int, count: int) -> list:
    """``count`` pairs from ``rand_separation_instance``, B's sizes balanced.

    The certificate's cost grows with B's vertex counts (they multiply into
    the vertices of G = A - B + x0).  Drawn pairs are kept per
    (|V(B1)|, |V(B2)|) until every size pair the generator can draw has its
    quota, then handed out in shuffled rounds of all size pairs, so the cost
    mix is the same from seed to seed.
    """
    top = min(dim + 1, 3)
    sizes = [(k1, k2) for k1 in range(1, top + 1) for k2 in range(1, top + 1)]
    quota = -(-count // len(sizes))
    buckets: dict[tuple, list] = {s: [] for s in sizes}
    while any(len(b) < quota for b in buckets.values()):
        A, B = gen.rand_separation_instance(rng, dim)
        bucket = buckets[(len(B.p1.vertices()), len(B.p2.vertices()))]
        if len(bucket) < quota:
            bucket.append((A, B))
    pairs = []
    for _ in range(quota):
        rng.shuffle(sizes)
        pairs.extend(buckets[s].pop() for s in sizes)
    return pairs[:count]


def _touching_component(rng: Random, dim: int):
    """(A_l, B_l): the segment B_l meets the closure of A_l only at its vertex v.

    v is the unique maximizer of a direction w over A_l's points and B_l is
    [v, v + s] with w.s > 0, so the closed sets share v alone, which lies on
    the boundary of A_l.
    """
    P = gen.rand_absorbing_polytope(rng, dim)
    pts = sorted({tuple(Fraction(c) for c in p) for p in P.vertices()})
    while True:
        w = [rng.randint(-3, 3) for _ in range(dim)]
        vals = [sum(a * b for a, b in zip(w, p)) for p in pts]
        top = max(vals)
        if any(w) and vals.count(top) == 1:
            break
    v = pts[vals.index(top)]
    while True:
        s = [gen.rand_fraction(rng, -1, 1, 2) for _ in range(dim)]
        if sum(a * b for a, b in zip(w, s)) > 0:
            return P, RealPolytope.from_vertices([v, tuple(a + b for a, b in zip(v, s))])


def _touching_instance(rng: Random, dim: int):
    (a1, b1), (a2, b2) = _touching_component(rng, dim), _touching_component(rng, dim)
    return convex.DConvexSet(a1, a2, open=True), convex.DConvexSet(b1, b2)


def prepare_separate(seed: int, workdir: Path) -> list[Request]:
    rng = Random(f"separate:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    slots = _blocks(rng, SEPARATE_WEIGHTS, SEPARATE_BLOCKS)
    separations = {
        dim: _balanced_separations(
            rng, dim, sum(1 for c in slots if c in (f"sep-{dim}d", f"hsep-{dim}d")))
        for dim in (1, 2, 3)
    }
    requests = []
    for i, cat in enumerate(slots):
        kind, dim = cat.split("-")
        dim = int(dim[0])
        component = None
        if kind in ("sep", "hsep"):
            A, B = separations[dim].pop()
        else:
            A, B, component = gen.rand_overlap_instance(rng, dim)
        doc = {"A": serialize.encode_dconvex(A), "B": serialize.encode_dconvex(B)}
        sent = doc
        if kind == "hsep":  # A as halfspaces; the check keeps A's vertex list
            A_h = convex.DConvexSet(*(RealPolytope.from_halfspaces(P.halfspaces(), dim)
                                      for P in (A.p1, A.p2)), open=True)
            sent = {"A": serialize.encode_dconvex(A_h), "B": doc["B"]}
        requests.append(_pair_request(workdir / f"pair-{i:04d}.json", cat, sent, (doc, component)))
    return requests


def prepare_touching(seed: int, workdir: Path) -> list[Request]:
    """One open/closed pair per dimension meeting only on the boundary of A."""
    rng = Random(f"touching:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    requests = []
    for dim in (1, 2, 3):
        A, B = _touching_instance(rng, dim)
        doc = {"A": serialize.encode_dconvex(A), "B": serialize.encode_dconvex(B)}
        requests.append(_pair_request(workdir / f"touch-{dim}d.json", f"touch-{dim}d", doc,
                                      (doc, None)))
    return requests


def _pair_request(path: Path, category: str, sent: dict, expect) -> Request:
    path.write_text(json.dumps(sent), encoding="utf-8")
    return Request(category, str(path), expect)


def run_separate(payload: str):
    out, err = io.StringIO(), io.StringIO()
    rc = cli.cmd_separate(payload, out=out, err=err)
    return rc, out.getvalue()


def check_separate(req: Request, output) -> str | None:
    rc, text = output
    doc, component = req.expect
    if req.category.startswith("overlap"):
        if rc != 1:
            return f"exit {rc}, expected 1"
        return check.check_witness(doc, text, component)
    if rc != 0:
        return f"exit {rc}, expected 0"
    return check.check_certificate(doc, text, touching=req.category.startswith("touch"))


# -- gauge -------------------------------------------------------------------------

GAUGE_WEIGHTS = {"hrep-2d": 3, "hrep-3d": 4, "vrep-2d": 6, "vrep-3d": 7}  # per 20
GAUGE_BLOCKS = 8


def _hrep_component(rng: Random, dim: int) -> dict:
    """A bounded halfspace list with 0 interior: axis faces plus two random cuts."""
    faces = []
    for c in range(dim):
        for sign in (1, -1):
            a = [0] * dim
            a[c] = sign
            faces.append((a, gen.rand_fraction(rng, 1, 3, 4)))
    while len(faces) < 2 * dim + 2:
        a = [rng.randint(-3, 3) for _ in range(dim)]
        if any(a):
            faces.append((a, gen.rand_fraction(rng, 1, 3, 4)))
    return {"halfspaces": [
        {"a": [encode_real(Fraction(x)) for x in a], "b": encode_real(b)} for a, b in faces
    ]}


def prepare_gauge(seed: int, workdir: Path) -> list[Request]:
    rng = Random(f"gauge:{seed}")
    requests = []
    for cat in _blocks(rng, GAUGE_WEIGHTS, GAUGE_BLOCKS):
        kind, dim = cat.split("-")
        dim = int(dim[0])
        if kind == "vrep":
            S = serialize.encode_dconvex(gen.rand_absorbing_pair(rng, dim))
        else:
            S = {"p1": _hrep_component(rng, dim), "p2": _hrep_component(rng, dim), "open": False}
        points = [serialize.encode_dvector(gen.rand_dvector(rng, dim)) for _ in range(GAUGE_POINTS)]
        doc = {"set": S, "points": points}
        requests.append(Request(cat, json.dumps(doc), doc))
    return requests


def run_gauge(payload: str):
    doc = json.loads(payload)
    S = serialize.decode_dconvex(doc["set"], where="set")
    values = []
    for p in doc["points"]:
        q = convex.minkowski_gauge(S, serialize.decode_dvector(p, where="point")).hyper()
        values.append((str(q.a1), str(q.a2)))
    return tuple(values)


def check_gauge(req: Request, output) -> str | None:
    return check.check_gauge(req.expect, list(output))


# -- verify ------------------------------------------------------------------------

VERIFY_WEIGHTS = {"order": 4, "algebra": 3, "metric": 6, "linear": 6, "theorems": 1}  # per 20
VERIFY_CASES = {"order": 10, "algebra": 4, "metric": 3, "linear": 3, "theorems": 6}
VERIFY_BLOCKS = 50  # 1000 requests, about one run's worth: 50 theorems seeds


def prepare_verify(seed: int, workdir: Path) -> list[Request]:
    rng = Random(f"verify:{seed}")
    return [
        Request(suite, (suite, rng.randrange(2**31), VERIFY_CASES[suite]))
        for suite in _blocks(rng, VERIFY_WEIGHTS, VERIFY_BLOCKS)
    ]


def run_verify(payload):
    suite, seed, cases = payload
    out = io.StringIO()
    rc = cli.cmd_verify(suite, seed, cases, "exact", fmt="json", out=out)
    return rc, out.getvalue()


def check_verify(req: Request, output) -> str | None:
    rc, text = output
    if rc != 0:
        return f"exit {rc}, expected 0"
    return check.check_report(text)


@dataclass(frozen=True)
class Workload:
    prepare: Callable[[int, Path], list[Request]]
    run: Callable[[Any], Any]
    check: Callable[[Request, Any], "str | None"]


WORKLOADS = {
    "separate": Workload(prepare_separate, run_separate, check_separate),
    "gauge": Workload(prepare_gauge, run_gauge, check_gauge),
    "verify": Workload(prepare_verify, run_verify, check_verify),
}
