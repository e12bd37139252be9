"""Byte-identity guard: certificates and reports hash to recorded digests.

The digests were recorded with the `Fraction` Gauss-Jordan simplex, before
the fraction-free integer kernel replaced it.  Bland's rule picks the same
pivots on both, so every separation certificate, every witness record, every
halfspace list written by facet enumeration and every verify report (apart
from ``wall_time_s``) must come out byte for byte the same.

The gauge digests were recorded with per-query gauges, before each polytope
cached its absorbency, vertex columns and integer faces: every `cmd_gauge`
output and every gauge value, with its type, must stay the same under both
backends.

A failing digest means an output changed; find which with
``_separate_stream``, ``_gauge_stream`` or ``_verify_stream`` and compare
against the parent commit.
"""

import hashlib
import io
import json
from fractions import Fraction
from random import Random

import pytest

from bicomplex import generators as gen
from bicomplex.backend import EXACT, FLOAT
from bicomplex.cli import cmd_gauge, cmd_separate, cmd_verify
from bicomplex.convex import DConvexSet, minkowski_gauge
from bicomplex.errors import NotAbsorbingError
from bicomplex.polytope import Halfspace, RealPolytope
from bicomplex.serialize import decode_dconvex, decode_dvector, encode_dconvex, encode_dvector
from bicomplex.vectors import DVector

PAIRS_PER_GROUP = 6

SEPARATE_DIGESTS = {
    "sep-1d": "04d9a9c443ffc5196c580ae7fcaf8144ff08c034c32c673b8d6809763ee70489",
    "sep-2d": "dcd77e8f88d49323c607290b9ed07081471d85cd1c768e0571661231dd5781dd",
    "sep-3d": "cdca2264d0539bd7a7d389a1a260a3fec691ae1b9ccf7f8d214e5529d8b0485e",
    "hsep-2d": "fc0a48b4c9bc6dea5dad6288066eb4e364cac159b3c8eeb215a9b4aced4def21",
    "hsep-3d": "29ffbbe27ab9617a13ffdb40fbfc9692af4838717f76ad5f255bed16fef31cc3",
    "overlap-1d": "f47b9abe47e71035764eafe48935fdde8de27849156ce9eb551483bee4b24938",
    "overlap-2d": "bfaf8f3ce535a08ee7b48bd651ed27ac08dc52ebd57e372df9f84fa1df9505ee",
    "overlap-3d": "80ae0bbd7762429f9ddb538db5d3048a867e655929313ac10f0ab60a8bdfb116",
}

VERIFY_DIGESTS = {
    "convex": "418d6e52771f01530b7a56bdd0bdb431ab1650ab2b6af4e0fe1f87f3052276ae",
    "separation": "0efdf5256e5a3938f34c3002e18d06859cb7c829ce2db6c582d3b76fa7a81d3e",
    "theorems": "22b83016b7f5aa6f1e287e9f782ee6c786993a59ee61c8548648e85c65a4c4d2",
}


GAUGE_SETS_PER_GROUP = 4

GAUGE_DIGESTS = {
    "hrep-2d-exact": "870814936f88dca2ee7a9caff0654ff6a7bed961e2050338b4338c647e20c510",
    "hrep-2d-float": "6a75f4e0daa85d371f159e768be01170867f7d3c7addde8959f19247ace82147",
    "hrep-3d-exact": "03535473dcfebe9cd13ed069e3aa6fd5647874c4fbeaf7d52e035b50f3bb7960",
    "hrep-3d-float": "8c6835402bf6b357f7f96aeb39ef00506f67c1a192b0b4b2fa6910656f646d0e",
    "vrep-2d-exact": "30f08a5821b979f15457999ab51700d60e125e92f79933bceb80d977fe88a161",
    "vrep-2d-float": "1b03269187162311e41a506e5d6fc9ee7ca17e6748933704187baf02e3f4719f",
    "vrep-3d-exact": "f4efadd9423a47205f30dac0c91b5f932c3b6beba3870b7f6bb659337ca18597",
    "vrep-3d-float": "88f972811f746b7433b1c74f5bec3aa38e6883ba57347ee18adf30c2c72e5d87",
}


def _pair(group: str, rng: Random) -> dict:
    kind, dim = group.split("-")
    dim = int(dim[0])
    if kind == "overlap":
        A, B, _ = gen.rand_overlap_instance(rng, dim)
    else:
        A, B = gen.rand_separation_instance(rng, dim)
    if kind == "hsep":  # A sent as the halfspaces facet enumeration writes
        A = DConvexSet(*(RealPolytope.from_halfspaces(P.halfspaces(), dim)
                         for P in (A.p1, A.p2)), open=True)
    return {"A": encode_dconvex(A), "B": encode_dconvex(B)}


def _separate_stream(group: str, tmp_path) -> bytes:
    """Input files, exit codes and outputs of `cmd_separate` on one group."""
    rng = Random(f"byte-identity:{group}")
    chunks = []
    for i in range(PAIRS_PER_GROUP):
        text = json.dumps(_pair(group, rng))
        path = tmp_path / f"{group}-{i}.json"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        rc = cmd_separate(str(path), out=out, err=err)
        chunks.append(f"{text}\n{rc}\n{out.getvalue()}{err.getvalue()}")
    return "".join(chunks).encode()


def _verify_stream(suite: str) -> bytes:
    """`cmd_verify --format json` reports for seeds 0 and 1, wall times removed."""
    chunks = []
    for seed in (0, 1):
        out = io.StringIO()
        rc = cmd_verify(suite, seed, 6, EXACT, fmt="json", out=out)
        doc = json.loads(out.getvalue())
        for report in doc["suites"]:
            report.pop("wall_time_s")
        chunks.append(f"{rc}\n{json.dumps(doc, indent=2)}\n")
    return "".join(chunks).encode()


def _gauge_set(kind: str, dim: int, rng: Random) -> DConvexSet:
    """An absorbing pair, as vertex lists or as halfspaces with rational normals."""
    S = gen.rand_absorbing_pair(rng, dim)
    if kind == "vrep":
        return S
    comps = []
    for P in (S.p1, S.p2):
        faces = []
        for h in P.halfspaces():  # each face times a random positive rational
            k = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            faces.append(Halfspace(tuple(k * x for x in h.a), k * h.b))
        comps.append(RealPolytope.from_halfspaces(faces, dim))
    return DConvexSet(*comps)


def _gauge_points(S: DConvexSet, rng: Random) -> list[DVector]:
    """Random points, the origin, a zero component, vertices and face midpoints."""
    v1, v2 = S.p1.vertices(), S.p2.vertices()
    zero = (Fraction(0),) * S.dim
    mid1 = tuple((x + y) / 2 for x, y in zip(v1[0], v1[1]))
    mid2 = tuple((x + y) / 2 for x, y in zip(v2[-1], v2[-2]))
    return [gen.rand_dvector(rng, S.dim) for _ in range(4)] + [
        DVector.from_parts(zero, zero),
        DVector.from_parts(zero, v2[0]),
        DVector.from_parts(v1[0], v2[1]),
        DVector.from_parts(mid1, mid2),
        DVector.from_parts(tuple(3 * x for x in v1[-1]), zero),
    ]


def _gauge_stream(group: str, tmp_path) -> bytes:
    """`cmd_gauge` exit codes and outputs, then the values on one shared set.

    Each group also holds its first set with one component translated by a
    vertex, which puts the origin on its boundary: every query on it must be
    refused, every time.  Sets are encoded before any conversion runs, so
    halfspace sets stay halfspace sets.
    """
    kind, dim, backend = group.split("-")
    dim = int(dim[0])
    rng = Random(f"gauge-identity:{kind}-{dim}")
    texts = [json.dumps(encode_dconvex(_gauge_set(kind, dim, rng)))
             for _ in range(GAUGE_SETS_PER_GROUP)]
    first = decode_dconvex(json.loads(texts[0]))
    edge = decode_dconvex(json.loads(texts[0])).p1.vertices()[0]
    moved = DConvexSet(first.p1.translate(tuple(-x for x in edge)), first.p2)
    texts.append(json.dumps(encode_dconvex(moved)))
    chunks = []
    for i, set_text in enumerate(texts):
        set_path = tmp_path / f"set-{i}.json"
        set_path.write_text(set_text)
        point_texts = [json.dumps(encode_dvector(x)) for x in
                       _gauge_points(decode_dconvex(json.loads(set_text)), rng)]
        for j, point_text in enumerate(point_texts):
            point_path = tmp_path / f"point-{i}-{j}.json"
            point_path.write_text(point_text)
            out, err = io.StringIO(), io.StringIO()
            rc = cmd_gauge(str(set_path), str(point_path), backend, out=out, err=err)
            chunks.append(f"{set_text}\n{point_text}\n{rc}\n{out.getvalue()}{err.getvalue()}")
        shared = decode_dconvex(json.loads(set_text), backend)
        for point_text in point_texts:  # repr keeps the type: 0 and Fraction(0, 1) differ
            try:
                value = minkowski_gauge(shared, decode_dvector(json.loads(point_text), backend))
                chunks.append(f"{value.q1!r} {value.q2!r}\n")
            except NotAbsorbingError as exc:
                chunks.append(f"refused: {exc}\n")
    return "".join(chunks).encode()


@pytest.mark.parametrize("group", sorted(SEPARATE_DIGESTS))
def test_separate_outputs_unchanged(group, tmp_path):
    digest = hashlib.sha256(_separate_stream(group, tmp_path)).hexdigest()
    assert digest == SEPARATE_DIGESTS[group]


@pytest.mark.parametrize("group", sorted(GAUGE_DIGESTS))
def test_gauge_outputs_unchanged(group, tmp_path):
    digest = hashlib.sha256(_gauge_stream(group, tmp_path)).hexdigest()
    assert digest == GAUGE_DIGESTS[group]


@pytest.mark.parametrize("suite", sorted(VERIFY_DIGESTS))
def test_verify_reports_unchanged(suite):
    digest = hashlib.sha256(_verify_stream(suite)).hexdigest()
    assert digest == VERIFY_DIGESTS[suite]
