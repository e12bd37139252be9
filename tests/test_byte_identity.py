"""Byte-identity guard: certificates and reports hash to recorded digests.

The digests were recorded with the `Fraction` Gauss-Jordan simplex, before
the fraction-free integer kernel replaced it.  Bland's rule picks the same
pivots on both, so every separation certificate, every witness record, every
halfspace list written by facet enumeration and every verify report (apart
from ``wall_time_s``) must come out byte for byte the same.  A failing digest
means an output changed; find which with ``_separate_stream`` or
``_verify_stream`` and compare against the parent commit.
"""

import hashlib
import io
import json
from random import Random

import pytest

from bicomplex import generators as gen
from bicomplex.backend import EXACT
from bicomplex.cli import cmd_separate, cmd_verify
from bicomplex.convex import DConvexSet
from bicomplex.polytope import RealPolytope
from bicomplex.serialize import encode_dconvex

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


@pytest.mark.parametrize("group", sorted(SEPARATE_DIGESTS))
def test_separate_outputs_unchanged(group, tmp_path):
    digest = hashlib.sha256(_separate_stream(group, tmp_path)).hexdigest()
    assert digest == SEPARATE_DIGESTS[group]


@pytest.mark.parametrize("suite", sorted(VERIFY_DIGESTS))
def test_verify_reports_unchanged(suite):
    digest = hashlib.sha256(_verify_stream(suite)).hexdigest()
    assert digest == VERIFY_DIGESTS[suite]
