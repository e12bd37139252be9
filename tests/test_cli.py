"""Command-line behavior: exit codes, formats, determinism, file handling."""

import io
import json
import subprocess
import sys
from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicomplex import cli, scalars
from bicomplex.backend import EXACT, FLOAT
from bicomplex.cli import cmd_gauge, cmd_separate, cmd_verify, main
from bicomplex.analysis import separate_hyperbolic
from bicomplex.convex import DConvexSet, difference_body, minkowski_gauge
from bicomplex.errors import BicomplexError, LPUnboundedError
from bicomplex.generators import (
    rand_absorbing_pair,
    rand_absorbing_polytope,
    rand_dvector,
    rand_separation_instance,
)
from bicomplex.polytope import RealPolytope
from bicomplex.scalars import BicomplexScalar, HyperbolicScalar
from bicomplex.serialize import (
    decode_certificate,
    decode_dconvex,
    decode_dvector,
    encode_dconvex,
    encode_dvector,
)
from bicomplex.vectors import DVector

import fraction_reference

F = Fraction


def h(a, b):
    return HyperbolicScalar(F(a), F(b))


# JSON number tokens that json.load accepts but that are not finite reals
NONFINITE = ("Infinity", "-Infinity", "NaN", "1e400")


def box_pair(dim=1, lo=-1, hi=1, open_flag=False) -> DConvexSet:
    B = RealPolytope.box(dim, F(lo), F(hi))
    return DConvexSet(B, B, open=open_flag)


def point_pair(p1, p2) -> DConvexSet:
    return DConvexSet(
        RealPolytope.from_vertices([tuple(F(c) for c in p1)]),
        RealPolytope.from_vertices([tuple(F(c) for c in p2)]),
    )


def write_json(tmp_path, name, obj) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def write_pair(tmp_path, A, B) -> str:
    return write_json(tmp_path, "pair.json", {"A": encode_dconvex(A), "B": encode_dconvex(B)})


def _vrep(points) -> dict:
    return {"vertices": [[str(c) for c in p] for p in points]}


def _touching_component(rng: Random, dim: int):
    """(A_l, B_l) vertex lists: B_l meets the closure of A_l only at its vertex v.

    v is the unique maximizer of a direction w over A_l's vertices, and B_l
    is v with one or two more points p, each with w.p > w.v.
    """
    A = [tuple(F(c) for c in p) for p in rand_absorbing_polytope(rng, dim).vertices()]
    while True:
        w = [rng.randint(-3, 3) for _ in range(dim)]
        values = [sum(a * c for a, c in zip(w, p)) for p in A]
        if any(w) and values.count(max(values)) == 1:
            break
    v = A[values.index(max(values))]
    B = [v]
    while len(B) < 1 + rng.randint(1, min(dim, 2)):
        p = tuple(c + F(rng.randint(-4, 4), 4) for c in v)
        if sum(a * (x - c) for a, x, c in zip(w, p, v)) > 0 and p not in B:
            B.append(p)
    return A, B


def _vbox(dim: int, lo, hi) -> dict:
    return _vrep(product((F(lo), F(hi)), repeat=dim))


def _vcross(dim: int, center) -> dict:
    """The cross-polytope conv(center +- e_i): the points with sum |x_i - c_i| <= 1."""
    return _vrep(tuple(c + s * (i == j) for j, c in enumerate(center))
                 for i in range(dim) for s in (1, -1))


def _certificate_fault(pair: dict, text: str):
    """Plain-Fraction check on the input vertices: f <= gamma on A, gamma <= f
    on B, and f nonzero in each component; None when the certificate holds."""
    doc = json.loads(text)
    coeffs = [[F(c[e]) for c in doc["f"]["coeffs"]] for e in ("e1", "e2")]
    gamma = [F(doc["gamma"][e]) for e in ("e1", "e2")]
    for l, key in enumerate(("p1", "p2")):
        f = coeffs[l]
        if not any(f):
            return f"f is zero in component {l + 1}"
        value = [sum(a * F(c) for a, c in zip(f, p)) for p in pair["A"][key]["vertices"]]
        if max(value) > gamma[l]:
            return f"f exceeds gamma on A.{key}"
        value = [sum(a * F(c) for a, c in zip(f, p)) for p in pair["B"][key]["vertices"]]
        if min(value) < gamma[l]:
            return f"f drops below gamma on B.{key}"
    return None


class TestVerify:
    def test_green_run_via_main(self, capsys):
        rc = main(["verify", "--suite", "order", "--seed", "3", "--cases", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "suite=order" in out
        assert "1/1 suites passed" in out

    def test_json_format(self):
        buf = io.StringIO()
        rc = cmd_verify("order", 3, 8, EXACT, fmt="json", out=buf)
        assert rc == 0
        doc = json.loads(buf.getvalue())
        assert doc["ok"] is True
        assert doc["seed"] == 3 and doc["cases"] == 8 and doc["backend"] == EXACT
        assert [s["suite"] for s in doc["suites"]] == ["order"]

    def test_report_file_deterministic_modulo_wall_time(self, tmp_path):
        paths = [str(tmp_path / "r1.json"), str(tmp_path / "r2.json")]
        for p in paths:
            rc = cmd_verify("metric", 9, 10, EXACT, report=p, out=io.StringIO())
            assert rc == 0
        docs = [json.loads(open(p).read()) for p in paths]
        for doc in docs:
            for s in doc["suites"]:
                s.pop("wall_time_s")
        assert docs[0] == docs[1]

    def test_failure_exits_one(self, monkeypatch):
        orig = scalars.bc_mul
        monkeypatch.setattr(
            scalars, "bc_mul", lambda Z, W: BicomplexScalar(orig(Z, W).z2, orig(Z, W).z1)
        )
        buf = io.StringIO()
        rc = cmd_verify("algebra", 3, 6, EXACT, out=buf)
        assert rc == 1
        assert "FAIL" in buf.getvalue()

    def test_bad_suite_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("cases", ["0", "-3", "two"])
    def test_nonpositive_cases_exit_two(self, cases, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "order", "--cases", cases])
        assert exc.value.code == 2
        assert "--cases" in capsys.readouterr().err

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestSeparate:
    def test_certificate_to_stdout(self, tmp_path):
        path = write_pair(tmp_path, box_pair(open_flag=True), point_pair((3,), (5,)))
        buf = io.StringIO()
        rc = cmd_separate(path, out=buf)
        assert rc == 0
        doc = json.loads(buf.getvalue())
        assert doc["status"] == "separated"
        cert = decode_certificate(doc)
        assert cert.gamma == h(1, 1)
        assert cert.f.component(1) == (F(1, 3),)

    def test_certificate_to_file(self, tmp_path):
        path = write_pair(tmp_path, box_pair(open_flag=True), point_pair((3,), (5,)))
        dest = tmp_path / "cert.json"
        rc = cmd_separate(path, output=str(dest), out=io.StringIO())
        assert rc == 0
        doc = json.loads(dest.read_text())
        assert doc["status"] == "separated"

    def test_overlap_writes_witness(self, tmp_path):
        path = write_pair(tmp_path, box_pair(dim=2, open_flag=True), point_pair((0, 0), (0, 0)))
        buf = io.StringIO()
        rc = cmd_separate(path, out=buf)
        assert rc == 1
        doc = json.loads(buf.getvalue())
        assert doc["status"] == "not-disjoint"
        assert doc["component"] in (1, 2)
        assert doc["witness"] == ["0", "0"]

    def test_closed_first_set(self, tmp_path):
        path = write_pair(tmp_path, box_pair(), point_pair((3,), (3,)))
        buf = io.StringIO()
        rc = cmd_separate(path, out=buf)
        assert rc == 1
        assert json.loads(buf.getvalue())["status"] == "not-open"

    def test_touching_pair_is_separated(self, tmp_path):
        # A = (-1, 1) open and B = [1, 2] share only A's boundary point 1
        path = write_pair(tmp_path, box_pair(open_flag=True), box_pair(lo=1, hi=2))
        buf = io.StringIO()
        assert cmd_separate(path, out=buf) == 0
        doc = json.loads(buf.getvalue())
        third = {"e1": "2/3", "e2": "2/3"}
        assert doc["status"] == "separated"
        assert doc["f"] == {"coeffs": [third]}
        assert doc["gamma"] == doc["sup_A"] == third

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_seeded_touching_pairs_are_separated(self, dim, tmp_path):
        rng = Random(f"cli-touching:{dim}")
        for i in range(4):
            parts = [_touching_component(rng, dim) for _ in (1, 2)]
            pair = {
                "A": {"p1": _vrep(parts[0][0]), "p2": _vrep(parts[1][0]), "open": True},
                "B": {"p1": _vrep(parts[0][1]), "p2": _vrep(parts[1][1])},
            }
            path = write_json(tmp_path, f"touch-{i}.json", pair)
            buf = io.StringIO()
            assert cmd_separate(path, out=buf) == 0
            assert _certificate_fault(pair, buf.getvalue()) is None
            doc = json.loads(buf.getvalue())
            assert doc["sup_A"] == doc["gamma"]  # the closures do touch

    @pytest.mark.parametrize("B1, B2, component, witness", [
        ((F(-1, 2), F(1, 2)), (5, 6), 1, ["0", "0"]),
        ((5, 6), (F(-1, 2), F(1, 2)), 2, ["0", "0"]),
        ((0, 3), (F(-1, 2), F(1, 2)), 1, ["3/5", "3/5"]),
        ((F(-1, 2), F(1, 2)), (F(-1, 2), F(1, 2)), 1, ["0", "0"]),
    ])
    def test_coinciding_centroids_keep_the_component_order(self, B1, B2, component, witness,
                                                           tmp_path):
        # squares [lo, hi]^2; A's centroid is 0, and B's is 0 in at least one
        # component, where x0 is 0: component 1 is still decided first
        A = box_pair(dim=2, open_flag=True)
        B = DConvexSet(RealPolytope.box(2, F(B1[0]), F(B1[1])),
                       RealPolytope.box(2, F(B2[0]), F(B2[1])))
        buf = io.StringIO()
        assert cmd_separate(write_pair(tmp_path, A, B), out=buf) == 1
        assert json.loads(buf.getvalue()) == {
            "status": "not-disjoint",
            "component": component,
            "witness": witness,
            "message": f"components {component} of A and B intersect",
        }

    def test_trace_gauge_is_the_gauge_of_the_difference_body(self):
        """The trace's qg_x0, 1/max of f over G, equals the gauge LP of G
        at x0, which separation no longer solves; it is 1 on touching pairs."""
        rng = Random("trace-gauge")
        pairs = []
        for dim in (1, 2, 3, 4):
            for i in range(4):
                A, B = rand_separation_instance(rng, dim)
                if i % 2:
                    A = DConvexSet(*(RealPolytope.from_halfspaces(P.halfspaces(), dim)
                                     for P in (A.p1, A.p2)), open=True)
                pairs.append((A, B, False))
        for dim in (1, 2, 3):
            for _ in range(4):
                parts = [_touching_component(rng, dim) for _ in (1, 2)]
                A = decode_dconvex({"p1": _vrep(parts[0][0]), "p2": _vrep(parts[1][0]),
                                    "open": True})
                B = decode_dconvex({"p1": _vrep(parts[0][1]), "p2": _vrep(parts[1][1])})
                pairs.append((A, B, True))
        for A, B, touching in pairs:
            cert = separate_hyperbolic(A, B)
            G, a0, b0 = difference_body(A, B)
            gauge = minkowski_gauge(G, b0 - a0).hyper()
            assert cert.trace["qg_x0"] == gauge, (A, B)
            one = HyperbolicScalar(1, 1)
            assert cert.trace["qg_x0"] == one / (one + cert.sup_A - cert.gamma), (A, B)
            assert (gauge == HyperbolicScalar(1, 1)) is touching, (A, B)

    def test_json_float_input_gives_exact_extrema(self, tmp_path):
        # the JSON number 1e17 is read at its exact binary value, 10**17, so
        # sup_A is not rounded and 1 + sup_A - gamma is the exact qg_x0
        pair = {"A": {"p1": _vbox(1, -1, 1), "p2": _vbox(1, -1, 1), "open": True},
                "B": {"p1": {"vertices": [[1e17]]}, "p2": {"vertices": [[3]]}}}
        buf = io.StringIO()
        assert cmd_separate(write_json(tmp_path, "far.json", pair), out=buf) == 0
        doc = json.loads(buf.getvalue())
        assert doc["sup_A"] == {"e1": "1/100000000000000000", "e2": "1/3"}
        assert doc["trace"]["qg_x0"] == {"e1": "100000000000000000", "e2": "3"}

    def test_polytope_with_both_representations_exits_two(self, tmp_path):
        pair = {"A": {"p1": _vbox(1, -1, 1), "p2": _vbox(1, -1, 1), "open": True},
                "B": {"p1": {"vertices": [[-1], [1]], "halfspaces": "garbage"},
                      "p2": {"vertices": [[3]]}}}
        buf, err = io.StringIO(), io.StringIO()
        assert cmd_separate(write_json(tmp_path, "both.json", pair), out=buf, err=err) == 2
        assert buf.getvalue() == ""
        assert err.getvalue().startswith("error: B.p1: need either vertices or halfspaces")

    @pytest.mark.parametrize("A, B, error", [
        # an empty H-rep component of B: x <= 0 and -x <= -1
        ({"halfspaces": [{"a": [1], "b": 1}, {"a": [-1], "b": 1}]},
         {"halfspaces": [{"a": [1], "b": 0}, {"a": [-1], "b": -1}]}, "EmptySetError"),
        # an unbounded H-rep component of A: x <= 1
        ({"halfspaces": [{"a": [1], "b": 1}]}, {"vertices": [[3]]}, "LPUnboundedError"),
    ])
    def test_unusable_component_is_refused(self, A, B, error, tmp_path):
        box = {"vertices": [[-1], [1]]}
        path = write_json(tmp_path, "pair.json", {
            "A": {"p1": box, "p2": A, "open": True},
            "B": {"p1": {"vertices": [[3]]}, "p2": B},
        })
        buf, err = io.StringIO(), io.StringIO()
        assert cmd_separate(path, out=buf, err=err) == 1
        doc = json.loads(buf.getvalue())
        assert doc["status"] == "refused" and doc["error"] == error
        assert doc["message"] and err.getvalue() == ""

    @pytest.mark.parametrize("dim", [4, 5])
    def test_vertex_pairs_above_three_dimensions(self, dim, tmp_path):
        """Dimensions past 3 separate or give a witness, whether the sets come
        as vertices or as halfspaces."""
        origin, far = [F(0)] * dim, [F(3)] + [F(0)] * (dim - 1)
        separated = [(_vbox(dim, -1, 1), _vbox(dim, 2, 3), _vbox(dim, 2, 3)),
                     (_vcross(dim, origin), _vcross(dim, far), _vcross(dim, far))]
        for i, (A, B1, B2) in enumerate(separated):
            pair = {"A": {"p1": A, "p2": A, "open": True}, "B": {"p1": B1, "p2": B2}}
            buf = io.StringIO()
            assert cmd_separate(write_json(tmp_path, f"sep-{i}.json", pair), out=buf) == 0
            assert _certificate_fault(pair, buf.getvalue()) is None
        # component 1 apart, component 2 reaching 1/2 into the box; the box
        # as vertices, then as halfspaces
        near = [F(3, 2)] + [F(0)] * (dim - 1)
        faces = {"halfspaces": [{"a": [s * (i == j) for j in range(dim)], "b": 1}
                                for i in range(dim) for s in (1, -1)]}
        for box in (_vbox(dim, -1, 1), faces):
            pair = {"A": {"p1": box, "p2": box, "open": True},
                    "B": {"p1": _vcross(dim, far), "p2": _vcross(dim, near)}}
            buf = io.StringIO()
            assert cmd_separate(write_json(tmp_path, "overlap.json", pair), out=buf) == 1
            doc = json.loads(buf.getvalue())
            assert doc["status"] == "not-disjoint" and doc["component"] == 2
            w = [F(c) for c in doc["witness"]]
            assert all(-1 < c < 1 for c in w)  # inside the open box
            assert sum(abs(c - n) for c, n in zip(w, near)) <= 1  # inside the cross-polytope
        # the box as halfspaces, apart from a box as vertices
        pair = {"A": {"p1": faces, "p2": faces, "open": True},
                "B": {"p1": _vbox(dim, 2, 3), "p2": _vbox(dim, 2, 3)}}
        buf = io.StringIO()
        assert cmd_separate(write_json(tmp_path, "hrep.json", pair), out=buf) == 0
        pair["A"] = {"p1": _vbox(dim, -1, 1), "p2": _vbox(dim, -1, 1)}  # the check reads vertices
        assert _certificate_fault(pair, buf.getvalue()) is None

    @pytest.mark.parametrize("face", [
        {"a": [1, 0], "b": 0},  # x <= 0 meets A
        {"a": [-1, 0], "b": -5},  # x >= 5 misses A
    ])
    def test_unbounded_hrep_b_is_refused_whether_or_not_it_meets_a(self, face, tmp_path):
        triangle = {"vertices": [["-1", "-1"], ["1", "-1"], ["0", "1"]]}
        path = write_json(tmp_path, "pair.json", {
            "A": {"p1": triangle, "p2": triangle, "open": True},
            "B": {"p1": {"vertices": [["5", "5"]]}, "p2": {"halfspaces": [face]}},
        })
        buf, err = io.StringIO(), io.StringIO()
        assert cmd_separate(path, out=buf, err=err) == 1
        doc = json.loads(buf.getvalue())
        assert doc["status"] == "refused" and doc["error"] == "LPUnboundedError"
        assert err.getvalue() == ""

    @pytest.mark.parametrize("flat, component", [
        # V-rep: the segment [(0, 0), (1, 0)]
        ({"vertices": [["0", "0"], ["1", "0"]]}, 1),
        # H-rep: the same segment, 0 <= x <= 1 and y = 0
        ({"halfspaces": [{"a": [1, 0], "b": 1}, {"a": [-1, 0], "b": 0},
                         {"a": [0, 1], "b": 0}, {"a": [0, -1], "b": 0}]}, 2),
    ])
    def test_flat_open_component_has_empty_interior(self, flat, component, tmp_path):
        triangle = {"vertices": [["-1", "-1"], ["1", "-1"], ["0", "1"]]}
        A = {"p1": triangle, "p2": triangle, "open": True}
        A[f"p{component}"] = flat
        far = {"vertices": [["5", "5"]]}
        path = write_json(tmp_path, "pair.json", {"A": A, "B": {"p1": far, "p2": far}})
        buf, err = io.StringIO(), io.StringIO()
        assert cmd_separate(path, out=buf, err=err) == 1
        doc = json.loads(buf.getvalue())
        assert doc["status"] == "empty-interior" and doc["component"] == component
        assert doc["message"] and err.getvalue() == ""

    def test_flat_one_dimensional_hrep_component(self, tmp_path):
        point = {"halfspaces": [{"a": [1], "b": 0}, {"a": [-1], "b": 0}]}
        path = write_json(tmp_path, "pair.json", {
            "A": {"p1": {"vertices": [["-1"], ["1"]]}, "p2": point, "open": True},
            "B": {"p1": {"vertices": [["3"]]}, "p2": {"vertices": [["3"]]}},
        })
        buf = io.StringIO()
        assert cmd_separate(path, out=buf, err=io.StringIO()) == 1
        assert json.loads(buf.getvalue())["status"] == "empty-interior"

    def test_missing_keys_exit_two(self, tmp_path):
        path = write_json(tmp_path, "bad.json", {"A": encode_dconvex(box_pair())})
        err = io.StringIO()
        rc = cmd_separate(path, out=io.StringIO(), err=err)
        assert rc == 2
        assert "error:" in err.getvalue()

    def test_junk_json_exits_two(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        assert cmd_separate(str(path), out=io.StringIO(), err=io.StringIO()) == 2

    def test_missing_file_exits_two(self, tmp_path):
        assert cmd_separate(str(tmp_path / "nope.json"), out=io.StringIO(), err=io.StringIO()) == 2

    def test_dimension_mismatch_exits_two(self, tmp_path):
        path = write_pair(tmp_path, box_pair(dim=1, open_flag=True), point_pair((3, 0), (3, 0)))
        assert cmd_separate(path, out=io.StringIO(), err=io.StringIO()) == 2


class TestGauge:
    def write_instance(self, tmp_path, S, x):
        sp = write_json(tmp_path, "set.json", encode_dconvex(S))
        xp = write_json(tmp_path, "point.json", encode_dvector(x))
        return sp, xp

    def test_exact_components(self, tmp_path):
        sp, xp = self.write_instance(tmp_path, box_pair(), DVector.of(h(2, 3)))
        buf = io.StringIO()
        assert cmd_gauge(sp, xp, out=buf) == 0
        assert buf.getvalue() == "2 3\n"

    def test_zero_point(self, tmp_path):
        sp, xp = self.write_instance(tmp_path, box_pair(), DVector.of(h(0, 0)))
        buf = io.StringIO()
        assert cmd_gauge(sp, xp, out=buf) == 0
        assert buf.getvalue() == "0 0\n"

    def test_fractional_output(self, tmp_path):
        sp, xp = self.write_instance(tmp_path, box_pair(), DVector.of(h(F(1, 2), F(3, 4))))
        buf = io.StringIO()
        assert cmd_gauge(sp, xp, out=buf) == 0
        assert buf.getvalue() == "1/2 3/4\n"

    def test_float_backend(self, tmp_path):
        sp, xp = self.write_instance(tmp_path, box_pair(), DVector.of(h(2, 3)))
        buf = io.StringIO()
        assert cmd_gauge(sp, xp, backend=FLOAT, out=buf) == 0
        assert buf.getvalue() == "2.0 3.0\n"

    def test_not_absorbing_exits_one(self, tmp_path):
        sp, xp = self.write_instance(tmp_path, point_pair((2,), (2,)), DVector.of(h(1, 1)))
        err = io.StringIO()
        assert cmd_gauge(sp, xp, out=io.StringIO(), err=err) == 1
        assert "error:" in err.getvalue()

    def test_other_library_error_exits_one(self, tmp_path, monkeypatch):
        def unbounded(S, x):
            raise LPUnboundedError("polytope is unbounded")

        monkeypatch.setattr(cli, "minkowski_gauge", unbounded)
        sp, xp = self.write_instance(tmp_path, box_pair(), DVector.of(h(1, 1)))
        out, err = io.StringIO(), io.StringIO()
        assert cmd_gauge(sp, xp, out=out, err=err) == 1
        assert out.getvalue() == "" and err.getvalue() == "error: polytope is unbounded\n"

    def test_bad_input_exits_two(self, tmp_path):
        assert cmd_gauge("missing.json", "also-missing.json",
                         out=io.StringIO(), err=io.StringIO()) == 2

    def test_dimension_mismatch_exits_two(self, tmp_path):
        sp, xp = self.write_instance(tmp_path, box_pair(dim=2), DVector.of(h(1, 1)))
        assert cmd_gauge(sp, xp, out=io.StringIO(), err=io.StringIO()) == 2

    @pytest.mark.parametrize("backend", (EXACT, FLOAT))
    @pytest.mark.parametrize("number", NONFINITE)
    def test_nonfinite_numbers_exit_two(self, tmp_path, backend, number):
        """JSON accepts NaN, Infinity and overflowing numbers; the decoders do not."""
        vset = {"p1": {"vertices": [["-1"], ["@"]]}, "p2": _vbox(1, -1, 1), "open": False}
        hset = encode_dconvex(box_pair())
        hset["p2"]["halfspaces"][0]["b"] = "@"
        point = {"coords": [{"e1": "@", "e2": 1}]}
        good_set, good_point = encode_dconvex(box_pair()), encode_dvector(DVector.of(h(1, 1)))
        for S, x in ((good_set, point), (vset, good_point), (hset, good_point)):
            sp = tmp_path / "set.json"
            xp = tmp_path / "point.json"
            sp.write_text(json.dumps(S).replace('"@"', number))
            xp.write_text(json.dumps(x).replace('"@"', number))
            out, err = io.StringIO(), io.StringIO()
            assert cmd_gauge(str(sp), str(xp), backend=backend, out=out, err=err) == 2
            assert out.getvalue() == "" and err.getvalue().startswith("error:")

    def test_integer_beyond_float_range_exits_two_on_the_float_backend(self, tmp_path):
        sp = write_json(tmp_path, "set.json", encode_dconvex(box_pair()))
        xp = tmp_path / "point.json"
        xp.write_text('{"coords": [{"e1": 1%s, "e2": 1}]}' % ("0" * 400))
        out, err = io.StringIO(), io.StringIO()
        assert cmd_gauge(sp, str(xp), backend=FLOAT, out=out, err=err) == 2
        assert out.getvalue() == "" and err.getvalue().startswith("error:")
        assert cmd_gauge(sp, str(xp), out=io.StringIO()) == 0  # exact: a finite rational


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bicomplex.cli", "verify", "--suite", "order", "--cases", "5"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "1/1 suites passed" in proc.stdout

    def test_separate_and_gauge_do_not_load_numpy(self, tmp_path):
        pair = write_pair(tmp_path, box_pair(dim=2, open_flag=True), point_pair((3, 0), (0, 3)))
        sp = write_json(tmp_path, "set.json", encode_dconvex(box_pair()))
        xp = write_json(tmp_path, "point.json", encode_dvector(DVector.of(h(2, 3))))
        script = (
            "import io, sys\n"
            "import bicomplex.cli as cli\n"
            "loaded = 'numpy' in sys.modules\n"
            f"assert cli.cmd_separate({pair!r}, out=io.StringIO()) == 0\n"
            f"assert cli.cmd_gauge({sp!r}, {xp!r}, out=io.StringIO()) == 0\n"
            "print(loaded, 'numpy' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False"]

    def test_separate_and_gauge_do_not_run_the_suites(self, tmp_path):
        pair = write_pair(tmp_path, box_pair(dim=2, open_flag=True), point_pair((3, 0), (0, 3)))
        sp = write_json(tmp_path, "set.json", encode_dconvex(box_pair()))
        xp = write_json(tmp_path, "point.json", encode_dvector(DVector.of(h(2, 3))))
        # the suites module is registered lazily: it stays an unexecuted
        # placeholder, and the generators only it imports stay unloaded
        script = (
            "import io, sys, types\n"
            "import bicomplex.cli as cli\n"
            f"assert cli.cmd_separate({pair!r}, out=io.StringIO()) == 0\n"
            f"assert cli.cmd_gauge({sp!r}, {xp!r}, out=io.StringIO()) == 0\n"
            "print(type(sys.modules['bicomplex.suites']) is types.ModuleType,\n"
            "      'bicomplex.generators' in sys.modules)\n"
            "assert cli.cmd_verify('order', 0, 2, 'exact', out=io.StringIO()) == 0\n"
            "print(type(sys.modules['bicomplex.suites']) is types.ModuleType)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False", "True"]

    def test_suite_choices_match_the_suites(self):
        from bicomplex import cli, suites

        assert cli.SUITE_NAMES == suites.SUITE_NAMES

    def test_unwritable_report_exits_two(self, tmp_path, capsys):
        rc = main(["verify", "--suite", "order", "--cases", "2",
                   "--report", str(tmp_path / "missing" / "r.json")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")

    @pytest.mark.parametrize("B", (point_pair((3,), (5,)), point_pair((0,), (0,))))
    def test_unwritable_output_exits_two(self, tmp_path, capsys, B):
        """A certificate (exit 0) or a witness record (exit 1) that cannot be written."""
        pair = write_pair(tmp_path, box_pair(open_flag=True), B)
        rc = main(["separate", pair, str(tmp_path / "missing" / "cert.json")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")

    def test_separate_takes_no_backend_flag(self, tmp_path):
        pair = write_pair(tmp_path, box_pair(open_flag=True), point_pair((3,), (5,)))
        with pytest.raises(SystemExit) as exc:
            main(["separate", "--backend", "float", pair])
        assert exc.value.code == 2

    @pytest.mark.parametrize("content", (b"\xff\xfe\x00\x7b", b"[" * 100000 + b"]" * 100000),
                             ids=("not-utf8", "nested-too-deep"))
    def test_unreadable_json_file_exits_two(self, tmp_path, capsys, content):
        """A file that is not UTF-8, or nests deeper than the JSON parser can
        recurse, is malformed input: no traceback, exit 2."""
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        sp = write_json(tmp_path, "set.json", encode_dconvex(box_pair()))
        xp = write_json(tmp_path, "point.json", encode_dvector(DVector.of(h(2, 3))))
        for argv in (["separate", str(bad)], ["gauge", str(bad), xp], ["gauge", sp, str(bad)]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error:"), argv
            assert "Traceback" not in captured.err

    def test_integer_past_the_digit_limit_exits_two(self, tmp_path, capsys):
        """A JSON integer longer than Python converts (4300 digits) is malformed
        input, not a traceback."""
        big = "1" + "0" * 4400
        pair = tmp_path / "pair.json"
        pair.write_text('{"A": {"p1": {"vertices": [[-1], [1]]}, "p2": {"vertices": [[-1], [1]]},'
                        ' "open": true}, "B": {"p1": {"vertices": [[%s]]}, "p2": {"vertices": [[3]]}}}'
                        % big)
        bad_set = tmp_path / "set.json"
        bad_set.write_text('{"p1": {"vertices": [[-1], [%s]]}, "p2": {"vertices": [[-1], [1]]}}' % big)
        xp = write_json(tmp_path, "point.json", encode_dvector(DVector.of(h(2, 3))))
        for argv in (["separate", str(pair)], ["gauge", str(bad_set), xp]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error:"), argv
            assert "4300 digits" in captured.err

    def test_exact_output_past_the_digit_limit_is_refused(self, tmp_path, capsys):
        """Inputs of 2500-digit numbers whose exact answers pass 4300 digits:
        `separate` writes a refused record and `gauge` an error line, both
        exit 1."""
        n, p = int("7" * 2500), int("3" * 2500)
        A = {"p1": _vrep([(f"-1/{n}",), (f"1/{n}",)]), "p2": _vrep([(-1,), (1,)]), "open": True}
        B = {"p1": _vrep([(f"{p}/{n + 1}",)]), "p2": _vrep([(3,)])}
        pair = write_json(tmp_path, "pair.json", {"A": A, "B": B})
        assert main(["separate", pair]) == 1
        captured = capsys.readouterr()
        record = json.loads(captured.out)
        assert (record["status"], record["error"]) == ("refused", "ValueError")
        assert "4300 digits" in record["message"] and captured.err == ""
        sp = write_json(tmp_path, "set.json", {"p1": A["p1"], "p2": A["p2"]})
        xp = write_json(tmp_path, "point.json", {"coords": [{"e1": f"{p}/{n + 1}", "e2": "1"}]})
        assert main(["gauge", sp, xp]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert "4300 digits" in captured.err

    def test_main_dispatches_gauge(self, tmp_path, capsys):
        sp = write_json(tmp_path, "set.json", encode_dconvex(box_pair()))
        xp = write_json(tmp_path, "point.json", encode_dvector(DVector.of(h(2, 3))))
        rc = main(["gauge", sp, xp])
        assert rc == 0
        assert capsys.readouterr().out == "2 3\n"


# -- fuzzing separate ------------------------------------------------------------


def _fuzz_bases() -> list[dict]:
    rng = Random("cli-fuzz")
    pairs = [rand_separation_instance(rng, dim) for dim in (1, 2, 2, 3)]
    return [{"A": encode_dconvex(A), "B": encode_dconvex(B)} for A, B in pairs]


FUZZ_BASES = _fuzz_bases()
MUTATIONS = ("flat", "empty", "4d", "mismatch", "hrep", "nonfinite")
# what json.load reads for Infinity, -Infinity, NaN and 1e400, by edited component
NONFINITE_VALUES = {("A", "p1"): float("inf"), ("A", "p2"): float("-inf"),
                    ("B", "p1"): float("nan"), ("B", "p2"): float("1e400")}


def _mutate(kind: str, doc: dict, side: str, key: str) -> None:
    """Edit the pair's vertex lists in place (halfspaces come last, by "hrep")."""
    comp = doc[side][key]
    if "vertices" not in comp:
        return
    if kind == "flat":  # every vertex moved onto x_last = 0
        comp["vertices"] = [v[:-1] + ["0"] for v in comp["vertices"]]
    elif kind == "empty":
        comp["vertices"] = []
    elif kind == "4d":  # every component lifted one dimension up, A as a prism
        for s in ("A", "B"):
            for k in ("p1", "p2"):
                c = doc[s][k]
                if "vertices" in c:
                    ends = ("-1", "1") if s == "A" else ("0",)
                    c["vertices"] = [v + [e] for v in c["vertices"] for e in ends]
    elif kind == "mismatch":
        comp["vertices"] = [v + ["0"] for v in comp["vertices"]]
    elif kind == "nonfinite" and comp["vertices"]:  # one coordinate not finite
        comp["vertices"][0][-1] = NONFINITE_VALUES[side, key]


def _as_halfspaces(comp: dict) -> dict:
    """The component as halfspaces, or unchanged when it is not full-dimensional."""
    try:
        verts = [tuple(map(F, v)) for v in comp["vertices"]]
    except (OverflowError, ValueError):  # no faces for a non-finite vertex
        return comp
    try:
        P = RealPolytope.from_vertices(verts)
        return {"halfspaces": [{"a": [str(c) for c in h.a], "b": str(h.b)}
                               for h in P.halfspaces()]}
    except BicomplexError:
        return comp


class TestSeparateFuzz:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(base=st.sampled_from(range(len(FUZZ_BASES))),
           edits=st.lists(st.tuples(st.sampled_from(MUTATIONS), st.sampled_from("AB"),
                                    st.sampled_from(("p1", "p2"))), max_size=2))
    def test_mutated_pairs_exit_cleanly(self, tmp_path_factory, base, edits):
        ref = json.loads(json.dumps(FUZZ_BASES[base]))
        for kind, side, key in edits:
            if kind != "hrep":
                _mutate(kind, ref, side, key)
        sent = json.loads(json.dumps(ref))
        for kind, side, key in edits:
            if kind == "hrep" and "vertices" in sent[side][key]:
                sent[side][key] = _as_halfspaces(sent[side][key])
        path = tmp_path_factory.mktemp("fuzz") / "pair.json"
        path.write_text(json.dumps(sent))
        buf, err = io.StringIO(), io.StringIO()
        rc = cmd_separate(str(path), out=buf, err=err)
        assert rc in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if rc == 2:
            assert err.getvalue().startswith("error:") and buf.getvalue() == ""
        else:
            assert err.getvalue() == ""
            doc = json.loads(buf.getvalue())
            assert (doc["status"] == "separated") == (rc == 0)
        if rc == 0:  # ref holds the same sets as vertex lists
            assert _certificate_fault(ref, buf.getvalue()) is None


# -- fuzzing gauge ---------------------------------------------------------------


def _gauge_fuzz_bases() -> list[dict]:
    """Absorbing vertex-list sets as "A" and a point as "B", the point kept as
    two one-vertex lists so that `_mutate` edits it as it edits a set (the
    "4d" edit lifts it with A, and "hrep" leaves it a vertex list)."""
    rng = Random("cli-fuzz:gauge")
    bases = []
    for dim in (1, 2, 2, 3):
        S, x = rand_absorbing_pair(rng, dim), rand_dvector(rng, dim)
        bases.append({"A": encode_dconvex(S), "B": encode_dconvex(point_pair(x.part1(), x.part2()))})
    return bases


GAUGE_FUZZ_BASES = _gauge_fuzz_bases()


def _point_of(B: dict) -> dict:
    """The point a gauge base keeps as B (no vertex: no coordinates)."""
    v1, v2 = ((B[k]["vertices"] or [[]])[0] for k in ("p1", "p2"))
    return {"coords": [{"e1": a, "e2": b} for a, b in zip(v1, v2)]}


class TestGaugeFuzz:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(base=st.sampled_from(range(len(GAUGE_FUZZ_BASES))),
           edits=st.lists(st.tuples(st.sampled_from(MUTATIONS), st.sampled_from("AB"),
                                    st.sampled_from(("p1", "p2"))), max_size=2))
    def test_mutated_gauge_queries_exit_cleanly(self, tmp_path_factory, base, edits):
        doc = json.loads(json.dumps(GAUGE_FUZZ_BASES[base]))
        for kind, side, key in edits:
            if kind != "hrep":
                _mutate(kind, doc, side, key)
        for kind, side, key in edits:
            if kind == "hrep" and "vertices" in doc["A"][key]:
                doc["A"][key] = _as_halfspaces(doc["A"][key])
        folder = tmp_path_factory.mktemp("fuzz-gauge")
        sp, xp = folder / "set.json", folder / "point.json"
        sp.write_text(json.dumps(doc["A"]))
        xp.write_text(json.dumps(_point_of(doc["B"])))
        buf, err = io.StringIO(), io.StringIO()
        rc = cmd_gauge(str(sp), str(xp), out=buf, err=err)
        assert rc in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if rc != 0:
            assert err.getvalue().startswith("error:") and buf.getvalue() == ""
            return
        # vertex lists against the reference LP, halfspaces against the closed form
        S, x = decode_dconvex(doc["A"]), decode_dvector(_point_of(doc["B"]))
        got = [F(token) for token in buf.getvalue().split()]
        for l in (1, 2):
            P, xl = S.component(l), x.part(l)
            if P.built_from_vertices():
                want = fraction_reference.gauge_vrep(P.vertices(), xl)
            else:
                want = fraction_reference.gauge_hrep(P.halfspaces(), xl)
            assert got[l - 1] == want, (l, doc)
