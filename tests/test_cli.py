"""Command-line behavior: exit codes, formats, determinism, file handling."""

import io
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from bicomplex import scalars
from bicomplex.backend import EXACT, FLOAT
from bicomplex.cli import cmd_gauge, cmd_separate, cmd_verify, main
from bicomplex.convex import DConvexSet
from bicomplex.polytope import RealPolytope
from bicomplex.scalars import BicomplexScalar, HyperbolicScalar
from bicomplex.serialize import decode_certificate, encode_dconvex, encode_dvector
from bicomplex.vectors import DVector

F = Fraction


def h(a, b):
    return HyperbolicScalar(F(a), F(b))


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

    def test_bad_input_exits_two(self, tmp_path):
        assert cmd_gauge("missing.json", "also-missing.json",
                         out=io.StringIO(), err=io.StringIO()) == 2

    def test_dimension_mismatch_exits_two(self, tmp_path):
        sp, xp = self.write_instance(tmp_path, box_pair(dim=2), DVector.of(h(1, 1)))
        assert cmd_gauge(sp, xp, out=io.StringIO(), err=io.StringIO()) == 2


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

    def test_main_dispatches_gauge(self, tmp_path, capsys):
        sp = write_json(tmp_path, "set.json", encode_dconvex(box_pair()))
        xp = write_json(tmp_path, "point.json", encode_dvector(DVector.of(h(2, 3))))
        rc = main(["gauge", sp, xp])
        assert rc == 0
        assert capsys.readouterr().out == "2 3\n"
