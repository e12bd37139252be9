"""Property-suite harness: green runs, determinism, and fault sensitivity."""

import io
from collections import Counter
from random import Random

import pytest

from bicomplex import metric, scalars, suites
from bicomplex.backend import EXACT, FLOAT
from bicomplex.cli import cmd_verify
from bicomplex.linear import BCLinearFunctional
from bicomplex.scalars import BicomplexScalar
from bicomplex.suites import SUITE_NAMES, run_all, run_cases, run_suite


class TestGreenRuns:
    @pytest.mark.parametrize("name", SUITE_NAMES)
    @pytest.mark.parametrize("backend", (EXACT, FLOAT))
    def test_suite_passes(self, name, backend):
        report = run_suite(name, seed=7, cases=12, backend=backend)
        assert report.ok, report.text()
        assert report.suite == name
        assert report.cases == 12
        assert report.backend == backend

    def test_run_all_covers_every_suite(self):
        reports = run_all(seed=1, cases=6)
        assert [r.suite for r in reports] == list(SUITE_NAMES)
        assert all(r.ok for r in reports)


class TestDriver:
    def test_run_cases_passes_the_run_and_numbers_the_cases(self):
        seen = []

        def probe(rec, rng):
            seen.append((rec.seed, rec.case, rec.backend, rng.random()))

        report = run_cases("probe", probe, Random("probe"), 3, 4, FLOAT)
        draws = Random("probe")
        assert seen == [(3, i, FLOAT, draws.random()) for i in range(4)]
        assert (report.suite, report.seed, report.cases, report.backend) == ("probe", 3, 4, FLOAT)
        assert report.ok

    def test_a_case_that_raises_is_a_failure_and_the_run_goes_on(self, monkeypatch):
        def broken(Z):
            raise ZeroDivisionError("patched inverse")

        monkeypatch.setattr(suites, "bc_inverse", broken)
        report = run_suite("algebra", seed=5, cases=4)
        assert not report.ok
        raised = [r for r in report.failures if r["observed"] == "'ZeroDivisionError: patched inverse'"]
        assert [r["case"] for r in raised] == [0, 1, 2, 3]
        assert {r["property"] for r in raised} == {"algebra-case"}
        out = io.StringIO()
        assert cmd_verify("algebra", 5, 4, EXACT, out=out) == 1
        assert "ZeroDivisionError" in out.getvalue()


class TestReports:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("nonsense", seed=0, cases=1)

    def test_as_dict_deterministic_modulo_wall_time(self):
        a = run_suite("algebra", seed=11, cases=20).as_dict()
        b = run_suite("algebra", seed=11, cases=20).as_dict()
        a.pop("wall_time_s")
        b.pop("wall_time_s")
        assert a == b

    def test_different_seeds_still_pass(self):
        for seed in (0, 1, 2):
            assert run_suite("order", seed=seed, cases=10).ok

    def test_text_format(self):
        report = run_suite("metric", seed=3, cases=10)
        line = report.text()
        assert "suite=metric" in line
        assert "PASS" in line


class TestFaultSensitivity:
    def test_swapped_product_is_caught(self, monkeypatch):
        orig = scalars.bc_mul

        def swapped(Z, W):
            R = orig(Z, W)
            return BicomplexScalar(R.z2, R.z1)

        monkeypatch.setattr(scalars, "bc_mul", swapped)
        report = run_suite("algebra", seed=5, cases=8)
        assert not report.ok
        props = {rec["property"] for rec in report.failures}
        assert props  # at least one ring/modulus law must object
        text = report.text()
        assert "FAIL" in text and "expected" in text

    def test_report_failure_records_carry_context(self, monkeypatch):
        orig = scalars.bc_mul
        monkeypatch.setattr(
            scalars, "bc_mul", lambda Z, W: BicomplexScalar(orig(Z, W).z2, orig(Z, W).z1)
        )
        report = run_suite("algebra", seed=5, cases=4)
        assert report.failures
        rec = report.failures[0]
        assert {"case", "property", "inputs", "expected", "observed"} <= set(rec)


class TestEachValueOnce:
    """A case binds each checked value once and passes the same object to the
    condition and as ``observed``, so no call repeats with equal arguments."""

    @staticmethod
    def _peak_calls(name, case, calls):
        """The highest count in ``calls`` (keyed by argument repr) in each of
        8 cases of the seed-7 stream."""
        peaks = []

        def counted_case(rec, rng):
            calls.clear()
            case(rec, rng)
            peaks.append(max(calls.values()))

        report = run_cases(name, counted_case, Random(f"{name}:7"), 7, 8)
        assert report.ok, report.text()
        return peaks

    @staticmethod
    def _counting(calls, f):
        def counted(*args):
            calls[repr(args)] += 1
            return f(*args)
        return counted

    def test_metric_case_measures_each_pair_once(self, monkeypatch):
        calls = Counter()
        counted = self._counting(calls, metric.dmetric)
        monkeypatch.setattr(suites, "dmetric", counted)
        monkeypatch.setattr(metric, "dmetric", counted)  # dnorm and ball_contains
        assert self._peak_calls("metric", suites.metric_case, calls) == [1] * 8

    def test_linear_case_evaluates_each_functional_value_once(self, monkeypatch):
        calls = Counter()
        monkeypatch.setattr(BCLinearFunctional, "__call__", self._counting(calls, BCLinearFunctional.__call__))
        assert self._peak_calls("linear", suites.linear_case, calls) == [1] * 8
