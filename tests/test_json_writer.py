"""`cli._dumps`, the one writer of every CLI JSON record, against
``json.dumps(document, indent=2)``.

* On JSON-like values (nested dicts, lists and tuples, empty containers,
  non-ASCII, control-character and lone-surrogate strings, huge ints, floats
  with -0.0, NaN and +-inf, booleans, ``None``, keys that are not strings
  and values ``json`` refuses) the writer gives the same text, or raises the
  same exception type.
* Every record `separate` writes on the seeds 1-3 pools of
  ``perfbench/workloads.py`` and their touching pairs, and every
  ``verify --format json`` report on stdout and in ``--report``, is the
  ``indent=2`` text of its own content.  The verify digests re-encode
  reports, so they do not pin this layout.
"""

import importlib.util
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicomplex import cli

SETTINGS = settings(max_examples=600, deadline=None, derandomize=True)
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class _Text(str):
    pass


STRINGS = st.one_of(
    st.text(max_size=6),
    st.text(st.characters(exclude_categories=()), max_size=6),  # lone surrogates too
    st.text(st.characters(max_codepoint=0x20), max_size=4),
    st.sampled_from(["", "\ud800", "a\udfffb", "  ", "\x7f", '"\\/', "\U0001f600", "é"]),
)
FLOATS = st.one_of(st.floats(), st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), float("-inf"),
                                                  1e308, 5e-324, 1e16, 0.1]))
# 10**4300 has 4301 digits, one past the default limit of str(int)
INTS = st.one_of(st.integers(), st.builds(lambda k, sign: sign * 10**k,
                                          st.sampled_from([4299, 4300, 5000]), st.sampled_from([1, -1])))
LEAVES = st.one_of(st.none(), st.booleans(), INTS, FLOATS, STRINGS,
                   st.sampled_from([Fraction(1, 2), _Text("t"), {1}, b"x"]))
KEYS = st.one_of(STRINGS, STRINGS, STRINGS, st.integers(-3, 3), FLOATS, st.booleans(), st.none(),
                 st.sampled_from([(1,), _Text("k")]))
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(STRINGS, inner, max_size=4),
                            st.dictionaries(KEYS, inner, max_size=3)),
    max_leaves=12,
)


def _result(write, value):
    """The text, or the class of the exception it raised."""
    try:
        return write(value)
    except Exception as exc:  # the same class is required
        return type(exc)


def _json(value):
    return json.dumps(value, indent=2)


@SETTINGS
@given(VALUES)
def test_writer_is_json_dumps_with_indent_2(value):
    assert _result(cli._dumps, value) == _result(_json, value)


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": {}, "b": [], "c": ()}, [[[]]], {"": ""}, -0.0, float("nan"),
    {"x": [float("inf"), float("-inf"), 1e-7, 123456789012345678]}, [True, False, None],
    {1: "a"}, {"a": {2.5: 1}}, {"a": [Fraction(1, 2)]}, {(1, 2): 0}, "\ud83d",
    10**4300, [10**4299],
], ids=lambda value: type(value).__name__)
def test_writer_edge_cases(value):
    assert _result(cli._dumps, value) == _result(_json, value)


def test_cycles_and_deep_nesting_raise_as_json_does():
    loop: list = []
    loop.append(loop)
    assert _result(cli._dumps, loop) is ValueError is _result(_json, loop)
    deep: list = []
    for _ in range(sys.getrecursionlimit() * 2):
        deep = [deep]
    assert _result(cli._dumps, deep) is RecursionError is _result(_json, deep)
    shallow: dict = {}
    for _ in range(50):
        shallow = {"k": [shallow]}
    assert cli._dumps(shallow) == _json(shallow)


def _workloads():
    """perfbench/workloads.py, imported from its path with perfbench's own
    modules importable."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def _is_indent_2(text: str) -> bool:
    return text == _json(json.loads(text)) + "\n"


def test_separate_records_are_indent_2_text(tmp_path):
    workloads = _workloads()
    seen = set()
    for seed in (1, 2, 3):
        requests = (workloads.prepare_separate(seed, tmp_path / f"pool-{seed}")
                    + workloads.prepare_touching(seed, tmp_path / f"touch-{seed}"))
        for request in requests:
            out, err = io.StringIO(), io.StringIO()
            code = cli.cmd_separate(request.payload, out=out, err=err)
            assert _is_indent_2(out.getvalue()), request.payload
            seen.add((code, json.loads(out.getvalue())["status"]))
    assert {(0, "separated"), (1, "not-disjoint")} <= seen


@pytest.mark.parametrize("suite", ("all",) + cli.SUITE_NAMES)
def test_verify_reports_are_indent_2_text(suite, tmp_path):
    report = tmp_path / "report.json"
    out = io.StringIO()
    cli.cmd_verify(suite, 3, 2, "exact", report=str(report), fmt="json", out=out)
    assert _is_indent_2(out.getvalue())
    assert _is_indent_2(report.read_text(encoding="utf-8"))
    assert json.loads(out.getvalue())["suites"]
