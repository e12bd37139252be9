"""Three behaviours of the standard library the library relies on.

* ``dataclass(frozen=True, slots=True)`` keeps an ``__init__`` written in
  the class body, so the scalars build through their slot descriptors.
* ``Random.choice`` on a sequence of length n and ``Random.randint(a, a + n - 1)``
  make the same single ``_randbelow(n)`` draw, so `generators.rand_fraction`
  keeps the rng stream of ``randint`` (``tests/test_generators.py`` checks
  the values).
* ``json.dumps`` spells a string as ``json.encoder.encode_basestring_ascii``
  does, an int as ``int.__repr__`` (a ``ValueError`` past the digit limit),
  a float as ``float.__repr__`` with ``NaN``, ``Infinity`` and
  ``-Infinity``, and lays out ``indent=2`` as ``cli._dumps`` writes it.

Needs neither pytest nor numpy, so it also runs as a plain script on any
supported interpreter:

    PYTHONPATH=src python tests/test_runtime_assumptions.py
"""

import json
import sys
from dataclasses import FrozenInstanceError, dataclass
from json.encoder import encode_basestring_ascii
from random import Random

from bicomplex.cli import _dumps
from bicomplex.scalars import BicomplexScalar, ComplexScalar, HyperbolicScalar


@dataclass(frozen=True, slots=True)
class _Pair:
    a: int
    b: int = 0

    def __init__(self, a, b=0):
        _set_a(self, a)
        _set_b(self, -b)


_set_a, _set_b = _Pair.a.__set__, _Pair.b.__set__


def test_dataclass_keeps_a_written_init():
    p = _Pair(1, 2)
    assert (p.a, p.b) == (1, -2) and _Pair(a=1) == _Pair(1, 0)
    assert hash(p) == hash((1, -2)) and repr(p) == "_Pair(a=1, b=-2)"
    try:
        p.a = 3
    except FrozenInstanceError:
        pass
    else:
        raise AssertionError("a frozen dataclass took an assignment")
    for cls in (ComplexScalar, HyperbolicScalar, BicomplexScalar):
        assert cls.__init__.__code__.co_filename.endswith("scalars.py"), cls


def test_choice_and_randint_draw_alike():
    for n in (1, 2, 3, 9, 17, 33, 100, 2**31 + 5):
        for seed in range(10):
            by_choice, by_randint = Random(f"{n}:{seed}"), Random(f"{n}:{seed}")
            for _ in range(20):
                assert by_choice.choice(range(n)) == by_randint.randint(-7, n - 8) + 7
            assert by_choice.getstate() == by_randint.getstate()


def test_json_spells_values_as_the_record_writer_does():
    for text in ("", "a/b", "\u00e9", "\ud800", "a\udfffb", "\x00\x1f\x7f", '"\\/', "\U0001f600", "\u2028"):
        assert encode_basestring_ascii(text) == json.dumps(text), repr(text)
    for n in (0, -1, 7, 2**64, -(10**4000)):
        assert json.dumps(n) == int.__repr__(n)
    for n in (10**4300, -(10**5000)):  # past the default limit of 4300 digits
        for spell in (json.dumps, int.__repr__):
            try:
                spell(n)
            except ValueError:
                pass
            else:
                raise AssertionError("an int past the digit limit was spelled")
    for x in (0.1, -0.0, 0.0, 1e308, 5e-324, 1e16, 1.5, -2.75e-9):
        assert json.dumps(x) == float.__repr__(x)
    assert [json.dumps(x) for x in (float("nan"), float("inf"), float("-inf"))] == [
        "NaN", "Infinity", "-Infinity"]
    assert [json.dumps(x) for x in (True, False, None)] == ["true", "false", "null"]
    record = {"a": [1, {}, (2.5, None)], "b": [], "c": {"d": "\u00e9", "e": True}}
    assert json.dumps(record, indent=2) == _dumps(record) == (
        '{\n  "a": [\n    1,\n    {},\n    [\n      2.5,\n      null\n    ]\n  ],\n'
        '  "b": [],\n  "c": {\n    "d": "\\u00e9",\n    "e": true\n  }\n}')


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print("ok", name)
    print("Python", sys.version.split()[0], "- all passed")
