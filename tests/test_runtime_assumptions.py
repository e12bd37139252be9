"""Two behaviours of the standard library the scalar layer relies on.

* ``dataclass(frozen=True, slots=True)`` keeps an ``__init__`` written in
  the class body, so the scalars build through their slot descriptors.
* ``Random.choice`` on a sequence of length n and ``Random.randint(a, a + n - 1)``
  make the same single ``_randbelow(n)`` draw, so `generators.rand_fraction`
  keeps the rng stream of ``randint`` (``tests/test_generators.py`` checks
  the values).

Needs neither pytest nor numpy, so it also runs as a plain script on any
supported interpreter:

    PYTHONPATH=src python tests/test_runtime_assumptions.py
"""

import sys
from dataclasses import FrozenInstanceError, dataclass
from random import Random

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


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print("ok", name)
    print("Python", sys.version.split()[0], "- all passed")
