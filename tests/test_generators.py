"""`generators.rand_fraction` draws from a table built once per bounds.

`rng.choice(table)` makes the one ``_randbelow`` draw that
``rng.randint(lo * den, hi * den)`` makes, so every value and the rng state
after it are those of ``Fraction(rng.randint(lo * den, hi * den), den)``.
"""

import inspect
from fractions import Fraction
from random import Random

from bicomplex import generators as gen
from bicomplex import suites

# Every (lo, hi, den) the generators and suites draw with, and two the tests use.
DRAWN = {(-4, 4, 4), (0, 3, 4), (-3, 3, 4), (-2, 2, 2), (-2, 2, 4), (-3, -1, 4), (1, 3, 4), (0, 2, 4)}
USED = DRAWN | {(-1, 1, 4), (-3, 3, 3)}


def _randint_fraction(rng, lo=-4, hi=4, den=4):
    return Fraction(rng.randint(lo * den, hi * den), den)


def test_draws_and_rng_state_match_randint():
    for lo, hi, den in sorted(USED):
        for seed in range(20):
            table_rng, randint_rng = Random(f"draw:{seed}"), Random(f"draw:{seed}")
            for _ in range(50):
                got, want = gen.rand_fraction(table_rng, lo, hi, den), _randint_fraction(randint_rng, lo, hi, den)
                assert got == want and type(got) is Fraction and repr(got) == repr(want)
            assert table_rng.getstate() == randint_rng.getstate()
            assert table_rng.random() == randint_rng.random()


def test_default_bounds_match_randint():
    table_rng, randint_rng = Random("defaults"), Random("defaults")
    assert [gen.rand_fraction(table_rng) for _ in range(500)] == [_randint_fraction(randint_rng) for _ in range(500)]
    assert table_rng.getstate() == randint_rng.getstate()


def test_every_bound_drawn_with_is_covered(monkeypatch):
    seen = set()
    draw, signature = gen.rand_fraction, inspect.signature(gen.rand_fraction)

    def recording(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        seen.add(tuple(bound.arguments[k] for k in ("lo", "hi", "den")))
        return draw(*args, **kwargs)

    monkeypatch.setattr(gen, "rand_fraction", recording)
    for name in suites.SUITE_NAMES:
        suites.run_suite(name, 1, 11)
    rng = Random("bounds")
    for dim in (1, 2, 3):
        gen.rand_separation_instance(rng, dim)
        gen.rand_overlap_instance(rng, dim)
    assert seen == DRAWN, seen ^ DRAWN
