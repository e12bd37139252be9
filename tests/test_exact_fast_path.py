"""The exact fast path of the scalar kernel against the code it replaced.

`bicomplex.backend` compares two exact operands by cross-multiplying
numerators and denominators, and `ComplexScalar` builds each exact product
and ``abs2`` component as one `Fraction`.  `tests/fraction_reference.py`
keeps the kernel as it was, on `Fraction`'s operators.  Both must give the
same value, the same type (``int`` only when every operand is an ``int``)
and the same repr, or raise the same error, on ``int``, `Fraction`, mixed,
zero, negative, ``bool`` and ``float`` operands.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_reference as ref
from bicomplex import backend
from bicomplex.scalars import ComplexScalar

SMALL = st.integers(-12, 12)
REALS = st.one_of(
    SMALL,
    st.integers(-(2**80), 2**80),
    st.fractions(max_denominator=50),
    st.fractions(),
    st.booleans(),
    st.floats(-1e6, 1e6),
    st.floats(),  # nan, ±inf and the extremes
)
SQUARES = st.one_of(SMALL.map(lambda n: n * n), st.fractions(max_denominator=50).map(lambda q: q * q))

SETTINGS = settings(max_examples=400, deadline=None, derandomize=True)


def outcome(fn, *args):
    """What a call gives: the error raised, or the value's type, repr and,
    for a complex result, the types of its components."""
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the raised error is the outcome
        return ("raises", type(exc), str(exc))
    parts = (type(value.re), type(value.im)) if isinstance(value, ComplexScalar) else ()
    return (type(value), repr(value), parts)


def partners(a, b):
    """b, and values that two random draws rarely give: a itself, -a, a in
    the other exact type, and the reciprocal (numerator and denominator
    swapped)."""
    yield from (b, a, -a)
    if type(a) in (int, Fraction):
        yield int(a) if type(a) is Fraction and a.denominator == 1 else Fraction(a)
        if a:
            yield Fraction(a.denominator, a.numerator)


@SETTINGS
@given(a=REALS, b=REALS)
def test_comparisons_match_the_fraction_operators(a, b):
    assert outcome(backend.is_exact, a) == outcome(ref.is_exact, a)
    for c in partners(a, b):
        for new, old in ((backend.req, ref.req), (backend.rle, ref.rle), (backend.rlt, ref.rlt)):
            assert outcome(new, a, c) == outcome(old, a, c)
            assert outcome(new, c, a) == outcome(old, c, a)


@SETTINGS
@given(x=st.one_of(REALS, SQUARES, SQUARES.map(lambda q: -q)))
def test_rsqrt_matches_the_fraction_code(x):
    assert outcome(backend.rsqrt, x) == outcome(ref.rsqrt, x)


@SETTINGS
@given(a=REALS, b=REALS, c=REALS, d=REALS)
def test_complex_product_matches_the_fraction_code(a, b, c, d):
    z, w = ComplexScalar(a, b), ComplexScalar(c, d)
    assert outcome(lambda: z * w) == outcome(ref.complex_mul, z, w)
    assert outcome(lambda: z * c) == outcome(ref.complex_mul, z, c)
    assert outcome(lambda: c * z) == outcome(ref.complex_mul, z, c)


@SETTINGS
@given(a=REALS, b=REALS)
def test_abs2_matches_the_fraction_code(a, b):
    z = ComplexScalar(a, b)
    assert outcome(z.abs2) == outcome(ref.complex_abs2, z)

