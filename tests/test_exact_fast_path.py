"""The exact fast path of the scalar kernel against the code it replaced.

`bicomplex.backend` compares two exact operands by cross-multiplying
numerators and denominators, and `ComplexScalar` builds each exact product
and ``abs2`` component as one `Fraction`.  The exact dot kernel
(`backend.rdot`, `backend.rdist2`, `scalars.complex_dot`) sums the products
of the D- and BC-linear functionals and maps and the squared distances of
the D-metrics into one `Fraction` per real component, and `backend.rdiv`
builds one `Fraction` per quotient.  `tests/fraction_reference.py` keeps
that code as it was, on `Fraction`'s operators and one ring operation per
term.  Both must give the same value, the same type (``int`` only when
every operand is an ``int``), the same repr and the same float bits, or
raise the same error, on ``int``, `Fraction`, mixed, zero, negative,
``bool``, ``float`` and non-finite operands, empty vectors and mismatched
dimensions.
"""

import struct
from fractions import Fraction
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_reference as ref
from bicomplex import backend
from bicomplex import generators as gen
from bicomplex.linear import (
    BCLinearFunctional,
    BCLinearMap,
    DLinearFunctional,
    HyperbolicFunctional,
    eval_d,
    functional_dbound,
)
from bicomplex.metric import dmetric, dmetric_bc
from bicomplex.scalars import BicomplexScalar, ComplexScalar, HyperbolicScalar
from bicomplex.vectors import BCVector, DVector

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


def _leaves(value):
    """The real components of a scalar, vector or map value, in order."""
    if isinstance(value, ComplexScalar):
        return [value.re, value.im]
    if isinstance(value, HyperbolicScalar):
        return [value.a1, value.a2]
    if isinstance(value, BicomplexScalar):
        return _leaves(value.z1) + _leaves(value.z2)
    if isinstance(value, (DVector, BCVector)):
        return [t for c in value.coords for t in _leaves(c)]
    return []


def _bits(x):
    return struct.pack("<d", x) if type(x) is float else None


def outcome(fn, *args):
    """What a call gives: the error raised, or the value's type, repr and,
    for a scalar or vector result, the type and float bits of each real
    component."""
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the raised error is the outcome
        return ("raises", type(exc), str(exc))
    parts = tuple((type(t), _bits(t)) for t in _leaves(value))
    return (type(value), repr(value), parts, _bits(value))


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



# -- the exact dot kernel -------------------------------------------------------

EXACT_REALS = st.one_of(SMALL, st.integers(-(2**80), 2**80), st.fractions(max_denominator=50), st.fractions())
#: floats that round in sums and products, so any change of summation
#: order shows in the bits
ROUNDING_FLOATS = st.integers(-(10**6), 10**6).map(lambda n: n / 7)
#: the operands of one example come from one of these: all ``int``, all
#: `Fraction`, exact and mixed, floats, or anything (bools and non-finite)
POOLS = st.sampled_from([
    SMALL,
    st.fractions(max_denominator=50),
    EXACT_REALS,
    ROUNDING_FLOATS,
    st.one_of(ROUNDING_FLOATS, EXACT_REALS),
    REALS,
])
DIMS = st.integers(0, 3)
DOT_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


def _hyp(data, reals):
    return HyperbolicScalar(data.draw(reals), data.draw(reals))


def _cpx(data, reals):
    return ComplexScalar(data.draw(reals), data.draw(reals))


def _bc(data, reals):
    return BicomplexScalar(_cpx(data, reals), _cpx(data, reals))


def _dvec(data, reals, dim):
    return DVector(tuple(_hyp(data, reals) for _ in range(dim)))


def _bcvec(data, reals, dim):
    return BCVector(tuple(_bc(data, reals) for _ in range(dim)))


def _dims(data):
    """Two dimensions, equal in most examples."""
    n = data.draw(DIMS)
    return n, data.draw(st.one_of(st.just(n), DIMS))


@DOT_SETTINGS
@given(data=st.data())
def test_d_linear_sums_match_the_fraction_loops(data):
    reals = data.draw(POOLS)
    n, m = _dims(data)
    f = DLinearFunctional(_dvec(data, reals, n))
    x = _dvec(data, reals, m)
    assert outcome(eval_d, f, x) == outcome(ref.eval_d, f, x)
    assert outcome(f, x) == outcome(ref.eval_d, f, x)
    assert outcome(functional_dbound, f) == outcome(ref.functional_dbound, f)
    for l in (1, 2):
        v = x.part(l)
        assert outcome(f.eval_component, l, v) == outcome(ref.eval_component, f, l, v)


@DOT_SETTINGS
@given(data=st.data())
def test_bc_linear_sums_match_the_fraction_loops(data):
    reals = data.draw(POOLS)
    n, m = _dims(data)
    h = BCLinearFunctional(_bcvec(data, reals, n))
    x = _bcvec(data, reals, m)
    assert outcome(h, x) == outcome(ref.bc_functional_call, h, x)
    F = HyperbolicFunctional(tuple(_hyp(data, reals) for _ in range(n)),
                             tuple(_hyp(data, reals) for _ in range(n)))
    assert outcome(F, x) == outcome(ref.hyperbolic_functional_call, F, x)
    rows = data.draw(st.integers(0, 3))
    T = BCLinearMap(tuple(tuple(_bc(data, reals) for _ in range(n)) for _ in range(rows)))
    assert outcome(T, x) == outcome(ref.bc_map_call, T, x)


@DOT_SETTINGS
@given(data=st.data())
def test_d_metrics_match_the_fraction_loops(data):
    reals = data.draw(POOLS)
    n, m = _dims(data)
    x, y = _dvec(data, reals, n), _dvec(data, reals, m)
    assert outcome(dmetric, x, y) == outcome(ref.dmetric, x, y)
    assert outcome(dmetric, x, x) == outcome(ref.dmetric, x, x)
    u, w = _bcvec(data, reals, n), _bcvec(data, reals, m)
    assert outcome(dmetric_bc, u, w) == outcome(ref.dmetric_bc, u, w)
    assert outcome(dmetric_bc, u, u) == outcome(ref.dmetric_bc, u, u)


@SETTINGS
@given(a=REALS, b=REALS)
def test_rdiv_matches_the_fraction_code(a, b):
    for c in (*partners(a, b), 0, Fraction(0)):
        assert outcome(backend.rdiv, a, c) == outcome(ref.rdiv, a, c)
        assert outcome(backend.rdiv, c, a) == outcome(ref.rdiv, c, a)


def test_h_of_x_builds_one_fraction_per_real_component(monkeypatch):
    """h(x) on a seeded dim-3 exact point builds 4 `Fraction`s, one per real
    component of its value; the loop of bicomplex additions and products it
    replaced built 24."""
    rng = Random(19)
    h = gen.rand_bcfunctional(rng, 3)
    x = gen.rand_bcvector(rng, 3)
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    value = h(x)
    monkeypatch.undo()
    assert value == ref.bc_functional_call(h, x)
    assert all(type(t) is Fraction for t in _leaves(value))
    assert len(built) == 4
