"""Real-scalar backend helpers.

Every real quantity in the library is either an exact rational
(:class:`fractions.Fraction`, with plain ``int`` accepted as exact) or a
binary ``float``.  Exact values compare exactly; as soon as a float is
involved, comparisons become tolerance-based with the module constant
:data:`EPSILON`.

On exact operands the comparisons cross-multiply the public
``numerator``/``denominator`` instead of dispatching through ``Fraction``'s
operators, and `fraction_operands` tells when a result may be built as one
``Fraction`` from integers: as with the operators, a result is an ``int``
only when every operand is one.  ``bool`` and ``float`` are not exact;
other subclasses of ``int`` and ``Fraction`` are.  `req`, `rle` and `rlt`
test ``type(x) is Fraction or type(x) is int`` inline and call `is_exact`
only for any other type.

The exact dot kernel serves every sum of products in the library: `rdot`
(Σ x·y) and `rdist2` (Σ (x − y)²) hand their integer terms to one
accumulator, `fraction_sum`, which keeps a running lcm denominator and
builds one ``Fraction`` at the end instead of two to eight per term.  When
an operand is not exact they run the plain loop, in the same order, so
float results stay bit-identical.  `rdiv` builds its quotient as one
``Fraction`` too.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence, Union

Real = Union[int, Fraction, float]

#: comparison tolerance for the float backend
EPSILON = 1e-9

EXACT = "exact"
FLOAT = "float"
BACKENDS = (EXACT, FLOAT)


def is_exact(x: Real) -> bool:
    t = type(x)
    return t is int or t is Fraction or (isinstance(x, (int, Fraction)) and not isinstance(x, bool))


def fraction_operands(*xs: Real) -> bool:
    """Every type is ``int`` or ``Fraction`` and one is ``Fraction``."""
    fraction = False
    for x in xs:
        t = type(x)
        if t is Fraction:
            fraction = True
        elif t is not int:
            return False
    return fraction


def fraction_sum(terms: Iterable[tuple[int, int]]) -> Fraction:
    """Σ n/d over integer pairs ``(n, d)`` with ``d > 0``, as one ``Fraction``.

    The running denominator is the lcm of the denominators seen so far, so
    no ``Fraction`` is built per term and one gcd normalises the sum.
    """
    num, den = 0, 1
    for n, d in terms:
        if d == den:
            num += n
        else:
            g = gcd(den, d)
            num = num * (d // g) + n * (den // g)
            den *= d // g
    return Fraction(num, den)


def rdot(xs: Sequence[Real], ys: Sequence[Real]) -> Real:
    """Σ x·y over ``zip(xs, ys)``; 0 when empty.

    A ``Fraction`` when every operand is an ``int`` or ``Fraction`` and one
    is a ``Fraction``; otherwise the plain left-to-right loop.
    """
    if fraction_operands(*xs, *ys):
        return fraction_sum((x.numerator * y.numerator, x.denominator * y.denominator)
                            for x, y in zip(xs, ys))
    total = 0
    for x, y in zip(xs, ys):
        total = total + x * y
    return total


def rdist2(xs: Sequence[Real], ys: Sequence[Real]) -> Real:
    """Σ (x − y)² over ``zip(xs, ys)``, with the type rule of `rdot`."""
    if fraction_operands(*xs, *ys):
        return fraction_sum(((x.numerator * y.denominator - y.numerator * x.denominator) ** 2,
                             (x.denominator * y.denominator) ** 2)
                            for x, y in zip(xs, ys))
    total = 0
    for x, y in zip(xs, ys):
        d = x - y
        total = total + d * d
    return total


def decode_pair(obj) -> tuple[int, int]:
    """The library's one number parser: a JSON number or ``"p/q"`` string as
    its reduced pair (n, d), d > 0.  Only ``-?digits(/digits)?`` is read by
    ``int`` (which alone would also take spaces, ``+``, ``_`` and non-ASCII
    digits); a finite float is its ``as_integer_ratio()``, which is what
    ``Fraction`` reads it by; other numbers and strings go to ``Fraction``,
    with its errors.
    """
    if type(obj) is str:
        num, slash, den = obj.partition("/")
        digits = num[1:] if num.startswith("-") else num
        if digits.isdigit() and digits.isascii():
            if not slash:
                return int(num), 1
            if den.isdigit() and den.isascii():
                n, d = int(num), int(den)
                if d:
                    g = gcd(n, d)
                    return (n, d) if g == 1 else (n // g, d // g)
    elif type(obj) is int:
        return obj, 1
    elif not isinstance(obj, (int, float, str)) or isinstance(obj, bool):
        raise TypeError(f"not a real-number encoding: {obj!r}")
    elif isinstance(obj, float) and not math.isfinite(obj):
        raise ValueError(f"not a finite number: {obj!r}")
    elif type(obj) is float:
        return obj.as_integer_ratio()
    q = Fraction(obj)
    return q.numerator, q.denominator


def req(a: Real, b: Real) -> bool:
    """Equality: exact when both operands are exact, ε-tolerant otherwise."""
    ta, tb = type(a), type(b)
    if ((ta is Fraction or ta is int or is_exact(a))
            and (tb is Fraction or tb is int or is_exact(b))):
        return a.numerator * b.denominator == b.numerator * a.denominator
    return abs(a - b) <= EPSILON


def rle(a: Real, b: Real) -> bool:
    """a ≤ b, treating ε-close floats as equal."""
    ta, tb = type(a), type(b)
    if ((ta is Fraction or ta is int or is_exact(a))
            and (tb is Fraction or tb is int or is_exact(b))):
        return a.numerator * b.denominator <= b.numerator * a.denominator
    return a <= b + EPSILON


def rlt(a: Real, b: Real) -> bool:
    """a < b strictly; ε-close float values do not count as strict."""
    ta, tb = type(a), type(b)
    if ((ta is Fraction or ta is int or is_exact(a))
            and (tb is Fraction or tb is int or is_exact(b))):
        return a.numerator * b.denominator < b.numerator * a.denominator
    return a < b - EPSILON


def rdiv(a: Real, b: Real) -> Real:
    """a / b, staying exact when both operands are exact.

    Plain ``int / int`` would produce a float; this keeps rationals rational.
    The exact quotient is always a ``Fraction``, built once from integers;
    a zero divisor raises ``Fraction``'s own ``ZeroDivisionError``.
    """
    if is_exact(a) and is_exact(b):
        if not b:
            return Fraction(a) / Fraction(b)
        return Fraction(a.numerator * b.denominator, a.denominator * b.numerator)
    return a / b


def rsqrt(x: Real) -> Real:
    """Square root, exact when ``x`` is a perfect rational square.

    Exact inputs whose numerator and denominator are perfect squares come
    back as Fractions (so e.g. one-dimensional Euclidean norms stay exact);
    anything else falls to ``math.sqrt``.
    """
    if not is_exact(x):
        if x < 0:
            raise ValueError("negative radicand")
        return math.sqrt(x)
    n, d = x.numerator, x.denominator
    if n < 0:
        raise ValueError("negative radicand")
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return math.sqrt(n / d)  # Fraction.__float__ is this quotient


def encode_real(x: Real):
    """JSON-friendly form: Fractions become "p/q" strings in lowest terms."""
    if isinstance(x, Fraction):
        return str(x)
    return x


def decode_real(obj, backend: str = EXACT) -> Real:
    """A JSON number or ``"p/q"`` string in the given backend, read by
    `decode_pair`; a JSON float is its own float-backend value.

    Values that are not finite (JSON ``NaN``, ``Infinity`` and numbers that
    overflow a float, such as ``1e400``), and exact values too large for the
    float backend, raise ``ValueError``.
    """
    n, d = decode_pair(obj)
    if backend == EXACT:
        return Fraction(n, d)
    if backend == FLOAT:
        try:
            return obj if type(obj) is float else n / d
        except OverflowError as exc:
            raise ValueError(f"too large for the {backend} backend: {obj!r}") from exc
    raise ValueError(f"unknown backend {backend!r}")
