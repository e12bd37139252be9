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
only when every operand is one.  ``bool`` and ``float`` are not exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

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


def _parse_fraction(text: str) -> Fraction:
    """``Fraction(text)``, with the canonical ``"-p/q"`` form read by ``int``.

    Only an optional single ``-``, ASCII digits and optionally ``/`` plus
    ASCII digits take the fast path (``int`` alone would also accept
    spaces, ``+``, ``_`` and non-ASCII digits); every other string goes to
    ``Fraction``'s own parser, so values and raised errors are unchanged.
    """
    num, slash, den = text.partition("/")
    digits = num[1:] if num.startswith("-") else num
    if digits.isdigit() and digits.isascii():
        if not slash:
            return Fraction(int(num))
        if den.isdigit() and den.isascii():
            return Fraction(int(num), int(den))
    return Fraction(text)


def as_real(value, backend: str = EXACT) -> Real:
    """Coerce ``value`` (number or ``"p/q"`` string) into the given backend."""
    if backend == EXACT:
        if isinstance(value, str):
            return _parse_fraction(value)
        return Fraction(value)
    if backend == FLOAT:
        if isinstance(value, str):
            return float(_parse_fraction(value))
        return float(value)
    raise ValueError(f"unknown backend {backend!r}")


def req(a: Real, b: Real) -> bool:
    """Equality: exact when both operands are exact, ε-tolerant otherwise."""
    if is_exact(a) and is_exact(b):
        return a.numerator * b.denominator == b.numerator * a.denominator
    return abs(a - b) <= EPSILON


def rle(a: Real, b: Real) -> bool:
    """a ≤ b, treating ε-close floats as equal."""
    if is_exact(a) and is_exact(b):
        return a.numerator * b.denominator <= b.numerator * a.denominator
    return a <= b + EPSILON


def rlt(a: Real, b: Real) -> bool:
    """a < b strictly; ε-close float values do not count as strict."""
    if is_exact(a) and is_exact(b):
        return a.numerator * b.denominator < b.numerator * a.denominator
    return a < b - EPSILON


def rdiv(a: Real, b: Real) -> Real:
    """a / b, staying exact when both operands are exact.

    Plain ``int / int`` would produce a float; this keeps rationals rational.
    """
    if is_exact(a) and is_exact(b):
        return Fraction(a) / Fraction(b)
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
    """A JSON number or ``"p/q"`` string in the given backend.

    Values that are not finite (JSON ``NaN``, ``Infinity`` and numbers that
    overflow a float, such as ``1e400``), and exact values too large for the
    float backend, raise ``ValueError``.
    """
    if not isinstance(obj, (int, float, str)) or isinstance(obj, bool):
        raise TypeError(f"not a real-number encoding: {obj!r}")
    if isinstance(obj, float) and not math.isfinite(obj):
        raise ValueError(f"not a finite number: {obj!r}")
    try:
        return as_real(obj, backend)
    except OverflowError as exc:
        raise ValueError(f"too large for the {backend} backend: {obj!r}") from exc
