"""Bicomplex and hyperbolic scalars in idempotent coordinates.

A bicomplex number ``Z = w1 + j*w2`` (commuting units ``i``, ``j``;
``k = ij``, ``k**2 = 1``) is stored as the idempotent pair ``(z1, z2)``
with ``z1 = w1 - i*w2`` and ``z2 = w1 + i*w2``, because every ring
operation is componentwise there.  Hyperbolic numbers
``alpha = beta1 + k*beta2`` are the sub-ring with real components and are
stored as the pair ``(a1, a2) = (beta1 + beta2, beta1 - beta2)``.

The real carrier of the components is either exact (`Fraction`/`int`) or
`float`; see :mod:`bicomplex.backend`.  On exact components the complex
product and ``abs2`` combine integer numerators and denominators and
build each component as one ``Fraction`` (one gcd) instead of a chain of
``Fraction`` operations; a component is an ``int`` exactly when every
operand is, as with the plain operators.  `complex_dot`, a sum of complex
products, sums the same integer terms in `backend.fraction_sum`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .backend import Real, fraction_operands, fraction_sum, rdiv, req, rle, rsqrt
from .errors import NullConeError, ZeroError


class ConjugationKind(Enum):
    DAGGER1 = "dagger1"
    DAGGER2 = "dagger2"
    DAGGER3 = "dagger3"


@dataclass(frozen=True, slots=True)
class ComplexScalar:
    """A complex number over the switchable real backend."""

    re: Real
    im: Real = 0

    def __add__(self, other) -> ComplexScalar:
        other = _as_complex(other)
        return ComplexScalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> ComplexScalar:
        other = _as_complex(other)
        return ComplexScalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> ComplexScalar:
        return _as_complex(other) - self

    def __mul__(self, other) -> ComplexScalar:
        other = _as_complex(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if fraction_operands(a, b, c, d):
            re, im, den = _product_terms(a, b, c, d)
            return ComplexScalar(Fraction(re, den), Fraction(im, den))
        return ComplexScalar(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other) -> ComplexScalar:
        other = _as_complex(other)
        d = other.abs2()
        if _real_is_zero(d):
            raise ZeroDivisionError("complex division by zero")
        num = self * other.conj()
        return ComplexScalar(rdiv(num.re, d), rdiv(num.im, d))

    def __neg__(self) -> ComplexScalar:
        return ComplexScalar(-self.re, -self.im)

    def conj(self) -> ComplexScalar:
        return ComplexScalar(self.re, -self.im)

    def abs2(self) -> Real:
        """|z|^2 = re^2 + im^2, exact in the exact backend."""
        a, b = self.re, self.im
        if fraction_operands(a, b):
            an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
            return Fraction((an * bd) ** 2 + (bn * ad) ** 2, (ad * bd) ** 2)
        return a * a + b * b

    def is_zero(self) -> bool:
        return _real_is_zero(self.re) and _real_is_zero(self.im)

    def times_i(self) -> ComplexScalar:
        return ComplexScalar(-self.im, self.re)


def _product_terms(a, b, c, d) -> tuple[int, int, int]:
    """(a + bi)(c + di) on exact operands: the real and imaginary
    numerators over their common denominator."""
    an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
    cn, cd, dn, dd = c.numerator, c.denominator, d.numerator, d.denominator
    return (an * cn * bd * dd - bn * dn * ad * cd,
            an * dn * bd * cd + bn * cn * ad * dd,
            ad * bd * cd * dd)


def complex_dot(zs: Sequence[ComplexScalar], ws: Sequence[ComplexScalar]) -> ComplexScalar:
    """Σ z·w over ``zip(zs, ws)``, the complex sibling of `backend.rdot`.

    On exact parts with one ``Fraction`` each component is one
    `fraction_sum`; otherwise the plain loop of complex products.
    """
    if fraction_operands(*(t for z, w in zip(zs, ws) for t in (z.re, z.im, w.re, w.im))):
        re_terms, im_terms = [], []
        for z, w in zip(zs, ws):
            re, im, den = _product_terms(z.re, z.im, w.re, w.im)
            re_terms.append((re, den))
            im_terms.append((im, den))
        return ComplexScalar(fraction_sum(re_terms), fraction_sum(im_terms))
    total = ComplexScalar(0)
    for z, w in zip(zs, ws):
        total = total + z * w
    return total


def _as_complex(v) -> ComplexScalar:
    if isinstance(v, ComplexScalar):
        return v
    if isinstance(v, (int, Fraction, float)):
        return ComplexScalar(v)
    return NotImplemented


def _real_is_zero(x: Real) -> bool:
    return req(x, 0)


@dataclass(frozen=True, slots=True)
class HyperbolicScalar:
    """A hyperbolic number e1*a1 + e2*a2 with real components."""

    a1: Real
    a2: Real

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> HyperbolicScalar:
        return cls(0, 0)

    @classmethod
    def one(cls) -> HyperbolicScalar:
        return cls(1, 1)

    @classmethod
    def k(cls) -> HyperbolicScalar:
        """The hyperbolic unit k = e1 - e2."""
        return cls(1, -1)

    @classmethod
    def e1(cls) -> HyperbolicScalar:
        return cls(1, 0)

    @classmethod
    def e2(cls) -> HyperbolicScalar:
        return cls(0, 1)

    @classmethod
    def from_standard(cls, beta1: Real, beta2: Real) -> HyperbolicScalar:
        """Build beta1 + k*beta2 from standard coordinates."""
        return cls(beta1 + beta2, beta1 - beta2)

    # -- views ---------------------------------------------------------

    @property
    def beta1(self) -> Real:
        return rdiv(self.a1 + self.a2, 2)

    @property
    def beta2(self) -> Real:
        return rdiv(self.a1 - self.a2, 2)

    def to_bicomplex(self) -> BicomplexScalar:
        return BicomplexScalar(ComplexScalar(self.a1), ComplexScalar(self.a2))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> HyperbolicScalar:
        other = _as_hyperbolic(other)
        return HyperbolicScalar(self.a1 + other.a1, self.a2 + other.a2)

    __radd__ = __add__

    def __sub__(self, other) -> HyperbolicScalar:
        other = _as_hyperbolic(other)
        return HyperbolicScalar(self.a1 - other.a1, self.a2 - other.a2)

    def __rsub__(self, other) -> HyperbolicScalar:
        return _as_hyperbolic(other) - self

    def __mul__(self, other) -> HyperbolicScalar:
        other = _as_hyperbolic(other)
        return HyperbolicScalar(self.a1 * other.a1, self.a2 * other.a2)

    __rmul__ = __mul__

    def __truediv__(self, other) -> HyperbolicScalar:
        other = _as_hyperbolic(other)
        z1, z2 = _real_is_zero(other.a1), _real_is_zero(other.a2)
        if z1 and z2:
            raise ZeroError("division by hyperbolic zero")
        if z1 or z2:
            raise NullConeError("division by a hyperbolic zero divisor")
        return HyperbolicScalar(rdiv(self.a1, other.a1), rdiv(self.a2, other.a2))

    def __neg__(self) -> HyperbolicScalar:
        return HyperbolicScalar(-self.a1, -self.a2)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return _real_is_zero(self.a1) and _real_is_zero(self.a2)

    def is_invertible(self) -> bool:
        return not (_real_is_zero(self.a1) or _real_is_zero(self.a2))

    def in_plus_cone(self) -> bool:
        """Membership in D+ (both components >= 0)."""
        return rle(0, self.a1) and rle(0, self.a2)

    def abs_k(self) -> HyperbolicScalar:
        """|alpha|_k = e1|a1| + e2|a2|."""
        return HyperbolicScalar(abs(self.a1), abs(self.a2))

    def isclose(self, other: HyperbolicScalar) -> bool:
        return req(self.a1, other.a1) and req(self.a2, other.a2)


def _as_hyperbolic(v) -> HyperbolicScalar:
    if isinstance(v, HyperbolicScalar):
        return v
    if isinstance(v, (int, Fraction, float)):
        return HyperbolicScalar(v, v)
    return NotImplemented


@dataclass(frozen=True, slots=True)
class BicomplexScalar:
    """A bicomplex number stored as its idempotent pair (z1, z2)."""

    z1: ComplexScalar
    z2: ComplexScalar

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> BicomplexScalar:
        return cls(ComplexScalar(0), ComplexScalar(0))

    @classmethod
    def one(cls) -> BicomplexScalar:
        return cls(ComplexScalar(1), ComplexScalar(1))

    @classmethod
    def unit_i(cls) -> BicomplexScalar:
        return cls(ComplexScalar(0, 1), ComplexScalar(0, 1))

    @classmethod
    def unit_j(cls) -> BicomplexScalar:
        return cls(ComplexScalar(0, -1), ComplexScalar(0, 1))

    @classmethod
    def unit_k(cls) -> BicomplexScalar:
        return cls(ComplexScalar(1), ComplexScalar(-1))

    @classmethod
    def from_complex(cls, z) -> BicomplexScalar:
        """Embed a C(i) number (z1 = z2 = z)."""
        z = _as_complex(z)
        return cls(z, z)

    @classmethod
    def from_quad(cls, g1: Real, g2: Real, g3: Real, g4: Real) -> BicomplexScalar:
        """Build g1 + i*g2 + j*g3 + k*g4 from real coefficients."""
        return bc_from_w(ComplexScalar(g1, g2), ComplexScalar(g3, g4))

    # -- views ---------------------------------------------------------

    @property
    def w1(self) -> ComplexScalar:
        return ComplexScalar(rdiv(self.z1.re + self.z2.re, 2), rdiv(self.z1.im + self.z2.im, 2))

    @property
    def w2(self) -> ComplexScalar:
        # w2 = i*(z1 - z2)/2
        d = (self.z1 - self.z2).times_i()
        return ComplexScalar(rdiv(d.re, 2), rdiv(d.im, 2))

    def quad(self) -> tuple[Real, Real, Real, Real]:
        """Real coefficients (g1, g2, g3, g4) of 1, i, j, k."""
        w1, w2 = self.w1, self.w2
        return (w1.re, w1.im, w2.re, w2.im)

    def hyp_part(self) -> HyperbolicScalar:
        """The hyperbolic part g1 + k*g4 = e1*Re(z1) + e2*Re(z2)."""
        return HyperbolicScalar(self.z1.re, self.z2.re)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> BicomplexScalar:
        other = _as_bicomplex(other)
        return BicomplexScalar(self.z1 + other.z1, self.z2 + other.z2)

    __radd__ = __add__

    def __sub__(self, other) -> BicomplexScalar:
        other = _as_bicomplex(other)
        return BicomplexScalar(self.z1 - other.z1, self.z2 - other.z2)

    def __rsub__(self, other) -> BicomplexScalar:
        return _as_bicomplex(other) - self

    def __mul__(self, other) -> BicomplexScalar:
        other = _as_bicomplex(other)
        return BicomplexScalar(self.z1 * other.z1, self.z2 * other.z2)

    __rmul__ = __mul__

    def __neg__(self) -> BicomplexScalar:
        return BicomplexScalar(-self.z1, -self.z2)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return self.z1.is_zero() and self.z2.is_zero()

    def is_invertible(self) -> bool:
        return not (self.z1.is_zero() or self.z2.is_zero())


def _as_bicomplex(v) -> BicomplexScalar:
    if isinstance(v, BicomplexScalar):
        return v
    if isinstance(v, HyperbolicScalar):
        return v.to_bicomplex()
    if isinstance(v, ComplexScalar):
        return BicomplexScalar.from_complex(v)
    if isinstance(v, (int, Fraction, float)):
        return BicomplexScalar.from_complex(ComplexScalar(v))
    return NotImplemented


# -- module operations ----------------------------------------------------


def bc_mul(a: BicomplexScalar, b: BicomplexScalar) -> BicomplexScalar:
    """Bicomplex product, componentwise in idempotent coordinates."""
    return BicomplexScalar(a.z1 * b.z1, a.z2 * b.z2)


def bc_from_w(w1: ComplexScalar, w2: ComplexScalar) -> BicomplexScalar:
    """Build w1 + j*w2: z1 = w1 - i*w2, z2 = w1 + i*w2."""
    iw2 = w2.times_i()
    return BicomplexScalar(w1 - iw2, w1 + iw2)


def conjugate(Z: BicomplexScalar, kind: ConjugationKind) -> BicomplexScalar:
    """The three bicomplex conjugations.

    dagger1 conjugates both w-coordinates, dagger2 flips the sign of w2,
    dagger3 composes the two; in idempotent coordinates they act as
    (z1,z2) -> (conj z2, conj z1), (z2, z1), (conj z1, conj z2).
    """
    if kind is ConjugationKind.DAGGER1:
        return BicomplexScalar(Z.z2.conj(), Z.z1.conj())
    if kind is ConjugationKind.DAGGER2:
        return BicomplexScalar(Z.z2, Z.z1)
    if kind is ConjugationKind.DAGGER3:
        return BicomplexScalar(Z.z1.conj(), Z.z2.conj())
    raise ValueError(f"unknown conjugation {kind!r}")


_MODULUS_KIND = {
    "i": ConjugationKind.DAGGER2,
    "j": ConjugationKind.DAGGER1,
    "k": ConjugationKind.DAGGER3,
}


def modulus(Z: BicomplexScalar, kind: str) -> BicomplexScalar:
    """Squared modulus |Z|^2_kind = Z * Z^dagger for the paired conjugation.

    Kind "k" always lands in D+ (components |z1|^2, |z2|^2).
    """
    try:
        conj_kind = _MODULUS_KIND[kind]
    except KeyError:
        raise ValueError(f"modulus kind must be one of i, j, k; got {kind!r}") from None
    return bc_mul(Z, conjugate(Z, conj_kind))


def dnorm_k(Z: BicomplexScalar) -> HyperbolicScalar:
    """The D-valued norm |Z|_k = e1|z1| + e2|z2|.

    Exact inputs give exact components whenever |z|^2 is a perfect rational
    square; irrational norms fall back to float.  Exactness-critical
    comparisons should go through :func:`dnorm_k_sq`.
    """
    return HyperbolicScalar(rsqrt(Z.z1.abs2()), rsqrt(Z.z2.abs2()))


def dnorm_k_sq(Z: BicomplexScalar) -> HyperbolicScalar:
    """The squared D-valued norm (|z1|^2, |z2|^2), exact in the exact backend."""
    return HyperbolicScalar(Z.z1.abs2(), Z.z2.abs2())


def is_zero_divisor(Z: BicomplexScalar) -> bool:
    """True iff Z lies on the null cone (exactly one idempotent component zero)."""
    return Z.z1.is_zero() != Z.z2.is_zero()


def bc_inverse(Z: BicomplexScalar) -> BicomplexScalar:
    """Multiplicative inverse (1/z1, 1/z2); defined off the null cone only."""
    z1_zero, z2_zero = Z.z1.is_zero(), Z.z2.is_zero()
    if z1_zero and z2_zero:
        raise ZeroError("0 has no inverse")
    if z1_zero or z2_zero:
        raise NullConeError("zero divisors have no inverse")
    one = ComplexScalar(1)
    return BicomplexScalar(one / Z.z1, one / Z.z2)
