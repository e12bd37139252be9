"""Coordinate-module elements: vectors over D and over BC.

A ``DVector`` is an element of D^n; its e1/e2 parts are real vectors.  A
``BCVector`` is an element of BC^n with complex parts.  Both are immutable
and always reconstruct exactly from their idempotent parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .backend import Real
from .errors import DimensionMismatch
from .scalars import BicomplexScalar, ComplexScalar, HyperbolicScalar


def _check_dims(a, b):
    if a.dim != b.dim:
        raise DimensionMismatch(f"dim {a.dim} vs {b.dim}")


@dataclass(frozen=True, slots=True)
class DVector:
    coords: tuple[HyperbolicScalar, ...]

    @property
    def dim(self) -> int:
        return len(self.coords)

    @classmethod
    def of(cls, *entries) -> DVector:
        return cls(tuple(_as_hyp(e) for e in entries))

    @classmethod
    def from_parts(cls, part1: Sequence[Real], part2: Sequence[Real]) -> DVector:
        if len(part1) != len(part2):
            raise DimensionMismatch("component vectors differ in length")
        return cls(tuple(HyperbolicScalar(p, q) for p, q in zip(part1, part2)))

    @classmethod
    def zero(cls, dim: int) -> DVector:
        return cls(tuple(HyperbolicScalar.zero() for _ in range(dim)))

    def part1(self) -> tuple[Real, ...]:
        return tuple(c.a1 for c in self.coords)

    def part2(self) -> tuple[Real, ...]:
        return tuple(c.a2 for c in self.coords)

    def part(self, component: int) -> tuple[Real, ...]:
        if component == 1:
            return self.part1()
        if component == 2:
            return self.part2()
        raise ValueError("component must be 1 or 2")

    def __add__(self, other: DVector) -> DVector:
        if not isinstance(other, DVector):
            return NotImplemented
        _check_dims(self, other)
        return DVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: DVector) -> DVector:
        if not isinstance(other, DVector):
            return NotImplemented
        _check_dims(self, other)
        return DVector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> DVector:
        return DVector(tuple(-a for a in self.coords))

    def scale(self, alpha) -> DVector:
        """Scalar multiplication by a hyperbolic (or real) scalar."""
        alpha = _as_hyp(alpha)
        return DVector(tuple(alpha * c for c in self.coords))


@dataclass(frozen=True, slots=True)
class BCVector:
    coords: tuple[BicomplexScalar, ...]

    @property
    def dim(self) -> int:
        return len(self.coords)

    @classmethod
    def of(cls, *entries) -> BCVector:
        return cls(tuple(_as_bc(e) for e in entries))

    @classmethod
    def from_parts(cls, part1: Sequence[ComplexScalar], part2: Sequence[ComplexScalar]) -> BCVector:
        if len(part1) != len(part2):
            raise DimensionMismatch("component vectors differ in length")
        return cls(tuple(BicomplexScalar(p, q) for p, q in zip(part1, part2)))

    @classmethod
    def from_real_parts(cls, part1: Sequence[Real], part2: Sequence[Real]) -> BCVector:
        """Build from interleaved real coordinates (re0, im0, re1, im1, ...) per component."""
        if len(part1) != len(part2):
            raise DimensionMismatch("component vectors differ in length")
        if len(part1) % 2:
            raise DimensionMismatch("interleaved real coordinates must have even length")
        p1 = [ComplexScalar(part1[2 * m], part1[2 * m + 1]) for m in range(len(part1) // 2)]
        p2 = [ComplexScalar(part2[2 * m], part2[2 * m + 1]) for m in range(len(part2) // 2)]
        return cls.from_parts(p1, p2)

    @classmethod
    def zero(cls, dim: int) -> BCVector:
        return cls(tuple(BicomplexScalar.zero() for _ in range(dim)))

    @classmethod
    def basis(cls, dim: int, m: int) -> BCVector:
        one = BicomplexScalar.one()
        zero = BicomplexScalar.zero()
        return cls(tuple(one if t == m else zero for t in range(dim)))

    def part1(self) -> tuple[ComplexScalar, ...]:
        return tuple(c.z1 for c in self.coords)

    def part2(self) -> tuple[ComplexScalar, ...]:
        return tuple(c.z2 for c in self.coords)

    def __add__(self, other: BCVector) -> BCVector:
        if not isinstance(other, BCVector):
            return NotImplemented
        _check_dims(self, other)
        return BCVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: BCVector) -> BCVector:
        if not isinstance(other, BCVector):
            return NotImplemented
        _check_dims(self, other)
        return BCVector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> BCVector:
        return BCVector(tuple(-a for a in self.coords))

    def scale(self, alpha) -> BCVector:
        """Scalar multiplication by a bicomplex (or embeddable) scalar."""
        alpha = _as_bc(alpha)
        return BCVector(tuple(alpha * c for c in self.coords))

    def times_i(self) -> BCVector:
        return self.scale(BicomplexScalar.unit_i())

    def times_j(self) -> BCVector:
        return self.scale(BicomplexScalar.unit_j())


def _as_hyp(v) -> HyperbolicScalar:
    if isinstance(v, HyperbolicScalar):
        return v
    if isinstance(v, (int, Fraction, float)):
        return HyperbolicScalar(v, v)
    raise TypeError(f"cannot interpret {v!r} as a hyperbolic scalar")


def _as_bc(v) -> BicomplexScalar:
    if isinstance(v, BicomplexScalar):
        return v
    if isinstance(v, HyperbolicScalar):
        return v.to_bicomplex()
    if isinstance(v, ComplexScalar):
        return BicomplexScalar.from_complex(v)
    if isinstance(v, (int, Fraction, float)):
        return BicomplexScalar.from_complex(ComplexScalar(v))
    raise TypeError(f"cannot interpret {v!r} as a bicomplex scalar")
