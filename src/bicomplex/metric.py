"""Hyperbolic-valued metrics on coordinate modules and the Baire harness.

The D-metric on D^n (and BC^n) is componentwise Euclidean in idempotent
coordinates: d(x, y) = e1*||x1 - y1|| + e2*||x2 - y2||.  Balls are open in
the strict partial order, so a ball in D is an open axis-aligned rectangle
of the (a1, a2) plane.  That makes containment and set-difference queries
against closed rectangles exactly decidable, which is what the constructive
Baire procedure needs.

Each squared component distance is one call of the exact dot kernel:
`backend.rdist2` over the real parts (for BC^n, the interleaved real and
imaginary parts), which builds one ``Fraction`` on exact operands.  On
float operands the metrics keep their plain loops, so the float backend's
roundings do not change.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .backend import Real, fraction_operands, rdist2, rdiv, rle, rsqrt
from .errors import DimensionMismatch, EmptyInputError, NotACoverError
from .order import lt_strict
from .scalars import HyperbolicScalar
from .vectors import BCVector, DVector


def dmetric(x: DVector, y: DVector) -> HyperbolicScalar:
    if x.dim != y.dim:
        raise DimensionMismatch(f"dims {x.dim} vs {y.dim}")
    return HyperbolicScalar(rsqrt(rdist2(x.part1(), y.part1())), rsqrt(rdist2(x.part2(), y.part2())))


def dnorm(x: DVector) -> HyperbolicScalar:
    return dmetric(x, DVector.zero(x.dim))


def dmetric_bc(x: BCVector, y: BCVector) -> HyperbolicScalar:
    """Same metric on BC^n, with complex Euclidean component norms."""
    if x.dim != y.dim:
        raise DimensionMismatch(f"dims {x.dim} vs {y.dim}")
    return HyperbolicScalar(rsqrt(_complex_dist2(x.part1(), y.part1())),
                            rsqrt(_complex_dist2(x.part2(), y.part2())))


def _complex_dist2(zs, ws) -> Real:
    """Σ |z − w|²: `rdist2` over interleaved parts when exact, else the
    plain loop of ``abs2`` (each |z − w|² rounded before it is added)."""
    xs = [t for z in zs for t in (z.re, z.im)]
    ys = [t for w in ws for t in (w.re, w.im)]
    if fraction_operands(*xs, *ys):
        return rdist2(xs, ys)
    total = 0
    for z, w in zip(zs, ws):
        total = total + (z - w).abs2()
    return total


def dnorm_bc(x: BCVector) -> HyperbolicScalar:
    return dmetric_bc(x, BCVector.zero(x.dim))


@dataclass(frozen=True, slots=True)
class DBall:
    """Open ball: y is a member iff d(center, y) <' radius (both strict)."""

    center: DVector
    radius: HyperbolicScalar

    def __post_init__(self):
        if not self.radius.in_plus_cone() or not self.radius.is_invertible():
            raise ValueError("ball radius must be >' 0")


def ball_contains(B: DBall, y: DVector) -> bool:
    return lt_strict(dmetric(B.center, y), B.radius)


# -- closed rectangle sets in D and the Baire procedure ----------------------


@dataclass(frozen=True, slots=True)
class RectSet:
    """The closed subset e1*[lo1,hi1] + e2*[lo2,hi2] of D."""

    c1: tuple[Real, Real]
    c2: tuple[Real, Real]

    def __post_init__(self):
        if self.c1[0] > self.c1[1] or self.c2[0] > self.c2[1]:
            raise ValueError("interval must have lo <= hi")

    def contains(self, alpha: HyperbolicScalar) -> bool:
        return (
            rle(self.c1[0], alpha.a1)
            and rle(alpha.a1, self.c1[1])
            and rle(self.c2[0], alpha.a2)
            and rle(alpha.a2, self.c2[1])
        )

    def interval(self, l: int) -> tuple[Real, Real]:
        return self.c1 if l == 1 else self.c2


def _ball_rect(B: DBall) -> tuple[tuple[Real, Real], tuple[Real, Real]]:
    """The open rectangle a 1-dim ball sweeps out, as coordinate intervals."""
    h = B.center.coords[0]
    r = B.radius
    return (h.a1 - r.a1, h.a1 + r.a1), (h.a2 - r.a2, h.a2 + r.a2)


def ball_in_rect(B: DBall, F: RectSet) -> bool:
    """Exact containment of an open 1-dim ball in a closed rectangle."""
    (lo1, hi1), (lo2, hi2) = _ball_rect(B)
    return (
        rle(F.c1[0], lo1)
        and rle(hi1, F.c1[1])
        and rle(F.c2[0], lo2)
        and rle(hi2, F.c2[1])
    )


def _centers(values: list) -> list:
    """Midpoints of consecutive distinct grid coordinates."""
    distinct = sorted(set(values))
    if len(distinct) == 1:
        return [distinct[0]]
    return [rdiv(a + b, 2) for a, b in zip(distinct, distinct[1:])]


def check_exact_cover(cover: Sequence[RectSet], bounding: RectSet) -> None:
    """Verify union(cover) == bounding by grid arrangement, or raise.

    The rectangle edges cut the bounding box into open cells; a cell is
    covered iff its center is (closed rectangles cannot partially cover an
    open cell of their own arrangement), and the grid lines are then covered
    by closedness.  Equality additionally requires no rectangle to overflow
    the bounding box.
    """
    for F in cover:
        for l in (1, 2):
            lo, hi = F.interval(l)
            blo, bhi = bounding.interval(l)
            if lo < blo or hi > bhi:
                mid1 = F.c1[0] if l == 1 else (lo if lo < blo else hi)
                mid2 = (lo if lo < blo else hi) if l == 2 else F.c2[0]
                raise NotACoverError(
                    "rectangle overflows the bounding box",
                    witness=HyperbolicScalar(mid1, mid2),
                )
    xs = [bounding.c1[0], bounding.c1[1]]
    ys = [bounding.c2[0], bounding.c2[1]]
    for F in cover:
        xs.extend(F.c1)
        ys.extend(F.c2)
    blo1, bhi1 = bounding.c1
    blo2, bhi2 = bounding.c2
    xs = [v for v in xs if blo1 <= v <= bhi1]
    ys = [v for v in ys if blo2 <= v <= bhi2]
    for cx in _centers(xs):
        for cy in _centers(ys):
            p = HyperbolicScalar(cx, cy)
            if not any(F.contains(p) for F in cover):
                raise NotACoverError("uncovered point", witness=p)


def _interval_distance(v: Real, lo: Real, hi: Real) -> Real:
    if v < lo:
        return lo - v
    if v > hi:
        return v - hi
    return 0


def _point_outside_rect(
    center: HyperbolicScalar,
    s: HyperbolicScalar,
    F: RectSet,
) -> HyperbolicScalar | None:
    """A point of the open box B(center, s) outside the closed rect F.

    Tries the center, then the 8 compass offsets at half radius, then exact
    interval subtraction; returns None exactly when the box is inside F.
    """
    if not F.contains(center):
        return center
    h1, h2 = rdiv(s.a1, 2), rdiv(s.a2, 2)
    for d1 in (-h1, 0, h1):
        for d2 in (-h2, 0, h2):
            if d1 == 0 and d2 == 0:
                continue
            p = HyperbolicScalar(center.a1 + d1, center.a2 + d2)
            if not F.contains(p):
                return p
    # Exact subtraction: the box escapes F iff one of its four stick-out
    # strips is nonempty; any strip midpoint works.
    box = ((center.a1 - s.a1, center.a1 + s.a1), (center.a2 - s.a2, center.a2 + s.a2))
    for l, (blo, bhi) in ((1, box[0]), (2, box[1])):
        flo, fhi = F.interval(l)
        other = center.a2 if l == 1 else center.a1
        if blo < flo:
            mid = rdiv(blo + min(flo, bhi), 2)
            return HyperbolicScalar(mid, other) if l == 1 else HyperbolicScalar(other, mid)
        if bhi > fhi:
            mid = rdiv(max(fhi, blo) + bhi, 2)
            return HyperbolicScalar(mid, other) if l == 1 else HyperbolicScalar(other, mid)
    return None


def baire_witness(
    cover: Sequence[RectSet],
    bounding: RectSet | None = None,
) -> tuple[int, DBall]:
    """An index n and a ball contained in cover[n], by nested shrinking.

    Precondition (checked exactly): the rectangles cover the bounding box
    with no overflow.  When bounding is omitted it is taken to be the
    bounding box of the union.  The procedure walks the finite family: at
    stage n it searches the current half-ball for a point avoiding cover[n];
    if none exists that half-ball lies inside cover[n] and is returned,
    otherwise the ball shrinks around the found point with radius below
    2^-n, staying inside the parent half-ball and clear of cover[n].  An
    exact cover forces an early return, since a ball clear of every member
    would have an uncovered center.
    """
    cover = list(cover)
    if not cover:
        raise EmptyInputError("empty cover")
    if bounding is None:
        bounding = RectSet(
            (min(F.c1[0] for F in cover), max(F.c1[1] for F in cover)),
            (min(F.c2[0] for F in cover), max(F.c2[1] for F in cover)),
        )
    if bounding.c1[0] >= bounding.c1[1] or bounding.c2[0] >= bounding.c2[1]:
        raise ValueError("bounding rectangle must have nonempty interior")
    check_exact_cover(cover, bounding)

    center = HyperbolicScalar(
        rdiv(bounding.c1[0] + bounding.c1[1], 2),
        rdiv(bounding.c2[0] + bounding.c2[1], 2),
    )
    eps = HyperbolicScalar(
        rdiv(bounding.c1[1] - bounding.c1[0], 2),
        rdiv(bounding.c2[1] - bounding.c2[0], 2),
    )
    for n, F in enumerate(cover):
        half = HyperbolicScalar(rdiv(eps.a1, 2), rdiv(eps.a2, 2))
        found = _point_outside_rect(center, half, F)
        if found is None:
            return n, DBall(DVector.of(center), half)
        # Shrink: stay inside the parent half-ball, meet the 2^-n schedule,
        # and cap the separating coordinate at its distance to F.
        slack1 = half.a1 - abs(found.a1 - center.a1)
        slack2 = half.a2 - abs(found.a2 - center.a2)
        sched = Fraction(1, 2 ** (n + 1))
        r1 = min(slack1, sched)
        r2 = min(slack2, sched)
        d1 = _interval_distance(found.a1, *F.c1)
        d2 = _interval_distance(found.a2, *F.c2)
        if d1 >= d2 and d1 > 0:
            r1 = min(r1, d1)
        elif d2 > 0:
            r2 = min(r2, d2)
        center, eps = found, HyperbolicScalar(r1, r2)
    raise NotACoverError("nested balls escaped every member", witness=center)
