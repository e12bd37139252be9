"""Seeded random instance generators for the verification suites.

Everything draws through a caller-supplied :class:`random.Random`, so a seed
pins the full instance stream.  Coordinates are small rationals (denominators
up to 4) to keep the exact LPs fast and the failure records readable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from random import Random

from .convex import DConvexSet
from .linear import BCLinearFunctional, BCLinearMap, DLinearFunctional
from .metric import RectSet
from .polytope import RealPolytope, matrix_rank
from .scalars import BicomplexScalar, ComplexScalar, HyperbolicScalar
from .vectors import BCVector, DVector


@cache
def _fraction_table(lo: int, hi: int, den: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(k, den) for k in range(lo * den, hi * den + 1))


def rand_fraction(rng: Random, lo: int = -4, hi: int = 4, den: int = 4) -> Fraction:
    """k/den for k uniform in [lo·den, hi·den], drawn from a table built once.

    ``choice`` on the table makes the one ``_randbelow(hi·den − lo·den + 1)``
    draw that ``randint(lo·den, hi·den)`` makes, so the rng stream and the
    value are those of ``Fraction(rng.randint(lo * den, hi * den), den)``.
    The table holds all hi·den − lo·den + 1 values and is kept for the life
    of the process, one per bounds drawn with: this is for small ranges (the
    generators use eight, of at most 33 values).
    """
    return rng.choice(_fraction_table(lo, hi, den))


def rand_nonzero_fraction(rng: Random, lo: int = -4, hi: int = 4, den: int = 4) -> Fraction:
    while True:
        v = rand_fraction(rng, lo, hi, den)
        if v != 0:
            return v


def rand_hyperbolic(rng: Random) -> HyperbolicScalar:
    return HyperbolicScalar(rand_fraction(rng), rand_fraction(rng))


def rand_invertible_hyperbolic(rng: Random) -> HyperbolicScalar:
    return HyperbolicScalar(rand_nonzero_fraction(rng), rand_nonzero_fraction(rng))


def rand_positive_hyperbolic(rng: Random) -> HyperbolicScalar:
    return HyperbolicScalar(rand_nonzero_fraction(rng, 0, 3), rand_nonzero_fraction(rng, 0, 3))


def rand_complex(rng: Random) -> ComplexScalar:
    return ComplexScalar(rand_fraction(rng), rand_fraction(rng))


def rand_nonzero_complex(rng: Random) -> ComplexScalar:
    while True:
        z = rand_complex(rng)
        if not z.is_zero():
            return z


def rand_bicomplex(rng: Random) -> BicomplexScalar:
    return BicomplexScalar(rand_complex(rng), rand_complex(rng))


def rand_invertible_bicomplex(rng: Random) -> BicomplexScalar:
    return BicomplexScalar(rand_nonzero_complex(rng), rand_nonzero_complex(rng))


def rand_zero_divisor(rng: Random) -> BicomplexScalar:
    """A nonzero element of the null cone (one idempotent component zero)."""
    z = rand_nonzero_complex(rng)
    if rng.random() < 0.5:
        return BicomplexScalar(z, ComplexScalar(0))
    return BicomplexScalar(ComplexScalar(0), z)


def rand_dvector(rng: Random, dim: int) -> DVector:
    return DVector(tuple(rand_hyperbolic(rng) for _ in range(dim)))


def rand_bcvector(rng: Random, dim: int) -> BCVector:
    return BCVector(tuple(rand_bicomplex(rng) for _ in range(dim)))


def rand_dfunctional(rng: Random, dim: int) -> DLinearFunctional:
    return DLinearFunctional(rand_dvector(rng, dim))


def rand_bcfunctional(rng: Random, dim: int) -> BCLinearFunctional:
    return BCLinearFunctional(rand_bcvector(rng, dim))


def rand_bcmap(rng: Random, rows: int, cols: int) -> BCLinearMap:
    return BCLinearMap(tuple(
        tuple(rand_bicomplex(rng) for _ in range(cols)) for _ in range(rows)
    ))


def rand_component_invertible_map(rng: Random, n: int) -> BCLinearMap:
    """A square map whose component matrices are exactly invertible.

    A diagonal boost keeps the instances well-conditioned so float singular
    values stay far from the rank tolerance.
    """
    from .analysis import complex_rank

    while True:
        rows = [[rand_bicomplex(rng) for _ in range(n)] for _ in range(n)]
        boost = BicomplexScalar(ComplexScalar(3), ComplexScalar(3))
        for i in range(n):
            rows[i][i] = rows[i][i] + boost
        T = BCLinearMap(tuple(tuple(r) for r in rows))
        if all(complex_rank(T.component(l)) == n for l in (1, 2)):
            return T


# -- convex geometry instances -------------------------------------------------


def rand_absorbing_polytope(rng: Random, dim: int) -> RealPolytope:
    """A full-dimensional polytope with the origin strictly inside.

    Built as the hull of a spanning point set together with its reflection
    through 0; symmetry plus full rank puts 0 in the interior.  Instances
    stay small in dimension 3 so the exact hull/LP machinery downstream has
    polytopes it can chew through quickly.
    """
    extra = rng.randint(1, 2) if dim <= 2 else 1
    den = 4 if dim <= 2 else 2
    span = 3 if dim <= 2 else 2
    while True:
        points = [
            tuple(rand_fraction(rng, -span, span, den) for _ in range(dim))
            for _ in range(dim + extra)
        ]
        if matrix_rank([[Fraction(c) for c in p] for p in points]) == dim:
            verts = points + [tuple(-c for c in p) for p in points]
            return RealPolytope.from_vertices(verts)


def rand_absorbing_pair(rng: Random, dim: int, open_flag: bool = False) -> DConvexSet:
    return DConvexSet(
        rand_absorbing_polytope(rng, dim),
        rand_absorbing_polytope(rng, dim),
        open=open_flag,
    )


def _shifted_component(rng: Random, dim: int, radius_a: Fraction) -> RealPolytope:
    """A small polytope strictly beyond radius_a along a random axis."""
    count = rng.randint(1, min(dim + 1, 3))
    den = 4 if dim <= 2 else 2
    points = [
        tuple(rand_fraction(rng, -2, 2, den) for _ in range(dim))
        for _ in range(count)
    ]
    axis = rng.randrange(dim)
    sign = rng.choice((1, -1))
    gap = Fraction(rng.randint(1, 2))
    low = min(sign * p[axis] for p in points)
    shift = radius_a + gap - low
    moved = [
        tuple(c + sign * shift if i == axis else c for i, c in enumerate(p))
        for p in points
    ]
    return RealPolytope.from_vertices(moved)


def rand_separation_instance(rng: Random, dim: int) -> tuple[DConvexSet, DConvexSet]:
    """An open absorbing A and a closed B with a componentwise gap."""
    p1 = rand_absorbing_polytope(rng, dim)
    p2 = rand_absorbing_polytope(rng, dim)
    A = DConvexSet(p1, p2, open=True)
    radii = []
    for P in (p1, p2):
        radii.append(max(abs(Fraction(c)) for v in P.vertices() for c in v))
    B = DConvexSet(
        _shifted_component(rng, dim, radii[0]),
        _shifted_component(rng, dim, radii[1]),
    )
    return A, B


def rand_overlap_instance(rng: Random, dim: int) -> tuple[DConvexSet, DConvexSet, int]:
    """An open A and a B meeting it in at least the reported component."""
    A = rand_absorbing_pair(rng, dim, open_flag=True)
    which = rng.choice((1, 2, 3))  # 3 = both components overlap
    radius1 = max(abs(Fraction(c)) for v in A.p1.vertices() for c in v)
    radius2 = max(abs(Fraction(c)) for v in A.p2.vertices() for c in v)
    comp1 = (
        rand_absorbing_polytope(rng, dim)
        if which in (1, 3)
        else _shifted_component(rng, dim, radius1)
    )
    comp2 = (
        rand_absorbing_polytope(rng, dim)
        if which in (2, 3)
        else _shifted_component(rng, dim, radius2)
    )
    witness_component = 1 if which in (1, 3) else 2
    return A, DConvexSet(comp1, comp2), witness_component


# -- rectangle covers ------------------------------------------------------------


def rand_cover(rng: Random, splits: int = 5) -> tuple[list[RectSet], RectSet]:
    """An exact partition of a random bounding box into axis-aligned rects."""
    lo1, lo2 = rand_fraction(rng, -3, -1), rand_fraction(rng, -3, -1)
    hi1, hi2 = rand_fraction(rng, 1, 3), rand_fraction(rng, 1, 3)
    bounding = RectSet((lo1, hi1), (lo2, hi2))
    rects = [bounding]
    cuts = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4))
    for _ in range(splits):
        idx = rng.randrange(len(rects))
        rect = rects.pop(idx)
        axis = rng.choice((1, 2))
        lo, hi = rect.interval(axis)
        cut = lo + rng.choice(cuts) * (hi - lo)
        if axis == 1:
            rects.extend([RectSet((lo, cut), rect.c2), RectSet((cut, hi), rect.c2)])
        else:
            rects.extend([RectSet(rect.c1, (lo, cut)), RectSet(rect.c1, (cut, hi))])
    rng.shuffle(rects)
    return rects, bounding


def punctured_cover(rng: Random, splits: int = 5) -> tuple[list[RectSet], RectSet]:
    """A partition with one member shrunk, leaving an uncovered strip."""
    rects, bounding = rand_cover(rng, splits)
    while True:
        idx = rng.randrange(len(rects))
        rect = rects[idx]
        axis = rng.choice((1, 2))
        lo, hi = rect.interval(axis)
        if hi > lo:
            width = hi - lo
            cropped = (lo, hi - width / 4)
            rects[idx] = (
                RectSet(cropped, rect.c2) if axis == 1 else RectSet(rect.c1, cropped)
            )
            return rects, bounding


# -- graphs of maps ---------------------------------------------------------------


def rand_graph_basis(rng: Random, n: int, m: int) -> tuple[list[BCVector], BCLinearMap]:
    """A disguised spanning set of the graph of a random map, plus the map."""
    T = rand_bcmap(rng, m, n)
    vectors = []
    for i in range(n):
        e = BCVector.basis(n, i)
        vectors.append(BCVector(tuple(e.coords) + tuple(T(e).coords)))
    # Invertible-scalar rescalings and row mixes preserve the span.
    for _ in range(n):
        i = rng.randrange(n)
        vectors[i] = vectors[i].scale(rand_invertible_bicomplex(rng))
        j = rng.randrange(n)
        if i != j:
            vectors[i] = vectors[i] + vectors[j].scale(rand_bicomplex(rng))
    return vectors, T


def rand_non_graph(rng: Random, n: int, m: int) -> list[BCVector]:
    """A spanning set that fails to be a graph over the first block."""
    vectors, _ = rand_graph_basis(rng, n, m)
    mode = rng.choice(("vertical", "deficient", "null-scaled"))
    if mode == "vertical":
        tail = [BicomplexScalar.zero()] * n + [
            rand_invertible_bicomplex(rng) if i == rng.randrange(m) else rand_bicomplex(rng)
            for i in range(m)
        ]
        vectors.append(BCVector(tuple(tail)))
    elif mode == "deficient" and n > 1:
        vectors.pop(rng.randrange(len(vectors)))
    else:
        i = rng.randrange(len(vectors))
        vectors[i] = vectors[i].scale(rand_zero_divisor(rng))
    return vectors
