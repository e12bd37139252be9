"""Linear functionals and maps on D^n and BC^n.

Functionals and maps are stored by coefficients/matrices in idempotent
coordinates, which makes D-/BC-linearity structural.  The module also
implements the correspondence between a BC-linear functional ``h`` and its
hyperbolic part ``h_D`` (the D-valued, D-linear functional with
``h(x) = h_D(x) - i h_D(ix) = h_D(x) - j h_D(jx)``), including the six
independent ways of deriving ``h_D`` from a decomposition of ``h``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Sequence

from .backend import Real, rsqrt
from .convex import DConvexSet
from .errors import ConstantComponentError, DimensionMismatch
from .polytope import extreme_points
from .scalars import BicomplexScalar, ComplexScalar, HyperbolicScalar
from .vectors import BCVector, DVector

if TYPE_CHECKING:
    import numpy as np


class FunctionalForm(Enum):
    """The six decompositions of a BC-linear functional value."""

    REAL_QUAD = "real-quad"
    CJ_PAIR = "Cj-pair"
    IDEMPOTENT_PAIR = "idempotent-pair"
    CK_PAIR = "Ck-pair"
    D_PAIR_I = "D-pair-i"
    D_PAIR_J = "D-pair-j"


# -- functionals on D^n -----------------------------------------------------


@dataclass(frozen=True, slots=True)
class DLinearFunctional:
    """f(x) = sum_m coeffs_m * x_m with hyperbolic coefficients."""

    coeffs: DVector

    @property
    def dim(self) -> int:
        return self.coeffs.dim

    @classmethod
    def from_parts(cls, part1: Sequence[Real], part2: Sequence[Real]) -> DLinearFunctional:
        return cls(DVector.from_parts(part1, part2))

    def __call__(self, x: DVector) -> HyperbolicScalar:
        return eval_d(self, x)

    def component(self, l: int) -> tuple[Real, ...]:
        """Real coefficient vector of the component functional f_l."""
        return self.coeffs.part(l)

    def eval_component(self, l: int, v: Sequence[Real]) -> Real:
        c = self.component(l)
        if len(c) != len(v):
            raise DimensionMismatch("point dim mismatch")
        return sum(a * b for a, b in zip(c, v))


def eval_d(f: DLinearFunctional, x: DVector) -> HyperbolicScalar:
    if f.dim != x.dim:
        raise DimensionMismatch(f"functional dim {f.dim} vs point dim {x.dim}")
    total = HyperbolicScalar.zero()
    for c, v in zip(f.coeffs.coords, x.coords):
        total = total + c * v
    return total


@dataclass(frozen=True, slots=True)
class BCLinearFunctional:
    """h(x) = sum_m coeffs_m * x_m with bicomplex coefficients."""

    coeffs: BCVector

    @property
    def dim(self) -> int:
        return self.coeffs.dim

    def __call__(self, x: BCVector) -> BicomplexScalar:
        if self.dim != x.dim:
            raise DimensionMismatch("functional dim vs point dim")
        total = BicomplexScalar.zero()
        for c, v in zip(self.coeffs.coords, x.coords):
            total = total + c * v
        return total


def split_functional(f):
    """The idempotent component pair (f1, f2) as coefficient tuples.

    For a DLinearFunctional these are real vectors; for a BCLinearFunctional
    complex ones.  ``f = e1*f1 + e2*f2`` reassembles exactly.
    """
    if isinstance(f, DLinearFunctional):
        return f.coeffs.part1(), f.coeffs.part2()
    if isinstance(f, BCLinearFunctional):
        return f.coeffs.part1(), f.coeffs.part2()
    raise TypeError("expected a linear functional")


def functional_from_parts(part1, part2):
    """Reassemble a functional from its split (inverse of split_functional)."""
    if part1 and isinstance(part1[0], ComplexScalar):
        return BCLinearFunctional(BCVector.from_parts(part1, part2))
    return DLinearFunctional(DVector.from_parts(part1, part2))


def functional_dbound(f: DLinearFunctional) -> HyperbolicScalar:
    """e1*||c1|| + e2*||c2||: a D-bound with |f(x)|_k <=' bound * ||x||_D."""
    sq1 = sum(c * c for c in f.coeffs.part1())
    sq2 = sum(c * c for c in f.coeffs.part2())
    return HyperbolicScalar(rsqrt(sq1), rsqrt(sq2))


# -- the hyperbolic part of a BC-linear functional --------------------------


def _hd_real_quad(Z: BicomplexScalar) -> HyperbolicScalar:
    """From h = g1 + i g2 + j g3 + k g4: h_D = g1 + k g4."""
    g1, _, _, g4 = Z.quad()
    return HyperbolicScalar.from_standard(g1, g4)


def _hd_cj_pair(Z: BicomplexScalar) -> HyperbolicScalar:
    """From h = f1 + j f2 (complex pair): h_D = Re f1 + k Im f2."""
    f1, f2 = Z.w1, Z.w2
    return HyperbolicScalar.from_standard(f1.re, f2.im)


def _hd_idempotent_pair(Z: BicomplexScalar) -> HyperbolicScalar:
    """From h = e1 f1 + e2 f2 (complex pair): h_D = e1 Re f1 + e2 Re f2."""
    return HyperbolicScalar(Z.z1.re, Z.z2.re)


def _hd_ck_pair(Z: BicomplexScalar) -> HyperbolicScalar:
    """From h = c1 + k c2 (complex pair, c2 = -i*w2): h_D = Re c1 + k Re c2."""
    c1 = Z.w1
    w2 = Z.w2
    c2 = ComplexScalar(w2.im, -w2.re)
    return HyperbolicScalar.from_standard(c1.re, c2.re)


def _hd_d_pair_i(Z: BicomplexScalar) -> HyperbolicScalar:
    """From h = d1 + i d2 (hyperbolic pair): h_D = d1."""
    _, g2, g3, _ = Z.quad()
    d2 = HyperbolicScalar.from_standard(g2, -g3)
    residual = Z - BicomplexScalar.unit_i() * d2.to_bicomplex()
    return HyperbolicScalar(residual.z1.re, residual.z2.re)


def _hd_d_pair_j(Z: BicomplexScalar) -> HyperbolicScalar:
    """From h = d1 + j d2 (hyperbolic pair): h_D = d1."""
    _, g2, g3, _ = Z.quad()
    d2 = HyperbolicScalar.from_standard(g3, -g2)
    residual = Z - BicomplexScalar.unit_j() * d2.to_bicomplex()
    return HyperbolicScalar(residual.z1.re, residual.z2.re)


_FORM_DERIVATIONS = {
    FunctionalForm.REAL_QUAD: _hd_real_quad,
    FunctionalForm.CJ_PAIR: _hd_cj_pair,
    FunctionalForm.IDEMPOTENT_PAIR: _hd_idempotent_pair,
    FunctionalForm.CK_PAIR: _hd_ck_pair,
    FunctionalForm.D_PAIR_I: _hd_d_pair_i,
    FunctionalForm.D_PAIR_J: _hd_d_pair_j,
}


def hyperbolic_part_of_value(Z: BicomplexScalar, form: FunctionalForm) -> HyperbolicScalar:
    """Derive the hyperbolic part of a functional value via one decomposition."""
    return _FORM_DERIVATIONS[form](Z)


@dataclass(frozen=True, slots=True)
class HyperbolicFunctional:
    """A D-valued, D-linear functional on BC^n.

    Stored by its values on the module generators e_m and i*e_m, which makes
    D-linearity structural: writing a coordinate as alpha + i*beta with
    hyperbolic alpha, beta, evaluation is
    sum_m alpha_m * on_basis[m] + beta_m * on_ibasis[m].
    """

    on_basis: tuple[HyperbolicScalar, ...]
    on_ibasis: tuple[HyperbolicScalar, ...]

    @property
    def dim(self) -> int:
        return len(self.on_basis)

    def __call__(self, x: BCVector) -> HyperbolicScalar:
        if x.dim != self.dim:
            raise DimensionMismatch("point dim mismatch")
        total = HyperbolicScalar.zero()
        for m, Z in enumerate(x.coords):
            alpha = HyperbolicScalar(Z.z1.re, Z.z2.re)
            beta = HyperbolicScalar(Z.z1.im, Z.z2.im)
            total = total + alpha * self.on_basis[m] + beta * self.on_ibasis[m]
        return total


def hyperbolic_part(h: BCLinearFunctional) -> HyperbolicFunctional:
    """h_D: the hyperbolic parts of h's values, packaged as a D-linear functional."""
    dim = h.dim
    on_basis = []
    on_ibasis = []
    for m in range(dim):
        e = BCVector.basis(dim, m)
        on_basis.append(h(e).hyp_part())
        on_ibasis.append(h(e.times_i()).hyp_part())
    return HyperbolicFunctional(tuple(on_basis), tuple(on_ibasis))


def reconstruct(f: HyperbolicFunctional, axis: str = "i") -> BCLinearFunctional:
    """The unique BC-linear h with hyperbolic part f.

    axis "i": h(x) = f(x) - i f(ix); axis "j": h(x) = f(x) - j f(jx).
    Both produce the same functional.
    """
    if axis == "i":
        unit = BicomplexScalar.unit_i()
        twist = BCVector.times_i
    elif axis == "j":
        unit = BicomplexScalar.unit_j()
        twist = BCVector.times_j
    else:
        raise ValueError("axis must be 'i' or 'j'")
    coeffs = []
    for m in range(f.dim):
        e = BCVector.basis(f.dim, m)
        value = f(e).to_bicomplex() - unit * f(twist(e)).to_bicomplex()
        coeffs.append(value)
    return BCLinearFunctional(BCVector(tuple(coeffs)))


def hyperbolic_functional_from_pairs(f: DLinearFunctional) -> HyperbolicFunctional:
    """View a functional on D^(2n) (interleaved re/im pairs) as one on BC^n."""
    if f.dim % 2:
        raise DimensionMismatch("need an even real dimension")
    n = f.dim // 2
    on_basis, on_ibasis = [], []
    for m in range(n):
        re_unit = [0] * f.dim
        re_unit[2 * m] = 1
        im_unit = [0] * f.dim
        im_unit[2 * m + 1] = 1
        on_basis.append(f(DVector.from_parts(re_unit, re_unit)))
        on_ibasis.append(f(DVector.from_parts(im_unit, im_unit)))
    return HyperbolicFunctional(tuple(on_basis), tuple(on_ibasis))


# -- maps -------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BCLinearMap:
    """A rows x cols matrix of bicomplex scalars acting on BCVector."""

    matrix: tuple[tuple[BicomplexScalar, ...], ...]

    @property
    def rows(self) -> int:
        return len(self.matrix)

    @property
    def cols(self) -> int:
        return len(self.matrix[0])

    @classmethod
    def identity(cls, n: int) -> BCLinearMap:
        one, zero = BicomplexScalar.one(), BicomplexScalar.zero()
        return cls(tuple(tuple(one if r == c else zero for c in range(n)) for r in range(n)))

    def __call__(self, x: BCVector) -> BCVector:
        if x.dim != self.cols:
            raise DimensionMismatch("map cols vs point dim")
        out = []
        for row in self.matrix:
            acc = BicomplexScalar.zero()
            for entry, v in zip(row, x.coords):
                acc = acc + entry * v
            out.append(acc)
        return BCVector(tuple(out))

    def component(self, l: int) -> list[list[ComplexScalar]]:
        """The complex component matrix T_l."""
        pick = (lambda e: e.z1) if l == 1 else (lambda e: e.z2)
        return [[pick(e) for e in row] for row in self.matrix]

    def component_array(self, l: int) -> np.ndarray:
        import numpy as np

        return np.array(
            [[complex(float(z.re), float(z.im)) for z in row] for row in self.component(l)],
            dtype=complex,
        )


def operator_dnorm(T: BCLinearMap) -> HyperbolicScalar:
    """e1*||T1|| + e2*||T2|| with spectral component norms (float backend)."""
    import numpy as np

    n1 = float(np.linalg.norm(T.component_array(1), ord=2))
    n2 = float(np.linalg.norm(T.component_array(2), ord=2))
    return HyperbolicScalar(n1, n2)


# -- images of convex sets --------------------------------------------------


@dataclass(frozen=True, slots=True)
class DIntervalPair:
    """e1*[lo1,hi1] + e2*[lo2,hi2], open when the source set was open."""

    i1: tuple[Real, Real]
    i2: tuple[Real, Real]
    open: bool = False

    def contains(self, alpha: HyperbolicScalar) -> bool:
        from .backend import rle, rlt

        cmp = rlt if self.open else rle
        return (
            cmp(self.i1[0], alpha.a1)
            and cmp(alpha.a1, self.i1[1])
            and cmp(self.i2[0], alpha.a2)
            and cmp(alpha.a2, self.i2[1])
        )


@dataclass(frozen=True, slots=True)
class PlanarRegionPair:
    """Convex polygon images (as complex-plane vertex tuples) per component."""

    hull1: tuple[tuple[Real, Real], ...]
    hull2: tuple[tuple[Real, Real], ...]
    open: bool = False


def image_convex(f, A: DConvexSet):
    """The image f(A), componentwise.

    A D-linear functional maps the polytope pair onto an interval pair in D
    (open when A is open); a BC-linear functional maps each component onto a
    convex polygon in the complex plane.
    """
    if isinstance(f, DLinearFunctional):
        if f.dim != A.dim:
            raise DimensionMismatch("functional dim vs set dim")
        intervals = []
        for l in (1, 2):
            c = f.component(l)
            if all(v == 0 for v in c):
                raise ConstantComponentError(f"zero coefficients in component {l}")
            vals = [f.eval_component(l, v) for v in A.component(l).vertices()]
            intervals.append((min(vals), max(vals)))
        return DIntervalPair(intervals[0], intervals[1], open=A.open)
    if isinstance(f, BCLinearFunctional):
        if 2 * f.dim != A.dim:
            raise DimensionMismatch("BC functional needs component dim = 2n")
        hulls = []
        for l in (1, 2):
            coeffs = [c.z1 if l == 1 else c.z2 for c in f.coeffs.coords]
            if all(z.is_zero() for z in coeffs):
                raise ConstantComponentError(f"zero coefficients in component {l}")
            images = []
            for v in A.component(l).vertices():
                z = ComplexScalar(0)
                for m, c in enumerate(coeffs):
                    z = z + c * ComplexScalar(v[2 * m], v[2 * m + 1])
                images.append((z.re, z.im))
            hulls.append(tuple(extreme_points(images)))
        return PlanarRegionPair(hulls[0], hulls[1], open=A.open)
    raise TypeError("expected a linear functional")
