"""Deterministic property-test suites with machine-readable reports.

A suite is one per-case function ``case(rec, rng)``: it draws one instance
from ``rng`` and records every failed check on the :class:`Recorder` ``rec``
(inputs, the expected relation, the observed values), reading the case
index, the seed and the backend from ``rec``.  `run_cases` is the one loop:
it runs a case function ``cases`` times on one rng and returns a
:class:`SuiteReport`; a report with an empty failure list is a pass.
`run_suite` looks the name up and seeds the rng with the suite name and the
user seed.  The theorem harnesses (`ubp_case` ... `hyperplane_case`, in the
order of `THEOREM_CASES`) are case functions too, which the ``theorems``
suite rotates through and callers may run on their own.

Scalar- and vector-level suites honor the float backend by converting the
drawn instances to floats (comparisons then go through the epsilon-tolerant
backend helpers).  The LP-driven geometry suites always construct their
certificates in exact arithmetic — that is what makes them certificates —
and note the requested backend in the report only.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial
from itertools import product
from random import Random
from typing import TYPE_CHECKING, Callable

from . import scalars
from .backend import EPSILON, EXACT, FLOAT, req
from .convex import (
    DConvexSet,
    dconvex_hull,
    is_dabsorbing,
    is_dconvex,
    minkowski_gauge,
    minkowski_diff_translate,
)
from .errors import (
    BicomplexError,
    ConstantComponentError,
    DegenerateFunctionalError,
    DominationError,
    EmptyFamilyError,
    NonPositiveBoundError,
    NotACoverError,
    NotAbsorbingError,
    NotAGraphError,
    NotBijectiveError,
    NotDisjointError,
    NotSurjectiveError,
    NullConeError,
    ZeroDivisorLevelError,
)
from . import generators as gen
from .analysis import (
    MapFamily,
    extend_dominated,
    hyperplane_gauge_bound,
    hyperplane_normalize,
    inverse_map,
    map_from_graph,
    omt_delta,
    separate_bicomplex,
    separate_hyperbolic,
    ubp_bound,
    variety_extend_hyperplane,
)
from .linear import (
    BCLinearFunctional,
    BCLinearMap,
    DLinearFunctional,
    FunctionalForm,
    functional_dbound,
    hyperbolic_part,
    hyperbolic_part_of_value,
    hyperbolic_functional_from_pairs,
    image_convex,
    operator_dnorm,
    reconstruct,
)
from .metric import (
    DBall,
    ball_contains,
    ball_in_rect,
    baire_witness,
    check_exact_cover,
    dmetric,
    dmetric_bc,
    dnorm,
    dnorm_bc,
)
from .order import OrderResult, compare, inf_d, is_d_bounded, le, lt_strict, sup_d
from .polytope import RealPolytope, matrix_rank
from .scalars import (
    BicomplexScalar,
    ComplexScalar,
    ConjugationKind,
    HyperbolicScalar,
    bc_from_w,
    bc_inverse,
    conjugate,
    dnorm_k_sq,
    is_zero_divisor,
    modulus,
)
from .vectors import BCVector, DVector

if TYPE_CHECKING:
    import numpy as np


@dataclass
class SuiteReport:
    """Outcome of one suite run; an empty failure list means it passed."""

    suite: str
    seed: int
    cases: int
    backend: str
    failures: list
    wall_time_s: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return asdict(self)

    def text(self) -> str:
        status = "PASS" if self.ok else f"FAIL ({len(self.failures)} failures)"
        lines = [
            f"suite={self.suite} cases={self.cases} seed={self.seed} "
            f"backend={self.backend} time={self.wall_time_s:.2f}s ... {status}"
        ]
        for rec in self.failures[:20]:
            lines.append(
                f"  case {rec['case']}: {rec['property']}: expected {rec['expected']}; "
                f"observed {rec['observed']} [inputs: {rec['inputs']}]"
            )
        if len(self.failures) > 20:
            lines.append(f"  ... and {len(self.failures) - 20} more")
        return "\n".join(lines)


class Recorder:
    """Collects one run's failures; check() guards a predicate, expect_raises
    an error, guard() an unexpected exception.

    ``seed`` and ``backend`` are the run's; ``case`` is the index of the case
    running, which every failure record carries.
    """

    def __init__(self, seed: int, backend: str):
        self.seed = seed
        self.backend = backend
        self.case = 0
        self.failures: list = []

    def check(self, ok: bool, prop: str, inputs, expected, observed) -> bool:
        if not ok:
            self.failures.append(
                {
                    "case": self.case,
                    "property": prop,
                    "inputs": repr(inputs),
                    "expected": str(expected),
                    "observed": repr(observed),
                }
            )
        return ok

    def expect_raises(self, exc_type, prop: str, inputs, thunk: Callable) -> None:
        try:
            value = thunk()
        except exc_type:
            return
        except BicomplexError as other:
            self.check(False, prop, inputs, exc_type.__name__, type(other).__name__)
            return
        self.check(False, prop, inputs, exc_type.__name__, f"no error; got {value!r}")

    def guard(self, prop: str, inputs, thunk: Callable):
        """Run thunk, recording an unexpected exception as a failure."""
        try:
            return thunk()
        except Exception as exc:  # noqa: BLE001 - suites must not crash
            self.check(False, prop, inputs, "no exception", f"{type(exc).__name__}: {exc}")
            return None


# -- backend coercion ------------------------------------------------------------


def _h_cast(a: HyperbolicScalar, backend: str) -> HyperbolicScalar:
    if backend == EXACT:
        return a
    return HyperbolicScalar(float(a.a1), float(a.a2))


def _c_cast(z: ComplexScalar, backend: str) -> ComplexScalar:
    if backend == EXACT:
        return z
    return ComplexScalar(float(z.re), float(z.im))


def _bc_cast(Z: BicomplexScalar, backend: str) -> BicomplexScalar:
    if backend == EXACT:
        return Z
    return BicomplexScalar(_c_cast(Z.z1, backend), _c_cast(Z.z2, backend))


def _dv_cast(x: DVector, backend: str) -> DVector:
    if backend == EXACT:
        return x
    return DVector(tuple(_h_cast(h, backend) for h in x.coords))


def _bcv_cast(x: BCVector, backend: str) -> BCVector:
    if backend == EXACT:
        return x
    return BCVector(tuple(_bc_cast(Z, backend) for Z in x.coords))


def _h_eq(a: HyperbolicScalar, b: HyperbolicScalar) -> bool:
    return req(a.a1, b.a1) and req(a.a2, b.a2)


def _bc_eq(a: BicomplexScalar, b: BicomplexScalar) -> bool:
    return (
        req(a.z1.re, b.z1.re)
        and req(a.z1.im, b.z1.im)
        and req(a.z2.re, b.z2.re)
        and req(a.z2.im, b.z2.im)
    )


Case = Callable[[Recorder, Random], None]


def run_cases(name: str, case: Case, rng: Random, seed: int, cases: int,
              backend: str = EXACT) -> SuiteReport:
    """Run ``case(rec, rng)`` for indices 0 .. cases-1 on one rng.

    A case that raises is recorded as a failure of that case, and the run
    goes on with the next one.
    """
    start = time.perf_counter()
    rec = Recorder(seed, backend)
    run = partial(case, rec, rng)
    for idx in range(cases):
        rec.case = idx
        rec.guard(f"{name}-case", {"seed": seed, "case": idx, "backend": backend}, run)
    return SuiteReport(name, seed, cases, backend, rec.failures, time.perf_counter() - start)


# -- algebra ---------------------------------------------------------------------


def algebra_case(rec: Recorder, rng: Random) -> None:
    """Ring laws, the conjugation table, moduli, units, and inverses."""
    backend = rec.backend
    one = BicomplexScalar.one()
    zero = BicomplexScalar.zero()
    # the product is read through the module attribute, so a patched one is
    # what gets tested
    mul = scalars.bc_mul

    if rec.case == 0:  # unit table: constant inputs, so once per run
        k = BicomplexScalar.unit_k()
        e1 = HyperbolicScalar.e1().to_bicomplex()
        e2 = HyperbolicScalar.e2().to_bicomplex()
        kk = mul(k, k)
        rec.check(_bc_eq(kk, one), "k-squared", k, "one", kk)
        e1_minus_e2 = e1 - e2
        rec.check(_bc_eq(k, e1_minus_e2), "k-idempotent-form", k, "e1 - e2", e1_minus_e2)
        e1e2 = mul(e1, e2)
        rec.check(_bc_eq(e1e2, zero), "idempotent-orthogonal", (e1, e2), "zero", e1e2)
        e1e1 = mul(e1, e1)
        rec.check(_bc_eq(e1e1, e1), "idempotent-e1", e1, "e1", e1e1)

    Z = _bc_cast(gen.rand_bicomplex(rng), backend)
    W = _bc_cast(gen.rand_bicomplex(rng), backend)
    V = _bc_cast(gen.rand_bicomplex(rng), backend)
    ins = (Z, W, V)

    # additive group
    sum_zw = Z + W
    assoc_l, assoc_r = sum_zw + V, Z + (W + V)
    rec.check(_bc_eq(assoc_l, assoc_r), "add-associative", ins, "equal", (assoc_l, assoc_r))
    sum_wz = W + Z
    rec.check(_bc_eq(sum_zw, sum_wz), "add-commutative", ins, "equal", (sum_zw, sum_wz))
    plus_zero = Z + zero
    rec.check(_bc_eq(plus_zero, Z), "add-identity", Z, "equal", plus_zero)
    minus_self = Z - Z
    rec.check(minus_self.is_zero() if backend == EXACT else _bc_eq(minus_self, zero),
              "add-inverse", Z, "zero", minus_self)

    # multiplicative monoid
    zw, wz = mul(Z, W), mul(W, Z)
    rec.check(_bc_eq(zw, wz), "mul-commutative", ins, "equal", (zw, wz))
    massoc_l, massoc_r = mul(zw, V), mul(Z, mul(W, V))
    rec.check(_bc_eq(massoc_l, massoc_r), "mul-associative", ins, "equal", (massoc_l, massoc_r))
    one_z = mul(one, Z)
    rec.check(_bc_eq(one_z, Z), "mul-identity", Z, "equal", one_z)
    dist_l, dist_r = mul(Z, W + V), zw + mul(Z, V)
    rec.check(_bc_eq(dist_l, dist_r), "distributive", ins, "equal", (dist_l, dist_r))

    # conjugation table: involutions, products, composition
    for kind in ConjugationKind:
        twice = conjugate(conjugate(Z, kind), kind)
        rec.check(_bc_eq(twice, Z), f"involution-{kind.value}", Z, "identity", twice)
        conj_of_prod = conjugate(zw, kind)
        prod_of_conj = mul(conjugate(Z, kind), conjugate(W, kind))
        rec.check(
            _bc_eq(conj_of_prod, prod_of_conj),
            f"conjugation-multiplicative-{kind.value}", (Z, W), "equal", conj_of_prod,
        )
    composed = conjugate(conjugate(Z, ConjugationKind.DAGGER1), ConjugationKind.DAGGER2)
    d3 = conjugate(Z, ConjugationKind.DAGGER3)
    rec.check(
        _bc_eq(composed, d3),
        "dagger1-then-dagger2-is-dagger3", Z, "equal", (composed, d3),
    )

    # moduli: Z * Z^dagger3 = |Z|^2_k and multiplicativity of |.|_k^2
    mk = modulus(Z, "k")
    z_d3 = mul(Z, d3)
    rec.check(_bc_eq(mk, z_d3), "modulus-k-definition", Z, "equal", mk)
    prod_sq = dnorm_k_sq(zw)
    split_sq = dnorm_k_sq(Z) * dnorm_k_sq(W)
    rec.check(_h_eq(prod_sq, split_sq), "norm-k-multiplicative", (Z, W), "equal", (prod_sq, split_sq))
    mk_hyp = mk.hyp_part()
    rec.check(le(HyperbolicScalar.zero(), mk_hyp), "modulus-k-nonnegative", Z, ">=' 0", mk_hyp)

    # inverses off the null cone; zero divisors on it
    if Z.is_invertible():
        z_zinv = mul(Z, bc_inverse(Z))
        rec.check(_bc_eq(z_zinv, one), "inverse-law", Z, "one", z_zinv)
    D = _bc_cast(gen.rand_zero_divisor(rng), backend)
    on_null_cone = is_zero_divisor(D)
    rec.check(on_null_cone, "null-cone-detected", D, "True", on_null_cone)
    rec.expect_raises(NullConeError, "null-cone-inverse-rejected", D, lambda: bc_inverse(D))
    opposite = BicomplexScalar(ComplexScalar(0), D.z1) if D.z2.is_zero() else BicomplexScalar(D.z2, ComplexScalar(0))
    annihilated = mul(D, opposite)
    rec.check(annihilated.is_zero(), "complementary-divisors-annihilate", (D, opposite), "zero", annihilated)

    # w-coordinates round trip
    w_back = bc_from_w(Z.w1, Z.w2)
    rec.check(_bc_eq(w_back, Z), "w-roundtrip", Z, "equal", w_back)

    # hyperbolic subring
    a = _h_cast(gen.rand_hyperbolic(rng), backend)
    b = _h_cast(gen.rand_hyperbolic(rng), backend)
    ab, ba = a * b, b * a
    rec.check(_h_eq(ab, ba), "hyperbolic-commutative", (a, b), "equal", (ab, ba))
    absk_prod = ab.abs_k()
    absk_split = a.abs_k() * b.abs_k()
    rec.check(_h_eq(absk_prod, absk_split), "hyperbolic-absk-multiplicative",
              (a, b), "equal", (absk_prod, absk_split))
    emb = mul(a.to_bicomplex(), b.to_bicomplex())
    rec.check(_bc_eq(ab.to_bicomplex(), emb), "hyperbolic-embedding", (a, b), "equal", emb)


# -- order -----------------------------------------------------------------------


def order_case(rec: Recorder, rng: Random) -> None:
    """Partial-order axioms, four-way comparison, sup/inf, boundedness."""
    idx, backend = rec.case, rec.backend
    zero = HyperbolicScalar.zero()
    a = _h_cast(gen.rand_hyperbolic(rng), backend)
    step1 = _h_cast(HyperbolicScalar(gen.rand_fraction(rng, 0, 2), gen.rand_fraction(rng, 0, 2)), backend)
    step2 = _h_cast(HyperbolicScalar(gen.rand_fraction(rng, 0, 2), gen.rand_fraction(rng, 0, 2)), backend)
    b = a + step1
    c = b + step2
    x = _h_cast(gen.rand_hyperbolic(rng), backend)

    le_aa, le_ab, le_ac, le_ax, le_xa = le(a, a), le(a, b), le(a, c), le(a, x), le(x, a)
    rec.check(le_aa, "reflexive", a, "a <=' a", le_aa)
    rec.check(le_ab, "chain-le-1", (a, b), "a <=' a+p", le_ab)
    rec.check(le_ac, "transitive", (a, b, c), "a <=' c", le_ac)
    if le_ax and le_xa:
        rec.check(_h_eq(a, x), "antisymmetric", (a, x), "equal", (a, x))

    # compare() agrees with le / lt_strict
    cmp_ab = compare(a, b)
    rec.check(
        cmp_ab in (OrderResult.LESS, OrderResult.EQUAL),
        "compare-chain", (a, b), "LESS or EQUAL", cmp_ab,
    )
    cmp_ax = compare(a, x)
    if cmp_ax is OrderResult.INCOMPARABLE:
        rec.check(
            not le_ax and not le_xa,
            "incomparable-consistent", (a, x), "neither <='", (le_ax, le_xa),
        )
    if lt_strict(a, x):
        rec.check(le_ax and not _h_eq(a, x), "strict-implies-weak", (a, x), "<=' and !=", cmp_ax)

    # translation and positive-scaling invariance
    le_shifted = le(a + x, b + x)
    rec.check(le_shifted == le_ab, "translation-invariant", (a, b, x), "same truth", le_shifted)
    lam = _h_cast(gen.rand_positive_hyperbolic(rng), backend)
    le_scaled = le(lam * a, lam * b)
    rec.check(le_scaled == le_ab, "positive-scaling", (a, b, lam), "same truth", le_scaled)

    # sup / inf on a finite set
    S = [_h_cast(gen.rand_hyperbolic(rng), backend) for _ in range(2 + idx % 4)]
    s, i = sup_d(S), inf_d(S)
    rec.check(all(le(v, s) for v in S), "sup-upper-bound", S, "all <=' sup", s)
    rec.check(all(le(i, v) for v in S), "inf-lower-bound", S, "inf <=' all", i)
    rec.check(
        req(s.a1, max(v.a1 for v in S)) and req(s.a2, max(v.a2 for v in S)),
        "sup-least", S, "componentwise max", s,
    )
    rec.check(
        req(i.a1, min(v.a1 for v in S)) and req(i.a2, min(v.a2 for v in S)),
        "inf-greatest", S, "componentwise min", i,
    )

    # boundedness against the componentwise absolute values
    m = sup_d([v.abs_k() for v in S])
    bound = m + HyperbolicScalar.one()
    bounded = is_d_bounded(S, bound)
    rec.check(bounded, "bounded-above-sup", (S, bound), "True", bounded)
    if lt_strict(zero, m):  # only a >' 0 value is a legal bound
        bounded_m = is_d_bounded(S, m)
        rec.check(not bounded_m or all(lt_strict(v.abs_k(), m) for v in S),
                  "bound-strictness", (S, m), "strict below only", bounded_m)
    rec.expect_raises(
        NonPositiveBoundError, "nonpositive-bound-rejected", S,
        lambda: is_d_bounded(S, zero),
    )


# -- metric ----------------------------------------------------------------------


def metric_case(rec: Recorder, rng: Random) -> None:
    """D-metric axioms, ball strictness, and the nested-ball cover harness.

    Every tenth case runs the rectangle-cover pipeline: an exact partition is
    verified and a witness ball produced; a punctured copy must be rejected
    with a witness point.
    """
    seed, idx, backend = rec.seed, rec.case, rec.backend
    dim = 1 + idx % 4
    x = _dv_cast(gen.rand_dvector(rng, dim), backend)
    y = _dv_cast(gen.rand_dvector(rng, dim), backend)
    z = _dv_cast(gen.rand_dvector(rng, dim), backend)

    zero_v = DVector.zero(dim)
    norm_zero = dnorm(zero_v)
    rec.check(_h_eq(norm_zero, HyperbolicScalar.zero()), "norm-of-zero", dim, "0", norm_zero)
    d_xy, d_yx, d_xx = dmetric(x, y), dmetric(y, x), dmetric(x, x)
    rec.check(le(HyperbolicScalar.zero(), d_xy), "metric-nonnegative", (x, y), ">=' 0", d_xy)
    rec.check(_h_eq(d_xy, d_yx), "metric-symmetric", (x, y), "equal", d_yx)
    rec.check(_h_eq(d_xx, HyperbolicScalar.zero()), "metric-identity", x, "0", d_xx)
    triangle, d_xz = d_xy + dmetric(y, z), dmetric(x, z)
    rec.check(le(d_xz, triangle), "triangle", (x, y, z), "<='", (d_xz, triangle))
    d_shifted = dmetric(x + z, y + z)
    rec.check(_h_eq(d_shifted, d_xy), "translation-invariant", (x, y, z), "equal", d_shifted)
    lam = _h_cast(gen.rand_positive_hyperbolic(rng), backend)
    norm_scaled, scaled_norm = dnorm(x.scale(lam)), lam * dnorm(x)
    rec.check(_h_eq(norm_scaled, scaled_norm), "positive-homogeneous", (x, lam), "equal", (norm_scaled, scaled_norm))

    u = _bcv_cast(gen.rand_bcvector(rng, dim), backend)
    v = _bcv_cast(gen.rand_bcvector(rng, dim), backend)
    w = _bcv_cast(gen.rand_bcvector(rng, dim), backend)
    tri_bc, d_uw = dmetric_bc(u, v) + dmetric_bc(v, w), dmetric_bc(u, w)
    rec.check(le(d_uw, tri_bc), "bc-triangle", (u, v, w), "<='", (d_uw, tri_bc))
    norm_neg = dnorm_bc(u.scale(-1))
    rec.check(_h_eq(norm_neg, dnorm_bc(u)), "bc-norm-even", u, "equal", norm_neg)

    # ball strictness: boundary points are outside, interior points inside
    r = HyperbolicScalar(Fraction(3, 2), Fraction(1, 2))
    ball = DBall(x if backend == EXACT else _dv_cast(x, backend), _h_cast(r, backend))
    inner = x + DVector.of(*([HyperbolicScalar.zero()] * (dim - 1) + [HyperbolicScalar(Fraction(1, 2), Fraction(1, 4))]))
    rec.check(ball_contains(ball, _dv_cast(inner, backend)), "ball-interior", (ball, inner), "True", True)
    edge = x + DVector.of(*([HyperbolicScalar.zero()] * (dim - 1) + [r]))
    if backend == EXACT:
        edge_inside = ball_contains(ball, edge)
        rec.check(not edge_inside, "ball-boundary-strict", (ball, edge), "False", edge_inside)

    if idx % 10 == 0:
        cover, bounding = gen.rand_cover(Random(f"cover:{seed}:{idx}"), 5)
        inputs = (cover, bounding)
        rec.guard("cover-verifies", inputs, lambda: check_exact_cover(cover, bounding))
        got = rec.guard("baire-witness", inputs, lambda: baire_witness(cover, bounding))
        if got is not None:
            n, ball = got
            rec.check(0 <= n < len(cover), "witness-index", inputs, "valid index", n)
            rec.check(ball_in_rect(ball, cover[n]), "witness-ball-inside", (n, ball), "contained", ball)
        pcov, pbound = gen.punctured_cover(Random(f"puncture:{seed}:{idx}"), 4)
        try:
            check_exact_cover(pcov, pbound)
            rec.check(False, "puncture-rejected", (pcov, pbound), "NotACoverError", "verified")
        except NotACoverError as exc:
            rec.check(
                pbound.contains(exc.witness) and not any(r.contains(exc.witness) for r in pcov),
                "puncture-witness-uncovered", exc.witness, "in box, outside all rects", exc.witness,
            )


# -- linear ----------------------------------------------------------------------


_ALL_FORMS = tuple(FunctionalForm)


def linear_case(rec: Recorder, rng: Random) -> None:
    """BC/D-linearity, the six hyperbolic-part forms, reconstruction, bounds."""
    seed, idx, backend = rec.seed, rec.case, rec.backend
    dim = 1 + idx % 4
    h = gen.rand_bcfunctional(rng, dim)
    if backend == FLOAT:
        h = BCLinearFunctional(_bcv_cast(h.coeffs, backend))
    x = _bcv_cast(gen.rand_bcvector(rng, dim), backend)
    y = _bcv_cast(gen.rand_bcvector(rng, dim), backend)
    Z0 = _bc_cast(gen.rand_bicomplex(rng), backend)

    hx = h(x)
    h_sum, sum_h = h(x + y), hx + h(y)
    rec.check(_bc_eq(h_sum, sum_h), "functional-additive", (h, x, y), "equal", (h_sum, sum_h))
    h_scaled, scaled_h = h(x.scale(Z0)), scalars.bc_mul(Z0, hx)
    rec.check(_bc_eq(h_scaled, scaled_h), "functional-homogeneous", (h, x, Z0), "equal", (h_scaled, scaled_h))

    # six equal derivations of the hyperbolic part, at the value level
    hp = hyperbolic_part(h)
    ref = hp(x)
    for form in _ALL_FORMS:
        derived = hyperbolic_part_of_value(hx, form)
        rec.check(_h_eq(derived, ref), f"hyperbolic-part-{form.name}", (h, x), "equal", (derived, ref))

    # reconstruction along both imaginary axes is exact
    for axis in ("i", "j"):
        back = reconstruct(hp, axis)
        rec.check(
            all(_bc_eq(p, q) for p, q in zip(back.coeffs.coords, h.coeffs.coords)),
            f"reconstruct-{axis}", h, "same coefficients", back.coeffs,
        )

    # D-linearity of a functional built from real-pair values
    f2n = gen.rand_dfunctional(rng, 2 * dim)
    F = hyperbolic_functional_from_pairs(f2n)
    alpha = _h_cast(gen.rand_hyperbolic(rng), backend)
    Fx = F(x)
    F_sum, sum_F = F(x + y), Fx + F(y)
    rec.check(_h_eq(F_sum, sum_F), "pairs-additive", (f2n, x, y), "equal", (F_sum, sum_F))
    F_scaled, scaled_F = F(x.scale(alpha)), alpha * Fx
    rec.check(_h_eq(F_scaled, scaled_F), "pairs-d-homogeneous", (f2n, x, alpha), "equal", (F_scaled, scaled_F))

    # norm bounds: |f(x)|_k <=' bound * |x|_D, |T x|_D <=' |T|_D |x|_D
    fD = gen.rand_dfunctional(rng, dim)
    if backend == FLOAT:
        fD = DLinearFunctional(_dv_cast(fD.coeffs, backend))
    xD = _dv_cast(gen.rand_dvector(rng, dim), backend)
    value_abs, value_bound = fD(xD).abs_k(), functional_dbound(fD) * dnorm(xD)
    rec.check(le(value_abs, value_bound), "functional-bound", (fD, xD), "<='", (value_abs, value_bound))
    T = gen.rand_bcmap(rng, 1 + (idx // 2) % 3, dim)
    image_norm, image_bound = dnorm_bc(T(x)), operator_dnorm(T) * dnorm_bc(x)
    rec.check(
        le(image_norm, image_bound + HyperbolicScalar(EPSILON, EPSILON)),
        "operator-bound", (T, x), "<='", (image_norm, image_bound),
    )

    # image of a convex pair under a D-functional is the interval pair
    if idx % 5 == 0:
        sdim = 1 + idx % 2
        A = gen.rand_absorbing_pair(Random(f"img:{seed}:{idx}"), sdim)
        fI = DLinearFunctional(DVector.from_parts(
            [gen.rand_nonzero_fraction(rng) for _ in range(sdim)],
            [gen.rand_nonzero_fraction(rng) for _ in range(sdim)],
        ))
        img = image_convex(fI, A)
        vals1 = [(v1, fI.eval_component(1, v1)) for v1 in A.p1.vertices()]
        vals2 = [(v2, fI.eval_component(2, v2)) for v2 in A.p2.vertices()]
        for v1, f1 in vals1:
            for v2, f2 in vals2:
                val = HyperbolicScalar(f1, f2)
                rec.check(img.contains(val), "image-contains-vertices", (fI, v1, v2), "inside", val)
        mid = HyperbolicScalar(vals1[0][1], vals2[0][1]) * HyperbolicScalar(Fraction(1, 2), Fraction(1, 2))
        rec.check(img.contains(mid), "image-contains-midpoint", fI, "inside", mid)
        zero_f = DLinearFunctional(DVector.from_parts([0] * sdim, [1] * sdim))
        rec.expect_raises(
            ConstantComponentError, "zero-component-rejected", zero_f,
            lambda: image_convex(zero_f, A),
        )


# -- convex ----------------------------------------------------------------------


def _bisection_gauge(P: RealPolytope, point) -> float:
    """Brute-force float gauge: bisect the smallest t with x in t*P (H-rep)."""
    import numpy as np

    faces = [(np.array([float(c) for c in h.a]), float(h.b)) for h in P.halfspaces()]
    x = np.array([float(c) for c in point])

    def member(t: float) -> bool:
        return all(a.dot(x) <= t * b + 1e-15 for a, b in faces)

    if member(0.0):
        return 0.0
    hi = 1.0
    for _ in range(120):
        if member(hi):
            break
        hi *= 2
    else:
        return math.inf
    lo = 0.0
    for _ in range(100):
        mid = (lo + hi) / 2
        if member(mid):
            hi = mid
        else:
            lo = mid
    return hi


def convex_case(rec: Recorder, rng: Random) -> None:
    """Gauges (three ways), hulls, absorbency, and membership criteria."""
    idx = rec.case
    one = HyperbolicScalar.one()
    dim = 1 + idx % 3
    A = gen.rand_absorbing_pair(rng, dim)
    x = gen.rand_dvector(rng, dim)
    y = gen.rand_dvector(rng, dim)

    qx = minkowski_gauge(A, x).hyper()
    qy = minkowski_gauge(A, y).hyper()
    qsum = minkowski_gauge(A, x + y).hyper()
    qx_qy = qx + qy
    rec.check(le(qsum, qx_qy), "gauge-sublinear", (A, x, y), "<='", (qsum, qx_qy))
    lam = gen.rand_positive_hyperbolic(rng)
    qlam, lam_qx = minkowski_gauge(A, x.scale(lam)).hyper(), lam * qx
    rec.check(_h_eq(qlam, lam_qx), "gauge-homogeneous", (A, x, lam), "equal", (qlam, lam_qx))

    # membership: q(x) <=' 1 iff x in the closed set
    inside = A.contains(x)
    rec.check(le(qx, one) == inside, "gauge-membership", (A, x), "agree", (qx, inside))

    # the hull touches the unit level: max vertex gauge is exactly 1
    for l in (1, 2):
        P = A.component(l)
        vals = [P.gauge(v) for v in P.vertices()]
        rec.check(
            all(val <= 1 for val in vals) and max(vals) == 1,
            "vertex-gauge-one", (A, l), "max == 1", vals,
        )

    # three gauge computations agree: V-rep LP, H-rep closed form, bisection
    for l in (1, 2):
        P = A.component(l)
        pt = x.part(l)
        q_v = P.gauge_vrep(pt)
        q_h = P.gauge(pt)
        rec.check(q_v == q_h, "gauge-vrep-equals-hrep", (P, pt), "exact equal", (q_v, q_h))
        q_b = _bisection_gauge(P, pt)
        rec.check(abs(q_b - float(q_h)) <= 1e-9, "gauge-bisection", (P, pt), "within 1e-9", (q_b, float(q_h)))

    # hull idempotence and D-convexity criteria
    pts = [gen.rand_dvector(rng, dim) for _ in range(dim + 2)]
    hull = dconvex_hull(pts)
    rec.check(is_dconvex(hull.vertex_points()), "hull-is-dconvex", pts, "True", True)
    hull2 = dconvex_hull(hull.vertex_points())
    rec.check(
        sorted(hull2.p1.vertices()) == sorted(hull.p1.vertices())
        and sorted(hull2.p2.vertices()) == sorted(hull.p2.vertices()),
        "hull-idempotent", pts, "same vertices", (hull.p1.vertices(), hull2.p1.vertices()),
    )
    a_pt = HyperbolicScalar(Fraction(0), Fraction(0))
    b_pt = HyperbolicScalar(Fraction(1), Fraction(1))
    mixed = [DVector.of(*([a_pt] * dim)), DVector.of(*([b_pt] * dim))]
    mixed_convex = is_dconvex(mixed)
    rec.check(not mixed_convex, "two-points-not-dconvex", mixed, "False", mixed_convex)

    # absorbency
    rec.check(is_dabsorbing(A), "absorbing-positive", A, "True", True)
    shift = tuple(Fraction(10) for _ in range(dim))
    moved = DConvexSet(
        RealPolytope.from_vertices([tuple(c + s for c, s in zip(v, shift)) for v in A.p1.vertices()]),
        A.p2,
    )
    moved_absorbing = is_dabsorbing(moved)
    rec.check(not moved_absorbing, "shifted-not-absorbing", moved, "False", moved_absorbing)
    if idx % 10 == 0:
        away = DVector.zero(dim) - DVector.from_parts(shift, [0] * dim)
        rec.expect_raises(
            NotAbsorbingError, "shifted-gauge-rejected", (moved, away),
            lambda: minkowski_gauge(moved, away),
        )

    # difference body: contains 0 (dims 1-2; the separation suite works
    # the three-dimensional difference bodies hard already)
    if dim <= 2:
        B = gen.rand_absorbing_pair(rng, dim)
        G = minkowski_diff_translate(A, B, DVector.zero(dim), DVector.zero(dim))
        rec.check(G.contains(DVector.zero(dim)), "difference-contains-zero", (A, B), "True", True)


# -- separation ------------------------------------------------------------------


def separation_case(rec: Recorder, rng: Random) -> None:
    """Certificates on gapped instances, and rejections with witnesses.

    Every case builds a component-disjoint pair and re-verifies the returned
    certificate at every product vertex: f <' gamma on A and gamma <=' f on
    B is a positive gap.  Every fourth case also runs an overlapping pair
    through the separator and expects a witness in both closures, which
    rules out any gap.
    """
    idx = rec.case
    dim = 1 + idx % 3
    A, B = gen.rand_separation_instance(rng, dim)
    cert = rec.guard("separate", (A, B), lambda: separate_hyperbolic(A, B))
    if cert is not None:
        f, gamma = cert.f, cert.gamma
        ok_a = all(
            lt_strict(HyperbolicScalar(f.eval_component(1, v1), f.eval_component(2, v2)), gamma)
            for v1 in A.p1.vertices()
            for v2 in A.p2.vertices()
        )
        rec.check(ok_a, "certificate-strict-on-A", (A, B), "f <' gamma", gamma)
        ok_b = all(
            le(gamma, HyperbolicScalar(f.eval_component(1, v1), f.eval_component(2, v2)))
            for v1 in B.p1.vertices()
            for v2 in B.p2.vertices()
        )
        rec.check(ok_b, "certificate-weak-on-B", (A, B), "gamma <=' f", gamma)

    if idx % 4 == 0:
        Ao, Bo, w_comp = gen.rand_overlap_instance(rng, dim)
        try:
            separate_hyperbolic(Ao, Bo)
            rec.check(False, "overlap-rejected", (Ao, Bo), "NotDisjointError", "certificate produced")
        except NotDisjointError as exc:
            comp = exc.component
            witness = exc.witness
            Pa, Pb = Ao.component(comp), Bo.component(comp)
            rec.check(
                Pa.contains(witness) and Pb.contains(witness),
                "overlap-witness-in-both", (Ao, Bo), "common point", witness,
            )

    if idx % 5 == 0:
        # the bicomplex lift on a plane pair (BC^1 encoded in R^2 pairs)
        A2, B2 = gen.rand_separation_instance(rng, 2)
        got = rec.guard("separate-bicomplex", (A2, B2), lambda: separate_bicomplex(A2, B2))
        if got is not None:
            h, gamma2 = got
            hp = hyperbolic_part(h)
            ok_a = all(
                lt_strict(hp(BCVector.from_real_parts(v1, v2)), gamma2)
                for v1 in A2.p1.vertices()
                for v2 in A2.p2.vertices()
            )
            ok_b = all(
                le(gamma2, hp(BCVector.from_real_parts(v1, v2)))
                for v1 in B2.p1.vertices()
                for v2 in B2.p2.vertices()
            )
            rec.check(ok_a and ok_b, "bicomplex-lift-verifies", (A2, B2), "h_D separates", gamma2)


# -- theorem harnesses -------------------------------------------------------------


def _np_rng(tag: str, seed: int, idx: int) -> np.random.RandomState:
    import numpy as np

    return np.random.RandomState(Random(f"{tag}:{seed}:{idx}").randrange(2**32))


def _sampled_rows(rs: np.random.RandomState, count: int, n: int) -> np.ndarray:
    """count complex row vectors with unit Euclidean norm."""
    import numpy as np

    raw = rs.standard_normal((count, n)) + 1j * rs.standard_normal((count, n))
    norms = np.linalg.norm(raw, axis=1)
    norms[norms == 0] = 1.0
    return raw / norms[:, None]


def check_ubp_guarantee(
    F: MapFamily,
    eps: HyperbolicScalar,
    delta: HyperbolicScalar,
    samples: int,
    rs: np.random.RandomState,
) -> bool:
    """Sample |x|_D <' delta and confirm sup over the family |T x|_D <' eps."""
    import numpy as np

    n = F.maps[0].cols
    for l in (1, 2):
        d = min(float(delta.a1 if l == 1 else delta.a2), 1e6)
        e = float(eps.a1 if l == 1 else eps.a2)
        X = _sampled_rows(rs, samples, n) * (0.9 * d)
        for T in F.maps:
            M = T.component_array(l)
            norms = np.linalg.norm(X @ M.T, axis=1)
            if not bool(np.all(norms < e)):
                return False
    return True


def check_omt_guarantee(
    T: BCLinearMap,
    delta: HyperbolicScalar,
    samples: int,
    rs: np.random.RandomState,
) -> bool:
    """Sample |y|_D <' delta and confirm a preimage of norm <' 1 exists."""
    import numpy as np

    for l in (1, 2):
        M = T.component_array(l)
        d = float(delta.a1 if l == 1 else delta.a2)
        Y = _sampled_rows(rs, samples, T.rows) * (0.9 * d)
        if T.rows == T.cols:
            X = np.linalg.solve(M, Y.T).T
        else:
            X = (np.linalg.pinv(M) @ Y.T).T
        if not bool(np.all(np.linalg.norm(X, axis=1) < 1.0)):
            return False
    return True


def ubp_case(rec: Recorder, rng: Random, samples: int = 64) -> None:
    """Uniform boundedness: the bound (M, delta) of a finite family, sampled."""
    seed, idx = rec.seed, rec.case
    n = 1 + idx % 3
    m = 1 + (idx // 2) % 3
    F = MapFamily(tuple(gen.rand_bcmap(rng, m, n) for _ in range(1 + idx % 4)))
    eps = gen.rand_positive_hyperbolic(rng)
    got = rec.guard("ubp-bound", (F, eps), lambda: ubp_bound(F, eps))
    if got is None:
        return
    M, delta = got
    rec.check(
        le(HyperbolicScalar.zero(), M), "ubp-M-nonnegative", (F, eps), ">=' 0", M
    )
    norms = [operator_dnorm(T) for T in F.maps]
    rec.check(
        all(le(nv, M + HyperbolicScalar(EPSILON, EPSILON)) for nv in norms),
        "ubp-M-dominates", F, "all member norms <=' M", (M, norms),
    )
    ok = check_ubp_guarantee(F, eps, delta, samples, _np_rng("ubp", seed, idx))
    rec.check(ok, "ubp-guarantee-sampled", (F, eps), "|Tx| <' eps", (M, delta))

    # doubling a family member doubles M and halves delta (power-of-two exact)
    T0 = F.maps[0]
    M0, d0 = ubp_bound(MapFamily((T0,)), eps)
    M1, d1 = ubp_bound(MapFamily((scale_map(T0, 2),)), eps)
    if M0.a1 > 0 and M0.a2 > 0:
        rec.check(
            abs(M1.a1 / M0.a1 - 2) < 1e-9 and abs(M1.a2 / M0.a2 - 2) < 1e-9,
            "ubp-scaling-doubles-M", T0, "ratio 2", (M0, M1),
        )
        rec.check(
            abs(d1.a1 / d0.a1 - 0.5) < 1e-9 and abs(d1.a2 / d0.a2 - 0.5) < 1e-9,
            "ubp-scaling-halves-delta", T0, "ratio 1/2", (d0, d1),
        )
    rec.expect_raises(EmptyFamilyError, "ubp-empty-family", (), lambda: ubp_bound(MapFamily(()), eps))


def scale_map(T: BCLinearMap, c: int) -> BCLinearMap:
    """T with every entry multiplied by the integer c."""
    s = BicomplexScalar(ComplexScalar(c), ComplexScalar(c))
    return BCLinearMap(tuple(tuple(scalars.bc_mul(s, entry) for entry in row) for row in T.matrix))


def omt_case(rec: Recorder, rng: Random, samples: int = 64) -> None:
    """Open mapping: the radius delta of a component-invertible map, sampled."""
    import numpy as np

    seed, idx = rec.seed, rec.case
    n = 1 + idx % 3
    T = gen.rand_component_invertible_map(rng, n)
    got = rec.guard("omt-delta", T, lambda: omt_delta(T))
    if got is not None:
        delta = got.delta
        rec.check(lt_strict(HyperbolicScalar.zero(), delta), "omt-delta-positive", T, ">' 0", delta)
        for l, d_val in ((1, delta.a1), (2, delta.a2)):
            direct = float(np.linalg.svd(T.component_array(l), compute_uv=False)[-1])
            rec.check(
                abs(float(d_val) - direct) <= 1e-6 * max(1.0, direct),
                "omt-delta-tight", (T, l), "within 1e-6 of sigma_min", (float(d_val), direct),
            )
        ok = check_omt_guarantee(T, delta, samples, _np_rng("omt", seed, idx))
        rec.check(ok, "omt-guarantee-sampled", T, "preimages in unit ball", delta)
    # rank-deficient and tall maps are rejected with the failing component
    deficient = _null_row_map(rng, n)
    rec.expect_raises(NotSurjectiveError, "omt-rejects-deficient", deficient, lambda: omt_delta(deficient))
    tall = gen.rand_bcmap(rng, n + 1, n)
    rec.expect_raises(NotSurjectiveError, "omt-rejects-tall", tall, lambda: omt_delta(tall))


def _null_row_map(rng: Random, n: int) -> BCLinearMap:
    """A square map whose first row vanishes in idempotent component 2."""
    e1 = HyperbolicScalar.e1().to_bicomplex()
    rows = [[gen.rand_bicomplex(rng) for _ in range(n)] for _ in range(n)]
    rows[0] = [scalars.bc_mul(e1, v) for v in rows[0]]
    return BCLinearMap(tuple(tuple(r) for r in rows))


def imt_case(rec: Recorder, rng: Random) -> None:
    """Inverse mapping: T * T^-1 = I exactly, and the continuity bound."""
    import numpy as np

    n = 1 + rng.randrange(3)
    T = gen.rand_component_invertible_map(rng, n)
    got = rec.guard("imt-invert", T, lambda: inverse_map(T))
    if got is not None:
        T_inv, bound = got
        ident = BCLinearMap.identity(n)
        prod_rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = BicomplexScalar.zero()
                for t in range(n):
                    acc = acc + scalars.bc_mul(T.matrix[i][t], T_inv.matrix[t][j])
                row.append(acc)
            prod_rows.append(tuple(row))
        exact_identity = all(
            (a - b).is_zero()
            for ra, rb in zip(prod_rows, ident.matrix)
            for a, b in zip(ra, rb)
        )
        rec.check(exact_identity, "imt-exact-identity", T, "T * T^-1 = I", prod_rows)
        # the continuity bound is 1/sigma_min per component, within 1e-6
        for l, b_val in ((1, bound.a1), (2, bound.a2)):
            sigma = np.linalg.svd(T.component_array(l), compute_uv=False)[-1]
            direct = 1.0 / sigma
            rec.check(
                abs(float(b_val) - direct) <= 1e-6 * max(1.0, direct),
                "imt-bound-tight", (T, l), "within 1e-6 of 1/sigma_min", (float(b_val), direct),
            )
    # non-square and component-singular maps are rejected
    rect = gen.rand_bcmap(rng, n, n + 1)
    rec.expect_raises(NotBijectiveError, "imt-rejects-rectangular", rect, lambda: inverse_map(rect))
    singular = _null_row_map(rng, n)
    rec.expect_raises(NotBijectiveError, "imt-rejects-singular", singular, lambda: inverse_map(singular))


def cgt_case(rec: Recorder, rng: Random) -> None:
    """Closed graph: a map recovered from its graph, a non-graph rejected."""
    n = 1 + rng.randrange(3)
    m = 1 + rng.randrange(3)
    vecs, T = gen.rand_graph_basis(rng, n, m)
    got = rec.guard("cgt-reconstruct", (vecs, n), lambda: map_from_graph(vecs, n))
    if got is not None:
        rec.check(
            all(
                _bc_eq(a, b)
                for ra, rb in zip(got.matrix, T.matrix)
                for a, b in zip(ra, rb)
            ),
            "cgt-exact-recovery", (vecs, n), "same matrix", got.matrix,
        )
    bad = gen.rand_non_graph(rng, n, m)
    rec.expect_raises(NotAGraphError, "cgt-rejects-non-graph", (bad, n), lambda: map_from_graph(bad, n))


def extension_case(rec: Recorder, rng: Random) -> None:
    """Dominated extension from a subspace, under the gauge of a body."""
    dim = 2 + rng.randrange(2)
    B = gen.rand_absorbing_pair(rng, dim)
    # a random subspace basis of rank < dim
    k = 1 + rng.randrange(dim - 1)
    while True:
        basis = [gen.rand_dvector(rng, dim) for _ in range(k)]
        r1 = matrix_rank([list(map(Fraction, v.part1())) for v in basis])
        r2 = matrix_rank([list(map(Fraction, v.part2())) for v in basis])
        if r1 == k and r2 == k:
            break
    g = gen.rand_dfunctional(rng, dim)
    f = None
    scaled = g
    for _ in range(10):
        try:
            f = extend_dominated(scaled, basis, B)
            break
        except DominationError:
            half = HyperbolicScalar(Fraction(1, 2), Fraction(1, 2))
            scaled = DLinearFunctional(scaled.coeffs.scale(half))
    rec.check(f is not None, "extension-after-rescaling", (g, basis, B), "extension found", f)
    if f is None:
        return
    for v in basis:
        fv, gv = f(v), scaled(v)
        rec.check(_h_eq(fv, gv), "extension-agrees-on-subspace", (v,), "g(v)", (fv, gv))
    for _ in range(3):
        x = gen.rand_dvector(rng, dim)
        fx, q = f(x), minkowski_gauge(B, x).hyper()
        rec.check(le(fx, q), "extension-dominated", (x,), "f <=' q", (fx, q))
    # an oversized functional on a line with nonzero value cannot be dominated
    y0 = basis[0]
    if not scaled(y0).is_zero():
        big = DLinearFunctional(scaled.coeffs.scale(HyperbolicScalar(Fraction(1000), Fraction(1000))))
        rec.expect_raises(
            DominationError, "extension-rejects-oversized", (big, y0),
            lambda: extend_dominated(big, [y0], B),
        )


def hyperplane_case(rec: Recorder, rng: Random) -> None:
    """Hyperplane normalization and gauge bounds, and variety extension."""
    idx = rec.case
    dim = 1 + idx % 3
    B = gen.rand_absorbing_pair(rng, dim, open_flag=bool(rng.getrandbits(1)))
    g = DLinearFunctional(DVector.from_parts(
        [gen.rand_nonzero_fraction(rng) for _ in range(dim)],
        [gen.rand_nonzero_fraction(rng) for _ in range(dim)],
    ))
    peaks = []
    for l in (1, 2):
        peaks.append(max(abs(g.eval_component(l, v)) for v in B.component(l).vertices()))
    c = HyperbolicScalar(peaks[0] + 1, peaks[1] + 1)
    L = rec.guard("hyperplane-normalize", (g, c), lambda: hyperplane_normalize(g, c))
    if L is None:
        return
    f = rec.guard("hyperplane-gauge-bound", (B, L), lambda: hyperplane_gauge_bound(B, L))
    if f is not None:
        # invariance under invertible rescaling of (g, c)
        lam = gen.rand_invertible_hyperbolic(rng)
        g2 = DLinearFunctional(g.coeffs.scale(lam))
        L2 = hyperplane_normalize(g2, lam * c)
        rec.check(
            all(_h_eq(a, b) for a, b in zip(L.f.coeffs.coords, L2.f.coeffs.coords)),
            "normalization-invariant", (g, c, lam), "same functional", L2.f.coeffs,
        )
        ok = _grid_gauge_sweep(B, f, 1000)
        rec.check(ok, "gauge-bound-grid", (B, L), "-q(-x) <=' f <=' q on grid", ok)
    zd = HyperbolicScalar(Fraction(1), Fraction(0))
    rec.expect_raises(
        ZeroDivisorLevelError, "zero-divisor-level-rejected", (g, zd),
        lambda: hyperplane_normalize(g, zd),
    )
    bad_g = DLinearFunctional(DVector.from_parts([0] * dim, [1] * dim))
    rec.expect_raises(
        DegenerateFunctionalError, "degenerate-normal-rejected", bad_g,
        lambda: hyperplane_normalize(bad_g, HyperbolicScalar.one()),
    )
    if idx % 2 == 0:
        half = HyperbolicScalar(
            peaks[0] / 2 if peaks[0] else Fraction(1, 2),
            peaks[1] / 2 if peaks[1] else Fraction(1, 2),
        )
        if half.is_invertible():
            rec.expect_raises(
                NotDisjointError, "crossing-level-rejected", (B, g, half),
                lambda: hyperplane_gauge_bound(B, hyperplane_normalize(g, half)),
            )
    # affine variety extension: a plane beyond the body extends to {f = 1}
    axis = rng.randrange(dim)
    reach = []
    for l in (1, 2):
        reach.append(max(abs(Fraction(v[axis])) for v in B.component(l).vertices()))
    coords = [HyperbolicScalar.zero()] * dim
    coords[axis] = HyperbolicScalar(reach[0] + 1, reach[1] + 1)
    x0 = DVector.of(*coords)
    basisM = []
    for d in range(dim):
        if d != axis:
            e = [HyperbolicScalar.zero()] * dim
            e[d] = HyperbolicScalar.one()
            basisM.append(DVector.of(*e))
    if basisM:
        Lv = rec.guard("variety-extend", (x0, basisM, B), lambda: variety_extend_hyperplane(x0, basisM, B))
        if Lv is not None:
            level = Lv.f(x0)
            rec.check(_h_eq(level, HyperbolicScalar.one()), "variety-level-one", x0, "f(x0) = 1", level)
            on_directions = [Lv.f(mv) for mv in basisM]
            rec.check(
                all(_h_eq(fm, HyperbolicScalar.zero()) for fm in on_directions),
                "variety-directions-null", basisM, "f = 0 on directions", on_directions,
            )


def _grid_gauge_sweep(B: DConvexSet, f: DLinearFunctional, total: int) -> bool:
    """Float sweep of -q(-x) <=' f(x) <=' q(x) over a dense grid per component."""
    import numpy as np

    dim = B.dim
    per = max(2, math.ceil(total ** (1.0 / dim)))
    axes = np.linspace(-2.0, 2.0, per)
    pts = np.array(list(product(axes, repeat=dim)))
    for l in (1, 2):
        P = B.component(l)
        A_rows = []
        b_vals = []
        for h in P.halfspaces():
            A_rows.append([float(c) for c in h.a])
            b_vals.append(float(h.b))
        A_m = np.array(A_rows)
        b_v = np.array(b_vals)
        ratios = (pts @ A_m.T) / b_v
        q_plus = np.maximum(0.0, ratios.max(axis=1))
        ratios_neg = (-pts @ A_m.T) / b_v
        q_minus = np.maximum(0.0, ratios_neg.max(axis=1))
        fx = pts @ np.array([float(c) for c in f.component(l)])
        if not bool(np.all(fx <= q_plus + 1e-9)) or not bool(np.all(-q_minus - 1e-9 <= fx)):
            return False
    return True


THEOREM_CASES: tuple[Case, ...] = (
    ubp_case, omt_case, imt_case, cgt_case, extension_case, hyperplane_case,
)


def theorems_case(rec: Recorder, rng: Random) -> None:
    """Rotates through the six theorem harnesses, one sub-check per case.

    Case index mod 6 selects: uniform boundedness, open mapping, inverse
    mapping, closed graph, dominated extension, hyperplanes/varieties.
    """
    THEOREM_CASES[rec.case % 6](rec, rng)


# -- dispatch --------------------------------------------------------------------


_SUITES: dict[str, Case] = {
    "algebra": algebra_case,
    "order": order_case,
    "metric": metric_case,
    "linear": linear_case,
    "convex": convex_case,
    "separation": separation_case,
    "theorems": theorems_case,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int, cases: int, backend: str = EXACT) -> SuiteReport:
    """The named suite, its instances drawn from Random(f"{name}:{seed}")."""
    try:
        case = _SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}") from None
    return run_cases(name, case, Random(f"{name}:{seed}"), seed, cases, backend)


def run_all(seed: int, cases: int, backend: str = EXACT) -> list[SuiteReport]:
    return [run_suite(name, seed, cases, backend) for name in SUITE_NAMES]
