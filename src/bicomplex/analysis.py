"""Theorem engines: dominated extension, separation, hyperplanes, and the
uniform-boundedness / open-mapping / inverse-mapping / closed-graph checks.

The separation path executes the gauge construction end to end: translate the
problem so the origin becomes interior (G = A - B + x0), take the hyperbolic
Minkowski gauge of G, seed a functional on the ray through x0, and extend it
under the gauge bound.  Every numeric step is an exact rational LP, so
certificates re-check by plain evaluation.  D-convex sets are products, so a
certificate states its inequalities once per component: gamma (the minimum
of f over B's vertices) and sup_A (the maximum over the vertices of A's
closure) are all a checker needs besides f.  Both are read exactly from the
maxima of f on the two point groups of the difference body G_l: -gamma_l on
-B_l, and sup_A_l + f_l(x0_l) on A_l + x0_l.

The gauge and the extension read one body on columns, `polytope.GaugeBody`:
q(z) <= t iff z = sum_k mu_k v_k with mu >= 0 and the t-weighted sum of mu
equal to t.  For a polytope the columns are its vertices and every weight
is 1.  The extension is the dual side of that epigraph: one LP per
component over the polar of the body (f <= 1 at its points), maximizing
the scale s with f = s*g on the subspace.  Its optimum s* is 1 over the
maximum of g on the subspace inside the body, so s* >= 1 is exactly the
domination hypothesis g <= q there, and f/s* is the extension (LP duality,
Schrijver 1986 ch. 7; the polar, Rockafellar 1970 §14).  G is never built:
separation gauges it as a `convex.DifferenceBody` per component, the
two-group body whose |A| + |B| columns are A's vertices shifted by x0
(weight 1) and B's negated (weight 0), tied by one balance row, so no
Minkowski sum, hull or facet of G is ever formed.  The extension LP also
decides disjointness: its optimum in component l is q_G(x0)_l, and G is
open, so A meets B there exactly when it is below 1.  Only then is the
gauge LP at x0 solved, whose weights give a common point.  The same LP
decides whether an affine variety x0 + span(M) misses B: its optimum is
the least t at which the variety meets t*B_l, and only a meeting variety
solves the least-gauge LP along the span, for a common point.  So no
theorem engine builds a halfspace list for a V-rep set: its absorbency test
reads the facet rays of each component's vertex rows, found once by
`polytope._cone_rays` and memoized in `_integer_faces`.  A bound f <=' q is
certified by plain evaluation (`form_max`): a linear form is largest over
a body at a column point of each group, and f <= 1 on an absorbing body
is f <=' q everywhere.  The same evaluation decides whether a hyperplane
{f = 1} misses an absorbing set, with the maximizing point scaled onto the
level as the witness when it does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import elim
from .backend import Real, rdot
from .convex import DConvexSet, difference_body, is_dabsorbing
from .errors import (
    BicomplexError,
    DegenerateBasisError,
    DegenerateFunctionalError,
    DegenerateVarietyError,
    DimensionMismatch,
    DominationError,
    EmptyFamilyError,
    NotAbsorbingError,
    NotAGraphError,
    NotBijectiveError,
    NotDisjointError,
    NotOpenError,
    NotSurjectiveError,
    ZeroDivisorLevelError,
)
from .linear import (
    BCLinearFunctional,
    BCLinearMap,
    DLinearFunctional,
    hyperbolic_functional_from_pairs,
    operator_dnorm,
    reconstruct,
)
from .lp import UNBOUNDED
from .order import le
from .polytope import GaugeBody, matrix_rank
from .scalars import BicomplexScalar, ComplexScalar, HyperbolicScalar
from .vectors import DVector

# Stand-in radius when a UBP bound divides by a zero operator norm, and the
# tolerance under which singular values count as rank deficiency.
LARGE = 1e9
SIGMA_TOL = 1e-12


# -- exact linear algebra over the complex rationals -------------------------
#
# A complex system M Z = B with M = X + iY, B = R + iS, Z = P + iQ is the
# real system [[X, -Y], [Y, X]] [P; Q] = [R; S].  The embedding is a ring
# map, so its rank is twice the complex rank and the real system is
# consistent exactly when the complex one is.  Its rows are scaled to
# integers and eliminated once by `elim.eliminate`; float entries enter as
# their exact binary values, so every answer is exact.


def _embed(M: Sequence[Sequence[ComplexScalar]],
           B: Optional[Sequence[Sequence[ComplexScalar]]] = None) -> list[list[int]]:
    """Integer rows of [[X, -Y | R], [Y, X | S]] for M = X + iY and B = R + iS."""
    top, bottom = [], []
    for i, row in enumerate(M):
        x, y = _re_im(row)
        r, s = _re_im(B[i] if B is not None else ())
        top.append(elim.integer_row([*x, *(-v for v in y), *r]))
        bottom.append(elim.integer_row([*y, *x, *s]))
    return top + bottom


def _re_im(zs: Sequence[ComplexScalar]) -> tuple[list[Fraction], list[Fraction]]:
    return [Fraction(z.re) for z in zs], [Fraction(z.im) for z in zs]


def _complex_solution(T: list[list[int]], d: int, n: int) -> list[list[ComplexScalar]]:
    """Z = P + iQ from an elimination of the embedding with all 2n pivots."""
    return [[ComplexScalar(Fraction(p, d), Fraction(q, d))
             for p, q in zip(T[i][2 * n:], T[n + i][2 * n:])] for i in range(n)]


def complex_rank(rows: Sequence[Sequence[ComplexScalar]]) -> int:
    return elim.rank(_embed(rows)) // 2


def complex_invert(
    rows: Sequence[Sequence[ComplexScalar]],
) -> Optional[list[list[ComplexScalar]]]:
    n = len(rows)
    one, zero = ComplexScalar(1), ComplexScalar(0)
    identity = [[one if i == j else zero for j in range(n)] for i in range(n)]
    T, d, pivots = elim.eliminate(_embed(rows, identity), 2 * n)
    if len(pivots) < 2 * n:
        return None
    return _complex_solution(T, d, n)


# -- gauge-bounded extension --------------------------------------------------


def extend_dominated(
    g: DLinearFunctional,
    basisY: Sequence[DVector],
    B: DConvexSet,
) -> DLinearFunctional:
    """Extend g from span(basisY) to the whole space under the gauge of B.

    The result f agrees with g on the subspace and satisfies f <=' q_B
    everywhere.  Each component is one exact LP over the polar of B_l
    (`GaugeBody.polar_max`): maximize s over f with f = s*g on the span and
    f <= 1 on B_l.  Its optimum is s* = 1/c with c = max{g(y) : y in
    Y ∩ B_l}, and g <= q_l on Y exactly when c <= 1 (g is linear and q_l
    positively homogeneous), so the domination hypothesis holds exactly when
    s* >= 1 and `DominationError` is raised otherwise (it carries the
    component, as `DegenerateBasisError` does).  f/s* is then the
    extension: it equals g on Y and is at most 1/s* <= 1 on B_l, which on
    an absorbing B_l is f <= q_l everywhere (the Hahn-Banach step as one LP
    duality; Schrijver 1986, ch. 7).  When g vanishes on Y the LP is
    unbounded and the component is 0.  The LP reads the points of
    `B.component(l).gauge_body()`: B's vertices, so an H-rep B is converted
    once (an unbounded one raises), and a V-rep B gets no halfspace list
    (only `is_dabsorbing`'s facet rays, memoized); or the two groups of a
    `DifferenceBody` pair from
    `difference_body`.  The global bound of the result is certified by
    plain evaluation before returning: f <=' q_B everywhere iff the maximum
    of f over each component (`form_max`) is at most 1.  The body keeps
    those group maxima, so `separate_hyperbolic` reads its extrema from
    them without evaluating f again.
    """
    n = B.dim
    if g.dim != n or any(u.dim != n for u in basisY):
        raise DimensionMismatch("ambient dimensions disagree")
    if not is_dabsorbing(B):
        raise NotAbsorbingError("extension gauge needs an absorbing set")
    out: list[list[Fraction]] = []
    for l in (1, 2):
        span = [[Fraction(c) for c in u.part(l)] for u in basisY]
        if span and matrix_rank(span) < len(span):
            raise DegenerateBasisError(f"dependent basis in component {l}", component=l)
        coeffs = [Fraction(c) for c in g.component(l)]
        full = _extend_component(B.component(l).gauge_body(), span,
                                 [rdot(coeffs, vec) for vec in span], strict=False)
        if full is None:
            raise DominationError(f"g exceeds the gauge on Y in component {l}", component=l)
        out.append(full)
    return DLinearFunctional.from_parts(out[0], out[1])


def _extend_component(P: GaugeBody, span: Sequence[Sequence[Fraction]],
                      values: Sequence[Fraction], strict: bool) -> Optional[list[Fraction]]:
    """f*/s* from the one polar LP of P (`GaugeBody.polar_max`), certified
    by `form_max`, or None when s* < 1, or s* = 1 and ``strict``; 0 when the
    values vanish and the LP is unbounded."""
    res = P.polar_max(span, values)  # feasible: f = 0, s = 0
    if res.status == UNBOUNDED:
        full = [Fraction(0)] * P.dim
    elif res.value < 1 or (strict and res.value == 1):
        return None
    else:
        full = [c / res.value for c in res.x[:P.dim]]
    if P.form_max(full) > 1:
        raise BicomplexError("extension failed its global gauge certificate")
    return full


# -- hyperbolic and bicomplex separation --------------------------------------


@dataclass(frozen=True, slots=True)
class SeparationCertificate:
    """A functional/level pair with the extrema that certify it and its trace.

    gamma is the componentwise minimum of f over B's vertices, so
    gamma <=' f on B; sup_A is the componentwise maximum of f over the
    vertices of A's closure, and sup_A <=' gamma with f nonconstant in each
    component gives f <' gamma on the open A.  Both are read from the group
    maxima of f over the difference body.
    """

    f: DLinearFunctional
    gamma: HyperbolicScalar
    sup_A: HyperbolicScalar
    trace: dict


def separate_hyperbolic(A: DConvexSet, B: DConvexSet) -> SeparationCertificate:
    """A hyperbolic separation certificate for an open A and a disjoint B.

    Runs the gauge construction: G = A - B + x0 with x0 = b0 - a0 for the
    centroids a0, b0 of A and B (`difference_body`, which refuses a
    component of A with an empty interior; G itself is never formed), q_G
    its gauge.  g(lambda*x0) = lambda on the ray is extended to f <=' q_G
    on the whole space by `extend_dominated`, one LP per component over the
    polar of G_l (l = 1 first).  Its optimum is s* = q_l(x0), so that one
    LP also decides overlap: G is open, so A meets B in component l exactly
    when s* < 1, which `extend_dominated` refuses as `DominationError` (or,
    when x0_l = 0 and so q_l(x0) = 0, as `DegenerateBasisError` on the zero
    span).  Only then is the gauge LP at x0_l solved, for the weights that
    give the witness, interior to A and in B.  Otherwise f = f*/s* with
    f*(x0) = s*.  One exact pass of f over the two point groups of G_l
    (`group_maxima`, made by the extension's certificate and kept by G_l)
    gives m_A, the maximum on A_l + x0_l, and m_B, the maximum on -B_l:
    gamma_l = -m_B is the minimum of f over B's vertices, sup_A_l = m_A -
    f_l(x0_l) the maximum over the vertices of A's closure, and the trace's
    qg_x0_l = 1/(m_A + m_B) = 1/(1 + sup_A_l - gamma_l) is s*, since m_A +
    m_B is the maximum of f over G_l.  Since f <= 1/s* on G_l, with
    equality at the optimum, and f(x0) = 1, f(a) <= f(b) + 1/s* - 1 for
    every a in A's closure and b in B, strict when s* > 1 (A and B
    apart) and weak when they touch; f is nonconstant in each component.
    Both are checked exactly.  A nonconstant linear form has no maximum on
    an open set, so sup_A <=' gamma gives f <' gamma on A, including when A
    and B touch on A's boundary (sup_A <' gamma when they do not).
    """
    if not A.open:
        raise NotOpenError("strict separation needs an open first set")
    if A.dim != B.dim:
        raise DimensionMismatch("sets live in different dimensions")
    G, a0, b0 = difference_body(A, B)
    x0 = b0 - a0
    # Seed functional: any ambient representative with g(x0) = 1 per
    # component, or 0 where x0_l = 0 (the centroids coincide).
    rep = []
    for l in (1, 2):
        part = [Fraction(c) for c in x0.part(l)]
        norm_sq = sum(c * c for c in part)
        rep.append([c / norm_sq for c in part] if norm_sq else part)
    g = DLinearFunctional.from_parts(rep[0], rep[1])
    try:
        f = extend_dominated(g, [x0], G)
    except (DominationError, DegenerateBasisError) as exc:  # q_l(x0) < 1
        l = exc.component
        a_star, b_star = G.component(l).meeting_points(a0.part(l), b0.part(l))
        if a_star != b_star:
            raise BicomplexError(f"gauge weights gave no common point in component {l}")
        raise NotDisjointError(f"components {l} of A and B intersect",
                               component=l, witness=a_star) from None
    (mA1, mB1), (mA2, mB2) = (G.component(l).group_maxima(f.component(l)) for l in (1, 2))
    gamma = HyperbolicScalar(-mB1, -mB2)
    sup_A = HyperbolicScalar(mA1, mA2) - f(x0)
    if not le(sup_A, gamma):
        raise BicomplexError(f"f exceeds gamma={gamma} on A's closure (sup {sup_A})")
    if not all(any(f.component(l)) for l in (1, 2)):
        raise BicomplexError("separating functional is constant in a component")
    qg_x0 = HyperbolicScalar(1 / (mA1 + mB1), 1 / (mA2 + mB2))
    trace = {"x0": x0, "qg_x0": qg_x0, "a0": a0, "b0": b0}
    return SeparationCertificate(f, gamma, sup_A, trace)


def separate_bicomplex(A: DConvexSet, B: DConvexSet) -> tuple[BCLinearFunctional, HyperbolicScalar]:
    """Separation with a BC-linear functional, via its hyperbolic part.

    The sets are read as subsets of BC^n (components carry interleaved re/im
    coordinates, so their dimension must be even).  The hyperbolic certificate
    functional f is lifted to h with h_D = f by the i-axis reconstruction;
    h_D(a) <' gamma <=' h_D(b) restates the certificate inequalities.
    """
    if A.dim % 2 or B.dim % 2:
        raise DimensionMismatch("bicomplex separation needs even real dimension")
    cert = separate_hyperbolic(A, B)
    h = reconstruct(hyperbolic_functional_from_pairs(cert.f), axis="i")
    return h, cert.gamma


# -- hyperplanes ---------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class DHyperplane:
    """The level set {x : f(x) = c} of a functional taking invertible values."""

    f: DLinearFunctional
    c: HyperbolicScalar

    def __post_init__(self):
        for l in (1, 2):
            if all(v == 0 for v in self.f.component(l)):
                raise DegenerateFunctionalError(f"zero coefficients in component {l}")

    def contains(self, x: DVector) -> bool:
        return self.f(x).isclose(self.c)

    def component_level(self, l: int) -> tuple[tuple[Real, ...], Real]:
        """The real hyperplane data (coefficients, level) of one component."""
        return self.f.component(l), (self.c.a1 if l == 1 else self.c.a2)


def hyperplane_normalize(g: DLinearFunctional, c: HyperbolicScalar) -> DHyperplane:
    """Rescale {g = c} to level-one form {f = 1}, f = g/c.

    The level must be invertible — a zero-divisor level cannot be normalized —
    and g must be componentwise nonzero so the level set is a genuine
    hyperplane pair.  Rescaling g and c by any invertible factor yields the
    same hyperplane.
    """
    if not c.is_invertible():
        raise ZeroDivisorLevelError(f"level {c} has a zero component")
    inv = HyperbolicScalar.one() / c
    return DHyperplane(DLinearFunctional(g.coeffs.scale(inv)), HyperbolicScalar.one())


def hyperplane_gauge_bound(B: DConvexSet, L: DHyperplane) -> DLinearFunctional:
    """The normalized functional of L, certified against the gauge of B.

    Requires B absorbing and componentwise disjoint from L.  The returned f
    has {f = 1} = L and satisfies -q_B(-x) <=' f(x) <=' q_B(x).  For an
    absorbing B, f <= 1 on B_l is f_l <= q_l everywhere, and
    -q(-x) <= f(x) is the same bound at -x.  One exact pass per component
    (l = 1 first) decides and certifies both: m_l, the maximum of f_l over
    B_l's points (`form_argmax`), must be below 1, or at most 1 when B is
    open.  B_l is convex and f(0) = 0 < 1, so {f_l = 1} meets B_l exactly
    when m_l >= 1 and meets its interior exactly when m_l > 1; then
    `NotDisjointError` carries v*/m_l for the first point v* attaining m_l.
    It lies on {f_l = 1} and in B_l, and in its interior when m_l > 1,
    since 0 is interior (Rockafellar 1970, Thm 6.1).
    """
    if not is_dabsorbing(B):
        raise NotAbsorbingError("gauge bound needs an absorbing set")
    f = hyperplane_normalize(L.f, L.c).f
    for l in (1, 2):
        body = B.component(l).gauge_body()
        top, peak = body.form_argmax([Fraction(c) for c in f.component(l)])
        if top > 1 or (top == 1 and not B.open):
            raise NotDisjointError(f"hyperplane meets component {l} of the set",
                                   component=l, witness=tuple(x / top for x in peak))
    return f


def variety_extend_hyperplane(
    x0: DVector,
    basisM: Sequence[DVector],
    B: DConvexSet,
) -> DHyperplane:
    """A hyperplane containing the variety x0 + span(basisM) with f <=' q_B.

    Per component (l = 1 first) one polar LP (`GaugeBody.polar_max`) pins f
    to 0 on the directions and s at x0 with f <= 1 on B_l, and maximizes s.
    Its optimum is s* = 1/c for c the largest g on Y ∩ B_l, g the form that
    is 0 on M and 1 at x0 on Y = span(M, x0): the variety meets t*B_l
    exactly for t >= s*.  B_l is convex with 0 interior, so t*B_l lies in
    its interior for t < 1 (Rockafellar 1970, Thm 6.1): the variety meets
    B_l when s* < 1, or s* = 1 and B is closed, and is refused then with
    `NotDisjointError`.  Its witness is x0 + sum_j s_j u_j = sum_k mu_k v_k
    from the least-gauge LP along the span (`GaugeBody.least_gauge`), a
    point of the variety in s* * B_l, so interior when s* < 1.  Otherwise
    f = f*/s* is 1 at x0, 0 on M and at most 1/s* <= 1 on B_l, certified
    by `form_max`; hence L ⊆ {f = 1} exactly and B ⊆ {x : f(x) <=' 1}.  A
    dependent M raises `DegenerateBasisError` only once both components
    miss B.  B is read through its vertices, so an unbounded H-rep B
    raises `LPUnboundedError`, as in `extend_dominated`.
    """
    n = B.dim
    if x0.dim != n or any(u.dim != n for u in basisM):
        raise DimensionMismatch("ambient dimensions disagree")
    if not is_dabsorbing(B):
        raise NotAbsorbingError("variety extension needs an absorbing gauge")
    out, dependent = [], None
    for l in (1, 2):
        rows = [[Fraction(c) for c in u.part(l)] for u in basisM]
        point = [Fraction(c) for c in x0.part(l)]
        rank = matrix_rank(rows + [point])
        if rank == matrix_rank(rows):
            raise DegenerateVarietyError(f"x0 lies in the span of M in component {l}")
        P = B.component(l).gauge_body()
        full = _extend_component(P, rows + [point], [0] * len(rows) + [1], strict=not B.open)
        if full is None:
            x = P.least_gauge(point, rows).x
            s = x[len(x) - len(rows):]  # the span's weights follow the columns'
            raise NotDisjointError(
                f"variety meets component {l} of the set",
                component=l,
                witness=tuple(p + sum(s_j * u[c] for s_j, u in zip(s, rows))
                              for c, p in enumerate(point)),
            )
        if rank <= len(rows) and dependent is None:
            dependent = l
        out.append(full)
    if dependent is not None:
        raise DegenerateBasisError(f"dependent basis in component {dependent}",
                                   component=dependent)
    return DHyperplane(DLinearFunctional.from_parts(out[0], out[1]), HyperbolicScalar.one())


# -- uniform boundedness, open/inverse mapping, closed graph -------------------


@dataclass(frozen=True, slots=True)
class MapFamily:
    """A finite indexed family of maps with common domain and codomain."""

    maps: tuple[BCLinearMap, ...]

    def __post_init__(self):
        if self.maps:
            rows, cols = self.maps[0].rows, self.maps[0].cols
            for T in self.maps:
                if T.rows != rows or T.cols != cols:
                    raise DimensionMismatch("family members differ in shape")


@dataclass(frozen=True, slots=True)
class OpenMapBound:
    """delta >' 0 such that T(open unit ball) contains the open delta-ball."""

    delta: HyperbolicScalar


def ubp_bound(F: MapFamily, eps: HyperbolicScalar) -> tuple[HyperbolicScalar, HyperbolicScalar]:
    """The uniform bound M = sup over the family of |T|_D, and delta = eps/M.

    Whenever |x|_D <' delta, every member satisfies |T x|_D <' eps.  A zero
    component of M imposes no constraint; its delta component is the LARGE
    stand-in rather than infinity.
    """
    if not F.maps:
        raise EmptyFamilyError("no maps in the family")
    if not (eps.in_plus_cone() and eps.is_invertible()):
        raise ValueError("eps must be >' 0")
    norms = [operator_dnorm(T) for T in F.maps]
    m1 = max(v.a1 for v in norms)
    m2 = max(v.a2 for v in norms)
    d1 = float(eps.a1) / m1 if m1 > 0 else LARGE
    d2 = float(eps.a2) / m2 if m2 > 0 else LARGE
    return HyperbolicScalar(m1, m2), HyperbolicScalar(d1, d2)


def omt_delta(T: BCLinearMap) -> OpenMapBound:
    """The open-mapping radius: delta_l is the smallest singular value of T_l.

    Surjectivity per component is decided first by exact row rank; singular
    values below the rank tolerance are rejected rather than reported.
    """
    import numpy as np

    for l in (1, 2):
        if complex_rank(T.component(l)) < T.rows:
            raise NotSurjectiveError(f"component {l} has deficient row rank", component=l)
    sigmas = []
    for l in (1, 2):
        s = np.linalg.svd(T.component_array(l), compute_uv=False)
        smallest = float(s[T.rows - 1])
        if smallest < SIGMA_TOL:
            raise NotSurjectiveError(
                f"component {l} is numerically rank deficient", component=l
            )
        sigmas.append(smallest)
    return OpenMapBound(HyperbolicScalar(sigmas[0], sigmas[1]))


def inverse_map(T: BCLinearMap) -> tuple[BCLinearMap, HyperbolicScalar]:
    """The exact inverse of a componentwise-invertible square map, with bound.

    T * inverse is the identity exactly in the exact backend; the continuity
    bound is the operator norm of the inverse (float spectral norms).
    """
    if T.rows != T.cols:
        raise NotBijectiveError("map is not square", component=None)
    inverses = []
    for l in (1, 2):
        inv = complex_invert(T.component(l))
        if inv is None:
            raise NotBijectiveError(f"component {l} is singular", component=l)
        inverses.append(inv)
    n = T.rows
    matrix = tuple(
        tuple(BicomplexScalar(inverses[0][r][c], inverses[1][r][c]) for c in range(n))
        for r in range(n)
    )
    T_inv = BCLinearMap(matrix)
    return T_inv, operator_dnorm(T_inv)


def map_from_graph(basisG: Sequence, n: int) -> BCLinearMap:
    """Recover T from a spanning set of its graph in BC^n x BC^m.

    The span is a graph over BC^n iff, per component, the first-block rows
    have full rank n and adjoining the second block adds no rank (no vertical
    directions).  Both are read off one elimination of the embedded [U | V],
    whose unique solution is then T^T.
    """
    if not basisG:
        raise NotAGraphError("empty spanning set")
    total = basisG[0].dim
    if total <= n:
        raise DimensionMismatch("graph vectors must have dim n + m with m >= 1")
    m = total - n
    columns: list[list[list[ComplexScalar]]] = []
    for l in (1, 2):
        pick = (lambda Z: Z.z1) if l == 1 else (lambda Z: Z.z2)
        U = [[pick(v.coords[i]) for i in range(n)] for v in basisG]
        V = [[pick(v.coords[n + i]) for i in range(m)] for v in basisG]
        # U T^T = V: row b says T u_b = v_b; its solution X = T^T is n x m.
        T, d, pivots = elim.eliminate(_embed(U, V), 2 * n)
        if len(pivots) < 2 * n:
            raise NotAGraphError(f"projection to BC^n is not surjective in component {l}")
        if any(any(row[2 * n:]) for row in T[2 * n:]):
            raise NotAGraphError(f"vertical vector present in component {l}")
        columns.append(_complex_solution(T, d, n))
    matrix = tuple(
        tuple(BicomplexScalar(columns[0][i][j], columns[1][i][j]) for i in range(n))
        for j in range(m)
    )
    return BCLinearMap(matrix)
