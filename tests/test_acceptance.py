"""Full-scale acceptance runs: one test (one pass/fail line under -v) per
guarantee the package makes.

Each test either runs a property suite at its contracted case count or runs
the relevant public theorem harness (``omt_case``, ``ubp_case``, ...) through
the same driver, ``run_cases``, at the contracted sample density.  All runs
are seeded and deterministic; together they target well under a minute of
wall time.
"""

from functools import partial
from random import Random

from bicomplex.backend import EXACT
from bicomplex.generators import rand_component_invertible_map
from bicomplex.linear import operator_dnorm
from bicomplex.scalars import HyperbolicScalar
from bicomplex.suites import (
    cgt_case,
    hyperplane_case,
    imt_case,
    omt_case,
    run_cases,
    run_suite,
    scale_map,
    ubp_case,
)
from bicomplex.analysis import MapFamily, ubp_bound

SEED = 2026


def _green(report):
    assert report.ok, report.text()


def test_criterion_1_scalar_algebra_laws_ten_thousand_cases():
    # Ring laws, the three conjugations and their composition table, the
    # k-modulus identities and multiplicativity, k = e1 - e2, and the inverse
    # law away from the zero divisors - all on the exact backend.
    _green(run_suite("algebra", seed=SEED, cases=10_000, backend=EXACT))


def test_criterion_2_functional_form_agreement_thousand_functionals():
    # All six hyperbolic-part derivations agree and both axis reconstructions
    # return the original functional exactly, on dimensions 1 through 4.
    _green(run_suite("linear", seed=SEED, cases=1_000, backend=EXACT))


def test_criterion_3_separation_certificates_two_hundred_instances():
    # Component-disjoint pairs (open A, arbitrary B) in dimensions 1-3: every
    # certificate is re-verified at all product vertices, which is a positive
    # gap, and every injected overlap gives a witness in both closures.
    _green(run_suite("separation", seed=SEED, cases=200, backend=EXACT))


def test_criterion_4_gauge_three_way_agreement_five_hundred_pairs():
    # Closed-form H-rep gauge vs bisection brute force (float, 1e-9) and vs
    # the exact V-rep linear program, plus sublinearity and positive
    # homogeneity, on random absorbing polytope pairs.
    _green(run_suite("convex", seed=SEED, cases=500, backend=EXACT))


def test_criterion_5_ball_cover_witnesses_fifty_covers_fifty_punctured():
    # The metric suite at 500 cases runs the rectangle-cover pipeline on
    # every tenth case: 50 exact covers must yield a verified (index, ball)
    # witness and 50 punctured variants must raise the cover rejection.
    _green(run_suite("metric", seed=SEED, cases=500, backend=EXACT))


def test_criterion_6_open_and_inverse_mapping_bounds():
    # 100 per-component-invertible maps in dims 1-3, 1000 sampled targets per
    # map confirming the delta-ball lands inside the image of the unit ball;
    # the reported radii and continuity bounds match direct singular-value
    # computation within 1e-6, and T * T^-1 is the identity exactly.
    rng = Random(f"omt-acceptance:{SEED}")
    _green(run_cases("omt", partial(omt_case, samples=1_000), rng, SEED, 100))
    _green(run_cases("imt", imt_case, rng, SEED, 100))


def test_criterion_7_graph_reconstruction_and_rejection_hundred_each():
    # Exact recovery of the map from a spanning set of its graph on 100
    # instances, and rejection of 100 spanning sets that are not graphs.
    rng = Random(f"cgt-acceptance:{SEED}")
    _green(run_cases("cgt", cgt_case, rng, SEED, 100))


def test_criterion_8_uniform_boundedness_guarantee_and_negative_control():
    # 100 random finite families, 1000 samples each: whenever |x|_D <' delta
    # every member keeps |Tx|_D <' eps.  Negative control: scaling a family
    # by 2^s scales M by 2^s and delta by 2^-s.
    rng = Random(f"ubp-acceptance:{SEED}")
    _green(run_cases("ubp", partial(ubp_case, samples=1_000), rng, SEED, 100))

    T0 = rand_component_invertible_map(rng, 2)
    eps = HyperbolicScalar(1.0, 1.0)
    M0, d0 = ubp_bound(MapFamily((T0,)), eps)
    assert M0.a1 > 0 and M0.a2 > 0
    for s in range(1, 7):
        Ms, ds = ubp_bound(MapFamily((scale_map(T0, 2**s),)), eps)
        factor = float(2**s)
        assert abs(Ms.a1 / M0.a1 - factor) <= 1e-9 * factor
        assert abs(Ms.a2 / M0.a2 - factor) <= 1e-9 * factor
        assert abs(ds.a1 / d0.a1 - 1.0 / factor) <= 1e-9
        assert abs(ds.a2 / d0.a2 - 1.0 / factor) <= 1e-9
    # sanity: the scaled map's norm itself grew as claimed
    grown = operator_dnorm(scale_map(T0, 2))
    base = operator_dnorm(T0)
    assert abs(grown.a1 - 2 * base.a1) <= 1e-9 * max(1.0, grown.a1)


def test_criterion_9_hyperplane_normalization_and_gauge_bounds_two_hundred():
    # Normalization is invariant under invertible rescaling of (g, c); the
    # normalized functional obeys -q(-x) <=' f(x) <=' q(x) at every vertex
    # and across a thousand-point grid; zero-divisor levels are always
    # rejected, as are crossing levels and degenerate normals.
    rng = Random(f"hyperplane-acceptance:{SEED}")
    _green(run_cases("hyperplane", hyperplane_case, rng, SEED, 200))
