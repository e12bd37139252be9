"""V<->H conversion above three dimensions, against Qhull.

`scipy.spatial.ConvexHull` (Qhull, floating point) converts the same seeded
4-D and 5-D clouds.  Its triangulated facets are merged by their unit
equations; then the facet counts must agree, each exact facet must match a
Qhull equation within 1e-9 once both are scaled to unit normals, and the
vertices converted back from the exact facets must be Qhull's vertices.
Independently of Qhull, every facet is checked exactly: it holds at every
input point and is tight on at least dim affinely independent ones.
"""

from fractions import Fraction
from random import Random

import pytest

np = pytest.importorskip("numpy")
spatial = pytest.importorskip("scipy.spatial")

from bicomplex.polytope import RealPolytope, affine_rank, facet_enumeration  # noqa: E402

F = Fraction


def _cloud(rng: Random, dim: int) -> list[tuple[Fraction, ...]]:
    pts = [tuple(F(rng.randint(-1000, 1000), rng.choice((1, 2, 4))) for _ in range(dim))
           for _ in range(rng.randint(dim + 2, 20))]
    centroid = tuple(sum(c) / len(pts) for c in zip(*pts))
    return pts + [centroid, pts[0]]  # an interior point and a repeat


def _unit(normal, offset):
    norm = np.linalg.norm(normal)
    return np.append(np.asarray(normal, dtype=float) / norm, offset / norm)


@pytest.mark.parametrize("dim", [4, 5])
def test_conversions_match_qhull(dim):
    rng = Random(f"qhull:{dim}")
    for _ in range(8):
        pts = _cloud(rng, dim)
        facets = facet_enumeration(pts, dim)
        hull = spatial.ConvexHull(np.array([[float(x) for x in p] for p in pts]))
        merged = []
        for eq in hull.equations:  # normal . x + offset <= 0, unit normal
            row = _unit(eq[:-1], -eq[-1])
            if not any(np.allclose(row, m, rtol=0, atol=1e-9) for m in merged):
                merged.append(row)
        assert len(facets) == len(merged)
        for h in facets:
            row = _unit([float(c) for c in h.a], float(h.b))
            assert any(np.allclose(row, m, rtol=0, atol=1e-9) for m in merged)
            assert all(sum(a * x for a, x in zip(h.a, p)) <= h.b for p in pts)
            on = [p for p in pts if sum(a * x for a, x in zip(h.a, p)) == h.b]
            assert affine_rank(on) == dim - 1
        assert set(RealPolytope.from_halfspaces(facets, dim).vertices()) == {pts[i] for i in hull.vertices}
