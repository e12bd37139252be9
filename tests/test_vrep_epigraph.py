"""The V-rep gauge body of an H-rep set needs its vertices.

`extend_dominated` reads each component through its `GaugeBody`, the
vertex list of the set, so an H-rep body is converted to vertices first.
An unbounded H-rep body has none: it is refused with `LPUnboundedError`,
also where g vanishes on the span and the extension LP would be unbounded.
The domination decision itself is checked against HiGHS in
``test_domination_oracle.py``.
"""

from fractions import Fraction

import pytest

from bicomplex.analysis import extend_dominated
from bicomplex.convex import DConvexSet
from bicomplex.errors import LPUnboundedError
from bicomplex.linear import DLinearFunctional
from bicomplex.polytope import Halfspace, RealPolytope
from bicomplex.vectors import DVector

F = Fraction


def test_unbounded_hrep_body_is_refused():
    # The V-rep epigraph needs vertices: an unbounded H-rep body raises
    # LPUnboundedError even where its H-rep gauge would admit an extension.
    g = DLinearFunctional.from_parts([F(0), F(0)], [F(0), F(0)])
    half = RealPolytope.from_halfspaces(
        [Halfspace((1, 0), 1), Halfspace((0, 1), 1), Halfspace((0, -1), 1)], 2)
    for P in (RealPolytope.whole_space(2), half):
        for basis in ([], [DVector.from_parts([F(1), F(0)], [F(1), F(0)])]):
            with pytest.raises(LPUnboundedError):
                extend_dominated(g, basis, DConvexSet(P, P))
