"""Coordinate-module vectors and their idempotent splits."""

from fractions import Fraction

import pytest

from bicomplex.errors import DimensionMismatch
from bicomplex.scalars import BicomplexScalar, ComplexScalar, HyperbolicScalar
from bicomplex.vectors import BCVector, DVector


def h(a, b):
    return HyperbolicScalar(Fraction(a), Fraction(b))


class TestDVector:
    def test_parts_split_and_reassemble(self):
        x = DVector.of(h(1, 2), h(3, 4))
        assert x.part1() == (1, 3)
        assert x.part2() == (2, 4)
        assert DVector.from_parts(x.part1(), x.part2()) == x

    def test_part_selector(self):
        x = DVector.of(h(1, 2))
        assert x.part(1) == (1,) and x.part(2) == (2,)
        with pytest.raises(ValueError):
            x.part(3)

    def test_arithmetic(self):
        x, y = DVector.of(h(1, 2)), DVector.of(h(10, 20))
        assert (x + y) == DVector.of(h(11, 22))
        assert (y - x) == DVector.of(h(9, 18))
        assert -x == DVector.of(h(-1, -2))

    def test_scale_by_hyperbolic(self):
        x = DVector.of(h(1, 2), h(3, 4))
        lam = h(2, 10)
        assert x.scale(lam) == DVector.of(h(2, 20), h(6, 40))

    def test_idempotent_weight_mixes_parts(self):
        x, y = DVector.of(h(1, 2)), DVector.of(h(5, 7))
        e1 = HyperbolicScalar.e1()
        mix = x.scale(e1) + y.scale(HyperbolicScalar.one() - e1)
        assert mix == DVector.of(h(1, 7))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            DVector.zero(1) + DVector.zero(2)


class TestBCVector:
    def test_parts_and_real_parts(self):
        Z = BicomplexScalar(ComplexScalar(1, 2), ComplexScalar(3, 4))
        x = BCVector.of(Z)
        assert x.part1() == (ComplexScalar(1, 2),)
        assert x.part2() == (ComplexScalar(3, 4),)

    def test_from_real_parts_interleaves(self):
        x = BCVector.from_real_parts([1, 2], [3, 4])
        assert x.dim == 1
        assert x.part1() == (ComplexScalar(1, 2),)
        assert x.part2() == (ComplexScalar(3, 4),)

    def test_basis(self):
        e = BCVector.basis(3, 1)
        assert e.coords[1] == BicomplexScalar.one()
        assert e.coords[0].is_zero() and e.coords[2].is_zero()

    def test_scale_by_bicomplex(self):
        x = BCVector.of(BicomplexScalar.one())
        lam = BicomplexScalar(ComplexScalar(2), ComplexScalar(3))
        assert x.scale(lam).coords[0] == lam

    def test_times_i_and_j(self):
        one = BCVector.of(BicomplexScalar.one())
        i = BicomplexScalar.unit_i()
        j = BicomplexScalar.unit_j()
        assert one.times_i().coords[0] == i
        assert one.times_j().coords[0] == j
        # i then i = -1
        assert one.times_i().times_i().coords[0] == -BicomplexScalar.one()


class TestForeignOperands:
    """A vector adds and subtracts only a vector of its own class; anything
    else gets `NotImplemented`, so Python raises `TypeError`."""

    @pytest.mark.parametrize("x", [DVector.of(h(1, 1)), BCVector.of(BicomplexScalar.one())])
    @pytest.mark.parametrize("other", ["s", None, 1, h(1, 1), BicomplexScalar.one()])
    def test_foreign_operand_is_a_type_error(self, x, other):
        for left, right in ((x, other), (other, x)):
            with pytest.raises(TypeError):
                left + right
            with pytest.raises(TypeError):
                left - right

    def test_other_vector_class_is_a_type_error(self):
        x, y = DVector.of(h(1, 1)), BCVector.of(BicomplexScalar.one())
        for left, right in ((x, y), (y, x)):
            with pytest.raises(TypeError):
                left + right
            with pytest.raises(TypeError):
                left - right

    def test_dimension_mismatch_still_raises(self):
        with pytest.raises(DimensionMismatch):
            BCVector.zero(1) - BCVector.zero(2)
        with pytest.raises(DimensionMismatch):
            DVector.zero(2) - DVector.zero(1)
