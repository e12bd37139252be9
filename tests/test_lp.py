"""Exact-rational simplex core."""

from fractions import Fraction
from random import Random

import pytest

from bicomplex.errors import LPError
from bicomplex.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram


class TestBasics:
    def test_simple_minimum(self):
        lp = LinearProgram(1, nonneg=True)
        lp.add_ge([1], 3)
        lp.set_minimize([1])
        res = lp.solve()
        assert res.status == OPTIMAL
        assert res.x == [Fraction(3)] and res.value == 3

    def test_maximize_over_box(self):
        lp = LinearProgram(2)
        lp.add_le([1, 0], 2)
        lp.add_ge([1, 0], -2)
        lp.add_le([0, 1], 5)
        lp.add_ge([0, 1], -5)
        lp.set_maximize([1, 1])
        res = lp.solve()
        assert res.status == OPTIMAL and res.value == 7

    def test_equality_constraints(self):
        lp = LinearProgram(2, nonneg=True)
        lp.add_eq([1, 1], 1)
        lp.set_minimize([2, 3])
        res = lp.solve()
        assert res.value == 2 and res.x == [Fraction(1), Fraction(0)]

    def test_free_variables_can_go_negative(self):
        lp = LinearProgram(1)
        lp.add_ge([1], -10)
        lp.set_minimize([1])
        res = lp.solve()
        assert res.value == -10

    def test_exact_rational_answer(self):
        lp = LinearProgram(1, nonneg=True)
        lp.add_ge([Fraction(3)], Fraction(1))
        lp.set_minimize([1])
        res = lp.solve()
        assert res.x == [Fraction(1, 3)]

    def test_fractional_rows_scale_correctly(self):
        lp = LinearProgram(2, nonneg=True)
        lp.add_le([Fraction(1, 2), Fraction(1, 3)], Fraction(5, 6))
        lp.set_maximize([1, 1])
        res = lp.solve()
        assert res.status == OPTIMAL and res.value == Fraction(5, 2)


class TestStatuses:
    def test_infeasible(self):
        lp = LinearProgram(1, nonneg=True)
        lp.add_le([1], -1)
        lp.set_minimize([1])
        assert lp.solve().status == INFEASIBLE

    def test_unbounded(self):
        lp = LinearProgram(1)
        lp.set_minimize([1])
        assert lp.solve().status == UNBOUNDED

    def test_contradictory_equalities(self):
        lp = LinearProgram(1)
        lp.add_eq([1], 0)
        lp.add_eq([1], 1)
        lp.set_minimize([1])
        assert lp.solve().status == INFEASIBLE

    def test_result_truthiness(self):
        lp = LinearProgram(1, nonneg=True)
        lp.add_le([1], 1)
        lp.set_maximize([1])
        assert lp.solve()
        lp2 = LinearProgram(1, nonneg=True)
        lp2.add_le([1], -1)
        assert not lp2.solve()


class TestDegenerate:
    def test_bland_terminates_on_degenerate_program(self):
        # classic cycling-prone instance; Bland's rule must terminate
        lp = LinearProgram(4, nonneg=True)
        lp.add_le([Fraction(1, 2), Fraction(-11, 2), Fraction(-5, 2), 9], 0)
        lp.add_le([Fraction(1, 2), Fraction(-3, 2), Fraction(-1, 2), 1], 0)
        lp.add_le([1, 0, 0, 0], 1)
        lp.set_maximize([Fraction(10), -57, -9, -24])
        res = lp.solve()
        assert res.status == OPTIMAL and res.value == 1

    def test_redundant_equalities_ok(self):
        lp = LinearProgram(2, nonneg=True)
        lp.add_eq([1, 1], 2)
        lp.add_eq([2, 2], 4)
        lp.set_minimize([1, 0])
        res = lp.solve()
        assert res.status == OPTIMAL and res.value == 0


    def test_value_is_the_objective_at_the_solution(self):
        # the value is read off the final tableau; it must be c . x exactly
        rng = Random("lp:value")
        optimal = 0
        for trial in range(200):
            n = rng.randint(1, 4)
            lp = LinearProgram(n, nonneg=[rng.random() < 0.5 for _ in range(n)])
            for _ in range(rng.randint(1, 4)):
                row = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
                rhs = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                rng.choice((lp.add_le, lp.add_ge, lp.add_eq))(row, rhs)
            for i in range(n):  # keep it bounded
                unit = [int(i == j) for j in range(n)]
                lp.add_le(unit, 5)
                lp.add_ge(unit, -5)
            c = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n)]
            (lp.set_maximize if trial % 2 else lp.set_minimize)(c)
            res = lp.solve()
            if res:
                optimal += 1
                assert type(res.value) is Fraction
                assert res.value == sum(a * x for a, x in zip(c, res.x))
        assert optimal > 50


class TestValidation:
    def test_coefficient_length_mismatch(self):
        lp = LinearProgram(2)
        with pytest.raises(LPError):
            lp.add_le([1], 0)

    def test_negative_variable_count(self):
        with pytest.raises(LPError):
            LinearProgram(-1)

    def test_nonneg_flag_mismatch(self):
        with pytest.raises(LPError):
            LinearProgram(2, nonneg=[True])
