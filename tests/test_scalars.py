"""Scalar algebra: constructors, products, conjugations, moduli, inverses."""

import copy
import dataclasses
import operator
import pickle
from fractions import Fraction
from random import Random

import pytest

from bicomplex.backend import req, rle, rlt
from bicomplex.errors import NullConeError, ZeroError
from bicomplex.generators import rand_bicomplex, rand_invertible_bicomplex
from bicomplex.scalars import (
    BicomplexScalar,
    ComplexScalar,
    ConjugationKind,
    HyperbolicScalar,
    bc_from_w,
    bc_inverse,
    bc_mul,
    conjugate,
    dnorm_k,
    dnorm_k_sq,
    is_zero_divisor,
    modulus,
)


def bc(a1, b1, a2, b2) -> BicomplexScalar:
    return BicomplexScalar(
        ComplexScalar(Fraction(a1), Fraction(b1)),
        ComplexScalar(Fraction(a2), Fraction(b2)),
    )


def bc_real(c1, c2) -> BicomplexScalar:
    return bc(c1, 0, c2, 0)


class TestMultiplication:
    def test_componentwise_product(self):
        assert bc_mul(bc_real(2, 3), bc_real(5, 7)) == bc_real(10, 21)

    def test_one_is_identity(self):
        rng = Random("mul-identity")
        one = BicomplexScalar.one()
        for _ in range(100):
            Z = rand_bicomplex(rng)
            assert bc_mul(Z, one) == Z

    def test_idempotents_annihilate(self):
        e1 = HyperbolicScalar.e1().to_bicomplex()
        e2 = HyperbolicScalar.e2().to_bicomplex()
        assert bc_mul(e1, e2).is_zero()
        assert bc_mul(e1, e1) == e1
        assert bc_mul(e2, e2) == e2

    def test_unit_table(self):
        one = BicomplexScalar.one()
        i, j, k = BicomplexScalar.unit_i(), BicomplexScalar.unit_j(), BicomplexScalar.unit_k()
        assert bc_mul(i, i) == -one
        assert bc_mul(j, j) == -one
        assert bc_mul(k, k) == one
        assert bc_mul(i, j) == k

    def test_k_is_e1_minus_e2(self):
        e1 = HyperbolicScalar.e1().to_bicomplex()
        e2 = HyperbolicScalar.e2().to_bicomplex()
        assert BicomplexScalar.unit_k() == e1 - e2
        assert e1 + e2 == BicomplexScalar.one()


class TestWCoordinates:
    def test_real_unit(self):
        Z = bc_from_w(ComplexScalar(1), ComplexScalar(0))
        assert Z == bc_real(1, 1)

    def test_j_from_w(self):
        Z = bc_from_w(ComplexScalar(0), ComplexScalar(1))
        assert Z == bc(0, -1, 0, 1)
        assert Z == BicomplexScalar.unit_j()

    def test_k_from_w(self):
        Z = bc_from_w(ComplexScalar(0), ComplexScalar(0, 1))
        assert Z == bc_real(1, -1)
        assert Z == BicomplexScalar.unit_k()

    def test_round_trip(self):
        rng = Random("w-roundtrip")
        for _ in range(100):
            Z = rand_bicomplex(rng)
            assert bc_from_w(Z.w1, Z.w2) == Z

    def test_quad_round_trip(self):
        Z = BicomplexScalar.from_quad(1, 2, 3, 4)
        assert Z.quad() == (1, 2, 3, 4)
        assert bc_from_w(Z.w1, Z.w2) == Z


class TestConjugations:
    def test_dagger2_swaps_components(self):
        Z = BicomplexScalar(ComplexScalar(1, 2), ComplexScalar(5))
        got = conjugate(Z, ConjugationKind.DAGGER2)
        assert got == BicomplexScalar(ComplexScalar(5), ComplexScalar(1, 2))

    def test_dagger3_fixes_reals(self):
        Z = bc_real(3, -7)
        assert conjugate(Z, ConjugationKind.DAGGER3) == Z

    def test_involutions(self):
        rng = Random("involution")
        for _ in range(100):
            Z = rand_bicomplex(rng)
            for kind in ConjugationKind:
                assert conjugate(conjugate(Z, kind), kind) == Z

    def test_composition_table(self):
        rng = Random("composition")
        for _ in range(50):
            Z = rand_bicomplex(rng)
            via_12 = conjugate(conjugate(Z, ConjugationKind.DAGGER1), ConjugationKind.DAGGER2)
            assert via_12 == conjugate(Z, ConjugationKind.DAGGER3)


class TestModuli:
    def test_kind_k_is_squared_component_moduli(self):
        rng = Random("modulus-k")
        for _ in range(50):
            Z = rand_bicomplex(rng)
            mk = modulus(Z, "k")
            assert mk.z1 == ComplexScalar(Z.z1.abs2())
            assert mk.z2 == ComplexScalar(Z.z2.abs2())

    def test_kind_i_on_complex_embedding(self):
        z = ComplexScalar(Fraction(2), Fraction(-3))
        Z = BicomplexScalar.from_complex(z)
        assert modulus(Z, "i") == BicomplexScalar(z * z, z * z)

    def test_zero(self):
        assert modulus(BicomplexScalar.zero(), "k").is_zero()

    def test_kind_k_matches_dagger3_product(self):
        rng = Random("modulus-def")
        for _ in range(50):
            Z = rand_bicomplex(rng)
            assert modulus(Z, "k") == bc_mul(Z, conjugate(Z, ConjugationKind.DAGGER3))


class TestDNorm:
    def test_real_components(self):
        Z = bc_real(3, -4)
        assert dnorm_k(Z) == HyperbolicScalar(3, 4)

    def test_e1(self):
        assert dnorm_k(HyperbolicScalar.e1().to_bicomplex()) == HyperbolicScalar.e1()

    def test_multiplicative_in_squares(self):
        rng = Random("norm-mult")
        for _ in range(100):
            Z, W = rand_bicomplex(rng), rand_bicomplex(rng)
            assert dnorm_k_sq(bc_mul(Z, W)) == dnorm_k_sq(Z) * dnorm_k_sq(W)

    def test_square_equals_modulus_k(self):
        rng = Random("norm-vs-mod")
        for _ in range(50):
            Z = rand_bicomplex(rng)
            mk = modulus(Z, "k")
            assert dnorm_k_sq(Z) == mk.hyp_part()


class TestInverse:
    def test_componentwise_reciprocal(self):
        Z = bc_real(2, 4)
        assert bc_inverse(Z) == BicomplexScalar(
            ComplexScalar(Fraction(1, 2)), ComplexScalar(Fraction(1, 4))
        )

    def test_one(self):
        one = BicomplexScalar.one()
        assert bc_inverse(one) == one

    def test_inverse_law(self):
        rng = Random("inverse-law")
        one = BicomplexScalar.one()
        for _ in range(100):
            Z = rand_invertible_bicomplex(rng)
            assert bc_mul(Z, bc_inverse(Z)) == one

    def test_null_cone_rejected(self):
        with pytest.raises(NullConeError):
            bc_inverse(HyperbolicScalar.e1().to_bicomplex())

    def test_zero_rejected(self):
        with pytest.raises(ZeroError):
            bc_inverse(BicomplexScalar.zero())


class TestZeroDivisors:
    def test_detection(self):
        e1 = HyperbolicScalar.e1().to_bicomplex()
        assert is_zero_divisor(e1)
        assert not is_zero_divisor(BicomplexScalar.zero())
        assert not is_zero_divisor(BicomplexScalar.one())

    def test_equivalence_with_modulus_i(self):
        rng = Random("null-cone")
        for _ in range(100):
            Z = rand_bicomplex(rng)
            exactly_one_zero = Z.z1.is_zero() != Z.z2.is_zero()
            assert is_zero_divisor(Z) == exactly_one_zero
            if exactly_one_zero:
                assert modulus(Z, "i").is_zero() and not Z.is_zero()


class TestHyperbolic:
    def test_standard_coordinates(self):
        a = HyperbolicScalar(Fraction(5), Fraction(1))
        assert a.beta1 == 3 and a.beta2 == 2
        assert HyperbolicScalar.from_standard(3, 2) == a

    def test_k_squares_to_one(self):
        k = HyperbolicScalar.k()
        assert k * k == HyperbolicScalar.one()

    def test_abs_k(self):
        assert HyperbolicScalar(-3, 4).abs_k() == HyperbolicScalar(3, 4)

    def test_division(self):
        a = HyperbolicScalar(Fraction(1), Fraction(3))
        b = HyperbolicScalar(Fraction(2), Fraction(4))
        q = a / b
        assert q == HyperbolicScalar(Fraction(1, 2), Fraction(3, 4))
        assert isinstance(q.a1, Fraction)

    def test_embedding_respects_product(self):
        a = HyperbolicScalar(Fraction(2), Fraction(-1))
        b = HyperbolicScalar(Fraction(1, 2), Fraction(3))
        assert (a * b).to_bicomplex() == bc_mul(a.to_bicomplex(), b.to_bicomplex())


class TestForeignOperands:
    """An operand a scalar cannot coerce gets `NotImplemented`, so Python
    tries the other operand's reflected method, or raises `TypeError`."""

    def test_hyperbolic_plus_string_is_a_type_error(self):
        with pytest.raises(TypeError):
            HyperbolicScalar(1, 1) + "x"

    def test_string_minus_hyperbolic_is_a_type_error(self):
        with pytest.raises(TypeError):
            "x" - HyperbolicScalar(1, 1)

    def test_hyperbolic_times_bicomplex_is_the_bicomplex_product(self):
        assert HyperbolicScalar(1, 1) * BicomplexScalar.one() == BicomplexScalar.one()
        a, Z = HyperbolicScalar(Fraction(2), Fraction(-1, 3)), bc(1, 2, 3, 4)
        assert a * Z == Z * a == bc_mul(a.to_bicomplex(), Z)
        assert a - Z == a.to_bicomplex() - Z and a + Z == Z + a

    def test_reflected_subtraction_is_the_coerced_difference(self):
        # a number minus a scalar has the bits of the coerced difference, signed zeros included
        reals = [0, 3, Fraction(-5, 7), 0.0, -0.0, 2.5, -1e-300]
        for r in reals:
            for a in reals:
                for b in reals:
                    for x, coerced in ((ComplexScalar(a, b), ComplexScalar(r)),
                                       (HyperbolicScalar(a, b), HyperbolicScalar(r, r)),
                                       (BicomplexScalar(ComplexScalar(a, b), ComplexScalar(b, a)),
                                        BicomplexScalar.from_complex(r))):
                        assert repr(r - x) == repr(coerced - x)

    @pytest.mark.parametrize("z", ["x", None, HyperbolicScalar(1, 1), bc(1, 2, 3, 4)])
    def test_from_complex_refuses_what_is_not_complex(self, z):
        with pytest.raises(TypeError):
            BicomplexScalar.from_complex(z)

    def test_from_complex_embeds_numbers(self):
        for z in (3, Fraction(-2, 5), 0.5, ComplexScalar(1, 2)):
            w = z if isinstance(z, ComplexScalar) else ComplexScalar(z)
            assert BicomplexScalar.from_complex(z) == BicomplexScalar(w, w)

    @pytest.mark.parametrize("x", [ComplexScalar(1, 2), HyperbolicScalar(1, 1), bc(1, 2, 3, 4)])
    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
    def test_every_operator_refuses_a_foreign_operand(self, x, op):
        for left, right in ((x, "x"), ("x", x), (x, None), (None, x)):
            with pytest.raises(TypeError):
                op(left, right)


class TestExactness:
    def test_int_components_divide_exactly(self):
        z = ComplexScalar(1) / ComplexScalar(4)
        assert z.re == Fraction(1, 4)
        assert isinstance(z.re, Fraction)

    def test_w_coordinates_stay_rational(self):
        Z = bc_real(1, 2)
        assert isinstance(Z.w1.re, Fraction)
        assert Z.w1.re == Fraction(3, 2)


# Scalars as the previous `dataclass`-generated `__init__` built them, with the
# repr and the protocol-2 pickle bytes it gave.
_PINNED = [
    (ComplexScalar(Fraction(1, 2), -3),
     "ComplexScalar(re=Fraction(1, 2), im=-3)",
     b"\x80\x02cbicomplex.scalars\nComplexScalar\nq\x00)\x81q\x01]q\x02(cfractions\nFraction\nq"
     b"\x03K\x01K\x02\x86q\x04Rq\x05J\xfd\xff\xff\xffeb."),
    (HyperbolicScalar(2, Fraction(-1, 3)),
     "HyperbolicScalar(a1=2, a2=Fraction(-1, 3))",
     b"\x80\x02cbicomplex.scalars\nHyperbolicScalar\nq\x00)\x81q\x01]q\x02(K\x02cfractions\nFraction"
     b"\nq\x03J\xff\xff\xff\xffK\x03\x86q\x04Rq\x05eb."),
    (BicomplexScalar(ComplexScalar(1), ComplexScalar(0, Fraction(5, 4))),
     "BicomplexScalar(z1=ComplexScalar(re=1, im=0), z2=ComplexScalar(re=0, im=Fraction(5, 4)))",
     b"\x80\x02cbicomplex.scalars\nBicomplexScalar\nq\x00)\x81q\x01]q\x02(cbicomplex.scalars\nComplex"
     b"Scalar\nq\x03)\x81q\x04]q\x05(K\x01K\x00ebh\x03)\x81q\x06]q\x07(K\x00cfractions\nFraction\nq"
     b"\x08K\x05K\x04\x86q\tRq\nebeb."),
]
_FIELDS = {ComplexScalar: ("re", "im"), HyperbolicScalar: ("a1", "a2"), BicomplexScalar: ("z1", "z2")}


class TestFrozenDataclass:
    """The scalars build through their slots and stay frozen dataclasses."""

    @pytest.mark.parametrize("x, text, data", _PINNED)
    def test_repr_eq_hash_and_fields(self, x, text, data):
        cls, names = type(x), _FIELDS[type(x)]
        values = tuple(getattr(x, n) for n in names)
        assert repr(x) == text
        assert tuple(f.name for f in dataclasses.fields(x)) == names
        assert dataclasses.astuple(x) == dataclasses.astuple(cls(*values))
        assert x == cls(*values) == cls(**dict(zip(names, values)))
        assert hash(x) == hash(values)
        assert x != cls(*values[::-1])
        assert not hasattr(x, "__dict__")

    @pytest.mark.parametrize("x, text, data", _PINNED)
    def test_frozen(self, x, text, data):
        for name in _FIELDS[type(x)]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(x, name, 0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(x, name)
        with pytest.raises((dataclasses.FrozenInstanceError, AttributeError, TypeError)):
            x.other = 0
        assert repr(x) == text

    @pytest.mark.parametrize("x, text, data", _PINNED)
    def test_replace_copy_and_pickle(self, x, text, data):
        first, second = _FIELDS[type(x)]
        swapped = dataclasses.replace(x, **{first: getattr(x, second)})
        assert type(swapped) is type(x) and getattr(swapped, first) == getattr(x, second)
        assert dataclasses.replace(x) == x
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(data),
                  *(pickle.loads(pickle.dumps(x, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1))):
            assert type(y) is type(x) and y == x and repr(y) == text

    def test_complex_defaults_to_an_int_zero_imaginary_part(self):
        for z in (ComplexScalar(Fraction(3, 2)), ComplexScalar(re=Fraction(3, 2))):
            assert z.im == 0 and type(z.im) is int
        assert ComplexScalar(re=1, im=2) == ComplexScalar(1, 2)

    @pytest.mark.parametrize("make", [
        lambda: ComplexScalar(),
        lambda: ComplexScalar(1, 2, 3),
        lambda: ComplexScalar(1, real=2),
        lambda: HyperbolicScalar(1),
        lambda: HyperbolicScalar(a2=1),
        lambda: BicomplexScalar(ComplexScalar(1)),
        lambda: BicomplexScalar(z1=ComplexScalar(1), z2=ComplexScalar(1), z3=ComplexScalar(1)),
    ])
    def test_wrong_arguments_raise_type_error(self, make):
        with pytest.raises(TypeError):
            make()


class _Int(int):
    pass


class _Fraction(Fraction):
    pass


class TestComparisonTypes:
    """`req`, `rle` and `rlt` are exact on ``int``, `Fraction` and their
    subclasses other than ``bool``, and ε-tolerant once an operand is a
    ``bool`` or a ``float``."""

    tiny = Fraction(1, 10**12)  # far inside EPSILON

    def test_bool_and_float_are_inexact(self):
        for one in (True, 1.0):
            assert req(one, 1 + self.tiny) and req(1 + self.tiny, one)
            assert rle(1 + self.tiny, one)
            assert not rlt(one, 1 + self.tiny)
            assert not rlt(1 - self.tiny, one)

    def test_int_subclass_and_exact_types_are_exact(self):
        for one in (1, _Int(1), Fraction(1), _Fraction(1)):
            assert not req(one, 1 + self.tiny) and not req(1 + self.tiny, one)
            assert not rle(1 + self.tiny, one) and rle(one, 1 + self.tiny)
            assert rlt(one, 1 + self.tiny) and rlt(1 - self.tiny, one)
            assert req(one, Fraction(2, 2)) and rle(one, one) and not rlt(one, one)
