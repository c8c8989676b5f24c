from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from vertextwist.linalg import mat_identity, solve
from vertextwist.scalars import (HALF_SQRT2, Scalar, Vec, binomial,
                                 CyclotomicLevelError, inverse, phase_turns)
from vertextwist.series import TermSeries, scaled

F = Fraction


def test_e_pi_folds_to_minus_one():
    assert Scalar.e(1) == -1
    assert Scalar.e(2) == 1
    assert Scalar.e(F(5, 2)) == Scalar.e(F(1, 2))
    assert Scalar.e(F(3, 2)) == -Scalar.e(F(1, 2))


def test_phase_lattice_enforced():
    with pytest.raises(CyclotomicLevelError):
        Scalar.e(F(1, 3))


def test_half_sqrt2_squares_to_half():
    assert HALF_SQRT2 * HALF_SQRT2 == F(1, 2)


def test_pi_laurent():
    x = Scalar.pi(-1) * Scalar.pi(3)
    assert x == Scalar.pi(2)


phases = st.integers(min_value=-40, max_value=40).map(lambda k: F(k, 16))
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)


def scalars():
    return st.lists(
        st.tuples(st.integers(min_value=-2, max_value=3), phases, rationals),
        max_size=4,
    ).map(lambda ts: sum(
        (Scalar.pi(p) * Scalar.e(q) * c for p, q, c in ts), 0))


@given(scalars(), scalars())
def test_mul_commutes(a, b):
    assert a * b == b * a


@given(scalars(), scalars(), scalars())
def test_distributive(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(phases, phases)
def test_phase_addition(q1, q2):
    assert Scalar.e(q1) * Scalar.e(q2) == Scalar.e(q1 + q2)


@given(scalars())
def test_additive_inverse(a):
    assert a - a == 0


def test_binomial_recurrence_oracle():
    # independent oracle: Pascal recurrence C(a,k) = C(a-1,k-1) + C(a-1,k)
    for num in range(-6, 7):
        a = F(num, 2)
        for k in range(1, 8):
            assert binomial(a, k) == binomial(a - 1, k - 1) + binomial(a - 1, k)


def test_binomial_half_values():
    assert binomial(F(1, 2), 0) == 1
    assert binomial(F(1, 2), 1) == F(1, 2)
    assert binomial(F(1, 2), 2) == F(-1, 8)
    assert binomial(F(1, 2), 3) == F(1, 16)


def test_vec_arithmetic():
    v = Vec.basis("a") + Vec.basis("b").scale(2)
    w = v - Vec.basis("a")
    assert w == Vec.basis("b").scale(2)
    assert not v.scale(0)
    assert v.coeff("a") == 1


def test_vec_construction_is_canonical():
    # a zero coefficient is dropped, a float refused, and every zero vector
    # is the one zero: falsy, printed 0, over the denominator 1
    z = Vec({1: 0})
    assert not z and z == Vec.zero() and hash(z) == hash(Vec.zero())
    assert repr(z) == "0"
    assert Vec({1: F(2), 2: 0}) == Vec.basis(1).scale(2)
    with pytest.raises(TypeError):
        Vec({1: 2.0})
    half = Vec({1: F(1, 2), 2: Scalar.e(F(1, 4)) / 3})
    for zero in (half - half, half + half.scale(-1), half.scale(0),
                 Vec({1: Scalar.e(1) + 1})):
        assert zero == Vec.zero() and zero._den == 1 and not zero


@pytest.mark.parametrize("c", [3, -2, F(-3, 4), F(6, 3),
                               HALF_SQRT2, Scalar.e(F(1, 4)) / 3, True])
def test_scaled_basis_in_one_step(c):
    # the stored form, ==, hash and repr of Vec.basis(key).scale(c)
    got, two = Vec.basis((2, 1), c), Vec.basis((2, 1)).scale(c)
    assert (got._rat, got._phased, got._den) == \
        (two._rat, two._phased, two._den)
    assert got == two and hash(got) == hash(two) and repr(got) == repr(two)
    assert got.coeff((2, 1)) == c and list(got.keys()) == [(2, 1)]


def test_scaled_basis_zero_and_float():
    for zero in (Vec.basis(1, 0), Vec.basis(1, F(0)), Vec.basis(1, False)):
        assert not zero and zero == Vec.zero() and zero._den == 1
        assert hash(zero) == hash(Vec.zero()) and repr(zero) == "0"
    with pytest.raises(TypeError):
        Vec.basis(1, 0.5)


def test_hash_agrees_with_eq():
    # a Scalar that reduces to its rational part folds to that number, so
    # == and hash are the number's own
    pairs = [(Scalar.e(2), 1), (Scalar.e(1) + 1, 0), (Scalar.e(1) * 3, -3),
             (HALF_SQRT2 * HALF_SQRT2, F(1, 2)), (Scalar.pi(0), 1)]
    for s, x in pairs:
        assert not isinstance(s, Scalar) and s == x and hash(s) == hash(x)
    assert len({HALF_SQRT2 * HALF_SQRT2, F(1, 2), Scalar.e(2), 1}) == 2
    i = Scalar.e(F(1, 2))
    assert hash(i * 2) == hash(i + i)
    assert i != 1 and i * i == -1 and 1 - i == -(i - 1)


def test_rational_inverse_is_exact():
    # 1/3 as a float is not 1/3; the inverse and the solve must be exact
    assert inverse(3) == F(1, 3) and inverse(F(-2, 5)) == F(-5, 2)
    assert solve([[3]], mat_identity(1)) == [[F(1, 3)]]
    assert solve([[HALF_SQRT2 * 2]], [[1]]) == [[HALF_SQRT2]]


def test_inverse_of_zero_pi_and_rationals():
    # rationals come back canonical: an integral inverse is an int
    assert inverse(1) == 1 and type(inverse(1)) is int
    assert inverse(F(1, 2)) == 2 and type(inverse(F(1, 2))) is int
    assert inverse(-7) == F(-1, 7)
    with pytest.raises(ZeroDivisionError):
        inverse(0)
    for c in (Scalar.pi(), Scalar.pi(-2) * HALF_SQRT2 + 1):
        with pytest.raises(ValueError, match="involves PI"):
            inverse(c)


def test_phase_turns_round_trip():
    # e(k/16) = e^{2 pi i k/32}: the 32 roots of unity of the ring
    for k in range(32):
        assert phase_turns(Scalar.e(F(k, 16))) == F(k, 32)
    for c in (0, 2, F(-1, 2), HALF_SQRT2, Scalar.pi(),
              Scalar.e(F(1, 8)) * 2, Scalar.e(F(1, 8)) / 2,
              1 + Scalar.e(F(1, 2))):
        with pytest.raises(ValueError, match="not a root of unity"):
            phase_turns(c)


def test_floats_are_refused():
    with pytest.raises(TypeError):
        Vec.basis("a").scale(0.5)
    with pytest.raises(TypeError):
        scaled(TermSeries.monomial(("x",), [0]), 0.5)
    with pytest.raises(TypeError):
        Scalar.e(F(1, 2)) * 0.5


def test_scalar_is_stored_as_a_vector_on_one_key():
    # the ring's operations are the vectors' own, reading the same slots;
    # a Scalar is no Vec, since series and the harness tell a coefficient
    # from a vector by isinstance(x, Vec)
    assert Scalar.__slots__ == Vec.__slots__
    assert not issubclass(Scalar, Vec)
    assert not isinstance(HALF_SQRT2, Vec)
