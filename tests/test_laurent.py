from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from satake.laurent import LaurentPoly, ONE, Q, V, VMonomial, ZERO, as_poly

# up to four terms, zero coefficients included, so normalization is exercised too
polys = st.dictionaries(st.integers(-5, 5), st.integers(-9, 9), max_size=4).map(LaurentPoly)
nonzero_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)


def test_product_of_conjugates():
    a = LaurentPoly({1: 1, -1: 1})
    b = LaurentPoly({1: 1, -1: -1})
    assert a * b == LaurentPoly({2: 1, -2: -1})


def test_multiplication_by_zero():
    p = LaurentPoly({3: 2, -1: 5})
    assert p * ZERO == ZERO
    assert not (p * ZERO)


def test_one_plus_q_squared():
    p = ONE + Q
    assert p * p == LaurentPoly({0: 1, 2: 2, 4: 1})


def test_v_monomial_renders_and_evaluates():
    assert str(VMonomial(Fraction(2, 3), 0)) == "2/3"
    assert str(VMonomial(Fraction(2, 3), 1)) == "2/3*v"
    assert str(VMonomial(Fraction(-5), -2)) == "-5*v^-2"
    assert str(VMonomial(Fraction(0), -2)) == "0"
    assert VMonomial(Fraction(0), -2).v_power == -2  # zero is not normalized here
    assert VMonomial(Fraction(3), -3).odd and not VMonomial(Fraction(3), 2).odd
    assert VMonomial(Fraction(5, 2), -1).evaluate(3) == Fraction(5, 6)


def test_eval_q_plus_one_at_three():
    assert (Q + ONE).eval_q(3) == 4


def test_eval_inverse_v():
    assert LaurentPoly({-1: 1}).eval_v(3) == Fraction(1, 3)


def test_q_power_of_minus_half_pairing():
    # q^{-1} = v^{-2}: the prefactor for the rank-1 orbit labeled 2 at q = 9
    assert LaurentPoly.v_power(-2).eval_q(9) == Fraction(1, 9)


def test_eval_q_rejects_odd_powers():
    with pytest.raises(ValueError):
        V.eval_q(3)


@settings(max_examples=300, deadline=None)
@given(a=polys, b=polys, c=polys)
def test_ring_axioms_randomized(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@settings(max_examples=200, deadline=None)
@given(a=polys, b=polys, v0=nonzero_rationals)
def test_evaluation_is_ring_homomorphism(a, b, v0):
    assert (a * b).eval_v(v0) == a.eval_v(v0) * b.eval_v(v0)
    assert (a + b).eval_v(v0) == a.eval_v(v0) + b.eval_v(v0)
    assert ONE.eval_v(v0) == 1


def test_shift_and_inverse_substitution():
    p = LaurentPoly({0: 1, 2: 3})
    assert p.shift(-2) == LaurentPoly({-2: 1, 0: 3})
    assert p.subst_v_inverse() == LaurentPoly({0: 1, -2: 3})
    assert p.subst_v_inverse().subst_v_inverse() == p


@settings(max_examples=200, deadline=None)
@given(p=polys, a=st.integers(-6, 6), b=st.integers(-6, 6))
def test_shift_is_multiplication_by_a_v_power(p, a, b):
    assert ONE.shift(a) * ONE.shift(b) == ONE.shift(a + b)
    assert p.shift(a).shift(b) == p.shift(a + b) == p * ONE.shift(a + b)


@settings(max_examples=200, deadline=None)
@given(a=polys, b=polys, v0=nonzero_rationals)
def test_inverse_substitution_is_an_involutive_ring_automorphism(a, b, v0):
    bar = LaurentPoly.subst_v_inverse
    assert bar(a + b) == bar(a) + bar(b)
    assert bar(a * b) == bar(a) * bar(b)
    assert bar(ONE) == ONE
    assert bar(bar(a)) == a
    assert bar(a).eval_v(v0) == a.eval_v(1 / v0)


def test_json_round_trip():
    p = LaurentPoly({-2: 1, 0: 3})
    assert p.to_json() == {"v": {"-2": 1, "0": 3}}
    # the wire format is lossless: the exponent keys and the coefficients rebuild p
    assert LaurentPoly({int(e): c for e, c in p.to_json()["v"].items()}) == p


def test_canonical_string_is_ascending():
    p = LaurentPoly({2: -3, -1: 1, 0: 2})
    assert str(p) == "v^-1 + 2 - 3*v^2"
    assert str(ZERO) == "0"
    assert str(LaurentPoly({1: -1})) == "-v"


def test_normalization_drops_zero_coefficients():
    assert LaurentPoly({5: 0, 1: 2}) == LaurentPoly({1: 2})
    assert hash(LaurentPoly({5: 0})) == hash(ZERO)


def test_as_poly_coercion():
    assert as_poly(3) == LaurentPoly({0: 3})
    assert as_poly(ONE) is ONE
    with pytest.raises(TypeError):
        as_poly("v")
