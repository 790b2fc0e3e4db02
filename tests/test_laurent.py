import random
from fractions import Fraction

import pytest

from satake.laurent import LaurentPoly, ONE, Q, V, VMonomial, ZERO, as_poly


def rand_poly(rng, max_terms=4, max_exp=5, max_coeff=9):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[rng.randint(-max_exp, max_exp)] = rng.randint(-max_coeff, max_coeff)
    return LaurentPoly(terms)


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


def test_ring_axioms_randomized():
    rng = random.Random(11235)
    for _ in range(500):
        a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO


def test_evaluation_is_ring_homomorphism():
    rng = random.Random(7411)
    for _ in range(200):
        a, b = rand_poly(rng), rand_poly(rng)
        v0 = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert (a * b).eval_v(v0) == a.eval_v(v0) * b.eval_v(v0)
        assert (a + b).eval_v(v0) == a.eval_v(v0) + b.eval_v(v0)


def test_shift_and_inverse_substitution():
    p = LaurentPoly({0: 1, 2: 3})
    assert p.shift(-2) == LaurentPoly({-2: 1, 0: 3})
    assert p.subst_v_inverse() == LaurentPoly({0: 1, -2: 3})
    assert p.subst_v_inverse().subst_v_inverse() == p


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
