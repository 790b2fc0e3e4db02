from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from satake.laurent import LaurentPoly, ONE, Q, V, VMonomial, ZERO, as_poly

from conftest import bar

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
    assert LaurentPoly({-2: 1}).eval_q(9) == Fraction(1, 9)


def test_eval_q_rejects_odd_powers():
    with pytest.raises(ValueError):
        V.eval_q(3)


def test_constant_value_refuses_a_non_constant():
    assert LaurentPoly.const(4).constant_value() == 4 and ZERO.constant_value() == 0
    with pytest.raises(ValueError, match="is not constant"):
        (ONE + V).constant_value()


def test_evaluation_at_zero_refuses_a_negative_exponent():
    assert (ONE + V).eval_v(0) == 1 and (ONE + Q).eval_q(0) == 1
    with pytest.raises(ZeroDivisionError, match="at v = 0"):
        LaurentPoly({-1: 1, 0: 1}).eval_v(0)
    with pytest.raises(ZeroDivisionError, match="at q = 0"):
        LaurentPoly({-2: 1, 0: 1}).eval_q(0)


def test_a_laurent_poly_equals_only_a_laurent_poly():
    # equal values hash equal, so no int may equal a LaurentPoly: hash(3) is not hash(const(3))
    three = [LaurentPoly.const(3), LaurentPoly({0: 3, 1: 0}), ONE * 3, (ONE + ONE) + ONE]
    assert len(set(three)) == 1 and len({hash(p) for p in three}) == 1
    for n in range(-3, 4):
        assert LaurentPoly.const(n) != n and n != LaurentPoly.const(n)
    assert len({LaurentPoly.const(3), 3}) == 2
    assert ONE * 3 == LaurentPoly.const(3)  # an int scales from the right only
    with pytest.raises(TypeError):
        3 * ONE


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
    assert bar(p) == LaurentPoly({0: 1, -2: 3})
    assert bar(bar(p)) == p


@settings(max_examples=200, deadline=None)
@given(p=polys, a=st.integers(-6, 6), b=st.integers(-6, 6))
def test_shift_is_multiplication_by_a_v_power(p, a, b):
    assert ONE.shift(a) * ONE.shift(b) == ONE.shift(a + b)
    assert p.shift(a).shift(b) == p.shift(a + b) == p * ONE.shift(a + b)


@settings(max_examples=200, deadline=None)
@given(a=polys, b=polys, v0=nonzero_rationals, k=st.integers(-6, 6))
def test_inverse_substitution_is_an_involutive_ring_automorphism(a, b, v0, k):
    # bar is the tests' own v ↦ v⁻¹, the reference for the Satake row's exponents
    assert bar(a + b) == bar(a) + bar(b)
    assert bar(a * b) == bar(a) * bar(b)
    assert bar(ONE) == ONE
    assert bar(bar(a)) == a
    assert bar(a).eval_v(v0) == a.eval_v(1 / v0)
    # the substitution followed by a shift by k is an involution too
    assert bar(a).shift(k) == bar(a.shift(-k))
    assert bar(bar(a).shift(k)).shift(k) == a
    assert bar(a).shift(k).eval_v(v0) == v0 ** k * a.eval_v(1 / v0)


# products whose terms cancel: (1 + v)(1 − v) = 1 − v², (v − v⁻¹)(v + v⁻¹) = v² − v⁻²
cancelling = st.sampled_from([LaurentPoly({0: 1, 1: 1}), LaurentPoly({0: 1, 1: -1}),
                              LaurentPoly({1: 1, -1: -1}), LaurentPoly({1: 1, -1: 1})])


@settings(max_examples=300, deadline=None)
@given(a=st.one_of(polys, cancelling), b=st.one_of(polys, cancelling), n=st.integers(-3, 3))
def test_arithmetic_never_stores_a_zero_coefficient(a, b, n):
    # equality is structural, so a stored 0 would make equal values compare unequal
    for value in (a + b, a - b, a - a, b + (-b), a * b, a * n, b * a, a * ZERO):
        assert 0 not in dict(value.items()).values(), value
        assert value == LaurentPoly(dict(value.items()))
        assert hash(value) == hash(LaurentPoly(dict(value.items())))


def _double_loop_product(a, b):
    """The product term by term, every pair of terms, normalized by the constructor."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return LaurentPoly(out)


@settings(max_examples=300, deadline=None)
@given(p=polys, k=st.integers(-6, 6), c=st.integers(-9, 9).filter(bool))
def test_monomial_product_is_the_double_loop_product(p, k, c):
    mono = LaurentPoly({k: c})
    assert p * mono == _double_loop_product(p, mono) == mono * p
    assert p * mono == (p * c).shift(k)
    # a product with the unit, however built, builds nothing: it is one of its operands
    unit = LaurentPoly.const(1)
    assert {id(p * unit), id(unit * p)} <= {id(p), id(unit)}


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


def test_a_laurent_poly_adds_only_laurent_polys_and_scales_only_by_ints():
    # the operators answer NotImplemented, so the other operand's reflected method is asked and
    # refuses too: an int is not a constant LaurentPoly, and a Fraction is not a coefficient
    p = LaurentPoly({3: 1, -1: 2})
    for other in (1, Fraction(1, 2), "v"):
        with pytest.raises(TypeError):
            p + other
        with pytest.raises(TypeError):
            p - other
    for other in (Fraction(1, 2), 0.5, "v"):
        with pytest.raises(TypeError):
            p * other
    assert p * 2 == p + p and p * LaurentPoly.const(2) == p + p


def test_repr_rebuilds_the_value():
    p = LaurentPoly({3: 1, -1: 2, 0: 0})
    assert repr(p) == "LaurentPoly({-1: 2, 3: 1})" and repr(ZERO) == "LaurentPoly({})"
    assert eval(repr(p)) == p


def test_normalization_drops_zero_coefficients():
    assert LaurentPoly({5: 0, 1: 2}) == LaurentPoly({1: 2})
    assert hash(LaurentPoly({5: 0})) == hash(ZERO)


def test_constructor_refuses_a_non_integer_coefficient_or_exponent():
    for coeffs in ({0: 1.5}, {0: Fraction(3, 2)}, {1.0: 1}, {0: "1"}):
        with pytest.raises(TypeError):
            LaurentPoly(coeffs)


def test_as_poly_coercion():
    assert as_poly(3) == LaurentPoly({0: 3})
    assert as_poly(ONE) is ONE
    with pytest.raises(TypeError):
        as_poly("v")
