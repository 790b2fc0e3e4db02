import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from satake.hecke import A_BASIS, C_BASIS, PHI_BASIS, BasisElement, HeckeAlgebra
from satake.laurent import LaurentPoly, ONE, ZERO
from satake.rep_ring import torus_point
from satake.root_datum import RootDatum


def rand_a_element(algebra, rng, bound=6, max_terms=3, poly=False):
    box = algebra.datum.dominant_box(bound)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        if poly:
            coeff = LaurentPoly(
                {rng.randint(-3, 3): rng.randint(-5, 5) for _ in range(rng.randint(1, 3))}
            )
        else:
            coeff = LaurentPoly.const(rng.randint(-5, 5))
        terms[rng.choice(box)] = coeff
    return algebra.element(A_BASIS, terms)


# -- unit ---------------------------------------------------------------------


def test_unit_is_neutral():
    algebra = HeckeAlgebra("PGL2")
    rng = random.Random(5)
    for _ in range(20):
        h = rand_a_element(algebra, rng)
        unit = algebra.monomial(A_BASIS, (0,))  # A_0 = c_0
        assert algebra.mul(unit, h) == h
        assert algebra.mul(h, unit) == h


def test_unit_base_change_and_evaluation():
    algebra = HeckeAlgebra("PGL2")
    unit = algebra.monomial(A_BASIS, (0,))
    assert algebra.satake_to_c(unit) == BasisElement(C_BASIS, {(0,): ONE})
    gamma = torus_point([Fraction(7, 3)], algebra.datum)
    assert algebra.eval_gamma(unit, gamma) == 1


# -- multiplication ---------------------------------------------------------------


def test_dual_sl2_clebsch_gordan_product():
    algebra = HeckeAlgebra("PGL2")
    product = algebra.mul(algebra.monomial(A_BASIS, (1,)), algebra.monomial(A_BASIS, (1,)))
    assert product == algebra.element(A_BASIS, {(0,): ONE, (2,): ONE})


def test_sl3_fundamental_times_antifundamental():
    algebra = HeckeAlgebra("SL3")
    product = algebra.mul(algebra.monomial(A_BASIS, (1, 0)), algebra.monomial(A_BASIS, (0, 1)))
    assert product == algebra.element(A_BASIS, {(0, 0): ONE, (1, 1): ONE})


def test_mul_is_associative_and_commutative():
    rng = random.Random(17)
    for name in ["PGL2", "SL3"]:
        algebra = HeckeAlgebra(name)
        for _ in range(15):
            h1 = rand_a_element(algebra, rng, bound=4, max_terms=2)
            h2 = rand_a_element(algebra, rng, bound=4, max_terms=2)
            h3 = rand_a_element(algebra, rng, bound=4, max_terms=2)
            assert algebra.mul(h1, h2) == algebra.mul(h2, h1)
            assert algebra.mul(algebra.mul(h1, h2), h3) == algebra.mul(h1, algebra.mul(h2, h3))


def test_mul_rejects_other_bases():
    algebra = HeckeAlgebra("PGL2")
    c = algebra.satake_to_c(algebra.monomial(A_BASIS, (2,)))
    with pytest.raises(ValueError, match="A-basis"):
        algebra.mul(c, algebra.monomial(A_BASIS, (0,)))


# -- base change ---------------------------------------------------------------------


def test_base_change_minuscule_orbit():
    algebra = HeckeAlgebra("PGL2")
    image = algebra.satake_to_c(algebra.monomial(A_BASIS, (1,)))
    assert image == BasisElement(C_BASIS, {(1,): LaurentPoly({-1: 1})})


def test_base_change_subminuscule_orbit():
    algebra = HeckeAlgebra("PGL2")
    image = algebra.satake_to_c(algebra.monomial(A_BASIS, (2,)))
    assert image == BasisElement(
        C_BASIS, {(2,): LaurentPoly({-2: 1}), (0,): LaurentPoly({-2: 1})}
    )


def test_base_change_sl3_adjoint_row():
    # the closure of the adjoint orbit carries stalk polynomial 1 + q
    algebra = HeckeAlgebra("SL3")
    row = algebra.satake_row((1, 1))
    assert row == {
        (1, 1): LaurentPoly({-4: 1}),
        (0, 0): LaurentPoly({-4: 1, -2: 1}),
    }


def test_inverse_base_change_closed_form():
    algebra = HeckeAlgebra("PGL2")
    back = algebra.c_to_satake(BasisElement(C_BASIS, {(2,): ONE}))
    assert back == BasisElement(A_BASIS, {(2,): LaurentPoly({2: 1}), (0,): LaurentPoly.const(-1)})


def test_base_change_round_trips():
    rng = random.Random(23)
    for name in ["PGL2", "SL3"]:
        algebra = HeckeAlgebra(name)
        for _ in range(25):
            h = rand_a_element(algebra, rng, bound=6, max_terms=3, poly=True)
            assert algebra.c_to_satake(algebra.satake_to_c(h)) == h
            c = BasisElement(C_BASIS, dict(h.terms))
            assert algebra.satake_to_c(algebra.c_to_satake(c)) == c


# small dominant λ per datum (⟨λ,2ρ̌⟩ ≤ bound), one warm algebra each, shared by the examples
_ROUND_TRIP = {name: HeckeAlgebra(name) for name in ("PGL2", "SL3", "Sp4", "G2")}
_ROUND_TRIP_BOUND = {"PGL2": 6, "SL3": 6, "Sp4": 8, "G2": 16}

# coefficients with two to four terms; c·v^k(1 − v²) = c·v^k(1 − q) cancels inside a product
# with a row entry such as 1 + q, and c·v^k(1 + v²) against it in a sum
_coefficients = st.one_of(
    st.dictionaries(st.integers(-4, 4), st.integers(-5, 5).filter(bool), min_size=2, max_size=4)
    .map(LaurentPoly),
    st.builds(lambda k, c, s: LaurentPoly({k: c, k + 2: s * c}), st.integers(-4, 4),
              st.integers(-3, 3).filter(bool), st.sampled_from([1, -1])),
)


@st.composite
def _base_change_elements(draw):
    name = draw(st.sampled_from(sorted(_ROUND_TRIP)))
    algebra = _ROUND_TRIP[name]
    box = algebra.datum.dominant_box(_ROUND_TRIP_BOUND[name])
    weights = st.sampled_from(box)
    h = BasisElement(A_BASIS, draw(st.dictionaries(weights, _coefficients, min_size=2, max_size=4)))
    c = BasisElement(C_BASIS, draw(st.dictionaries(weights, _coefficients, min_size=2, max_size=4)))
    return algebra, h, c


@settings(max_examples=150, deadline=None)
@given(case=_base_change_elements(), drop=st.integers(0, 3))
def test_base_change_round_trips_on_random_elements(case, drop):
    # several λ per element, so the peel takes several steps, and non-monomial coefficients,
    # so it runs the general product; a C-element that is the image of h with one term left
    # out makes every other lower term cancel during the peel
    algebra, h, c = case
    image = algebra.satake_to_c(h)
    assert algebra.c_to_satake(image) == h
    assert algebra.satake_to_c(algebra.c_to_satake(c)) == c
    terms, i = image.sorted_terms(), drop % len(image.terms)
    partial = BasisElement(C_BASIS, dict(terms[:i] + terms[i + 1:]))
    assert algebra.satake_to_c(algebra.c_to_satake(partial)) == partial


def _max_peel(algebra, h):
    """c_to_satake by the plain peel: each step re-pairs every coweight in the work with 2ρ̌
    to find the highest, and subtracts each row entry, dropping a zero difference."""
    datum, work, acc = algebra.datum, dict(h.terms), {}
    while work:
        lam = max(work, key=lambda cw: (datum.pairing_2rho(cw), cw))
        acc[lam] = a_coeff = work.pop(lam).shift(datum.pairing_2rho(lam))
        for mu, entry in algebra.satake_row(lam).items():
            if mu != lam:
                updated = work.get(mu, ZERO) - a_coeff * entry
                if updated:
                    work[mu] = updated
                else:
                    work.pop(mu, None)
    return BasisElement(A_BASIS, acc)


# one warm algebra per datum with its dominant λ at ⟨λ,2ρ̌⟩ ≤ bound, and the pairs of those λ
# neither of which is ≤ the other (different cosets, or the same level)
_PEEL = {name: HeckeAlgebra(name) for name in ("PGL2", "SL3", "Sp4", "G2", "GL3")}
_PEEL_BOX = {name: _PEEL[name].datum.dominant_box(bound)
             for name, bound in [("PGL2", 6), ("SL3", 8), ("Sp4", 8), ("G2", 40), ("GL3", 6)]}
_INCOMPARABLE = {name: [(a, b) for a in box for b in box if a < b
                        and not _PEEL[name].datum.dominance_leq(a, b)
                        and not _PEEL[name].datum.dominance_leq(b, a)]
                 for name, box in _PEEL_BOX.items()}


@st.composite
def _peel_cases(draw):
    # two incomparable weights on top, each with a coefficient of two or more terms, and up to
    # three weights below both, so the peel takes several steps and brings in new terms
    name = draw(st.sampled_from(sorted(_PEEL)))
    algebra, datum = _PEEL[name], _PEEL[name].datum
    top = draw(st.sampled_from(_INCOMPARABLE[name]))
    floor = min(map(datum.pairing_2rho, top))
    below = [mu for mu in _PEEL_BOX[name] if datum.pairing_2rho(mu) < floor]
    terms = {cw: draw(_coefficients) for cw in top}
    if below:
        terms.update(draw(st.dictionaries(st.sampled_from(below), _coefficients, max_size=3)))
    return algebra, BasisElement(C_BASIS, terms)


@settings(max_examples=120, deadline=None)
@given(case=_peel_cases())
def test_the_peel_matches_the_plain_max_peel_and_pairs_each_coweight_once(case):
    algebra, h = case
    assert all(len(coeff.exponents()) >= 2 for coeff in h.terms.values()) and len(h.terms) >= 2
    expected = _max_peel(algebra, h)  # also warms every row the peel reads
    paired = []
    pairing_2rho = RootDatum.pairing_2rho
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RootDatum, "pairing_2rho",
                      lambda self, lam: paired.append(tuple(lam)) or pairing_2rho(self, lam))
        result = algebra.c_to_satake(h)
    assert result == expected
    assert len(paired) == len(set(paired)) and set(paired) >= set(h.terms) | set(result.terms)
    assert algebra.satake_to_c(result) == h


def test_triangularity_and_polynomial_shape():
    for name in ["PGL2", "SL2", "SL3", "Sp4"]:
        algebra = HeckeAlgebra(name)
        datum = algebra.datum
        rep = algebra.rep
        for lam in datum.dominant_box(6):
            row = algebra.satake_row(lam)
            prefactor = -datum.pairing_2rho(lam)
            assert row[lam] == LaurentPoly({prefactor: 1})
            for mu, coeff in row.items():
                assert datum.is_dominant(mu)
                assert datum.dominance_leq(mu, lam)
                p = coeff.shift(-prefactor)
                # a polynomial in q with nonnegative coefficients
                assert all(e >= 0 and e % 2 == 0 and c > 0 for e, c in p.items())
                # mass at q = 1 is the weight multiplicity
                assert p.eval_q(1) == rep.weight_table(lam).get(mu, 0)


def test_base_change_commutes_with_multiplication():
    rng = random.Random(91)
    algebra = HeckeAlgebra("PGL2")

    def mul_in_c(c1, c2):
        return algebra.satake_to_c(
            algebra.mul(algebra.c_to_satake(c1), algebra.c_to_satake(c2))
        )

    for _ in range(15):
        h1 = rand_a_element(algebra, rng, bound=4, max_terms=2)
        h2 = rand_a_element(algebra, rng, bound=4, max_terms=2)
        lhs = algebra.satake_to_c(algebra.mul(h1, h2))
        rhs = mul_in_c(algebra.satake_to_c(h1), algebra.satake_to_c(h2))
        assert lhs == rhs


# -- star involution ------------------------------------------------------------------


def test_star_in_rank_one_is_identity():
    algebra = HeckeAlgebra("SL2")
    for n in range(5):
        h = algebra.monomial(A_BASIS, (n,))
        assert algebra.star_involution(h) == h


def test_star_flips_sl3_fundamentals():
    algebra = HeckeAlgebra("SL3")
    assert algebra.star_involution(algebra.monomial(A_BASIS, (1, 0))) == algebra.monomial(
        A_BASIS, (0, 1)
    )


def test_star_is_an_involution_and_algebra_map():
    rng = random.Random(4242)
    algebra = HeckeAlgebra("SL3")
    for _ in range(10):
        h1 = rand_a_element(algebra, rng, bound=4, max_terms=2)
        h2 = rand_a_element(algebra, rng, bound=4, max_terms=2)
        assert algebra.star_involution(algebra.star_involution(h1)) == h1
        assert algebra.star_involution(algebra.mul(h1, h2)) == algebra.mul(
            algebra.star_involution(h1), algebra.star_involution(h2)
        )


# -- evaluation -------------------------------------------------------------------------


def test_eval_examples():
    algebra = HeckeAlgebra("PGL2")
    gamma_one = torus_point([1], algebra.datum)
    assert algebra.eval_gamma(algebra.monomial(A_BASIS, (1,)), gamma_one) == 2
    gamma = torus_point([2], algebra.datum)
    assert algebra.eval_gamma(algebra.monomial(A_BASIS, (2,)), gamma) == Fraction(21, 4)


def test_eval_gamma_is_multiplicative():
    rng = random.Random(6)
    algebra = HeckeAlgebra("SL3")
    for _ in range(10):
        gamma = torus_point(
            [Fraction(rng.choice([1, 2, 3, -2, 5]), rng.randint(1, 4)) for _ in range(2)],
            algebra.datum,
        )
        h1 = rand_a_element(algebra, rng, bound=4, max_terms=2)
        h2 = rand_a_element(algebra, rng, bound=4, max_terms=2)
        assert algebra.eval_gamma(algebra.mul(h1, h2), gamma) == algebra.eval_gamma(
            h1, gamma
        ) * algebra.eval_gamma(h2, gamma)


def test_eval_gamma_with_polynomial_coefficients_needs_v():
    algebra = HeckeAlgebra("PGL2")
    gamma = torus_point([2], algebra.datum)
    h = algebra.c_to_satake(BasisElement(C_BASIS, {(2,): ONE}))  # has a q coefficient
    with pytest.raises(ValueError, match="v"):
        algebra.eval_gamma(h, gamma)
    value = algebra.eval_gamma(h, gamma, v=3)
    expected = 9 * Fraction(21, 4) - 1  # q*Tr(V^2) - Tr(V^0) at q = 9
    assert value == expected


# -- element plumbing -----------------------------------------------------------------------


def test_element_rejects_non_dominant_support():
    algebra = HeckeAlgebra("PGL2")
    with pytest.raises(ValueError, match="dominant"):
        algebra.element(A_BASIS, {(-1,): ONE})


def test_monomial_refuses_a_non_integer_coweight():
    algebra = HeckeAlgebra("SL3")
    with pytest.raises(ValueError, match="not an integer"):
        algebra.monomial(A_BASIS, (1.5, 0))
    with pytest.raises(ValueError, match="not an integer"):
        algebra.element(A_BASIS, {(1.0, 0): ONE})


def test_an_unknown_basis_tag_is_refused():
    with pytest.raises(ValueError, match="unknown basis tag 'B'"):
        BasisElement("B", {(0,): ONE})


@pytest.mark.parametrize("method, basis, args, message", [
    ("satake_to_c", C_BASIS, (), "satake_to_c needs an A-basis element"),
    ("c_to_satake", A_BASIS, (), "c_to_satake needs a C-basis element"),
    ("star_involution", C_BASIS, (), "star_involution needs an A-basis element"),
    ("eval_gamma", PHI_BASIS, ((2,),), "eval_gamma needs an A-basis element"),
], ids=["satake_to_c", "c_to_satake", "star_involution", "eval_gamma"])
def test_an_element_of_the_wrong_basis_is_refused(monkeypatch, method, basis, args, message):
    algebra = HeckeAlgebra("PGL2")

    def no_row(*_):
        raise AssertionError("a row was read before the basis was checked")

    monkeypatch.setattr(HeckeAlgebra, "satake_row", no_row)
    with pytest.raises(ValueError, match=message):
        getattr(algebra, method)(BasisElement(basis, {(2,): ONE}), *args)


def test_element_json_round_trip():
    algebra = HeckeAlgebra("SL3")
    h = algebra.element(A_BASIS, {(1, 0): LaurentPoly({-2: 1, 0: 3}), (0, 2): ONE})
    data = h.to_json()
    assert data["basis"] == "A"
    # lossless: the coweights and the coefficients' exponent keys rebuild h
    terms = {tuple(t["coweight"]): LaurentPoly({int(e): c for e, c in t["coeff"]["v"].items()})
             for t in data["terms"]}
    assert BasisElement(data["basis"], terms) == h
    # documented wire format
    assert data["terms"][0]["coeff"] == {"v": {"0": 1}}


# -- pinned outputs ------------------------------------------------------------------

# sha256 of each preset's rows A_λ (satake_row) and inverse rows c_λ (c_to_satake)
# over the λ below, recorded from the recursive q-Kostant partition function with
# Fraction pairings: a change to the q-side must reproduce them exactly.
PINNED_ROWS = {
    "PGL2": ([(1,), (6,)],
             "ab6dc3c03f0103e5cddaf0f86de11c35e5ca3368968f8aa88b450c5ceaf06bbe"),
    "SL2": ([(1,), (5,)],
            "d53e013073a62e0db8cfb80e2dd95c5880bd1c154ae75c2b1b279d7f63a55849"),
    "GL2": ([(1, 0), (3, -1)],
            "0bbfa58402cf875f39da3c857788116fe441f8dda82345fdb91cba9edfa62cbf"),
    "SL3": ([(1, 1), (3, 0), (6, 6)],
            "5662e9c5dff8ec16f88d4f9c2143c6573baff2fc0e67725c8d145d1e43db7866"),
    "GL3": ([(1, 0, -1), (2, 1, 0)],
            "2500d430f7574ffaebf3d502818abf634e03475fa8b59991e4d54c94238864c1"),
    "Sp4": ([(1, 1), (4, 4)],
            "b907df5e3c2f536af75cc53633838032c1938d03650ca72941dcc577b4cfc2d6"),
    "G2": ([(1, 0), (2, 1), (5, 5)],
           "4423a4bf8ed51b6c0c8c7c0b08ea9455c284734922eb3a34831d0669b5dd102e"),
}


@pytest.mark.parametrize("name", sorted(PINNED_ROWS))
def test_satake_rows_match_pinned_digests(name):
    lams, digest = PINNED_ROWS[name]
    algebra = HeckeAlgebra(name)
    payload = []
    for lam in lams:
        row = algebra.satake_row(lam)
        inverse = algebra.c_to_satake(algebra.monomial(C_BASIS, lam))
        payload.append([
            list(lam),
            [[list(mu), coeff.to_json()] for mu, coeff in sorted(row.items())],
            inverse.to_json(),
        ])
    text = json.dumps(payload, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
