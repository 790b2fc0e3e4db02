import itertools
import time

import pytest

from satake import grassmannian
from satake.grassmannian import Grassmannian
from satake.hecke import A_BASIS, HeckeAlgebra
from satake.rep_ring import RepRing
from satake.root_datum import InvariantError, TooLarge
from satake.whittaker import WhittakerModule

from conftest import cartan_datum


def make(name):
    return Grassmannian(RepRing(name))


# -- orbit dimensions and closure order ----------------------------------------


def test_orbit_dimensions():
    g = make("PGL2")
    assert g.orbit_dim((1,)) == 1  # the projective line
    assert g.orbit_dim((0,)) == 0
    assert make("SL3").orbit_dim((1, 1)) == 4
    with pytest.raises(ValueError):
        g.orbit_dim((-1,))


def test_closure_order_examples():
    g = make("PGL2")
    assert g.closure_contains((2,), (0,))
    assert not g.closure_contains((2,), (1,))  # parity
    assert g.closure_contains((2,), (2,))
    with pytest.raises(ValueError):
        g.closure_contains((2,), (-1,))


# -- dimension bound for orbit intersections --------------------------------------


def test_mv_bound_extreme_cases():
    g = make("SL3")
    lam = (2, 1)
    low = g.datum.apply_w0(lam)
    point = g.mv_dim_bound(lam, low)
    assert not point.empty and point.bound == 0 and point.flag == "point"
    top = g.mv_dim_bound(lam, lam)
    assert top.bound == g.orbit_dim(lam) and top.flag == "open dense"


def test_mv_bound_interior_value_and_emptiness():
    g = make("PGL2")
    mid = g.mv_dim_bound((2,), (0,))
    assert (not mid.empty) and mid.bound == 1 and mid.flag is None
    assert g.mv_dim_bound((2,), (1,)).empty  # parity
    assert g.mv_dim_bound((2,), (4,)).empty  # outside the hull


def test_rank1_cell_dimension_matches_bound():
    g = make("PGL2")
    for m in range(7):
        for n in range(-m, m + 1, 2):
            bound = g.mv_dim_bound((m,), (n,))
            assert not bound.empty
            assert bound.bound == (n + m) // 2


# -- character admissibility ----------------------------------------------------------


def test_chi_admissible():
    g = make("SL3")
    assert g.chi_admissible((0, 0), (2, 1))
    assert g.chi_admissible((-2, -1), (2, 1))  # mu = -nu is always admissible
    r1 = make("SL2")
    assert not r1.chi_admissible((-3,), (1,))


# -- cohomology predictions --------------------------------------------------------------


def test_prediction_at_mu_zero_nu_lambda():
    g = make("SL3")
    for lam in g.datum.dominant_box(6):
        zero = (0, 0)
        prediction = g.predicted_cohomology(lam, zero, lam)
        assert not prediction.vanishes
        assert prediction.dimension == 1
        assert prediction.degree == g.datum.pairing_2rho(lam)


def test_prediction_vanishes_for_non_dominant_mu():
    g = make("PGL2")
    prediction = g.predicted_cohomology((2,), (-2,), (2,))
    assert prediction.vanishes and prediction.dimension == 0
    assert prediction.degree is None and prediction.frobenius_weight is None


def test_prediction_odd_degree_off_the_coroot_lattice():
    g = make("PGL2")
    prediction = g.predicted_cohomology((1,), (1,), (1,))
    assert not prediction.vanishes
    assert prediction.degree == 1 and prediction.dimension == 1 and prediction.frobenius_weight == 1


def test_prediction_rejects_non_dominant_target():
    g = make("PGL2")
    with pytest.raises(ValueError, match="not dominant"):
        g.predicted_cohomology((2,), (1,), (-2,))
    with pytest.raises(ValueError, match="dominant"):
        g.predicted_cohomology((-2,), (0,), (0,))


def test_degree_always_equals_frobenius_weight():
    g = make("SL3")
    box = g.datum.dominant_box(4)
    for lam in box:
        for mu in box:
            for nu in g.rep.weight_table(lam):
                target = tuple(a + b for a, b in zip(mu, nu))
                if not g.datum.is_dominant(target):
                    continue
                prediction = g.predicted_cohomology(lam, mu, nu)
                if not prediction.vanishes:
                    assert prediction.degree == prediction.frobenius_weight
                    assert prediction.degree == g.datum.pairing_2rho(nu)


def test_prediction_dimension_matches_whittaker_action():
    # the coefficient of phi_{mu+nu} in phi_mu * A_lambda is the predicted dimension
    algebra = HeckeAlgebra("SL3")
    module = WhittakerModule(algebra)
    g = Grassmannian(algebra.rep)
    box = algebra.datum.dominant_box(4)
    for lam in box:
        for mu in box:
            acted = module.act(module.phi(mu), algebra.monomial(A_BASIS, lam))
            for nu in g.rep.weight_table(lam):
                target = tuple(a + b for a, b in zip(mu, nu))
                if not g.datum.is_dominant(target):
                    continue
                prediction = g.predicted_cohomology(lam, mu, nu)
                coeff = acted.terms.get(target)
                observed = coeff.constant_value() if coeff else 0
                assert prediction.dimension == observed


def test_contragredient_multiplicity_symmetry():
    # Hom(V^lam ⊗ V^{-w0(mu+nu)}, V^{-w0 mu}) has the same dimension
    rep = RepRing("SL3")
    datum = rep.datum
    box = datum.dominant_box(4)
    for lam in box:
        for mu in box:
            for nu in rep.weight_table(lam):
                target = tuple(a + b for a, b in zip(mu, nu))
                if not datum.is_dominant(target):
                    continue
                direct = rep.tensor_decompose(lam, mu).get(target, 0)
                flipped = rep.tensor_decompose(lam, tuple(-x for x in datum.apply_w0(target))).get(
                    tuple(-x for x in datum.apply_w0(mu)), 0)
                assert direct == flipped


# -- the large-mu weight multiplicity identity ------------------------------------------------


def test_large_mu_identity_rank1():
    g = make("PGL2")
    assert g.mv_weight_multiplicity_check((2,), (0,), (6,))
    assert g.mv_weight_multiplicity_check((2,), (4,), (6,))  # outside the hull: both sides 0


def test_large_mu_identity_rank2():
    g = make("SL3")
    assert g.mv_weight_multiplicity_check((1, 1), (0, 0), (5, 5))


def test_large_mu_identity_enforces_threshold():
    g = make("PGL2")
    with pytest.raises(ValueError, match="large"):
        g.mv_weight_multiplicity_check((4,), (0,), (2,))


def test_large_mu_identity_off_the_dominant_cone_is_zero_on_both_sides(monkeypatch):
    # μ + ν = (−2,) is not dominant: no tensor product is formed, and ν lies outside the hull
    g = make("PGL2")
    monkeypatch.setattr(RepRing, "tensor_decompose", lambda *args: pytest.fail("tensor product formed"))
    assert g.mv_weight_multiplicity_check((2,), (-6,), (4,))


def test_an_mv_bound_off_the_coset_raises():
    # a weight (1,) spliced into the table of V^(2,) is off λ's coset, so ⟨λ+ν, ρ̌⟩ = 3/2
    g = make("PGL2")
    g.rep._full_weights[(2,)] = tuple(sorted({**g.rep.weight_table((2,)), (1,): 1}.items()))
    with pytest.raises(InvariantError, match="1 \\+ 1/2 is not an integer"):
        g.mv_dim_bound((2,), (1,))


def test_vanishing_monotonicity_with_empty_intersection():
    g = make("PGL2")
    lam, nu = (2,), (4,)
    assert g.mv_dim_bound(lam, nu).empty
    mu = (8,)
    target = tuple(a + b for a, b in zip(mu, nu))
    assert g.predicted_cohomology(lam, mu, nu).vanishes
    assert g.rep.tensor_decompose(lam, mu).get(target, 0) == 0


# -- compactification strata ---------------------------------------------------------------------


def test_strata_degree_zero():
    g = make("PGL2")
    assert g.drinfeld_strata(0) == [((0,), 0)]


def test_strata_rank1():
    g = make("PGL2")
    assert g.drinfeld_strata(1) == [((0,), 0), ((-2,), 2)]


def test_strata_sl3():
    g = make("SL3")
    strata = g.drinfeld_strata(1)
    assert strata[0] == ((0, 0), 0)
    assert set(strata[1:]) == {((-2, 1), 2), ((1, -2), 2)}
    assert all(codim % 2 == 0 for _, codim in strata)


def test_strata_counts_and_codims():
    g = make("SL3")
    strata = g.drinfeld_strata(3)
    assert len(strata) == 10  # pairs (d1, d2) with d1 + d2 <= 3
    for gamma, codim in strata:
        coords = g.datum.coroot_coordinates(gamma)
        assert coords is not None
        assert codim == -2 * sum(coords) and codim >= 0
    with pytest.raises(ValueError, match="nonnegative") as refused:
        g.drinfeld_strata(-1)
    assert not isinstance(refused.value, TooLarge)


def test_oversized_strata_are_refused_before_any_is_listed(monkeypatch):
    def no_work(pool, r):
        raise AssertionError("the strata were listed")

    monkeypatch.setattr(grassmannian, "combinations", no_work)
    start = time.monotonic()
    with pytest.raises(TooLarge, match="bound 1413 gives 1000405 strata, over the limit of 1000000"):
        make("SL3").drinfeld_strata(1413)  # C(1415, 2) strata
    assert time.monotonic() - start < 1
    monkeypatch.setattr(grassmannian, "combinations", lambda pool, r: [])
    assert make("SL3").drinfeld_strata(1412) == []  # C(1414, 2) = 998,991 strata


def test_strata_are_the_degree_vectors_of_a_box():
    # brute force: every d in [0, bound]^r with Σ d_i ≤ bound, on a rank-3 datum (A1 × C2)
    rep = RepRing(cartan_datum([[2, 0, 0], [0, 2, -2], [0, -1, 2]]))
    coroots = rep.datum.simple_coroots
    for bound in range(6):
        expected = [
            (tuple(-sum(d * a[k] for d, a in zip(degrees, coroots)) for k in range(3)),
             2 * sum(degrees))
            for degrees in itertools.product(range(bound + 1), repeat=3) if sum(degrees) <= bound]
        expected.sort(key=lambda stratum: (stratum[1], stratum[0]))
        assert Grassmannian(rep).drinfeld_strata(bound) == expected
