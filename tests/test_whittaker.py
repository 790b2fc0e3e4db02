import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from satake.hecke import A_BASIS, PHI_BASIS, BasisElement, HeckeAlgebra
from satake.laurent import LaurentPoly, ONE
from satake.rep_ring import gamma_power, torus_point
from satake.whittaker import WhittakerModule


def make(name):
    algebra = HeckeAlgebra(name)
    return algebra, WhittakerModule(algebra)


def rand_gamma(rng, datum):
    return torus_point(
        [
            Fraction(rng.choice([k for k in range(-9, 10) if k]), rng.randint(1, 9))
            for _ in range(datum.lattice_rank)
        ],
        datum,
    )


# -- the action and the intertwiner ---------------------------------------------


def test_action_of_unit_fixes_basis_vectors():
    algebra, module = make("PGL2")
    for n in range(5):
        phi = module.phi((n,))
        assert module.act(phi, algebra.monomial(A_BASIS, (0,))) == phi


def test_action_on_phi_zero_relabels():
    algebra, module = make("SL3")
    for lam in algebra.datum.dominant_box(6):
        element = algebra.monomial(A_BASIS, lam)
        assert module.act(module.phi_zero(), element) == module.phi(lam)
        assert module.f_transform(element) == module.phi(lam)


def test_dual_sl2_clebsch_gordan_action():
    algebra, module = make("PGL2")
    result = module.act(module.phi((1,)), algebra.monomial(A_BASIS, (1,)))
    assert result == BasisElement(PHI_BASIS, {(0,): ONE, (2,): ONE})


def test_f_transform_examples():
    algebra, module = make("PGL2")
    assert module.f_transform(algebra.monomial(A_BASIS, (3,))) == module.phi((3,))
    assert module.f_transform(algebra.monomial(A_BASIS, (0,))) == module.phi_zero()
    square = algebra.mul(algebra.monomial(A_BASIS, (1,)), algebra.monomial(A_BASIS, (1,)))
    assert module.f_transform(square) == BasisElement(PHI_BASIS, {(0,): ONE, (2,): ONE})


def test_module_axiom_randomized():
    rng = random.Random(515)
    for name in ["PGL2", "SL3"]:
        algebra, module = make(name)
        box = algebra.datum.dominant_box(4)
        for _ in range(25):
            w = module.phi(rng.choice(box), LaurentPoly.const(rng.randint(-3, 3) or 1))
            h1 = algebra.monomial(A_BASIS, rng.choice(box))
            h2 = algebra.monomial(A_BASIS, rng.choice(box))
            assert module.act(module.act(w, h1), h2) == module.act(w, algebra.mul(h1, h2))


def test_f_is_a_module_isomorphism():
    rng = random.Random(616)
    algebra, module = make("SL3")
    box = algebra.datum.dominant_box(4)
    for _ in range(25):
        h = algebra.monomial(A_BASIS, rng.choice(box), LaurentPoly.const(rng.randint(1, 4)))
        hp = algebra.monomial(A_BASIS, rng.choice(box))
        assert module.f_transform(algebra.mul(h, hp)) == module.act(module.f_transform(h), hp)


def test_act_rejects_mismatched_bases():
    algebra, module = make("PGL2")
    with pytest.raises(ValueError):
        module.act(algebra.monomial(A_BASIS, (0,)), algebra.monomial(A_BASIS, (0,)))
    with pytest.raises(ValueError):
        module.act(module.phi_zero(), module.phi_zero())


def test_f_transform_refuses_an_element_outside_the_a_basis():
    _, module = make("PGL2")
    with pytest.raises(ValueError, match="f_transform needs an A-basis element"):
        module.f_transform(module.phi_zero())


# -- Whittaker values ---------------------------------------------------------------


def test_value_at_origin_is_one():
    algebra, module = make("PGL2")
    for z in [2, Fraction(3, 5), -7]:
        gamma = torus_point([z], algebra.datum)
        value = module.whittaker_value(gamma, (0,))
        assert value.coeff == 1 and value.v_power == 0


def test_value_vanishes_off_the_dominant_cone():
    algebra, module = make("PGL2")
    gamma = torus_point([2], algebra.datum)
    assert module.whittaker_value(gamma, (-1,)).coeff == 0
    sl3 = make("SL3")[1]
    gamma3 = torus_point([2, 3], sl3.datum)
    assert sl3.whittaker_value(gamma3, (-1, 2)).coeff == 0


def test_rank1_value_is_trace_times_v_power():
    algebra, module = make("PGL2")
    for z in [2, Fraction(3, 5)]:
        gamma = torus_point([z], algebra.datum)
        value = module.whittaker_value(gamma, (1,))
        assert value.coeff == z + 1 / Fraction(z)
        assert value.v_power == -1
        assert value.evaluate(3) == (z + 1 / Fraction(z)) / 3


def test_value_matches_dual_character():
    rng = random.Random(99)
    algebra, module = make("SL3")
    for _ in range(10):
        gamma = rand_gamma(rng, algebra.datum)
        for lam in algebra.datum.dominant_box(6):
            value = module.whittaker_value(gamma, lam)
            assert value.v_power == -algebra.datum.pairing_2rho(lam)
            assert value.coeff == algebra.rep.dual_character_eval(lam, gamma)


# -- the eigenfunction identity ----------------------------------------------------------


def naive_trace(rep, lam, gamma, sign=1):
    """Tr(γ, V^λ) (sign −1: of its dual), one gamma_power per weight of the full table."""
    return sum(
        (m * gamma_power(gamma, [sign * x for x in nu]) for nu, m in rep.weight_table(lam).items()),
        Fraction(0),
    )


def brute_force_residual(module, gamma, lam_act, cutoff):
    """Recompute the windowed residual from weight-by-weight traces and tensor data."""
    rep = module.rep
    datum = module.datum
    pad = datum.pairing_2rho(lam_act)
    eigenvalue = naive_trace(rep, lam_act, gamma)
    out = {}
    for nu in datum.dominant_box(cutoff):
        total = Fraction(0)
        for mu in datum.dominant_box(cutoff + pad):
            mult = rep.tensor_decompose(lam_act, mu).get(nu, 0)
            if mult:
                total += mult * naive_trace(rep, mu, gamma, -1)
        out[nu] = total - eigenvalue * naive_trace(rep, nu, gamma, -1)
    return out


def test_eigen_residual_rank1_example():
    algebra, module = make("PGL2")
    gamma = torus_point([2], algebra.datum)
    residual = module.eigen_residual(gamma, (1,), 10)
    assert set(residual) == {(n,) for n in range(11)}
    assert all(value == 0 for value in residual.values())
    assert residual == brute_force_residual(module, gamma, (1,), 10)


def test_eigen_residual_trivial_action():
    algebra, module = make("PGL2")
    gamma = torus_point([Fraction(7, 2)], algebra.datum)
    residual = module.eigen_residual(gamma, (0,), 6)
    assert all(value == 0 for value in residual.values())


def test_eigen_residual_rank2_example():
    algebra, module = make("SL3")
    gamma = torus_point([2, 3], algebra.datum)
    residual = module.eigen_residual(gamma, (1, 0), 8)
    assert all(value == 0 for value in residual.values())
    assert residual == brute_force_residual(module, gamma, (1, 0), 8)


_non_integral = st.tuples(st.integers(-40, 40).filter(bool), st.integers(2, 40)).filter(
    lambda ab: ab[0] % ab[1])


@pytest.mark.parametrize("name", ["PGL2", "SL2", "SL3", "Sp4", "G2"])
@settings(max_examples=15, deadline=None)
@given(coords=st.lists(_non_integral, min_size=2, max_size=2),
       pick=st.integers(0, 10 ** 6), off=st.sampled_from([1, -1]))
def test_eigen_residual_sees_one_wrong_tensor_multiplicity(name, coords, pick, off):
    # one C^ν_{λμ} off by one must leave exactly one nonzero entry, t_μ·off at ν, and the
    # integer sum must equal the weight-by-weight Fraction route entry for entry
    algebra, module = make(name)
    datum, rep = algebra.datum, algebra.rep
    gamma = torus_point([Fraction(-abs(a), b) if i == 0 else Fraction(a, b)
                         for i, (a, b) in enumerate(coords[:datum.lattice_rank])], datum)
    cutoff = 8
    window = datum.dominant_box(cutoff)
    lam_act = window[1]
    truncation = datum.dominant_box(cutoff + datum.pairing_2rho(lam_act))
    live = [mu for mu in truncation if naive_trace(rep, mu, gamma, -1)]
    bad_mu, bad_nu = live[pick % len(live)], window[pick // len(live) % len(window)]
    true = rep._brauer_klimyk

    def wrong(lam, combination):
        # the one Brauer–Klimyk core, off at C^{bad_ν}_{λ_act, bad_μ} whichever factor it iterates
        out = true(lam, combination)
        other = {lam_act: bad_mu, bad_mu: lam_act}.get(lam)
        if other in combination:
            out[bad_nu] = out.get(bad_nu, 0) + off * combination[other]
        return out

    rep._brauer_klimyk = wrong
    residual = module.eigen_residual(gamma, lam_act, cutoff)
    assert residual == brute_force_residual(module, gamma, lam_act, cutoff)
    assert [nu for nu, value in residual.items() if value] == [bad_nu]
    assert residual[bad_nu] == off * naive_trace(rep, bad_mu, gamma, -1)


def test_eigen_residual_refuses_bad_windows():
    algebra, module = make("PGL2")
    gamma = torus_point([2], algebra.datum)
    with pytest.raises(ValueError, match="cutoff"):
        module.eigen_residual(gamma, (1,), -1)
    gl2 = make("GL2")[1]
    with pytest.raises(ValueError, match="central"):
        gl2.eigen_residual(torus_point([2, 3], gl2.datum), (1, -1), 4)


def test_phi_requires_dominant_label():
    _, module = make("PGL2")
    with pytest.raises(ValueError):
        module.phi((-2,))


@pytest.mark.parametrize("lam_act", [(1, 0), (0, 1), (1, 1)])
def test_eigen_residual_builds_no_weight_table_per_trace(monkeypatch, lam_act):
    # at regular γ every trace with |W| ≤ dim V^λ is Weyl's formula; a table is built only
    # for the factor Brauer–Klimyk reads, the smaller one of λ and μ, or for a trace of a
    # λ with dim V^λ < |W| = 6 (λ = 0 and the two 3-dimensional ones), never once per μ
    # of the truncation
    from satake.rep_ring import RepRing

    algebra, module = make("SL3")
    rep = module.rep
    built = []
    table = RepRing.dominant_multiplicity_table

    def counted(self, lam):
        built.append(tuple(lam))
        return table(self, lam)

    monkeypatch.setattr(RepRing, "dominant_multiplicity_table", counted)
    gamma = torus_point([Fraction(-5, 13), Fraction(11, 7)], algebra.datum)
    residual = module.eigen_residual(gamma, lam_act, 20)
    assert residual and all(value == 0 for value in residual.values())
    assert built and len(built) == len(set(built))
    order = algebra.datum.weyl_order
    assert all(rep.weyl_dim(lam) < order or rep.weyl_dim(lam) <= rep.weyl_dim(lam_act)
               for lam in built), built


@pytest.mark.parametrize("values", [(1, 1), (-1, -1), (3, Fraction(1, 3))],
                         ids=["one", "minus-one", "one-coroot"])
def test_eigen_residual_is_zero_at_singular_points(values):
    # γ^α̌ = 1 for some positive coroot α̌ (all three at γ = 1, only (1, 1) at the others),
    # so the Weyl denominator vanishes and every trace is read from the weight table
    algebra, module = make("SL3")
    gamma = torus_point(values, algebra.datum)
    singular = [a for a, _ in algebra.datum.positive_coroots if gamma_power(gamma, a) == 1]
    assert singular
    for lam_act in [(1, 0), (1, 1)]:
        residual = module.eigen_residual(gamma, lam_act, 20)
        assert len(residual) == len(algebra.datum.dominant_box(20))
        assert all(value == 0 for value in residual.values())


@pytest.mark.parametrize("name", ["PGL2", "SL3", "Sp4", "G2"])
@settings(max_examples=10, deadline=None)
@given(coords=st.lists(_non_integral, min_size=2, max_size=2), pick=st.integers(0, 10 ** 6),
       delta=st.fractions(-5, 5, max_denominator=9).filter(bool))
def test_eigen_residual_sees_one_wrong_trace(name, coords, pick, delta):
    # the dual trace of one live μ₀ off by δ moves each window entry ν by exactly
    # δ·C^ν_{λμ₀} − [ν = μ₀]·δ·Tr(γ, V^λ), and no entry otherwise; μ₀ is not the dual of λ,
    # so the eigenvalue, read through the same private route, stays
    algebra, module = make(name)
    datum, rep = algebra.datum, algebra.rep
    gamma = torus_point([Fraction(-abs(a), b) if i == 0 else Fraction(a, b)
                         for i, (a, b) in enumerate(coords[:datum.lattice_rank])], datum)
    cutoff = 8
    window = datum.dominant_box(cutoff)
    lam_act = window[1]
    truncation = datum.dominant_box(cutoff + datum.pairing_2rho(lam_act))
    dual = {mu: tuple(-x for x in datum.apply_w0(mu)) for mu in truncation}
    live = [mu for mu in truncation if naive_trace(rep, mu, gamma, -1) and dual[mu] != lam_act]
    mu0 = live[pick % len(live)]
    before = module.eigen_residual(gamma, lam_act, cutoff)
    product, eigenvalue = rep.tensor_decompose(lam_act, mu0), rep.character_eval(lam_act, gamma)
    character = rep._character
    rep._character = lambda lam, g: character(lam, g) + (delta if lam == dual[mu0] else 0)
    after = module.eigen_residual(gamma, lam_act, cutoff)
    assert list(after) == list(before) == window
    for nu in window:
        moved = delta * product.get(nu, 0) - (delta * eigenvalue if nu == mu0 else 0)
        assert after[nu] - before[nu] == moved, nu


def test_eigen_residual_validates_only_the_acting_weight(monkeypatch):
    # the truncation is dominant by construction and the action is one Brauer–Klimyk pass, so
    # once the ring has met every weight of a call, a call (at its γ or a new one) makes one
    # dominant call, for λ_act, and no call of tensor_decompose
    from satake.rep_ring import RepRing
    from satake.root_datum import RootDatum

    algebra, module = make("SL3")
    calls = []
    dominant, tensor = RootDatum.dominant, RepRing.tensor_decompose
    monkeypatch.setattr(RootDatum, "dominant",
                        lambda self, x: calls.append(tuple(x)) or dominant(self, x))
    monkeypatch.setattr(RepRing, "tensor_decompose",
                        lambda self, lam, mu: calls.append("tensor") or tensor(self, lam, mu))
    gammas = [torus_point(values, algebra.datum)
              for values in [(2, 3), (Fraction(-5, 13), Fraction(11, 7)), (Fraction(1, 2), 7)]]
    for lam_act in [(1, 0), (0, 1), (1, 1)]:
        calls.clear()
        module.eigen_residual(gammas[0], lam_act, 20)
        assert "tensor" not in calls and calls[0] == lam_act
        for gamma in gammas:
            calls.clear()
            residual = module.eigen_residual(gamma, lam_act, 20)
            assert residual and all(value == 0 for value in residual.values())
            assert calls == [lam_act]
