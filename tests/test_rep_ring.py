import hashlib
import itertools
import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from satake.grassmannian import Grassmannian
from satake.laurent import LaurentPoly, ONE
from satake.rep_ring import RepRing, gamma_power, torus_point
from satake.root_datum import PRESETS, RootDatum, build_root_datum


def char_product_decompose(rep, lam, mu):
    """Independent tensor oracle: convolve full weight tables, strip highest weights."""
    prod = {}
    for t1, m1 in rep.weights_with_multiplicity(lam):
        for t2, m2 in rep.weights_with_multiplicity(mu):
            key = tuple(a + b for a, b in zip(t1, t2))
            prod[key] = prod.get(key, 0) + m1 * m2
    datum = rep.datum
    result = {}
    while any(prod.values()):
        live = [w for w, c in prod.items() if c]
        top = max(datum.pairing_2rho(w) for w in live)
        candidates = [w for w in live if datum.pairing_2rho(w) == top and datum.is_dominant(w)]
        assert candidates, "maximal stratum should contain a dominant weight"
        nu = sorted(candidates)[0]
        count = prod[nu]
        assert count > 0
        result[nu] = count
        for w, m in rep.weights_with_multiplicity(nu):
            prod[w] = prod.get(w, 0) - count * m
    return result


# -- weight multiplicities -------------------------------------------------


def test_sl2_dual_weight_spaces_are_lines():
    rep = RepRing("PGL2")
    for nu in (-2, 0, 2):
        assert rep.weight_multiplicity((2,), (nu,)) == 1
    assert rep.weight_multiplicity((2,), (1,)) == 0
    assert rep.weight_multiplicity((2,), (4,)) == 0


def test_sl3_adjoint_zero_weight_space():
    rep = RepRing("SL3")
    assert rep.weight_multiplicity((1, 1), (0, 0)) == 2


def test_sp4_second_fundamental_agrees_across_algorithms():
    rep = RepRing("Sp4")
    freudenthal = rep.weight_multiplicity((0, 1), (0, 0))
    kostant = rep.kostant_multiplicity((0, 1), (0, 0))
    assert freudenthal == kostant == 1


# A1 × C2: reducible, so the invariant form has a separate scale on each factor
REDUCIBLE = {"cartan": [[2, 0, 0], [0, 2, -2], [0, -1, 2]],
             "coroots": [[2, 0, 0], [0, 2, -1], [0, -2, 2]],
             "roots": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}


def test_freudenthal_matches_kostant_on_boxes():
    for spec, bound in [("PGL2", 6), ("SL2", 3), ("SL3", 4), ("Sp4", 6), (REDUCIBLE, 10)]:
        rep = RepRing(spec)
        for lam in rep.datum.dominant_box(bound):
            for _, mu, _ in rep.dominant_weights_below(lam):
                assert rep.weight_multiplicity(lam, mu) == rep.kostant_multiplicity(lam, mu)
            mass = sum(mult for _, mult in rep.weights_with_multiplicity(lam))
            assert mass == rep.weyl_dim(lam)


def test_weight_multiplicity_requires_dominant_highest_weight():
    rep = RepRing("SL3")
    with pytest.raises(ValueError):
        rep.weight_multiplicity((-1, 0), (0, 0))


# -- dimensions ----------------------------------------------------------------


def test_weyl_dim_examples():
    assert RepRing("PGL2").weyl_dim((5,)) == 6
    rep = RepRing("SL3")
    assert rep.weyl_dim((1, 0)) == 3
    assert rep.weyl_dim((0, 1)) == 3
    assert rep.weyl_dim((1, 1)) == 8
    assert RepRing("Sp4").weyl_dim((1, 0)) == 4
    assert RepRing("G2").weyl_dim((1, 0)) == 7


def test_weight_table_mass_equals_dimension():
    for name, bound in [("PGL2", 8), ("SL3", 6), ("Sp4", 7)]:
        rep = RepRing(name)
        for lam in rep.datum.dominant_box(bound):
            table = rep.weight_table(lam)
            assert sum(table.values()) == rep.weyl_dim(lam)
            assert table[lam] == 1


def test_weight_table_support_is_below_highest_weight():
    rep = RepRing("Sp4")
    for lam in rep.datum.dominant_box(7):
        for nu in rep.weight_table(lam):
            dom = rep.datum.dominant_representative(nu).coweight
            assert rep.datum.dominance_leq(dom, lam)


def test_weight_tables_are_weyl_invariant():
    rng = random.Random(31337)
    presets = ["PGL2", "SL2", "SL3", "Sp4"]
    for _ in range(80):
        rep = RepRing(rng.choice(presets))
        datum = rep.datum
        box = datum.dominant_box(6)
        lam = rng.choice(box)
        table = rep.weight_table(lam)
        nu = rng.choice(list(table))
        image = nu
        for _ in range(rng.randint(1, 4)):
            image = datum.reflect(rng.randrange(datum.rank), image)
        assert table[image] == table[nu]
        assert rep.weight_multiplicity(lam, image) == rep.weight_multiplicity(lam, nu)


# -- tensor products ---------------------------------------------------------------


def test_clebsch_gordan_for_dual_sl2():
    rep = RepRing("PGL2")
    assert rep.tensor_multiplicity((1,), (1,), (2,)) == 1
    assert rep.tensor_multiplicity((1,), (1,), (0,)) == 1
    assert rep.tensor_multiplicity((1,), (1,), (1,)) == 0
    assert rep.tensor_decompose((1,), (1,)) == {(0,): 1, (2,): 1}


def test_sl3_three_times_three_bar():
    rep = RepRing("SL3")
    assert rep.tensor_decompose((1, 0), (0, 1)) == {(0, 0): 1, (1, 1): 1}


def test_sl3_adjoint_square():
    rep = RepRing("SL3")
    dec = rep.tensor_decompose((1, 1), (1, 1))
    assert dec[(1, 1)] == 2
    assert dec == char_product_decompose(rep, (1, 1), (1, 1))


def test_tensor_matches_character_oracle_on_box():
    rep = RepRing("PGL2")
    for a in range(7):
        for b in range(7):
            assert rep.tensor_decompose((a,), (b,)) == char_product_decompose(rep, (a,), (b,))
    rep3 = RepRing("SL3")
    box = [lam for lam in rep3.datum.dominant_box(4)]
    for lam in box:
        for mu in box:
            assert rep3.tensor_decompose(lam, mu) == char_product_decompose(rep3, lam, mu)


def test_tensor_total_dimension_and_symmetry():
    for name, bound in [("PGL2", 8), ("SL3", 5), ("Sp4", 6)]:
        rep = RepRing(name)
        box = rep.datum.dominant_box(bound)
        for lam in box:
            for mu in box:
                dec = rep.tensor_decompose(lam, mu)
                total = sum(c * rep.weyl_dim(nu) for nu, c in dec.items())
                assert total == rep.weyl_dim(lam) * rep.weyl_dim(mu)
                assert dec == rep.tensor_decompose(mu, lam)


def test_tensor_with_trivial_factor():
    rep = RepRing("SL3")
    zero = (0, 0)
    for lam in rep.datum.dominant_box(4):
        assert rep.tensor_decompose(lam, zero) == {lam: 1}


def test_tensor_requires_dominant_inputs():
    rep = RepRing("PGL2")
    with pytest.raises(ValueError):
        rep.tensor_decompose((-1,), (1,))


# -- characters ----------------------------------------------------------------------


def test_character_at_identity_is_dimension():
    for name in ["PGL2", "SL3", "Sp4"]:
        rep = RepRing(name)
        gamma = torus_point([1] * rep.datum.lattice_rank, rep.datum)
        for lam in rep.datum.dominant_box(5):
            assert rep.character_eval(lam, gamma) == rep.weyl_dim(lam)


def test_sl2_dual_characters_at_two():
    rep = RepRing("PGL2")
    gamma = torus_point([2], rep.datum)
    assert rep.character_eval((1,), gamma) == Fraction(5, 2)
    assert rep.character_eval((2,), gamma) == Fraction(21, 4)


def test_characters_multiply_through_tensor_decomposition():
    rng = random.Random(2718)
    for name in ["PGL2", "SL3"]:
        rep = RepRing(name)
        box = rep.datum.dominant_box(4)
        for _ in range(10):
            gamma = torus_point(
                [
                    Fraction(rng.choice([k for k in range(-7, 8) if k]), rng.randint(1, 7))
                    for _ in range(rep.datum.lattice_rank)
                ],
                rep.datum,
            )
            lam, mu = rng.choice(box), rng.choice(box)
            lhs = rep.character_eval(lam, gamma) * rep.character_eval(mu, gamma)
            rhs = sum(
                (c * rep.character_eval(nu, gamma) for nu, c in rep.tensor_decompose(lam, mu).items()),
                Fraction(0),
            )
            assert lhs == rhs


def test_dual_character_is_character_at_minus_w0():
    rep = RepRing("SL3")
    gamma = torus_point([2, 3], rep.datum)
    assert rep.dual_character_eval((1, 0), gamma) == rep.character_eval((0, 1), gamma)


_nonzero = st.integers(-50, 50).filter(bool)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(PRESETS)),
       index=st.integers(0, 10 ** 6),
       coords=st.lists(st.tuples(_nonzero, st.integers(1, 50)), min_size=3, max_size=3))
def test_character_eval_matches_weight_by_weight_sum(name, index, coords):
    # second route: one gamma_power per weight of the full table, summed as Fractions
    rep = RepRing(name)
    box = rep.datum.dominant_box(6, coord_bound=3)
    lam = box[index % len(box)]
    gamma = torus_point([Fraction(a, b) for a, b in coords[: rep.datum.lattice_rank]], rep.datum)
    table = rep.weight_table(lam)
    naive = sum((m * gamma_power(gamma, nu) for nu, m in table.items()), Fraction(0))
    dual = sum((m * gamma_power(gamma, [-x for x in nu]) for nu, m in table.items()), Fraction(0))
    assert rep.character_eval(lam, gamma) == naive
    assert rep.dual_character_eval(lam, gamma) == dual


def test_gamma_power_is_exact_for_integer_coordinates():
    assert gamma_power((2, -3), (-2, 3)) == Fraction(-27, 4)
    assert gamma_power((Fraction(-2, 5),), (-1,)) == Fraction(-5, 2)


def test_character_eval_reads_the_memoized_weight_table(monkeypatch):
    rep = RepRing("SL3")
    gamma = torus_point([Fraction(-5, 13), Fraction(11, 7)], rep.datum)
    lams = [(1, 0), (2, 1), (4, 0)]
    before = [(rep.character_eval(lam, gamma), rep.dual_character_eval(lam, gamma)) for lam in lams]

    def refuse(self, lam):
        raise AssertionError("character_eval rebuilt a Weyl orbit")

    monkeypatch.setattr(RootDatum, "weyl_orbit", refuse)
    after = [(rep.character_eval(lam, gamma), rep.dual_character_eval(lam, gamma)) for lam in lams]
    assert after == before


def test_torus_point_validation():
    datum = build_root_datum("SL3")
    with pytest.raises(ValueError):
        torus_point([1], datum)
    with pytest.raises(ValueError):
        torus_point([1, 0], datum)
    assert gamma_power(torus_point([2, 3], datum), (1, -1)) == Fraction(2, 3)


# -- the q-side -------------------------------------------------------------------------


def test_q_kostant_base_cases():
    rep = RepRing("SL3")
    assert rep.q_kostant_partition((0, 0)) == ONE
    for alpha in rep.datum.simple_coroots:
        assert rep.q_kostant_partition(alpha) == LaurentPoly.q_power(1)
    # alpha_1 + alpha_2 = (1,1): one highest root or two simple roots
    assert rep.q_kostant_partition((1, 1)) == LaurentPoly({2: 1, 4: 1})
    assert rep.q_kostant_partition((1, 0)) == LaurentPoly()  # off the coroot lattice


def _combination(datum, coeffs):
    """Σ coeffs_j · (simple coroot j), as a lattice vector."""
    return tuple(
        sum(c * v[r] for c, v in zip(coeffs, datum.simple_coroots))
        for r in range(datum.lattice_rank)
    )


def _positive_coroots_by_orbit(datum):
    """Positive coroots as lattice vectors: the Weyl orbits of the simple coroots, by
    integer reflections x ↦ x − ⟨x, α_i⟩ α̌_i, kept when their coordinates are ≥ 0."""
    orbit = set(datum.simple_coroots)
    frontier = list(orbit)
    while frontier:
        x = frontier.pop()
        for root, coroot in zip(datum.simple_roots, datum.simple_coroots):
            pairing = sum(a * b for a, b in zip(x, root))
            y = tuple(a - pairing * b for a, b in zip(x, coroot))
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    cone = {_combination(datum, c) for c in itertools.product(range(4), repeat=datum.rank)}
    return sorted(v for v in orbit if v in cone)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_q_kostant_matches_multiset_enumeration(name):
    """Each multiset of n positive coroots summing to β adds q^n; all β of coordinate sum ≤ 6."""
    bound = 6
    datum = build_root_datum(name)
    positive = _positive_coroots_by_orbit(datum)
    assert len(positive) == {"SL3": 3, "GL3": 3, "Sp4": 4, "G2": 6}.get(name, 1)
    counts = {}
    for n in range(bound + 1):
        for parts in itertools.combinations_with_replacement(positive, n):
            beta = tuple(sum(col) for col in zip(*parts)) if parts else (0,) * datum.lattice_rank
            counts.setdefault(beta, {})
            counts[beta][2 * n] = counts[beta].get(2 * n, 0) + 1
    rep = RepRing(name)
    for coeffs in itertools.product(range(bound + 1), repeat=datum.rank):
        if sum(coeffs) <= bound:
            beta = _combination(datum, coeffs)
            assert rep.q_kostant_partition(beta) == LaurentPoly(counts.get(beta, {})), beta


def test_q_kostant_cold_call_far_out_needs_no_deep_recursion():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert RepRing("PGL2").q_kostant_partition((4000,)) == LaurentPoly.q_power(2000)
    finally:
        sys.setrecursionlimit(limit)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(PRESETS)),
       coeffs=st.lists(st.integers(-60, 60), min_size=2, max_size=2))
def test_coroot_coordinates_recover_coefficients(name, coeffs):
    datum = build_root_datum(name)
    coeffs = tuple(coeffs[: datum.rank])
    assert datum.coroot_coordinates(_combination(datum, coeffs)) == coeffs


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(["GL2", "GL3"]),
       vec=st.lists(st.integers(-60, 60), min_size=3, max_size=3))
def test_coroot_coordinates_reject_vectors_off_the_span(name, vec):
    # the simple coroots of GL(n) span the vectors with coordinate sum 0
    datum = build_root_datum(name)
    vec = tuple(vec[: datum.lattice_rank])
    coords = datum.coroot_coordinates(vec)
    if sum(vec) != 0:
        assert coords is None
    else:
        assert coords is not None and _combination(datum, coords) == vec


def test_lusztig_diagonal_is_one():
    for name in ["PGL2", "SL3", "Sp4"]:
        rep = RepRing(name)
        for lam in rep.datum.dominant_box(5):
            assert rep.lusztig_q_analog(lam, lam) == ONE


def test_lusztig_rank1_closed_form():
    rep = RepRing("PGL2")
    for n in range(0, 7):
        for m in range(n % 2, n + 1, 2):
            expected = LaurentPoly.q_power((n - m) // 2)
            assert rep.lusztig_q_analog((n,), (m,)) == expected


def test_lusztig_at_one_is_weight_multiplicity():
    for name, bound in [("PGL2", 8), ("SL3", 5), ("Sp4", 6)]:
        rep = RepRing(name)
        box = rep.datum.dominant_box(bound)
        for lam in box:
            for _, mu, _ in rep.dominant_weights_below(lam):
                analog = rep.lusztig_q_analog(lam, mu)
                assert analog.eval_q(1) == rep.weight_multiplicity(lam, mu)
                assert analog.is_q_polynomial()
                assert all(c >= 0 for c in analog.q_coefficients().values())


def test_lusztig_vanishes_off_dominance_interval():
    rep = RepRing("SL3")
    assert rep.lusztig_q_analog((1, 0), (0, 1)) == LaurentPoly()


def test_adjoint_zero_weight_analog_is_exponent_polynomial():
    # the zero-weight q-analog of the adjoint representation is the
    # generalized-exponents polynomial Σ q^{e_i} (Kostant)
    cases = [
        ("PGL2", (2,), [1]),
        ("SL3", (1, 1), [1, 2]),
        ("GL3", (1, 0, -1), [1, 2]),
        ("Sp4", (2, 0), [1, 3]),
        ("G2", (0, 1), [1, 5]),
    ]
    for name, adjoint, exponents in cases:
        rep = RepRing(name)
        zero = (0,) * rep.datum.lattice_rank
        expected = LaurentPoly({2 * e: 1 for e in exponents})
        assert rep.lusztig_q_analog(adjoint, zero) == expected


def test_little_adjoint_zero_weight_analog():
    # short exponents: 2 for C2, 3 for G2
    assert RepRing("Sp4").lusztig_q_analog((0, 1), (0, 0)) == LaurentPoly.q_power(2)
    assert RepRing("G2").lusztig_q_analog((1, 0), (0, 0)) == LaurentPoly.q_power(3)


def test_multiplicity_table_is_not_aliased():
    rep = RepRing("PGL2")
    table = rep.dominant_multiplicity_table((4,))
    table[(0,)] = 99
    assert rep.weight_multiplicity((4,), (0,)) == 1


# -- pinned outputs ------------------------------------------------------------------

# sha256 of each preset's Weyl dimensions, dominant and full weight tables, tensor
# products over every pair, and MV bounds over the weights of each λ plus points
# outside the hull, for the λ below; recorded with the ρ-shifts held as Fractions,
# so the doubled-integer ρ-shifts must reproduce them exactly.
PINNED_REP_RING = {
    "PGL2": ([(1,), (4,), (7,)],
             "9e0d5c2d80b5efb14f5ed1d25e6d0a5ced62972e9e462b3766b90f00d687a603"),
    "SL2": ([(1,), (3,), (6,)],
            "fa7029392b3d6d3c2108407f537b20b91beacbe2f47d150fb8ad7492a44eecf9"),
    "GL2": ([(1, 0), (3, -1), (2, 2)],
            "8e73d80b1b0e337e9742bfb101b51cdf1c674aa8d5f5d7214db5767a0ad8320b"),
    "SL3": ([(1, 0), (1, 1), (3, 2), (4, 0)],
            "59549460563280f1352d610bebc65930f93ec67994166c8c51ee264568f26d39"),
    "GL3": ([(1, 0, 0), (1, 0, -1), (2, 1, 0)],
            "eea03f6810d818b724bf2f8ad53d279838a3c4114b1c93fc57a0874013b48bd7"),
    "Sp4": ([(1, 0), (0, 1), (2, 1), (3, 3)],
            "0fa7e70ed363cb4330d5515f59b56802086bf060be72df84f248844f807f1285"),
    "G2": ([(1, 0), (0, 1), (2, 1), (3, 2)],
           "9055138fff6ba461938dd6c73a3b37b478b10d9856faabcbcc7b1633da771317"),
}


def _rep_ring_payload(name, lams):
    rep = RepRing(name)
    datum = rep.datum
    geometry = Grassmannian(rep)
    payload = []
    for lam in lams:
        weights = rep.weight_table(lam)
        outside = [tuple(x + a for x, a in zip(lam, alpha)) for alpha in datum.simple_coroots]
        outside.append((lam[0] + 1,) + lam[1:])
        bounds = []
        for nu in sorted(weights) + outside:
            b = geometry.mv_dim_bound(lam, nu)
            bounds.append([list(nu), b.empty, b.bound, b.flag])
        payload.append([
            list(lam),
            rep.weyl_dim(lam),
            sorted([list(mu), m] for mu, m in rep.dominant_multiplicity_table(lam).items()),
            sorted([list(nu), m] for nu, m in weights.items()),
            [[list(mu), sorted([list(nu), c] for nu, c in rep.tensor_decompose(lam, mu).items())]
             for mu in lams],
            bounds,
        ])
    return json.dumps(payload, sort_keys=True)


@pytest.mark.parametrize("name", sorted(PINNED_REP_RING))
def test_outputs_match_pinned_digests(name):
    lams, digest = PINNED_REP_RING[name]
    text = _rep_ring_payload(name, lams)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of Tr(γ, V^λ), Tr(γ, (V^λ)*) and the Whittaker value W_γ(±λ) for each
# preset's λ below and fixed torus points with signed, integer and fractional
# coordinates (the weights of GL2 (3, 1), (2, 2) and GL3 (2, 1, 1), (3, 2, 1)
# have only positive coordinates, those of GL2 (−1, −3) and GL3 (−1, −2, −2)
# only negative ones); recorded with the traces summed one Fraction per weight,
# so any other way of summing them must reproduce them exactly.
PINNED_CHARACTERS = {
    "PGL2": ([(0,), (1,), (4,), (7,)],
             "2a931db3b67b0a290d7ce2f987d09b701e6e812cb0f4b5786d882978eee83fd0"),
    "SL2": ([(0,), (1,), (3,), (6,)],
            "f6919bb16dcc40448ee115ec80486c6cf8fdaa00641d157e6c3270d6e69c2637"),
    "GL2": ([(1, 0), (3, -1), (2, 2), (3, 1), (0, -2), (-1, -3)],
            "8323a7a4d659bdef535b563e526c83e4fec9d750a95299d8d5908d57d57bd7f3"),
    "SL3": ([(0, 0), (1, 0), (1, 1), (3, 2), (4, 0)],
            "7b8684a964136e4a0dd8e8b1d02d1961f098291a32f3c545a9656c2f96489095"),
    "GL3": ([(1, 0, 0), (1, 0, -1), (2, 1, 1), (3, 2, 1), (0, -1, -3), (-1, -2, -2)],
            "55746c21d04e6c290a782e812deb1a1d6f504d5f01901c93c3df73b8eaf1f397"),
    "Sp4": ([(1, 0), (0, 1), (2, 1), (3, 3)],
            "733a2f27377f1970d7f5dc1e346534932634d9b10debf07fdf1083d6712205d0"),
    "G2": ([(1, 0), (0, 1), (2, 1), (3, 2)],
           "ac4d4afdbed567667dea518d40892ff7a8f213f78bd16be1881ece0aae491187"),
}
PINNED_GAMMAS = (
    (Fraction(-5, 13), Fraction(11, 7), Fraction(-2, 9)),
    (2, -3, 5),
    (Fraction(-1, 2), 3, Fraction(7, 4)),
    (1, -1, 1),
    (Fraction(9, 2), Fraction(1, 3), Fraction(6, 5)),
)


def _character_payload(name, lams):
    from satake.hecke import HeckeAlgebra
    from satake.whittaker import WhittakerModule

    module = WhittakerModule(HeckeAlgebra(name))
    rep, datum = module.rep, module.datum
    payload = []
    for values in PINNED_GAMMAS:
        gamma = torus_point(values[:datum.lattice_rank], datum)
        for lam in lams:
            payload.append([
                [str(g) for g in gamma],
                list(lam),
                str(rep.character_eval(lam, gamma)),
                str(rep.dual_character_eval(lam, gamma)),
                [[str(w.coeff), w.v_power]
                 for w in (module.whittaker_value(gamma, lam),
                           module.whittaker_value(gamma, tuple(-x for x in lam)))],
            ])
    return json.dumps(payload, sort_keys=True)


@pytest.mark.parametrize("name", sorted(PINNED_CHARACTERS))
def test_characters_match_pinned_digests(name):
    lams, digest = PINNED_CHARACTERS[name]
    text = _character_payload(name, lams)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
