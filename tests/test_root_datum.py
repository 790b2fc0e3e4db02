import random
from fractions import Fraction
from itertools import product as iter_product

import pytest
from hypothesis import given, settings, strategies as st

from satake.root_datum import PRESETS, build_root_datum


def test_pgl2_preset():
    d = build_root_datum("PGL2")
    assert d.lattice_rank == 1
    assert d.simple_coroots == ((2,),)
    assert d.pairing((5,), d.simple_roots[0]) == 5


def test_sl2_preset():
    d = build_root_datum("SL2")
    assert d.simple_coroots == ((1,),)
    assert d.pairing((5,), d.simple_roots[0]) == 10


def test_gl2_preset():
    d = build_root_datum("GL2")
    assert d.lattice_rank == 2
    assert d.simple_coroots == ((1, -1),)
    assert d.simple_roots == ((1, -1),)


def test_preset_weyl_orders():
    expected = {"PGL2": 2, "SL2": 2, "GL2": 2, "SL3": 6, "GL3": 6, "Sp4": 8, "G2": 12}
    for name, order in expected.items():
        assert build_root_datum(name).weyl_order == order


def test_pairing_with_rho_check():
    d = build_root_datum("PGL2")
    assert d.two_rho_check == (1,)
    assert d.pairing((1,), d.two_rho_check) == 1
    for n in range(-4, 5):
        assert d.pairing_2rho((n,)) == n
    g = build_root_datum("GL2")
    assert g.two_rho_check == (1, -1)
    value = g.pairing((1, 0), g.two_rho_check)
    assert value == 1 and type(value) is int  # integer vectors pair in ints


def test_pairing_dimension_mismatch():
    d = build_root_datum("GL2")
    with pytest.raises(ValueError):
        d.pairing((1,), d.two_rho_check)
    with pytest.raises(ValueError):
        d.is_dominant((1,))
    with pytest.raises(ValueError):
        d.dominant_representative((1, 0, 0))


def test_is_dominant():
    sl2 = build_root_datum("SL2")
    assert sl2.is_dominant((3,))
    assert not sl2.is_dominant((-1,))
    gl2 = build_root_datum("GL2")
    assert gl2.is_dominant((1, 1))  # central
    assert gl2.is_dominant((2, 0))
    assert not gl2.is_dominant((0, 1))


def test_dominance_order_examples():
    pgl2 = build_root_datum("PGL2")
    assert pgl2.dominance_leq((0,), (2,))
    assert not pgl2.dominance_leq((1,), (2,))  # parity obstruction
    gl2 = build_root_datum("GL2")
    assert gl2.dominance_leq((1, 1), (2, 0))
    assert not gl2.dominance_leq((1, 0), (2, 0))  # different central character


def test_dominant_representative_rank1():
    sl2 = build_root_datum("SL2")
    rep = sl2.dominant_representative((-3,))
    assert rep.coweight == (3,)
    assert rep.word == (0,)
    assert rep.sign == -1
    rep0 = sl2.dominant_representative((0,))
    assert rep0.coweight == (0,) and rep0.word == () and rep0.sign == 1


def test_dominant_representative_matches_orbit_search():
    # oracle: scan the whole Weyl orbit for the dominant member
    d = build_root_datum("SL3")
    for lam in [(-1, 1), (2, -3), (-2, -2), (0, 4), (-5, 3)]:
        rep = d.dominant_representative(lam)
        orbit = d.weyl_orbit(lam)
        dominant_members = [v for v in orbit if d.is_dominant(v)]
        assert len(set(dominant_members)) == 1
        assert rep.coweight == dominant_members[0]
        # the word really maps lam to the representative
        cur = lam
        for i in rep.word:
            cur = d.reflect(i, cur)
        assert cur == rep.coweight
    assert d.dominant_representative((-1, 1)).coweight == (1, 0)


def _is_dominant(d, lam):
    return all(sum(x * a for x, a in zip(lam, root)) >= 0 for root in d.simple_roots)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(PRESETS)),
       coords=st.lists(st.integers(-40, 40), min_size=3, max_size=3))
def test_dominant_representative_matches_weyl_group_search(name, coords):
    # brute force: apply every element of the Weyl group and keep the dominant images
    d = build_root_datum(name)
    lam = tuple(coords[: d.lattice_rank])
    orbit = {tuple(sum(m * x for m, x in zip(row, lam)) for row in matrix)
             for matrix, _ in d.weyl_elements}
    dominant = {v for v in orbit if _is_dominant(d, v)}
    rep = d.dominant_representative(lam)
    assert dominant == {rep.coweight}
    assert d.is_dominant(lam) == (lam in dominant)
    cur = lam
    for i in rep.word:  # s_i(λ) = λ − ⟨λ, α_i⟩ α̌_i
        pairing = sum(x * a for x, a in zip(cur, d.simple_roots[i]))
        cur = tuple(x - pairing * c for x, c in zip(cur, d.simple_coroots[i]))
    assert cur == rep.coweight
    assert rep.sign == (-1) ** len(rep.word)


def test_apply_w0():
    sl2 = build_root_datum("SL2")
    for n in range(-4, 5):
        assert sl2.apply_w0((n,)) == (-n,)
    sl3 = build_root_datum("SL3")
    # -w0 swaps the two fundamental coordinates
    assert tuple(-x for x in sl3.apply_w0((1, 0))) == (0, 1)
    assert tuple(-x for x in sl3.apply_w0((2, 5))) == (5, 2)
    assert sl3.apply_w0((0, 0)) == (0, 0)


def test_apply_w0_is_the_longest_weyl_element():
    for name in PRESETS:
        d = build_root_datum(name)
        top = max(length for _, length in d.weyl_elements)
        longest = [m for m, length in d.weyl_elements if length == top]
        assert len(longest) == 1
        assert top == len(d.positive_roots)
        (w0,) = longest
        for lam in iter_product(range(-4, 5), repeat=d.lattice_rank):
            image = tuple(sum(row[j] * lam[j] for j in range(len(lam))) for row in w0)
            assert d.apply_w0(lam) == image


def test_w0_consumers_do_not_build_the_weyl_group():
    from satake.grassmannian import Grassmannian
    from satake.hecke import A_BASIS, HeckeAlgebra
    from satake.rep_ring import RepRing

    d = build_root_datum("G2")
    algebra = HeckeAlgebra(d)
    assert algebra.star_involution(algebra.monomial(A_BASIS, (1, 2))).support() == ((1, 2),)
    assert RepRing(d).dual_character_eval((1, 0), (Fraction(2), Fraction(3))) > 0
    assert Grassmannian(RepRing(d)).mv_dim_bound((1, 0), (-1, 0)).flag == "point"
    assert "weyl_elements" not in d.__dict__


def test_w0_is_an_involution_sending_dominant_to_antidominant():
    rng = random.Random(404)
    for name in PRESETS:
        d = build_root_datum(name)
        for _ in range(20):
            lam = tuple(rng.randint(-5, 5) for _ in range(d.lattice_rank))
            assert d.apply_w0(d.apply_w0(lam)) == lam
        for lam in d.dominant_box(4, coord_bound=4):
            image = d.apply_w0(lam)
            assert all(d.pairing(image, root) <= 0 for root in d.simple_roots)


def test_two_rho_check_is_sum_of_positive_roots():
    for name in ["PGL2", "SL2", "GL2", "SL3", "Sp4", "G2"]:
        d = build_root_datum(name)
        rng = random.Random(7)
        for _ in range(10):
            lam = tuple(rng.randint(-5, 5) for _ in range(d.lattice_rank))
            total = sum(d.pairing(lam, root) for root in d.positive_roots)
            assert total == d.pairing_2rho(lam)


def test_rho_check_pairs_to_one_with_simple_coroots():
    for name in PRESETS:
        d = build_root_datum(name)
        for alpha in d.simple_coroots:
            assert d.pairing(alpha, d.two_rho_check) == 2


def test_dominance_is_a_partial_order():
    for name in ["PGL2", "SL2"]:
        d = build_root_datum(name)
        box = [(n,) for n in range(-5, 6)]
        for lam in box:
            assert d.dominance_leq(lam, lam)
        for a in box:
            for b in box:
                if d.dominance_leq(a, b) and d.dominance_leq(b, a):
                    assert a == b
    d = build_root_datum("SL3")
    box = [(a, b) for a in range(-3, 4) for b in range(-3, 4)]
    for a in box:
        assert d.dominance_leq(a, a)
    rng = random.Random(99)
    for _ in range(300):
        a, b, c = rng.choice(box), rng.choice(box), rng.choice(box)
        if d.dominance_leq(a, b) and d.dominance_leq(b, a):
            assert a == b
        if d.dominance_leq(a, b) and d.dominance_leq(b, c):
            assert d.dominance_leq(a, c)


def test_singularity_detection_on_shifted_vectors():
    d = build_root_datum("SL3")
    # singular = the Weyl orbit touches a wall
    assert d.is_singular((1, 0))
    assert d.is_singular((-1, 1))  # reflects to (1, 0)
    assert d.is_singular((3, -3))  # reflects to (0, 3)
    assert not d.is_singular((1, 1))
    assert not d.is_singular((-1, -1))  # the regular orbit of (1, 1)
    sl2 = build_root_datum("SL2")
    assert sl2.is_singular((0,))
    assert not sl2.is_singular((-2,))


def test_explicit_datum_round_trip():
    base = build_root_datum("Sp4")
    rebuilt = build_root_datum(base.to_json())
    assert rebuilt.simple_coroots == base.simple_coroots
    assert rebuilt.cartan_matrix == base.cartan_matrix
    assert rebuilt.preset_name is None
    assert rebuilt.weyl_order == 8


def test_rejects_affine_cartan_matrix():
    with pytest.raises(ValueError, match="finite type"):
        build_root_datum(
            {"cartan": [[2, -2], [-2, 2]], "coroots": [[1, 0], [0, 1]], "roots": [[2, -2], [-2, 2]]}
        )


def test_rejects_inconsistent_pairing():
    with pytest.raises(ValueError, match="disagrees"):
        build_root_datum(
            {"cartan": [[2]], "coroots": [[2]], "roots": [[2]]}  # pairing would be 4
        )


def test_rejects_unknown_preset_and_bad_shapes():
    with pytest.raises(ValueError, match="unknown preset"):
        build_root_datum("E8")
    with pytest.raises(ValueError):
        build_root_datum({"cartan": [[2, -1]], "coroots": [[1]], "roots": [[2]]})
    with pytest.raises(ValueError, match="nonpositive"):
        build_root_datum(
            {"cartan": [[2, 1], [1, 2]], "coroots": [[1, 0], [0, 1]], "roots": [[2, 1], [1, 2]]}
        )


def test_rejects_dependent_coroots():
    # duplicated coroot vectors; rejected (the pairing check fires first)
    with pytest.raises(ValueError):
        build_root_datum(
            {
                "cartan": [[2, -1], [-1, 2]],
                "coroots": [[1, -1, 0], [1, -1, 0]],
                "roots": [[1, -1, 0], [0, 1, -1]],
            }
        )


def test_coweight_normalization():
    d = build_root_datum("PGL2")
    assert d.coweight(3) == (3,)
    s = build_root_datum("SL3")
    with pytest.raises(ValueError):
        s.coweight(3)
    with pytest.raises(ValueError):
        s.coweight((1, 2, 3))


def test_dominant_box_is_sorted_and_complete():
    d = build_root_datum("SL3")
    box = d.dominant_box(4)
    assert box[0] == (0, 0)
    assert all(d.is_dominant(lam) and d.pairing_2rho(lam) <= 4 for lam in box)
    assert (1, 1) in box and (2, 0) in box
    heights = [d.pairing_2rho(lam) for lam in box]
    assert heights == sorted(heights)


def test_symmetrizer_values():
    assert build_root_datum("SL3").symmetrizer == (1, 1)
    sp4 = build_root_datum("Sp4").symmetrizer
    g2 = build_root_datum("G2").symmetrizer
    # d_i C_ij must be symmetric
    for name, d in [("Sp4", sp4), ("G2", g2)]:
        C = build_root_datum(name).cartan_matrix
        for i in range(2):
            for j in range(2):
                assert d[i] * C[i][j] == d[j] * C[j][i]
