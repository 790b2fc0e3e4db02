import random
import time
from fractions import Fraction
from itertools import permutations, product as iter_product

import pytest
from hypothesis import given, settings, strategies as st

from satake.root_datum import PRESETS, _det, build_root_datum

# A1 × C2: reducible, with a rank-3 lattice
REDUCIBLE = {"cartan": [[2, 0, 0], [0, 2, -2], [0, -1, 2]],
             "coroots": [[2, 0, 0], [0, 2, -1], [0, -2, 2]],
             "roots": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}


def _exceptional(cartan):
    """The datum on Z^r with the simple coroots as unit vectors and the Cartan rows as roots."""
    r = len(cartan)
    return {"cartan": cartan, "coroots": [[int(i == j) for j in range(r)] for i in range(r)],
            "roots": cartan}


def _simply_laced(rank, edges):
    """The Cartan matrix of a simply-laced Dynkin diagram on nodes 1..rank."""
    cartan = [[2 * (i == j) for j in range(rank)] for i in range(rank)]
    for i, j in edges:
        cartan[i - 1][j - 1] = cartan[j - 1][i - 1] = -1
    return cartan


# Bourbaki numbering: the chain 1-3-4-…-r with node 2 on node 4
EXCEPTIONAL = {
    "F4": ([[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]], 1152),
    "E6": (_simply_laced(6, [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]), 51840),
    "E7": (_simply_laced(7, [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4)]), 2903040),
    "E8": (_simply_laced(8, [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)]),
           696729600),
}


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
    with pytest.raises(ValueError):
        d.apply_w0((1,))


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
    assert set(algebra.star_involution(algebra.monomial(A_BASIS, (1, 2))).terms) == {(1, 2)}
    assert RepRing(d).dual_character_eval((1, 0), (Fraction(2), Fraction(3))) > 0
    assert Grassmannian(RepRing(d)).mv_dim_bound((1, 0), (-1, 0)).flag == "point"
    # all three read one cached matrix of w₀, built from a reduced word, not from W
    assert d.__dict__["_w0_matrix"] == ((-1, 0), (0, -1))
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


def test_explicit_datum_round_trip():
    base = build_root_datum("Sp4")
    rebuilt = build_root_datum({"cartan": [list(row) for row in base.cartan_matrix],
                                "coroots": [list(v) for v in base.simple_coroots],
                                "roots": [list(v) for v in base.simple_roots]})
    assert rebuilt == base
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


def test_no_datum_with_dependent_vectors_passes_the_pairing_and_finite_type_checks():
    # two simple coroots and two simple roots in Z are always dependent; with the Cartan
    # matrix taken from their pairings, every such datum must still be refused
    for a, b, c, d in iter_product(range(-3, 4), repeat=4):
        spec = {"coroots": [[a], [b]], "roots": [[c], [d]],
                "cartan": [[a * c, b * c], [a * d, b * d]]}
        with pytest.raises(ValueError):
            build_root_datum(spec)


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
    assert d.dominant(3) == (3,)
    assert s.dominant([2, 0]) == (2, 0)
    with pytest.raises(ValueError, match=r"coweight \(-1, 2\) is not dominant"):
        s.dominant([-1, 2])
    with pytest.raises(ValueError, match="length"):
        s.dominant((1, 2, 3))


def test_dominant_box_is_sorted_and_complete():
    d = build_root_datum("SL3")
    box = d.dominant_box(4)
    assert box[0] == (0, 0)
    assert all(d.is_dominant(lam) and d.pairing_2rho(lam) <= 4 for lam in box)
    assert (1, 1) in box and (2, 0) in box
    heights = [d.pairing_2rho(lam) for lam in box]
    assert heights == sorted(heights)


def test_dominant_box_refuses_a_scan_over_the_cap(monkeypatch):
    import satake.root_datum as root_datum

    sl3, gl3 = build_root_datum("SL3"), build_root_datum("GL3")
    # SL3 walks (⌊B/2⌋ + 1)² pairings; GL3 scans its coordinate box, (2c + 1)³ points
    with pytest.raises(ValueError, match="scan of 1002001 candidates, over the limit of 1000000"):
        sl3.dominant_box(2000)
    with pytest.raises(ValueError, match="scan of 1030301 candidates"):
        gl3.dominant_box(50)
    with pytest.raises(ValueError, match="scan of 1030301 candidates"):
        gl3.dominant_box(4, coord_bound=50)
    with pytest.raises(ValueError, match="scan of %d candidates" % (5 * 10 ** 29 + 1) ** 2):
        sl3.dominant_box(10 ** 30)  # ranges too long for len()
    # at the cap the scan is admitted (an empty one here, so the test stays fast)
    monkeypatch.setattr(root_datum, "iter_product", lambda *ranges, **kw: iter(()))
    assert sl3.dominant_box(1999) == [] and gl3.dominant_box(49) == []


def _box_scan(d, pair_bound, coord_bound):
    """Every point of the coordinate box that is dominant at level ≤ pair_bound, sorted."""
    found = []
    for lam in iter_product(range(-coord_bound, coord_bound + 1), repeat=d.lattice_rank):
        level = sum(x * y for x, y in zip(lam, d.two_rho_check))
        if level <= pair_bound and all(d.pairing(lam, root) >= 0 for root in d.simple_roots):
            found.append((level, lam))
    return [lam for _, lam in sorted(found)]


@pytest.mark.parametrize("spec", sorted(PRESETS) + [REDUCIBLE], ids=sorted(PRESETS) + ["A1xC2"])
def test_dominant_box_walk_equals_the_coordinate_box_scan(spec):
    d = build_root_datum(spec)
    for pair_bound, coord_bound in [(-1, 3), (0, 0), (7, 7), (12, 12), (12, 2), (9, 0), (6, 3)]:
        expected = _box_scan(d, pair_bound, coord_bound)
        assert d.dominant_box(pair_bound, coord_bound) == expected, (pair_bound, coord_bound)
        if coord_bound == pair_bound:
            assert d.dominant_box(pair_bound) == expected


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(PRESETS)),
       coords=st.lists(st.integers(-30, 30), min_size=3, max_size=3))
def test_minus_w0_is_the_dominant_representative_of_minus_lambda(name, coords):
    # dual_character_eval reads the dual of V^λ as V^{−w₀λ}, which must be V^{dom(−λ)}
    d = build_root_datum(name)
    lam = d.dominant_representative(coords[:d.lattice_rank]).coweight
    minus = tuple(-x for x in lam)
    assert tuple(-x for x in d.apply_w0(lam)) == d.dominant_representative(minus).coweight


@pytest.mark.parametrize("spec", sorted(PRESETS) + [REDUCIBLE], ids=sorted(PRESETS) + ["A1xC2"])
def test_dot_orbit_is_the_weyl_group_with_its_signs(spec):
    # against the Weyl group's matrices: w(λ+ρ) − (λ+ρ) from 2(λ+ρ), halved, in coroot coordinates
    d = build_root_datum(spec)
    for lam in d.dominant_box(4, coord_bound=2):
        two = tuple(2 * x + r for x, r in zip(lam, d.two_rho_dual))
        expected = {d.coroot_coordinates([(sum(m * x for m, x in zip(row, two)) - t) // 2
                                          for row, t in zip(matrix, two)]): (-1) ** length
                    for matrix, length in d.weyl_elements}
        orbit = d.dot_orbit(lam)
        assert orbit[0] == ((0,) * d.rank, 1)
        assert len(orbit) == d.weyl_order and dict(orbit) == expected
    for lam in d.dominant_box(4, coord_bound=2)[1:]:
        minus = tuple(-x for x in lam)
        if not d.is_dominant(minus):
            with pytest.raises(ValueError, match="not dominant"):
                d.dot_orbit(minus)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(PRESETS)),
       coords=st.lists(st.integers(-20, 20), min_size=6, max_size=6))
def test_invariant_form_is_weyl_invariant(name, coords):
    d = build_root_datum(name)
    n = d.lattice_rank
    x, y = tuple(coords[:n]), tuple(coords[3:3 + n])

    def form(a, b):
        value = d.pairing(b, d.form_covector(a))
        assert type(value) is int
        return value

    assert form(x, y) == form(y, x)
    for i in range(d.rank):
        assert form(d.reflect(i, x), d.reflect(i, y)) == form(x, y)
    # positive on every nonzero vector of the coroot span
    beta = tuple(sum(c * alpha[k] for c, alpha in zip(coords, d.simple_coroots))
                 for k in range(n))
    assert (form(beta, beta) > 0) == any(coords[:d.rank])


# (positive coroots as (vector, coroot coordinates), positive roots), each by height
# and then lexicographically: the order in which the coin-change table fills its layers
POSITIVE_SYSTEMS = {
    "PGL2": ((((2,), (1,)),), ((1,),)),
    "SL2": ((((1,), (1,)),), ((2,),)),
    "GL2": ((((1, -1), (1,)),), ((1, -1),)),
    "SL3": ((((-1, 2), (0, 1)), ((2, -1), (1, 0)), ((1, 1), (1, 1))),
            ((0, 1), (1, 0), (1, 1))),
    "GL3": ((((0, 1, -1), (0, 1)), ((1, -1, 0), (1, 0)), ((1, 0, -1), (1, 1))),
            ((0, 1, -1), (1, -1, 0), (1, 0, -1))),
    "Sp4": ((((-2, 2), (0, 1)), ((2, -1), (1, 0)), ((0, 1), (1, 1)), ((2, 0), (2, 1))),
            ((0, 1), (1, 0), (1, 1), (1, 2))),
    "G2": ((((-3, 2), (0, 1)), ((2, -1), (1, 0)), ((-1, 1), (1, 1)), ((1, 0), (2, 1)),
            ((3, -1), (3, 1)), ((0, 1), (3, 2))),
           ((0, 1), (1, 0), (1, 1), (1, 2), (1, 3), (2, 3))),
}


def test_positive_systems_are_pinned():
    assert sorted(POSITIVE_SYSTEMS) == sorted(PRESETS)
    for name, (coroots, roots) in POSITIVE_SYSTEMS.items():
        d = build_root_datum(name)
        assert d.positive_coroots == coroots
        assert d.positive_roots == roots


def _leibniz(matrix):
    """Σ_σ sign(σ) Π_i m[i][σ(i)], the sign counted by inversions."""
    n = len(matrix)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= matrix[i][j]
        total += term
    return total


def test_bareiss_determinant_matches_the_leibniz_sum():
    rng = random.Random(2024)
    for n in range(6):
        for trial in range(60):
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if n >= 2 and trial % 3 == 1:  # singular: one row a combination of two others
                k = rng.randint(-2, 2)
                m[-1] = [x + k * y for x, y in zip(m[0], m[1])]
            elif n >= 2 and trial % 3 == 2:  # a zero leading pivot forces a row swap
                m[0][0] = 0
            assert _det(m) == _leibniz(m), m
    assert _det([[0, 1], [1, 0]]) == -1
    assert _det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1


def _fraction_coordinates(datum, vec):
    """Solve Σ c_j α̌_j = vec by Gaussian elimination over Q: the unique c, or None."""
    rows = [[Fraction(alpha[k]) for alpha in datum.simple_coroots] + [Fraction(vec[k])]
            for k in range(datum.lattice_rank)]
    rank, pivots = datum.rank, []
    for col in range(rank):
        pick = next(r for r in range(len(pivots), len(rows)) if rows[r][col] != 0)
        rows[len(pivots)], rows[pick] = rows[pick], rows[len(pivots)]
        top = rows[len(pivots)]
        top[:] = [x / top[col] for x in top]
        for r, row in enumerate(rows):
            if r != len(pivots) and row[col] != 0:
                row[:] = [x - row[col] * y for x, y in zip(row, top)]
        pivots.append(col)
    if any(row[-1] != 0 for row in rows[rank:]):
        return None  # off the span
    return tuple(row[-1] for row in rows[:rank])


@pytest.mark.parametrize("spec", sorted(PRESETS) + [REDUCIBLE],
                         ids=sorted(PRESETS) + ["A1xC2"])
def test_coroot_coordinates_are_the_integer_solutions_over_q(spec):
    datum = build_root_datum(spec)
    for vec in iter_product(range(-6, 7), repeat=datum.lattice_rank):
        expected = _fraction_coordinates(datum, vec)
        if expected is not None and any(c.denominator != 1 for c in expected):
            expected = None  # in the span, off the lattice
        coords = datum.coroot_coordinates(vec)
        assert coords == expected, vec
        assert coords is None or all(type(c) is int for c in coords)
    # in the span but off the lattice: the SL3 fundamental coweight, and PGL2's generator
    assert build_root_datum("SL3").coroot_coordinates((1, 0)) is None
    assert build_root_datum("PGL2").coroot_coordinates((1,)) is None


def test_weyl_order_formula_does_not_build_the_group():
    for spec in sorted(PRESETS) + [REDUCIBLE]:
        d = build_root_datum(spec)
        order = d.weyl_order
        assert "weyl_elements" not in d.__dict__
        assert order == len(d.weyl_elements)
    assert build_root_datum(REDUCIBLE).weyl_order == 16
    for name, (cartan, order) in EXCEPTIONAL.items():
        d = build_root_datum(_exceptional(cartan))
        assert d.weyl_order == order, name
    # over the cap: refused before a single element is built
    d = build_root_datum(_exceptional(EXCEPTIONAL["E7"][0]))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="2903040 elements, over the limit of 1000000"):
        d.weyl_elements
    assert time.perf_counter() - start < 0.5
