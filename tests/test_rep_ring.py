import functools
import hashlib
import itertools
import json
import math
import operator
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from satake.grassmannian import Grassmannian
from satake.hecke import A_BASIS, BasisElement, HeckeAlgebra
from satake.laurent import LaurentPoly, ONE
from satake.rep_ring import RepRing, _coin_change, _power_sum, gamma_power, torus_point
from satake.root_datum import PRESETS, InvariantError, RootDatum, TooLarge, build_root_datum
from satake.whittaker import WhittakerModule

from conftest import (A3, B3, SKEWED_SL3, box_scan, cartan_datum, dominant_weights_below, invariant_form,
                      weyl_group)


def fresh_powers(point):
    """New power lists [1, a], [1, b] for each base a/b of point, as _power_sum takes them."""
    return [([1, Fraction(x).numerator], [1, Fraction(x).denominator]) for x in point]


def power_value(terms, powers):
    """Σ c·x^ν as one Fraction, from _power_sum's terms acc[k]·num/den."""
    acc, num, den = _power_sum(terms, powers)
    return Fraction(sum(acc) * num, den)


def char_product_decompose(rep, lam, mu):
    """Independent tensor oracle: convolve full weight tables, strip highest weights."""
    prod = {}
    for t1, m1 in rep.weight_table(lam).items():
        for t2, m2 in rep.weight_table(mu).items():
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
        for w, m in rep.weight_table(nu).items():
            prod[w] = prod.get(w, 0) - count * m
    return result


# -- weight multiplicities -------------------------------------------------


def test_sl2_dual_weight_spaces_are_lines():
    rep = RepRing("PGL2")
    for nu in (-2, 0, 2):
        assert rep.weight_table((2,)).get((nu,), 0) == 1
    assert rep.weight_table((2,)).get((1,), 0) == 0
    assert rep.weight_table((2,)).get((4,), 0) == 0


def test_sl3_adjoint_zero_weight_space():
    rep = RepRing("SL3")
    assert rep.weight_table((1, 1)).get((0, 0), 0) == 2


def test_sp4_second_fundamental_agrees_across_algorithms():
    rep = RepRing("Sp4")
    demazure = rep.weight_table((0, 1)).get((0, 0), 0)
    kostant = _kostant_multiplicity(rep.datum, (0, 1), (0, 0))
    assert demazure == kostant == freudenthal_table(rep.datum, (0, 1), {})[(0, 0)] == 1


def freudenthal_table(datum, lam, orbits):
    """The full weight table of V^λ by Freudenthal's recursion, a second route to weight_table.

    (λ+ρ, λ+ρ) − (μ+ρ, μ+ρ) = (λ − μ, λ + μ + 2ρ) times m(μ) is 2 Σ_{α̌>0} Σ_{k≥1} (μ + kα̌, α̌)
    m(μ + kα̌), in the tests' invariant form (Humphreys, Lie Algebras, §22.3), over the dominant
    μ ≤ λ by the height of λ − μ.  Those are reached from λ by steps −α̌ through dominant
    weights (Stembridge, The partial order of dominant weights, 1998), and each value goes onto
    μ's orbit under the simple reflections, kept in orbits.  Only the datum's simple roots and
    coroots and its positive roots and coroots are read.
    """
    form = invariant_form(datum)
    coroots = [(alpha, sum(coords)) for alpha, coords in datum.positive_coroots]
    two_rho = [sum(column) for column in zip(*(alpha for alpha, _ in coroots))]
    simple = list(zip(datum.simple_roots, datum.simple_coroots))

    def dominant(x):
        return all(sum(a * b for a, b in zip(x, root)) >= 0 for root, _ in simple)

    depth, stack = {lam: 0}, [lam]
    while stack:
        mu = stack.pop()
        for alpha, height in coroots:
            nu = tuple(m - a for m, a in zip(mu, alpha))
            if nu not in depth and dominant(nu):
                depth[nu] = depth[mu] + height
                stack.append(nu)
    table = {}
    for mu in sorted(depth, key=depth.get):
        numerator = 0
        for alpha, _ in coroots:
            nu = tuple(m + a for m, a in zip(mu, alpha))
            while table.get(nu):  # a root string through a weight is unbroken
                numerator += table[nu] * form(nu, alpha)
                nu = tuple(m + a for m, a in zip(nu, alpha))
        denominator = form([l - m for l, m in zip(lam, mu)], [l + m + r for l, m, r in zip(lam, mu, two_rho)])
        value, rem = divmod(2 * numerator, denominator) if depth[mu] else (1, 0)
        assert rem == 0 and value > 0, (lam, mu, 2 * numerator, denominator)
        if mu not in orbits:
            orbit, frontier = {mu}, [mu]
            while frontier:
                x = frontier.pop()
                for root, coroot in simple:
                    c = sum(a * b for a, b in zip(x, root))
                    y = tuple(a - c * b for a, b in zip(x, coroot))
                    if y not in orbit:
                        orbit.add(y)
                        frontier.append(y)
            orbits[mu] = orbit
        table.update(dict.fromkeys(orbits[mu], value))
    return table


# A1 × C2: reducible, so the invariant form has a separate scale on each factor
REDUCIBLE = cartan_datum([[2, 0, 0], [0, 2, -2], [0, -1, 2]])


def test_freudenthal_matches_kostant_on_boxes():
    for spec, bound in [("PGL2", 6), ("SL2", 3), ("SL3", 4), ("Sp4", 6), (REDUCIBLE, 10)]:
        rep, orbits = RepRing(spec), {}
        for lam in rep.datum.dominant_box(bound):
            freudenthal = freudenthal_table(rep.datum, lam, orbits)
            assert rep.weight_table(lam) == freudenthal
            for _, mu in dominant_weights_below(rep, lam):
                mult = rep.weight_table(lam).get(mu, 0)
                assert mult == _kostant_multiplicity(rep.datum, lam, mu)
                assert rep.lusztig_q_analog(lam, mu).eval_q(1) == mult
            mass = sum(rep.weight_table(lam).values())
            assert mass == rep.weyl_dim(lam)


# every dominant λ up to these levels ⟨λ, 2ρ̌⟩, on every type of rank ≤ 4 but A3 and E
_FREUDENTHAL_LEVELS = [
    ("PGL2", PRESETS["PGL2"], 40), ("SL3", PRESETS["SL3"], 30), ("Sp4", PRESETS["Sp4"], 30),
    ("G2", PRESETS["G2"], 40), ("GL3", PRESETS["GL3"], 6), ("B3", B3, 14),
    ("C3", cartan_datum([[2, -1, 0], [-1, 2, -1], [0, -2, 2]]), 14),
    ("D4", cartan_datum([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]), 10),
    ("F4", cartan_datum([[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]), 22),
]


def _freudenthal_mismatches(datum, tables):
    """The λ of tables whose table is not Freudenthal's, one orbit memo over them all."""
    orbits = {}
    return [lam for lam, table in tables.items() if table != freudenthal_table(datum, lam, orbits)]


@pytest.mark.parametrize("spec, level", [(spec, level) for _, spec, level in _FREUDENTHAL_LEVELS],
                         ids=[name for name, _, _ in _FREUDENTHAL_LEVELS])
def test_weight_tables_match_freudenthal(spec, level):
    rep = RepRing(spec)
    lams = rep.datum.dominant_box(level)
    assert len(lams) > 1
    assert _freudenthal_mismatches(rep.datum, {lam: rep.weight_table(lam) for lam in lams}) == []


def test_freudenthal_finds_a_tampered_table():
    rep = RepRing("G2")
    lam = (2, 1)
    table = rep.weight_table(lam)
    raised = dict(table)
    raised[(0, 0)] += 1
    dropped = dict(table)
    del dropped[next(nu for nu in sorted(dropped) if nu != lam)]
    assert _freudenthal_mismatches(rep.datum, {lam: table}) == []
    for tampered in (raised, dropped):
        assert _freudenthal_mismatches(rep.datum, {lam: tampered}) == [lam]


def _signed_orbit(roots, coroots, start):
    """{x: ε} over the orbit of start under the integer reflections s_i(x) = x − ⟨x, α_i⟩ α̌_i.

    ε is (−1) to the length of the path that reached x; for a regular start, x = w(start) for
    exactly one w, and ε is its sign.
    """
    signs, frontier = {start: 1}, [start]
    while frontier:
        x = frontier.pop()
        for root, coroot in zip(roots, coroots):
            c = sum(a * b for a, b in zip(x, root))
            y = tuple(a - c * b for a, b in zip(x, coroot))
            if y not in signs:
                signs[y] = -signs[x]
                frontier.append(y)
    return signs


# ⟨λ, 2ρ̌⟩ bounds that give each datum a handful of nonzero highest weights
_BOX_BOUNDS = {"PGL2": 8, "SL2": 8, "GL2": 6, "SL3": 12, "GL3": 4, "Sp4": 16, "G2": 20}


@pytest.mark.parametrize("spec, bound", [(PRESETS[name], _BOX_BOUNDS[name]) for name in sorted(PRESETS)]
                         + [(REDUCIBLE, 10)], ids=sorted(PRESETS) + ["A1xC2"])
def test_full_table_is_the_dominant_table_over_orbits(spec, bound):
    # one ring for the whole box; the dominant table is the full table's dominant entries, and
    # the full table is the dominant one spread over orbits closed here, by simple reflections
    rep = RepRing(spec)
    gamma = torus_point([Fraction(2, 3), Fraction(-5, 7), Fraction(3, 11)][: rep.datum.lattice_rank],
                        rep.datum)
    for lam in rep.datum.dominant_box(bound):
        weights = rep.weight_table(lam).items()
        dominant = rep.dominant_multiplicity_table(lam)
        expected = {nu: m for mu, m in dominant.items()
                    for nu in _signed_orbit(spec["roots"], spec["coroots"], mu)}
        assert list(weights) == sorted(expected.items())
        assert sum(m for _, m in weights) == rep.weyl_dim(lam)
        character, dominant_before = rep.character_eval(lam, gamma), dict(dominant)
        table = rep.weight_table(lam)
        table[lam] = 99
        table.pop(next(iter(table)))
        dominant[lam] = 99
        dominant[tuple(x + 1 for x in lam)] = 1
        assert rep.weight_table(lam) == expected
        assert rep.dominant_multiplicity_table(lam) == dominant_before
        assert rep.character_eval(lam, gamma) == character


def test_tables_walk_one_chamber_per_datum_and_no_orbit(monkeypatch):
    ends = _recording_walks(monkeypatch)

    def refuse(self, lam):
        raise AssertionError("a table built an orbit or a walk of the dominant weights below λ")

    monkeypatch.setattr(RootDatum, "weyl_orbit", refuse)
    monkeypatch.setattr(RepRing, "_walk", refuse)
    for name, lam in [("SL3", (4, 4)), ("G2", (3, 3)), ("Sp4", (4, 4))]:
        datum = build_root_datum(name)
        RepRing(datum).dominant_multiplicity_table(lam)
        assert len(ends) == 1 and ends[0][2] == list(datum._w0_word)  # the walk spells w₀'s word
        ends.clear()
    # a batch of overlapping tables on one datum, each asked for more than once, in both forms
    rep = RepRing("SL3")
    batch = rep.datum.dominant_box(8)
    for lam in batch + batch[::-1]:
        rep.dominant_multiplicity_table(lam)
        rep.weight_table(lam)
    assert len(ends) == 1


@pytest.mark.parametrize("spec, bound", [(PRESETS[name], _BOX_BOUNDS[name]) for name in sorted(PRESETS)]
                         + [(REDUCIBLE, 10), (A3, 12), (B3, 16)],
                         ids=sorted(PRESETS) + ["A1xC2", "A3", "B3"])
def test_dominant_weights_below_is_a_filter_of_the_dominant_box(spec, bound):
    # on A3 and B3, c_2 lifts ⟨μ, α_1⟩, which is then fixed, and the last column, (0, −1, 2) or
    # (0, −2, 2), empties the interval of c_3 when it is negative, unlike rank 2 and A1 × C2
    # brute force: every dominant μ of a box that holds all of them, kept when λ − μ is a
    # Z≥0-sum of simple coroots, with depth = height of λ − μ = (⟨λ,2ρ̌⟩ − ⟨μ,2ρ̌⟩)/2
    datum = build_root_datum(spec)
    rep = RepRing(datum)
    for lam in datum.dominant_box(bound):
        level = datum.pairing_2rho(lam)
        box = box_scan(datum, level, level + max(map(abs, lam)))
        expected = sorted(((level - datum.pairing_2rho(mu)) // 2, mu)
                          for mu in box if datum.dominance_leq(mu, lam))
        assert dominant_weights_below(rep, lam) == expected, lam


def test_weight_multiplicity_requires_dominant_highest_weight():
    rep = RepRing("SL3")
    with pytest.raises(ValueError):
        rep.weight_table((-1, 0))


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


# -- tensor products ---------------------------------------------------------------


def test_clebsch_gordan_for_dual_sl2():
    rep = RepRing("PGL2")
    assert rep.tensor_decompose((1,), (1,)) == {(0,): 1, (2,): 1}


def test_sl3_three_times_three_bar():
    rep = RepRing("SL3")
    assert rep.tensor_decompose((1, 0), (0, 1)) == {(0, 0): 1, (1, 1): 1}


def test_sl3_adjoint_square():
    rep = RepRing("SL3")
    dec = rep.tensor_decompose((1, 1), (1, 1))
    assert dec[(1, 1)] == 2
    assert dec == char_product_decompose(rep, (1, 1), (1, 1))


# ⟨λ, 2ρ̌⟩ bounds of the factors drawn for the tensor oracle, every preset and A1 × C2
_TENSOR_BOUNDS = {"PGL2": 8, "SL2": 8, "GL2": 4, "SL3": 8, "GL3": 3, "Sp4": 12, "G2": 16,
                  "A1xC2": 8}


def _tensor_ring(name):
    return RepRing(REDUCIBLE if name == "A1xC2" else PRESETS[name])


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(_TENSOR_BOUNDS)), data=st.data())
def test_tensor_matches_character_oracle_on_box(name, data):
    rep = _tensor_ring(name)
    box = rep.datum.dominant_box(_TENSOR_BOUNDS[name])
    lam, mu = data.draw(st.sampled_from(box)), data.draw(st.sampled_from(box))
    assert rep.tensor_decompose(lam, mu) == char_product_decompose(rep, lam, mu)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["GL2", "GL3"]), shift=st.integers(-3, 3), data=st.data())
def test_tensor_decompose_carries_the_center(name, shift, data):
    # λ and λ + (s, …, s) have the same simple-root pairings, so the walk's pairings do not
    # determine the coweight; V^{(s, …, s)} is a character, and the product moves by it
    rep = _tensor_ring(name)
    box = rep.datum.dominant_box(_TENSOR_BOUNDS[name])
    lam, mu = data.draw(st.sampled_from(box)), data.draw(st.sampled_from(box))
    moved = tuple(x + shift for x in lam)
    expected = {tuple(x + shift for x in nu): m for nu, m in rep.tensor_decompose(lam, mu).items()}
    assert rep.tensor_decompose(moved, mu) == expected == char_product_decompose(rep, moved, mu)


def _walked(rep, lam, mu):
    """The weights τ of V^λ whose μ + τ + ρ has a negative simple-root pairing and none 0.

    Those are the ones a Brauer–Klimyk product of μ walks: a 0 drops the term, and a τ with
    every pairing > 0 is added at μ + τ as it is.
    """
    datum, base = rep.datum, rep.datum._simple_pairings(mu)
    starts = {tau: [p + q + 1 for p, q in zip(base, datum._simple_pairings(tau))] for tau in rep.weight_table(lam)}
    return [tau for tau, pairings in starts.items() if min(pairings) < 0 and 0 not in pairings]


def _recording_walks(monkeypatch):
    """Patch RootDatum._chamber_walk to log each walk's (vector, pairings, word); the log."""
    ends, walk = [], RootDatum._chamber_walk

    def recording(self, vec, pairings):
        ends.append(walk(self, vec, pairings))
        return ends[-1]

    monkeypatch.setattr(RootDatum, "_chamber_walk", recording)
    return ends


# equal dimensions, so the table of the second factor is read and λ + τ + ρ can lie several
# dot steps from the dominant chamber; both pairs also have singular λ + τ + ρ, on a simple wall
# (dropped unwalked) and off every simple wall (walked onto one)
@pytest.mark.parametrize("name, lam, mu", [("Sp4", (4, 2), (9, 0)), ("G2", (2, 3), (8, 0))])
def test_tensor_dot_walks_of_several_steps_and_singular_weights(monkeypatch, name, lam, mu):
    rep = RepRing(name)
    rep.datum._w0_word  # the datum's one walk, which every table reads
    ends = _recording_walks(monkeypatch)
    assert rep.weyl_dim(lam) == rep.weyl_dim(mu)
    assert rep.tensor_decompose(lam, mu) == char_product_decompose(rep, lam, mu)
    walked = _walked(rep, mu, lam)
    assert len(ends) == len(walked) < len(rep.weight_table(mu))
    assert max(len(word) for _, _, word in ends) >= 2
    assert any(0 in pairings for _, pairings, _ in ends)
    base = rep.datum._simple_pairings(lam)
    assert any(0 in [p + q + 1 for p, q in zip(base, rep.datum._simple_pairings(tau))]
               for tau in rep.weight_table(mu))


def test_tensor_decompose_and_dominant_representative_share_one_walk(monkeypatch):
    rep = RepRing("G2")
    rep.datum._w0_word  # the datum's one walk, which every table reads
    ends, reps = _recording_walks(monkeypatch), []
    dominant_representative = RootDatum.dominant_representative
    monkeypatch.setattr(RootDatum, "dominant_representative",
                        lambda self, lam: reps.append(lam) or dominant_representative(self, lam))
    rep.tensor_decompose((0, 1), (1, 0))  # V^(1,0) the smaller factor; one of its weights walks
    assert reps == []
    walks = len(_walked(rep, (1, 0), (0, 1)))
    assert len(ends) == walks > 0
    assert rep.datum.dominant_representative((-2, 1)).coweight == ends[-1][0]
    assert len(reps) == 1 and len(ends) == walks + 1


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


def test_a_tampered_weight_table_makes_a_product_negative_and_raises():
    # the one Brauer–Klimyk core checks every product it sums: with the highest weight of
    # V^(1,0) at multiplicity −1, V^(1,0) ⊗ V^(1,1) holds −V^(2,1), refused through
    # tensor_decompose and through the Whittaker residual, which acts by V^(1,0)
    from satake.whittaker import WhittakerModule

    module = WhittakerModule(HeckeAlgebra("SL3"))
    rep = module.rep
    table = rep.weight_table((1, 0)).items()
    rep._full_weights[(1, 0)] = tuple((tau, -m if tau == (1, 0) else m) for tau, m in table)
    with pytest.raises(InvariantError, match="negative tensor multiplicity"):
        rep.tensor_decompose((1, 0), (1, 1))
    with pytest.raises(InvariantError, match="negative tensor multiplicity"):
        module.eigen_residual(torus_point([2, 3], rep.datum), (1, 0), 4)


def test_a_positive_tampered_table_makes_a_walked_product_negative_and_raises():
    # every multiplicity of the tampered V^(1,1) stays positive, so the table passes its check,
    # but with the zero weight at 1 instead of 2 the two walks onto (0, 0), each of sign −1, leave
    # V^(1,1) ⊗ V^(0,0) holding −V^(0,0): refused by the product's own check, also in the residual
    from satake.whittaker import WhittakerModule

    module = WhittakerModule(HeckeAlgebra("SL3"))
    rep = module.rep
    table = rep.weight_table((1, 1))
    assert table[(0, 0)] == 2
    rep._full_weights[(1, 1)] = tuple(sorted({**table, (0, 0): 1}.items()))
    with pytest.raises(InvariantError, match="negative tensor multiplicity"):
        rep._brauer_klimyk((1, 1), {(0, 0): 1})
    assert min(mult for _, _, mult in rep._rho_pairings[(1, 1)][0]) == 1
    with pytest.raises(InvariantError, match="negative tensor multiplicity"):
        module.eigen_residual(torus_point([2, 3], rep.datum), (1, 1), 4)


def test_a_fractional_weyl_dimension_raises():
    # 2ρ̌ tampered on a fresh datum to (2, 4): Π⟨2λ+2ρ̌, α⟩ / Π⟨2ρ̌, α⟩ = 128/48 at λ = (1, 0)
    datum = build_root_datum("SL3")
    datum.__dict__["two_rho_dual"] = (2, 4)
    with pytest.raises(InvariantError, match="Weyl dimension of \\(1, 0\\) is 128/48"):
        RepRing(datum).weyl_dim((1, 0))


def test_a_truncated_w0_word_raises():
    # w₀'s word without its last letter on a fresh datum: Demazure's formula then gives the
    # character of a Demazure module, 5 of V^(1, 1)'s 8 dimensions
    datum = build_root_datum("SL3")
    datum.__dict__["_w0_word"] = datum._w0_word[:-1]
    with pytest.raises(InvariantError, match=r"V\^\(1, 1\) multiplicities that sum to 5, the least 1, "
                                             "for dim V\\^λ = 8"):
        RepRing(datum).weight_table((1, 1))


def _walked_product(rep, lam, mu):
    """V^λ ⊗ V^μ with every μ + τ walked into the dot chamber: Brauer–Klimyk with no shortcut."""
    datum, out = rep.datum, {}
    base = datum._simple_pairings(mu)
    for tau, mult in rep.weight_table(lam).items():
        pairings = [p + q + 1 for p, q in zip(base, datum._simple_pairings(tau))]
        nu, pairings, word = datum._chamber_walk(tuple(map(operator.add, mu, tau)), pairings)
        if 0 not in pairings:
            out[nu] = out.get(nu, 0) + (-1) ** len(word) * mult
    return {nu: c for nu, c in out.items() if c}


def _depth(rep, lam, mu):
    """min_i ⟨μ, α_i⟩ + ℓ_i, ℓ_i = min_τ ⟨τ+ρ, α_i⟩ over the weights τ of V^λ: > 0 when μ is deep."""
    datum = rep.datum
    floor = [min(p) + 1 for p in zip(*(datum._simple_pairings(tau) for tau in rep.weight_table(lam)))]
    return min(map(operator.add, datum._simple_pairings(mu), floor))


_WALK_BOUNDS = {"PGL2": 4, "SL2": 4, "GL2": 4, "SL3": 4, "GL3": 4, "Sp4": 6, "G2": 8, "A1xC2": 4}


@pytest.mark.parametrize("name", sorted(_WALK_BOUNDS))
def test_brauer_klimyk_equals_the_walk_on_every_pair_of_a_box(monkeypatch, name):
    # a deep μ adds V^λ's table shifted by μ with no walk; any other μ walks only the weights
    # with a negative pairing and none 0, each walk at least one step; the box holds μ at
    # positive, zero and negative depth on every datum
    ends = _recording_walks(monkeypatch)
    rep = _tensor_ring(name)
    box = rep.datum.dominant_box(_WALK_BOUNDS[name])
    depths, total, words = set(), {}, []
    for lam in box:
        for mu in box:
            expected = _walked_product(rep, lam, mu)
            walks, depth = len(ends), _depth(rep, lam, mu)
            assert rep._brauer_klimyk(lam, {mu: 1}) == expected, (lam, mu)
            assert len(ends) - walks == (0 if depth > 0 else len(_walked(rep, lam, mu)))
            words += [word for _, _, word in ends[walks:]]
            depths.add((depth > 0) - (depth < 0))
            for nu, c in expected.items():
                total[nu] = total.get(nu, 0) + (len(box) - box.index(mu)) * c
        # one combination of every μ, deep and not, sums the products
        assert rep._brauer_klimyk(lam, {mu: len(box) - k for k, mu in enumerate(box)}) == total
        total.clear()
    # on SL2 every pairing with the simple root is even, so every depth is odd
    assert depths == ({-1, 1} if name == "SL2" else {-1, 0, 1})
    assert words and all(words)  # no walk of the library starts in the dominant chamber


def test_a_deep_mu_makes_no_chamber_walk(monkeypatch):
    rep = RepRing("SL3")
    table = rep.weight_table((1, 1))  # the adjoint: every ⟨τ, α_i⟩ ≥ −2, so ℓ_i = −1
    shallow = _walked_product(rep, (1, 1), (1, 2))
    ends = _recording_walks(monkeypatch)
    assert rep.tensor_decompose((1, 1), (2, 2)) == {
        tuple(map(operator.add, (2, 2), tau)): mult for tau, mult in table.items()}
    assert ends == []
    # (1, 2) has ⟨μ, α_1⟩ + ℓ_1 = 0: a singular μ + τ + ρ drops unwalked, and no weight of the
    # adjoint has a pairing below −2, so none is walked
    assert rep.tensor_decompose((1, 1), (1, 2)) == shallow
    assert ends == [] and _walked(rep, (1, 1), (1, 2)) == []


def test_non_integer_coweights_are_refused_as_input():
    rep = RepRing("SL3")
    gamma = torus_point([Fraction(2), Fraction(3)], rep.datum)
    # a ValueError about the input, not an InvariantError blamed on the library
    with pytest.raises(ValueError, match="not an integer"):
        rep.character_eval((1.5, 0), gamma)
    with pytest.raises(ValueError, match="not an integer"):
        rep.tensor_decompose((1.0, 0), (0, 1))


@pytest.mark.parametrize("spec, bound", [(PRESETS[name], _BOX_BOUNDS[name]) for name in sorted(PRESETS)]
                         + [(REDUCIBLE, 10)], ids=sorted(PRESETS) + ["A1xC2"])
def test_table_budget_bounds_the_weight_table(monkeypatch, spec, bound):
    # a limit one below the table's true size must be refused: the bound is never short
    from satake import root_datum

    rep = RepRing(spec)
    for lam in rep.datum.dominant_box(bound):
        size = len(rep.weight_table(lam))  # admitted under the real LIMIT
        monkeypatch.setattr(root_datum, "LIMIT", size - 1)
        fresh = RepRing(rep.datum)
        with pytest.raises(TooLarge, match="may hold"):
            fresh.dominant_multiplicity_table(lam)
        assert not fresh._full_weights
        monkeypatch.undo()


def test_table_budget_is_checked_before_any_table_is_built(monkeypatch):
    class Started(Exception):
        pass

    def started(self):
        raise Started()  # the limit admitted λ: its table reads w₀'s word now

    monkeypatch.setattr(RootDatum, "_w0_word", property(started))
    rep = RepRing("SL3")
    with pytest.raises(TooLarge, match="may hold 6024024 entries"):  # 6 · 1002²
        rep.dominant_multiplicity_table((1001, 1001))
    with pytest.raises(Started):
        rep.dominant_multiplicity_table((100, 100))  # 6 · 101² = 61,206
    # Brauer–Klimyk reads the table of the smaller factor, (1, 0): that of (1001, 1001) is
    # refused above before it reads the word
    with pytest.raises(Started):
        rep.tensor_decompose((1001, 1001), (1, 0))
    assert not rep._full_weights and set(rep._dims) == {(1001, 1001), (100, 100), (1, 0)}
    with pytest.raises(TooLarge, match=r"V\^\(1001, 1000\)"):
        rep.tensor_decompose((1001, 1001), (1001, 1000))


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


@functools.cache
def _one_singular_coroot(name):
    """A torus point with γ^α̌ = 1 for exactly one positive coroot α̌, from small rationals."""
    datum = build_root_datum(name)
    values = [Fraction(k) for k in (2, -2, 3, -1, 1)] + [Fraction(1, k) for k in (2, -2, 3)]
    for gamma in itertools.product(values, repeat=datum.lattice_rank):
        if sum(gamma_power(gamma, alpha) == 1 for alpha, _ in datum.positive_coroots) == 1:
            return gamma
    raise LookupError(name)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(PRESETS)),
       index=st.integers(0, 10 ** 6),
       coords=st.lists(st.tuples(_nonzero, st.integers(1, 50)), min_size=3, max_size=3))
def test_character_eval_matches_weight_by_weight_sum(name, index, coords):
    # second route: one gamma_power per weight of the full table, summed as Fractions; a
    # drawn γ is almost always regular (Weyl's formula wherever |W| ≤ dim V^λ), the other
    # three are singular or may be, where the Weyl denominator vanishes and the trace is
    # the weight-table sum
    rep = RepRing(name)
    datum = rep.datum
    n = datum.lattice_rank
    box = box_scan(datum, 6, 3)
    lam = box[index % len(box)]
    table = rep.weight_table(lam)
    coroots = [alpha for alpha, _ in datum.positive_coroots]
    points = [[Fraction(a, b) for a, b in coords[:n]], [1] * n, [-1] * n, _one_singular_coroot(name)]
    for k, values in enumerate(points):
        gamma = torus_point(values, datum)
        naive = sum((m * gamma_power(gamma, nu) for nu, m in table.items()), Fraction(0))
        dual = sum((m * gamma_power(gamma, [-x for x in nu]) for nu, m in table.items()),
                   Fraction(0))
        assert rep.character_eval(lam, gamma) == naive
        assert rep.dual_character_eval(lam, gamma) == dual
        # the Weyl denominator identity Σ_w ε(w) γ^{wρ−ρ} = Π_{α̌>0} (1 − γ^{−α̌}), the
        # left side in the values γ^{α̌_j} at the simple coroots
        product = math.prod(1 - gamma_power(gamma, [-x for x in alpha]) for alpha in coroots)
        simple = fresh_powers(gamma_power(gamma, alpha) for alpha in datum.simple_coroots)
        zero = datum.dot_orbit((0,) * n)
        assert power_value(zero, simple) == product
        assert (product == 0) == any(gamma_power(gamma, alpha) == 1 for alpha in coroots)
        assert product == 0 or k in (0, 2)


def _a8():
    return [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(8)] for i in range(8)]


def _e7():
    cartan = [[2 * (i == j) for j in range(7)] for i in range(7)]
    for i, j in [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 3)]:
        cartan[i][j] = cartan[j][i] = -1
    return cartan


@pytest.mark.parametrize("cartan, lam, order", [
    (_a8(), (1,) + (0,) * 7, 362_880),        # SL9, the standard representation
    (_e7(), (0,) * 6 + (1,), 2_903_040),      # E7, over LIMIT; the minuscule 56
], ids=["SL9", "E7"])
def test_a_small_lambda_on_a_large_weyl_group_takes_the_table_route(monkeypatch, cartan, lam, order):
    # |W| > dim V^λ: Weyl's formula would sum more terms than the weight table holds
    datum = build_root_datum(cartan_datum(cartan))

    def refuse(self, lam):
        raise AssertionError("the Weyl route ran where |W| exceeds dim V^λ")

    monkeypatch.setattr(RootDatum, "_dot_walk", refuse)
    rep = RepRing(datum)
    gamma = torus_point([2, 3, -5, Fraction(1, 2), 7, Fraction(-3, 4), 11, 13][:datum.rank], datum)
    table = rep.weight_table(lam)
    assert datum.weyl_order == order and len(table) == rep.weyl_dim(lam) < order
    assert set(table.values()) == {1}
    assert rep.character_eval(lam, gamma) == sum(gamma_power(gamma, nu) for nu in table)
    assert "weyl_elements" not in datum.__dict__ and "_weyl_tree" not in datum.__dict__


@pytest.mark.parametrize("spec, level", [("SL3", 12), ("G2", 30), (REDUCIBLE, 12), (A3, 14), (B3, 30)],
                         ids=["SL3", "G2", "A1xC2", "A3", "B3"])
def test_a_regular_lambda_takes_weyl_formula_without_a_weyl_dimension(monkeypatch, spec, level):
    # every ⟨λ, α_i⟩ > 0 puts |W| distinct weights on λ's orbit, so dim V^λ ≥ |W| unasked;
    # only a singular λ compares |W| with dim V^λ, and A3's (1, 0, 0) (dim 4 < 24) keeps the table
    calls = []
    weyl_dim = RepRing.weyl_dim

    def counted(self, lam):
        calls.append(tuple(lam))
        return weyl_dim(self, lam)

    monkeypatch.setattr(RepRing, "weyl_dim", counted)
    rep = RepRing(spec)
    datum = rep.datum
    gamma = torus_point([Fraction(-5, 13), Fraction(11, 7), Fraction(-3, 2)][:datum.lattice_rank], datum)
    assert all(gamma_power(gamma, alpha) != 1 for alpha, _ in datum.positive_coroots)
    lams = datum.dominant_box(level)
    traces = [rep.character_eval(lam, gamma) for lam in lams]
    singular = [lam for lam in lams if min(datum.pairing(lam, root) for root in datum.simple_roots) == 0]
    # a singular λ may ask twice: its route, then its weight table's budget
    assert set(calls) == set(singular) and len(singular) < len(lams)
    weyl_route = [lam for lam in lams[1:] if lam in rep._terms]  # the Weyl route keeps λ's terms at γ
    monkeypatch.undo()
    assert lams[0] == (0,) * datum.rank
    assert weyl_route == [lam for lam in lams[1:] if rep.weyl_dim(lam) >= datum.weyl_order]
    if spec is A3:
        assert (1, 0, 0) in lams and (1, 0, 0) not in weyl_route
    for lam, trace in zip(lams, traces):
        powers = fresh_powers(gamma)  # not the lists the ring keeps at γ
        assert trace == power_value(rep.weight_table(lam).items(), powers), lam


def test_weyl_denominator_is_computed_once_per_point(monkeypatch):
    import satake.rep_ring as rep_ring

    calls = []
    evaluate = rep_ring._power_sum
    zero = build_root_datum("SL3").dot_orbit((0, 0))  # the terms of the Weyl denominator

    def counted(terms, powers):
        # a sum in the γ_i is a power; one in the t_j = γ^{α̌_j} is the denominator, a numerator
        # or the step factors of one basis vector
        terms = tuple(terms)
        calls.append((len(terms), "γ" if powers is rep._powers else "denominator" if terms == zero else "t"))
        return evaluate(terms, powers)

    monkeypatch.setattr(rep_ring, "_power_sum", counted)
    rep = RepRing("SL3")
    gamma = torus_point([Fraction(-5, 13), Fraction(11, 7)], rep.datum)
    other = torus_point([2, Fraction(1, 3)], rep.datum)
    for point in (gamma, gamma, other, other, gamma):
        for lam in [(1, 1), (2, 1), (3, 0)]:
            rep.character_eval(lam, point)
    # one denominator whenever the point changes (three times), after the two t_j; at each of
    # the three visits (1, 1) and (3, 0) take a numerator with its γ^λ, and (2, 1) steps from
    # (1, 1) by the factors of e_1, built once; a trace repeated at the same point is the kept one
    visit = [(1, "γ"), (1, "γ"), (6, "denominator"), (6, "t"), (1, "γ"), (6, "t"), (6, "t"), (1, "γ")]
    assert calls == visit * 3
    assert [kind for _, kind in calls].count("denominator") == 3


_STEP_DATA = {**{name: name for name in PRESETS}, "A3": A3, "B3": B3, "A1xC2": REDUCIBLE, "SKEWED_SL3": SKEWED_SL3}
_STEP_BOUNDS = {"G2": 30, "B3": 30, "Sp4": 16, "GL2": 6, "GL3": 4, "A3": 16}
# three regular points, the second with negative coordinates only
_STEP_POINTS = ([Fraction(-5, 13), Fraction(11, 7), Fraction(-3, 2)], [-2, Fraction(-1, 3), -5],
                [Fraction(7, 4), 3, Fraction(2, 9)])


@pytest.mark.parametrize("name", sorted(_STEP_DATA))
def test_stepped_traces_are_those_of_fresh_rings(name):
    # second route: a fresh ring per trace has no neighbour to step from, so each trace there is
    # Weyl's formula summed afresh or the table; the kept ring steps wherever a neighbour λ − e_k
    # was traced at the point, in level order and in a seeded shuffle
    datum = build_root_datum(_STEP_DATA[name])
    lams = datum.dominant_box(_STEP_BOUNDS.get(name, 12))
    shuffled = random.Random(29).sample(lams, len(lams))
    for values in _STEP_POINTS:
        gamma = torus_point(values[:datum.lattice_rank], datum)
        assert all(gamma_power(gamma, alpha) != 1 for alpha, _ in datum.positive_coroots)
        fresh = {lam: (RepRing(datum).character_eval(lam, gamma), RepRing(datum).dual_character_eval(lam, gamma))
                 for lam in lams}
        for order in (lams, shuffled):
            rep = RepRing(datum)
            assert {lam: (rep.character_eval(lam, gamma), rep.dual_character_eval(lam, gamma))
                    for lam in order} == fresh
            assert rep._steps  # some trace stepped


@pytest.mark.parametrize("name", ["SL3", "G2", "GL3", "A1xC2", "B3"])
def test_a_lambda_with_a_traced_neighbour_sums_nothing(monkeypatch, name):
    import satake.rep_ring as rep_ring

    datum = build_root_datum(_STEP_DATA[name])
    rep = RepRing(datum)
    gamma = torus_point(_STEP_POINTS[0][:datum.lattice_rank], datum)
    lam, e = datum.two_rho_dual, tuple(int(k == 0) for k in range(datum.lattice_rank))  # 2ρ is regular
    lams = [datum.dominant(tuple(x + j * y for x, y in zip(lam, e))) for j in range(3)]  # e_1 keeps them so
    rep.character_eval(lams[0], gamma)
    rep.character_eval(lams[1], gamma)  # steps by e_1, building its factors once at γ
    assert set(rep._steps) == {0}

    def refuse(*args):
        raise AssertionError("a stepped trace walked W or summed powers")

    monkeypatch.setattr(RootDatum, "_dot_walk", refuse)
    monkeypatch.setattr(rep_ring, "_power_sum", refuse)
    trace = rep.character_eval(lams[2], gamma)
    monkeypatch.undo()
    assert trace == RepRing(datum).character_eval(lams[2], gamma)
    assert len(rep._terms[lams[2]][0]) == datum.weyl_order


@pytest.mark.parametrize("name", ["SL3", "G2", "A3", "GL3"])
def test_alternating_points_keep_no_term_past_its_point(name):
    # γ₁, γ₂, γ₁, each regular: a term or a step factor kept at γ₂ that answered at γ₁ would
    # step from the wrong point and give another trace
    datum = build_root_datum(_STEP_DATA[name])
    lams = datum.dominant_box(_STEP_BOUNDS.get(name, 12))
    first, second = (torus_point(values[:datum.lattice_rank], datum) for values in _STEP_POINTS[:2])
    rep = RepRing(datum)
    for gamma in (first, second, first):
        assert [rep.character_eval(lam, gamma) for lam in lams] == [
            RepRing(datum).character_eval(lam, gamma) for lam in lams]
        assert rep._steps and set(rep._terms) <= set(rep._traces)


def test_a_singular_point_keeps_no_term_and_takes_the_table():
    datum = build_root_datum("SL3")
    rep = RepRing(datum)
    singular = torus_point([3, Fraction(1, 3)], datum)  # γ^α̌ = 1 at α̌ = (1, 1)
    lams = datum.dominant_box(12)
    traces = [rep.character_eval(lam, singular) for lam in lams]
    assert rep._denominator[1][0] == 0 and rep._terms == {} and rep._steps == {}
    assert traces == [power_value(rep.weight_table(lam).items(), fresh_powers(singular)) for lam in lams]


# negative, unit-numerator and unit-denominator coordinates, mixed within each point
_POWER_POINTS = ([Fraction(-3, 5), Fraction(1, 4), 7], [5, Fraction(-1, 2), Fraction(-7, 3)],
                 [Fraction(1, 3), -2, Fraction(11, 13)])


@pytest.mark.parametrize("spec", sorted(PRESETS) + [REDUCIBLE, A3, B3],
                         ids=sorted(PRESETS) + ["A1xC2", "A3", "B3"])
def test_power_sums_are_gamma_power_summed_weight_by_weight(spec):
    # second route: gamma_power one weight at a time, summed as Fractions, against the integer
    # sums over kept power lists: the weight table and γ^λ in the γ_i, the signed shifts in the
    # t_j = γ^{α̌_j}; one set of lists per point serves every λ, as in the ring
    rep = RepRing(spec)
    datum = rep.datum
    lams = box_scan(datum, 22, 2)
    regular = [lam for lam in lams if min(datum._simple_pairings(lam)) > 0]
    assert regular and len(regular) < len(lams)  # regular and singular λ
    for values in _POWER_POINTS:
        gamma = torus_point(values[:datum.lattice_rank], datum)
        coroots = [gamma_power(gamma, alpha) for alpha in datum.simple_coroots]
        kept, t = fresh_powers(gamma), fresh_powers(coroots)
        for lam in lams:
            table = rep.weight_table(lam).items()
            naive = sum((m * gamma_power(gamma, nu) for nu, m in table), Fraction(0))
            assert power_value(table, kept) == naive, lam
            assert power_value(((lam, 1),), kept) == gamma_power(gamma, lam), lam
            shifts = datum.dot_orbit(lam)
            weyl = sum((sign * gamma_power(coroots, shift) for shift, sign in shifts), Fraction(0))
            assert power_value(shifts, t) == weyl, lam
            assert rep.character_eval(lam, gamma) == naive, lam


@pytest.mark.parametrize("spec", ["SL3", "G2", B3], ids=["SL3", "G2", "B3"])
def test_a_second_pass_at_the_same_point_extends_no_power_list(spec):
    rep = RepRing(spec)
    datum = rep.datum
    gamma = torus_point([Fraction(-5, 13), Fraction(11, 7), Fraction(-3, 2)][:datum.lattice_rank], datum)
    lams = datum.dominant_box(14)

    def traces():
        return [(rep.character_eval(lam, gamma), rep.dual_character_eval(lam, gamma)) for lam in lams]

    def kept():
        return [powers for pair in rep._powers + rep._denominator[0] for powers in pair]

    first, lists = traces(), kept()
    lengths = [len(powers) for powers in lists]
    assert min(lengths) > 2  # every list grew past [1, x]
    rep._traces.clear()  # the traces go and the powers stay, so every trace is summed again
    assert traces() == first
    assert all(map(operator.is_, kept(), lists)) and [len(powers) for powers in lists] == lengths


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_kept_traces_are_those_of_a_fresh_ring_when_the_point_alternates(name):
    # γ, γ′, γ with γ first regular and then singular: a trace kept at one point must
    # never answer at the next, where the weight-table route and the Weyl route differ
    datum = build_root_datum(name)
    n = datum.lattice_rank
    regular = torus_point([Fraction(-5, 13), Fraction(11, 7), Fraction(-3, 2)][:n], datum)
    singular = torus_point(_one_singular_coroot(name), datum)
    coroots = [alpha for alpha, _ in datum.positive_coroots]
    assert all(gamma_power(regular, alpha) != 1 for alpha in coroots)
    lams = box_scan(datum, 6, 3)
    for first, second in [(regular, singular), (singular, regular)]:
        rep = RepRing(name)
        for point in (first, second, first):
            fresh = RepRing(name)
            for lam in lams:
                assert rep.character_eval(lam, point) == fresh.character_eval(lam, point)
                assert rep.dual_character_eval(lam, point) == fresh.dual_character_eval(lam, point)
            assert set(rep._traces) == set(fresh._traces)
            # the powers and the denominator kept at the last point are gone with its traces
            assert rep._powers == fresh._powers and rep._denominator == fresh._denominator


def test_gamma_power_is_exact_for_integer_coordinates():
    assert gamma_power((2, -3), (-2, 3)) == Fraction(-27, 4)
    assert gamma_power((Fraction(-2, 5),), (-1,)) == Fraction(-5, 2)


def test_character_eval_reads_the_memoized_weight_table(monkeypatch):
    rep = RepRing("SL3")
    gamma = torus_point([Fraction(-5, 13), Fraction(11, 7)], rep.datum)
    lams = [(1, 0), (2, 1), (4, 0)]
    before = [(rep.character_eval(lam, gamma), rep.dual_character_eval(lam, gamma)) for lam in lams]

    singular = torus_point([3, Fraction(1, 3)], rep.datum)  # γ^α̌ = 1 at α̌ = (1, 1)
    before += [(rep.character_eval(lam, singular), rep.dual_character_eval(lam, singular))
               for lam in lams]

    def refuse(self):
        raise AssertionError("character_eval refilled a weight table")

    monkeypatch.setattr(RootDatum, "_w0_word", property(refuse))
    after = [(rep.character_eval(lam, point), rep.dual_character_eval(lam, point))
             for point in (gamma, singular) for lam in lams]
    assert after == before


def test_torus_point_validation():
    datum = build_root_datum("SL3")
    with pytest.raises(ValueError):
        torus_point([1], datum)
    with pytest.raises(ValueError):
        torus_point([1, 0], datum)
    assert gamma_power(torus_point([2, 3], datum), (1, -1)) == Fraction(2, 3)


# a wrong length, a zero coordinate, and float or bool coordinates, one of them equal to (2, 3)
_BAD_POINTS = [(2,), (2, 3, 5), (0, 2), (Fraction(1, 2), 0), (0.5, 2), (2.0, 3), (True, 3), (2, False)]
_TRACE_DOORS = {
    "character_eval": lambda algebra, g: algebra.rep.character_eval((1, 0), g),
    "dual_character_eval": lambda algebra, g: algebra.rep.dual_character_eval((1, 0), g),
    "whittaker_value": lambda algebra, g: WhittakerModule(algebra).whittaker_value(g, (1, 1)),
    "whittaker_value_off_the_cone": lambda algebra, g: WhittakerModule(algebra).whittaker_value(g, (-1, 0)),
    "eigen_residual": lambda algebra, g: WhittakerModule(algebra).eigen_residual(g, (1, 0), 2),
    "eval_gamma": lambda algebra, g: algebra.eval_gamma(algebra.monomial(A_BASIS, (1, 1)), g),
    "eval_gamma_of_zero": lambda algebra, g: algebra.eval_gamma(BasisElement(A_BASIS, {}), g),
}


@pytest.mark.parametrize("door", sorted(_TRACE_DOORS))
def test_every_trace_door_refuses_a_bad_torus_point(door):
    algebra = HeckeAlgebra("SL3")
    call, rep = _TRACE_DOORS[door], algebra.rep
    call(algebra, (2, 3))  # so (2.0, 3), equal to the kept point as a tuple, is refused at a warm ring
    kept = (rep._gamma, dict(rep._traces))
    for gamma in _BAD_POINTS:
        with pytest.raises(ValueError, match="torus point"):
            call(algebra, gamma)
        assert (rep._gamma, rep._traces) == kept, gamma  # a refused point leaves the kept one


def test_a_point_given_as_a_list_keeps_its_traces(monkeypatch):
    import satake.rep_ring as rep_ring

    rep = RepRing("SL3")
    lams = rep.datum.dominant_box(8)
    first = [rep.character_eval(lam, [2, Fraction(1, 3)]) for lam in lams]
    kept = rep._traces
    assert len(kept) == len(lams)

    def refuse(terms, powers):
        raise AssertionError("a trace at the kept point was summed again")

    monkeypatch.setattr(rep_ring, "_power_sum", refuse)
    for point in ([2, Fraction(1, 3)], (Fraction(2), Fraction(1, 3))):
        assert [rep.character_eval(lam, point) for lam in lams] == first
        assert rep._traces is kept


# -- the q-side -------------------------------------------------------------------------


def test_q_kostant_base_cases():
    rep = RepRing("SL3")
    assert rep.q_kostant_partition((0, 0)) == ONE
    for alpha in rep.datum.simple_coroots:
        assert rep.q_kostant_partition(alpha) == LaurentPoly({2: 1})
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
    orbit = set()
    for alpha in datum.simple_coroots:
        orbit.update(_signed_orbit(datum.simple_roots, datum.simple_coroots, alpha))
    cone = {_combination(datum, c) for c in itertools.product(range(4), repeat=datum.rank)}
    return sorted(v for v in orbit if v in cone)


def _kostant_multiplicity(datum, lam, nu):
    """dim V^λ(ν) by Kostant's formula Σ_w ε(w) P(w(λ+ρ) − (ν+ρ)), P the plain partition count.

    The test's own route: the positive coroots and the signed orbit of 2(λ+ρ) come from the
    simple reflections, and P counts in integers, so it shares no code with the q-Kostant table
    or the Lusztig q-analogs.  ⟨x, 2ρ̌⟩ = 2·height(x), so a β below height 0 has no partition.
    """
    positive = _positive_coroots_by_orbit(datum)
    two_rho = tuple(map(sum, zip(*positive)))

    @functools.cache
    def partitions(beta, i):
        """Ways to write β as a sum of the positive coroots from index i on."""
        if datum.pairing_2rho(beta) < 0:
            return 0
        if i == len(positive):
            return int(not any(beta))
        rest = tuple(b - a for b, a in zip(beta, positive[i]))
        return partitions(beta, i + 1) + partitions(rest, i)

    start = tuple(2 * x + r for x, r in zip(lam, two_rho))
    target = tuple(2 * x + r for x, r in zip(nu, two_rho))
    total = 0
    for x, sign in _signed_orbit(datum.simple_roots, datum.simple_coroots, start).items():
        doubled = tuple(a - b for a, b in zip(x, target))
        if not any(d % 2 for d in doubled):
            total += sign * partitions(tuple(d // 2 for d in doubled), 0)
    return total


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
        assert RepRing("PGL2").q_kostant_partition((4000,)) == LaurentPoly({4000: 1})
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


def test_q_kostant_table_refuses_an_oversized_box_before_filling():
    rep = RepRing("SL3")
    # 3α̌_1 + 3α̌_2 with k copies of the highest coroot α̌_1 + α̌_2: 6 − k parts, k = 0…3
    assert rep.q_kostant_partition((3, 3)) == LaurentPoly({6: 1, 8: 1, 10: 1, 12: 1})
    state = (rep._box, rep._strides, rep._width, list(rep._table))
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"box \(2000, 2000\) would hold 4004001 points"):
        rep.q_kostant_partition((2000, 2000))
    assert time.perf_counter() - start < 0.1
    assert (rep._box, rep._strides, rep._width, rep._table) == state
    # the same refusal reaches the q-analogs, which ask the table for λ − μ
    with pytest.raises(ValueError, match="q-Kostant table box"):
        rep.lusztig_q_analog((2000, 2000), (0, 0))
    assert (rep._box, rep._strides, rep._width, rep._table) == state


def _q_side(rep, queries):
    """Every q-Kostant value and q-analog of the queries (λ, μ), asked of rep in their order."""
    return [(rep.q_kostant_partition(tuple(l - m for l, m in zip(lam, mu))),
             rep.lusztig_q_analog(lam, mu)) for lam, mu in queries]


@pytest.mark.parametrize("name", ["SL3", "Sp4", "G2", "GL3"])
def test_packed_table_values_do_not_depend_on_the_order_of_queries(name):
    datum = build_root_datum(name)
    lams = box_scan(datum, 14, 4)
    queries = [(lam, mu) for lam in lams for _, mu in dominant_weights_below(RepRing(name), lam)]
    cold = [_q_side(RepRing(name), [query])[0] for query in queries]
    assert _q_side(RepRing(name), queries) == cold
    assert _q_side(RepRing(name), queries[::-1]) == cold[::-1]
    # one query at the coordinatewise maximum of every λ − μ first covers all the others
    top = tuple(map(max, *(datum.coroot_coordinates(tuple(map(operator.sub, lam, mu)))
                           for lam, mu in queries)))
    rep = RepRing(name)
    rep.q_kostant_partition(_combination(datum, top))
    box = rep._box
    assert _q_side(rep, queries) == cold
    assert rep._box == box


def test_packed_table_decodes_after_a_refill_at_a_wider_k():
    rep = RepRing("SL3")
    small = rep.q_kostant_partition((2, 2))  # partitions of 2α̌_1 + 2α̌_2 into k parts, k = 2…4
    assert small == LaurentPoly({4: 1, 6: 1, 8: 1})
    width = rep._width
    assert rep.lusztig_q_analog((40, 40), (0, 0)) == RepRing("SL3").lusztig_q_analog((40, 40), (0, 0))
    assert rep._width > width
    assert rep.q_kostant_partition((2, 2)) == small
    # P_q(nα̌_1 + nα̌_2) = q^n + … + q^{2n}: n + 1 partitions, one coefficient 1 each
    assert rep.q_kostant_partition((40, 40)) == LaurentPoly({2 * k: 1 for k in range(40, 81)})


def test_packed_table_growth_never_refuses_a_row_within_the_limit(monkeypatch):
    import satake.root_datum as root_datum

    algebra = HeckeAlgebra("SL3")
    datum = algebra.datum
    lams = datum.dominant_box(30)  # walked under the real LIMIT: the walk scans 256 candidates
    monkeypatch.setattr(root_datum, "LIMIT", 60)
    refused = admitted = 0
    for lam in lams:
        own = math.prod(b + 1 for b in datum.coroot_bound(lam))
        if own > 60:
            with pytest.raises(ValueError, match="q-Kostant table box"):
                algebra.satake_row(lam)
            refused += 1
            continue
        assert algebra.satake_row(lam) == HeckeAlgebra("SL3").satake_row(lam), lam
        assert math.prod(b + 1 for b in algebra.rep._box) <= 60
        admitted += 1
    assert refused and admitted


def test_a_tampered_entry_that_makes_a_q_analog_negative_raises():
    rep = RepRing("SL3")
    # at λ = (0, 3), μ = 0 the coroot coordinates of λ − μ are (1, 2), and the one other
    # term is −P_q(0, 2) = −q²: P_q(1, 2) − P_q(0, 2) = (q² + q³) − q² = q³
    assert rep.lusztig_q_analog((0, 3), (0, 0)) == LaurentPoly({6: 1})
    point = 2 * rep._strides[1]
    rep._table[point] += 2 << (3 * rep._width)  # P_q(0, 2) = q² + 2q³, still nonnegative
    assert rep.q_kostant_partition(_combination(rep.datum, (0, 2))) == LaurentPoly({4: 1, 6: 2})
    with pytest.raises(InvariantError, match="negative coefficient at q\\^3"):
        rep.lusztig_q_analog((0, 3), (0, 0))
    rep._table[point] -= 3 << (3 * rep._width)  # P_q(0, 2) = q² − q³
    with pytest.raises(InvariantError, match="negative"):
        rep.q_kostant_partition(_combination(rep.datum, (0, 2)))


@pytest.mark.parametrize("name", ["SL3", "Sp4", "G2", "GL3"])
def test_q_analog_of_a_walked_row_matches_the_validated_route(name):
    rep = RepRing(name)
    datum = rep.datum
    box = box_scan(datum, 20, 3)
    for lam in box:
        before = {mu: rep.lusztig_q_analog(list(lam), list(mu)) for mu in box}  # no walk yet
        walked = [mu for _, mu in dominant_weights_below(rep, lam)]
        for mu, value in before.items():
            assert rep.lusztig_q_analog(lam, mu) == value, (lam, mu)
            assert rep.lusztig_q_analog(list(lam), list(mu)) == value, (lam, mu)
            # a dominant μ off the walk is ≰ λ or off λ's coset: every term is off the cone
            assert (mu in walked) == bool(value), (lam, mu)


def test_q_analog_refuses_bad_weights_before_and_after_the_walk():
    rep = RepRing("SL3")
    lam = (2, 2)
    for walked in (False, True):
        if walked:
            dominant_weights_below(rep, lam)
        for bad_lam, bad_mu in [((2, 2), (3, -1)), ((2, 2), [3, -1]), ((3, -1), (0, 0)),
                                ([3, -1], (0, 0)), ((2, 2), (0, 0, 0)), ((2, 2, 0), (0, 0)),
                                ((2, 2), (0,)), ((2, 2), 0)]:
            with pytest.raises(ValueError):
                rep.lusztig_q_analog(bad_lam, bad_mu)
        assert rep.lusztig_q_analog(lam, (4, 1)) == LaurentPoly()  # dominant, λ − μ = −α̌_1
        assert rep.lusztig_q_analog(lam, (1, 0)) == LaurentPoly()  # off λ's coset
        assert rep.lusztig_q_analog(lam, [0, 0]) == LaurentPoly({4: 1, 6: 1, 8: 1})


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_a_warm_walk_refuses_a_float_or_bool_coordinate(name):
    # 2.0 and True equal and hash as 2 and 1, so a walked row's dicts would find them: the warm
    # ring refuses them as RootDatum.coweight, and a cold ring, do
    datum = build_root_datum(name)
    lam, mu = next((lam, mu) for lam in reversed(datum.dominant_box(6))
                   for _, mu in dominant_weights_below(RepRing(name), lam)
                   if mu != lam and set(mu) <= {0, 1})
    warm = RepRing(name)
    dominant_weights_below(warm, lam)
    assert warm.lusztig_q_analog(lam, mu)
    for bad_lam, bad_mu in [((float(lam[0]),) + lam[1:], mu), (lam, (float(mu[0]),) + mu[1:]),
                            (lam, tuple(map(bool, mu)))]:
        for rep in (warm, RepRing(name)):
            with pytest.raises(ValueError, match="not an integer"):
                rep.lusztig_q_analog(bad_lam, bad_mu)
    assert warm.lusztig_q_analog(lam, mu) == RepRing(name).lusztig_q_analog(lam, mu)


def test_a_warm_walk_refuses_a_float_under_python_O():
    # the refusal is a raised exception, not an assert, so python -O keeps it
    script = "\n".join([
        "import sys",
        "from satake.rep_ring import RepRing",
        "rep = RepRing('SL3')",
        "rep._walk((2, 2))",
        "print('optimize', sys.flags.optimize)",
        "for lam, mu in [((2.0, 2), (0, 0)), ((2, 2), (0.0, 0)), ((2, 2), (True, True))]:",
        "    try:",
        "        print('returned', rep.lusztig_q_analog(lam, mu))",
        "    except ValueError:",
        "        print('refused')",
    ])
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == ["optimize 1", "refused", "refused", "refused", ""]


def _decode_from_q0(packed, width):
    """The packed q-polynomial decoded one digit at a time from q⁰: the plain reference."""
    mask, guard, coeffs, exp = (1 << width) - 1, 1 << (width - 1), {}, 0
    while packed:
        digit = packed & mask
        if digit & guard:
            raise InvariantError("a q-polynomial has a negative coefficient at q^%d" % (exp // 2))
        if digit:
            coeffs[exp] = digit
        packed >>= width
        exp += 2
    return LaurentPoly(coeffs)


def _q_analog_by_coordinates(rep, lam, mu):
    """λ's q-analog at a walked μ from the ring's table, each term kept by a coordinate-wise
    test key ≥ need and the sum decoded from q⁰: the reference for the packed cone test."""
    key, strides = rep._walks[lam][mu], rep._strides
    base = sum(map(operator.mul, key, strides))
    total = rep._table[base]
    for shift, sign in rep.datum.dot_orbit(lam)[1:]:
        if all(k >= -s for k, s in zip(key, shift)):
            total += sign * rep._table[base + sum(map(operator.mul, shift, strides))]
    return _decode_from_q0(total, rep._width)


@pytest.mark.parametrize("name", ["SL3", "Sp4", "G2", "GL3"])
def test_the_packed_cone_test_is_the_coordinate_test_on_every_point_of_the_box(name):
    rep = RepRing(name)
    lam = box_scan(rep.datum, 12, 4)[-1]
    walk = [mu for _, mu in dominant_weights_below(rep, lam)]
    values = [rep.lusztig_q_analog(lam, mu) for mu in walk]
    assert rep._walks[lam][walk[-1]] == rep._box  # the deepest key is the box's corner
    needs = [tuple(-c for c in shift) for shift, _ in rep.datum.dot_orbit(lam)[1:]]
    assert max(map(max, needs)) > max(rep._box)  # the widest need, not the box, sets the fields
    for refill in (False, True):
        if refill:  # a refill to a box of 31 = 2⁵ − 1 per coordinate, wider than every need
            rep.q_kostant_partition(_combination(rep.datum, (31, 31)))
            assert rep._box == (31, 31) and not rep._offsets
            assert [rep.lusztig_q_analog(lam, mu) for mu in walk] == values
            assert rep._offsets[lam][0] == [1, 1 << 6]  # five value bits and the guard
        assert [_q_analog_by_coordinates(rep, lam, mu) for mu in walk] == values
        fields, guard, terms = rep._offsets[lam]
        assert [need for need, _, _ in terms] == [sum(map(operator.mul, need, fields))
                                                  for need in needs]
        for key in itertools.product(*(range(b + 1) for b in rep._box)):
            guarded = sum(map(operator.mul, key, fields)) | guard
            for need, (packed, _, _) in zip(needs, terms):
                assert ((guarded - packed) & guard == guard) == all(map(operator.ge, key, need))


def test_the_decode_from_the_lowest_digit_is_the_decode_from_q0():
    rep = RepRing("G2")
    rep.q_kostant_partition(_combination(rep.datum, (6, 4)))
    width = rep._width
    entries = set(rep._table)
    # every entry but P_q(0) = 1 has its lowest term at q^m, m ≥ 1 the fewest parts
    assert min(_decode_from_q0(x, width).exponents()[0] for x in entries - {1}) >= 2
    for x in entries | {0, 1 << (7 * width), (3 << (9 * width)) + (2 << (2 * width))}:
        assert rep._decode(x) == _decode_from_q0(x, width)
    for x in [-(1 << (3 * width)), (1 << (2 * width)) - (1 << (5 * width)), -1]:
        with pytest.raises(InvariantError) as lowest:
            rep._decode(x)
        with pytest.raises(InvariantError) as plain:
            _decode_from_q0(x, width)
        assert str(lowest.value) == str(plain.value)


def test_q_analog_of_a_walked_row_needs_no_validation_and_one_decode(monkeypatch):
    rep = RepRing("G2")
    lam = (6, 5)
    row = [mu for _, mu in dominant_weights_below(rep, lam)]
    rep.lusztig_q_analog(lam, row[-1])  # the one growth of the table for λ
    counts = dict.fromkeys(["dominant", "coroot_coordinates", "_decode", "q_kostant_partition",
                            "lusztig_q_analog"], 0)

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            counts[name] += 1
            return original(*args)
        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in [(RootDatum, "dominant"), (RootDatum, "coroot_coordinates"),
                        (RepRing, "_decode"), (RepRing, "q_kostant_partition"),
                        (RepRing, "lusztig_q_analog")]:
        counting(owner, name)
    values = [rep.lusztig_q_analog(lam, mu) for mu in row]
    assert counts == {"dominant": 0, "coroot_coordinates": 0, "_decode": len(row),
                      "q_kostant_partition": 0, "lusztig_q_analog": len(row)}
    # the Satake row reads the same walk and offsets: one dominant check, the row budget's, the
    # diagonal through the door, and one decode for each other entry
    counts.update(dict.fromkeys(counts, 0))
    entries = rep._satake_entries(lam)
    assert counts == {"dominant": 1, "coroot_coordinates": 0, "_decode": len(row),
                      "q_kostant_partition": 0, "lusztig_q_analog": 1}
    monkeypatch.undo()
    cold = RepRing("G2")
    assert values == [cold.lusztig_q_analog(list(lam), list(mu)) for mu in row]
    assert list(entries) == row


@pytest.mark.parametrize("name", ["SL3", "Sp4", "G2"])
def test_q_analogs_of_rows_in_descending_order_match_a_cold_ring(name):
    rep = RepRing(name)
    datum = rep.datum
    lams = sorted(datum.dominant_box(24), key=lambda lam: (-datum.pairing_2rho(lam), lam))
    queries = [(lam, mu) for lam in lams for _, mu in dominant_weights_below(rep, lam)]
    cold = [RepRing(name).lusztig_q_analog(lam, mu) for lam, mu in queries]
    assert [rep.lusztig_q_analog(lam, mu) for lam, mu in queries] == cold
    # a refill over a wider box changes the strides, so each λ's flat offsets are rebuilt
    strides = list(rep._strides)
    rep.q_kostant_partition(tuple(3 * x for x in lams[0]))
    assert rep._strides != strides and not rep._offsets
    assert [rep.lusztig_q_analog(lam, mu) for lam, mu in queries] == cold


def test_q_analogs_regrow_a_table_that_a_narrow_refill_left_short(monkeypatch):
    import satake.root_datum as root_datum

    # the rows of (0, 11) and (11, 0) read the boxes (3, 7) and (7, 3), 32 points each; under
    # a limit of 60 the table cannot hold (7, 7), so each row refills it over its own box only
    # and the next row must grow it again
    monkeypatch.setattr(root_datum, "LIMIT", 60)
    rep = RepRing("SL3")
    for lam in [(0, 11), (11, 0)] * 2:
        row = [mu for _, mu in dominant_weights_below(rep, lam)]
        assert [rep.lusztig_q_analog(lam, mu) for mu in row] == [
            RepRing("SL3").lusztig_q_analog(lam, mu) for mu in row], lam
        assert rep._box == rep.datum.coroot_bound(lam)


def test_a_first_q_analog_settles_the_table_cover_of_its_row_in_one_growth():
    # the warm box (1, 1) covers λ − μ = 0 for the shallow μ = λ, but not λ − (0, 0) = (4, 4)
    rep = RepRing("SL3")
    rep.q_kostant_partition((1, 1))
    assert rep._box == (1, 1)
    lam, tables = (4, 4), [rep._table]
    walk = dominant_weights_below(rep, lam)
    assert walk[0] == (0, lam) and walk[-1] == (8, (0, 0))
    for _, mu in walk:
        assert rep.lusztig_q_analog(lam, mu) == RepRing("SL3").lusztig_q_analog(lam, mu), mu
        assert all(map(operator.le, (4, 4), rep._box))
        if rep._table is not tables[-1]:
            tables.append(rep._table)
    assert len(tables) == 2  # the warm table and the one growth over λ − (0, 0)


@pytest.mark.parametrize("spec", sorted(PRESETS) + [A3, B3], ids=sorted(PRESETS) + ["A3", "B3"])
def test_the_corner_of_a_table_at_q_1_is_its_largest_entry(spec):
    coroots = build_root_datum(spec).positive_coroots
    box = tuple(range(3, 3 + len(coroots[0][1])))
    strides = [math.prod(x + 1 for x in box[j + 1:]) for j in range(len(box))]
    table = _coin_change(box, strides, coroots, 0)
    assert table[-1] == max(table)


def test_a_walk_whose_deepest_weight_is_not_lowest_raises():
    rep = RepRing("SL3")
    lam = (2, 2)
    walk = dominant_weights_below(rep, lam)
    assert walk[-1] == (4, (0, 0))
    # move μ = (3, 0), λ − μ = (0, 1) in coroot coordinates, to the end: (0, 1) bounds neither
    # the (1, 1) of μ = (1, 1) nor the (2, 2) of μ = (0, 0)
    rep._walks[lam] = dict(sorted(rep._walks[lam].items(), key=lambda item: item[0] == (3, 0)))
    with pytest.raises(InvariantError, match="does not bound the walk"):
        rep.lusztig_q_analog(lam, (1, 1))


def test_a_q_analog_is_refused_as_its_row_is_before_the_walk(monkeypatch):
    def no_walk(self, lam):
        raise AssertionError("the walk started before the refusal")

    monkeypatch.setattr(RepRing, "_walk", no_walk)
    # SL3 at (1001, 1001) with μ = λ − α̌_1: the row's box is (1001, 1001), 1002² points, though
    # λ − μ alone needs a box of 2 × 1; then E7, whose Weyl group is checked first
    for datum, lam, mu, message in [
            ("SL3", (1001, 1001), (999, 1002), r"box \(1001, 1001\) would hold 1004004 points"),
            (build_root_datum(cartan_datum(_e7())), (0,) * 6 + (1,), (0,) * 7, "Weyl group has 2903040")]:
        rep = RepRing(datum)
        start = time.perf_counter()
        with pytest.raises(TooLarge, match=message):
            rep.lusztig_q_analog(lam, mu)
        assert time.perf_counter() - start < 0.1
        assert not rep._walks and not rep._table


def test_a_list_lambda_builds_its_walk_once(monkeypatch):
    cold = RepRing("Sp4")
    expected = {mu: cold.lusztig_q_analog((3, 2), mu) for _, mu in dominant_weights_below(cold, (3, 2))}
    rep, walks = RepRing("Sp4"), []
    original = RepRing._walk

    def recording(self, lam):
        if lam not in self._walks:  # a build, not a read of the memo
            walks.append(lam)
        return original(self, lam)

    monkeypatch.setattr(RepRing, "_walk", recording)
    for mu, value in expected.items():
        assert rep.lusztig_q_analog([3, 2], list(mu)) == value
        assert rep.lusztig_q_analog((3, 2), mu) == value
    assert walks == [(3, 2)] and list(rep._walks) == [(3, 2)]
    entries = rep._satake_entries((3, 2))  # the Satake row reads the same walk
    algebra = HeckeAlgebra("Sp4")
    assert algebra.satake_row([3, 2]) == entries == algebra.satake_row((3, 2))
    assert walks == [(3, 2)] * 2  # one more, by the algebra's own ring


def test_a_q_analog_solves_for_no_coroot_coordinates(monkeypatch):
    rep = RepRing("GL3")
    lam = (3, 1, -2)
    rep.q_kostant_partition((5, 0, -5))  # a table that covers every λ − μ below
    expected = {mu: RepRing("GL3").lusztig_q_analog(lam, mu) for mu in box_scan(rep.datum, 10, 3)}

    def unreachable(self, vec):
        raise AssertionError("a q-analog solved for coroot coordinates")

    monkeypatch.setattr(RootDatum, "coroot_coordinates", unreachable)
    # lists and tuples, μ on the walk, μ ≰ λ and μ off λ's coset
    for mu, value in expected.items():
        assert rep.lusztig_q_analog(list(lam), list(mu)) == value, mu
        assert rep.lusztig_q_analog(lam, mu) == value, mu
    assert {mu for mu, value in expected.items() if value} == set(rep._walks[lam])
    assert any(not value for value in expected.values())


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_coroot_bound_covers_every_step_of_a_row(name):
    # the CLI refuses a satake row whose box ⌊C⁻¹·p(λ)⌋ is oversized, so it must hold
    # the coroot coordinates of every λ − μ the row reads
    rep = RepRing(name)
    datum = rep.datum
    for lam in datum.dominant_box(24):
        bound = datum.coroot_bound(lam)
        for _, mu in dominant_weights_below(rep, lam):
            coords = datum.coroot_coordinates(tuple(l - m for l, m in zip(lam, mu)))
            assert all(c <= b for c, b in zip(coords, bound)), (lam, mu, bound)


def test_kostant_multiplicity_is_zero_off_the_coroot_lattice_coset():
    cases = [
        # PGL2: the coroot is 2, so an odd λ − ν is off the lattice; in SL2 the coroot is 1
        ("PGL2", (3,), (2,), 0), ("PGL2", (3,), (1,), 1), ("SL2", (3,), (2,), 1),
        # GL(n): the coroots span the coordinate-sum-0 vectors, so a central step is off it
        ("GL2", (2, 0), (1, 1), 1), ("GL2", (2, 0), (2, 1), 0), ("GL2", (2, 0), (1, 0), 0),
        ("GL3", (1, 0, -1), (0, 0, 0), 2), ("GL3", (1, 0, -1), (1, 1, 1), 0),
        ("GL3", (1, 0, -1), (0, 0, 1), 0),
    ]
    for name, lam, nu, mult in cases:
        rep = RepRing(name)
        assert _kostant_multiplicity(rep.datum, lam, nu) == mult, (name, nu)
        if rep.datum.is_dominant(nu):
            assert rep.lusztig_q_analog(lam, nu).eval_q(1) == mult, (name, nu)
    gl3 = RepRing("GL3")
    assert gl3.lusztig_q_analog((2, 1, 0), (1, 1, 1)) == LaurentPoly({2: 1, 4: 1})
    assert gl3.lusztig_q_analog((2, 1, 0), (2, 1, 1)) == LaurentPoly()


def test_kostant_multiplicity_is_zero_unless_below():
    # λ − ν = −(coroot step): on the coroot lattice, with a negative coordinate
    for name, lam in [("SL3", (2, 1)), ("Sp4", (1, 2)), ("G2", (2, 1))]:
        rep = RepRing(name)
        datum = rep.datum
        for coeffs in [(1, 0), (0, 1), (1, -1), (-3, 1), (-1, 4)]:
            nu = tuple(x + s for x, s in zip(lam, _combination(datum, coeffs)))
            assert not datum.dominance_leq(nu, lam)
            assert _kostant_multiplicity(datum, lam, nu) == 0, (name, nu)
            if datum.is_dominant(nu):
                assert rep.lusztig_q_analog(lam, nu) == LaurentPoly()


# small highest weights per preset, each with non-dominant weights in its full table
_KOSTANT_CASES = {"PGL2": [(4,), (5,)], "SL2": [(3,)], "GL2": [(3, -1), (2, 2)],
                  "SL3": [(2, 1), (3, 0)], "GL3": [(2, 0, -1), (1, 1, 0)],
                  "Sp4": [(1, 2), (2, 1)], "G2": [(1, 1), (2, 0)]}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_kostant_multiplicity_matches_the_full_table_off_the_dominant_chamber(name):
    rep = RepRing(name)
    checked = 0
    for lam in _KOSTANT_CASES[name]:
        for nu, mult in rep.weight_table(lam).items():
            if not rep.datum.is_dominant(nu):
                assert _kostant_multiplicity(rep.datum, lam, nu) == mult, (lam, nu)
                checked += 1
    assert checked


def _lusztig_by_weyl_matrices(rep, lam, mu):
    """Σ_w (−1)^ℓ(w) P_q(w(λ+ρ) − (μ+ρ)), one q_kostant_partition call per Weyl element."""
    datum = rep.datum
    two_rho = [sum(col) for col in zip(*(v for v, _ in datum.positive_coroots))]
    shifted = [2 * x + r for x, r in zip(lam, two_rho)]
    target = [2 * x + r for x, r in zip(mu, two_rho)]
    total = LaurentPoly()
    for matrix, length in weyl_group(datum):
        doubled = [sum(m * x for m, x in zip(row, shifted)) - t for row, t in zip(matrix, target)]
        if all(x % 2 == 0 for x in doubled):
            part = rep.q_kostant_partition(tuple(x // 2 for x in doubled))
            total = total - part if length % 2 else total + part
    return total


@pytest.mark.parametrize("name", ["SL3", "Sp4", "G2"])
def test_lusztig_matches_the_plain_weyl_matrix_sum(name):
    rep, reference = RepRing(name), RepRing(name)
    for lam in rep.datum.dominant_box(24):
        for _, mu in dominant_weights_below(rep, lam):
            assert rep.lusztig_q_analog(lam, mu) == _lusztig_by_weyl_matrices(reference, lam, mu)


def test_lusztig_diagonal_is_one():
    for name in ["PGL2", "SL3", "Sp4"]:
        rep = RepRing(name)
        for lam in rep.datum.dominant_box(5):
            assert rep.lusztig_q_analog(lam, lam) == ONE


def test_lusztig_rank1_closed_form():
    rep = RepRing("PGL2")
    for n in range(0, 7):
        for m in range(n % 2, n + 1, 2):
            expected = LaurentPoly({n - m: 1})  # q^{(n−m)/2}
            assert rep.lusztig_q_analog((n,), (m,)) == expected


def test_lusztig_at_one_is_weight_multiplicity():
    for name, bound in [("PGL2", 8), ("SL3", 5), ("Sp4", 6)]:
        rep = RepRing(name)
        box = rep.datum.dominant_box(bound)
        for lam in box:
            for _, mu in dominant_weights_below(rep, lam):
                analog = rep.lusztig_q_analog(lam, mu)
                assert analog.eval_q(1) == rep.weight_table(lam).get(mu, 0)
                # a polynomial in q with nonnegative coefficients
                assert all(e >= 0 and e % 2 == 0 and c > 0 for e, c in analog.items())


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
    assert RepRing("Sp4").lusztig_q_analog((0, 1), (0, 0)) == LaurentPoly({4: 1})
    assert RepRing("G2").lusztig_q_analog((1, 0), (0, 0)) == LaurentPoly({6: 1})


def test_multiplicity_table_is_not_aliased():
    rep = RepRing("PGL2")
    table = rep.dominant_multiplicity_table((4,))
    table[(0,)] = 99
    assert rep.weight_table((4,)).get((0,), 0) == 1


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
