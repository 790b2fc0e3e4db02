"""Basis-change covariance: every answer of the library moves with the basis of Λ.

M ∈ GL_n(Z) writes a datum on another basis of Λ: simple coroots M·α̌_j and simple roots
M^{−T}·α_i, so every pairing and the Cartan matrix stay as they were.  Then weights, tensor
products, Satake rows, w₀, the dominant coweights and eigen-residuals map by M; Weyl
dimensions, dominant counts and q-analogs do not change; and a trace at γ' on the new basis is
the trace at γ_i = Π_j γ'_j^{M_ji} on the old one, since γ^ν = γ'^{Mν}.  On data with a central
direction the dominant coweights are cut to the box |λ_i| ≤ bound, which depends on the basis,
so there the two sides are compared on the coweights inside both boxes; dominant counts, which
count that box, and eigen-residuals, which refuse such data, are compared on semisimple data.
M is drawn as a product of at most six elementary row operations, and every failure names the
datum and M.

A sublattice Λ' ⊂ Λ of finite index that holds the coroots, with basis matrix M (its basis
vectors as columns), carries the datum (M⁻¹·coroots, Mᵀ·roots): the Cartan matrix is the same,
and a λ' ∈ Λ' is λ = M·λ' in Λ.  Its weights, tensor products, Satake rows and q-analogs are
those of Λ read through M, and a trace at γ on Λ's dual torus is the trace at γ'_j = γ^{M e_j},
since γ'^{ν'} = γ^{M ν'}.  Examples: coroot lattices, GL3 on {Σx ≡ 0 mod 3}, and A3 on the
index-2 lattice between its coroot and coweight lattices.
"""

from fractions import Fraction

import functools

import pytest
from hypothesis import given, settings, strategies as st

from satake.hecke import HeckeAlgebra
from satake.rep_ring import gamma_power
from satake.root_datum import PRESETS, _adjugate, build_root_datum
from satake.whittaker import WhittakerModule

from conftest import A3, B3, dominant_weights_below

DATA = {**PRESETS, "A3": A3, "B3": B3}
# a level ⟨λ, 2ρ̌⟩ that gives each datum a few dominant λ, regular and singular
LEVELS = {"PGL2": 4, "SL2": 8, "GL2": 4, "SL3": 4, "GL3": 4, "Sp4": 6, "G2": 10, "A3": 4, "B3": 6}
CUTOFF = 3


def _apply(matrix, vec):
    return tuple(sum(a * x for a, x in zip(row, vec)) for row in matrix)


def _moved(vectors, matrix):
    return {_apply(matrix, v): c for v, c in vectors.items()}


@st.composite
def basis_changes(draw, n):
    """(M, M^{−1}) for M a product of at most six elementary row operations on Z^n."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    inverse = [row[:] for row in m]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("swap", "negate", "add", "subtract")))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if kind == "negate":  # M ← E·M and M^{−1} ← M^{−1}·E^{−1}, E^{−1} = E
            m[i] = [-x for x in m[i]]
            for row in inverse:
                row[i] = -row[i]
        elif i != j and kind == "swap":
            m[i], m[j] = m[j], m[i]
            for row in inverse:
                row[i], row[j] = row[j], row[i]
        elif i != j:  # row i += c·row j, undone by column j −= c·column i
            c = 1 if kind == "add" else -1
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
            for row in inverse:
                row[j] -= c * row[i]
    return tuple(map(tuple, m)), tuple(map(tuple, inverse))


@functools.cache
def _original(name):
    algebra = HeckeAlgebra(DATA[name])
    datum = algebra.datum
    lams = datum.dominant_box(LEVELS[name])
    return algebra, lams


def _points(name):
    n = build_root_datum(DATA[name]).lattice_rank
    nonzero = st.fractions(min_value=-5, max_value=5, max_denominator=5).filter(bool)
    return st.tuples(basis_changes(n), st.lists(nonzero, min_size=n, max_size=n))


@pytest.mark.parametrize("name", sorted(DATA))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_every_answer_moves_with_the_basis_of_the_lattice(name, data):
    (m, inverse), values = data.draw(_points(name), label="(M, M^-1), gamma'")
    where = "datum %s, M = %s" % (name, m)
    n = len(m)
    assert all(_apply(m, col) == tuple(int(i == j) for i in range(n))
               for j, col in enumerate(zip(*inverse))), where
    algebra, lams = _original(name)
    datum, rep = algebra.datum, algebra.rep
    transpose_inverse = tuple(zip(*inverse))
    spec = DATA[name]
    moved_algebra = HeckeAlgebra({"cartan": spec["cartan"],
                                  "coroots": [list(_apply(m, a)) for a in spec["coroots"]],
                                  "roots": [list(_apply(transpose_inverse, a)) for a in spec["roots"]]})
    moved, moved_rep = moved_algebra.datum, moved_algebra.rep
    assert moved.cartan_matrix == datum.cartan_matrix, where

    def move(vec):
        return _apply(m, vec)

    # γ' on the new basis, and γ_i = Π_j γ'_j^{M_ji}: the same class of the dual torus
    gamma_new = tuple(values)
    gamma = tuple(gamma_power(gamma_new, column) for column in zip(*m))
    for lam in lams:
        mlam = move(lam)
        assert moved.is_dominant(mlam) and moved.pairing_2rho(mlam) == datum.pairing_2rho(lam), where
        assert moved.apply_w0(mlam) == move(datum.apply_w0(lam)), where
        assert moved_rep.weyl_dim(mlam) == rep.weyl_dim(lam), where
        assert moved_rep.weight_table(mlam) == _moved(rep.weight_table(lam), m), where
        assert moved_algebra.satake_row(mlam) == _moved(algebra.satake_row(lam), m), where
        for _, mu in dominant_weights_below(rep, lam):
            assert moved_rep.lusztig_q_analog(mlam, move(mu)) == rep.lusztig_q_analog(lam, mu), where
            beta = tuple(a - b for a, b in zip(lam, mu))
            assert moved_rep.q_kostant_partition(move(beta)) == rep.q_kostant_partition(beta), where
        for mu in lams:
            assert (moved_rep.tensor_decompose(mlam, move(mu))
                    == _moved(rep.tensor_decompose(lam, mu), m)), where
        assert moved_rep.character_eval(mlam, gamma_new) == rep.character_eval(lam, gamma), where
        assert (moved_rep.dual_character_eval(mlam, gamma_new)
                == rep.dual_character_eval(lam, gamma)), where
    level = LEVELS[name]
    box, moved_box = datum.dominant_box(level), moved.dominant_box(level)
    if datum.rank == datum.lattice_rank:
        assert sorted(moved_box) == sorted(map(move, box)), where
        assert moved.dominant_count(level) == datum.dominant_count(level) == len(box), where
        module, moved_module = WhittakerModule(algebra), WhittakerModule(moved_algebra)
        for lam in lams[:3]:
            residual = module.eigen_residual(gamma, lam, CUTOFF)
            assert moved_module.eigen_residual(gamma_new, move(lam), CUTOFF) == _moved(residual, m), where
    else:
        inside = {move(lam) for lam in box if max(map(abs, move(lam))) <= level}
        assert {lam for lam in moved_box if max(abs(x) for x in _apply(inverse, lam)) <= level} == inside, where


# each sublattice Λ' as its basis in Λ's coordinates, and a level with a few dominant λ' on it
SUBLATTICES = [
    ("SL3", [(2, -1), (-1, 2)], 20),  # the coroot lattice, index 3
    ("GL3", [(1, -1, 0), (0, 1, -1), (1, 1, 1)], 6),  # Σx ≡ 0 mod 3, index 3
    ("Sp4", [(2, -1), (-2, 2)], 20),  # the coroot lattice, index 2
    ("A3", [(2, -1, 0), (-1, 2, -1), (0, -1, 2)], 16),  # the coroot lattice, index 4
    ("A3", [(1, 0, 1), (0, 1, 0), (2, 0, 0)], 10),  # x_1 + x_3 even, index 2
    ("B3", [(2, -1, 0), (-1, 2, -1), (0, -2, 2)], 24),  # the coroot lattice, index 2
]
GAMMA = (Fraction(2), Fraction(-3, 2), Fraction(5, 7))


@pytest.mark.parametrize("name, basis, level", SUBLATTICES,
                         ids=["%s-index-%d" % (name, abs(_adjugate(basis)[1])) for name, basis, _ in SUBLATTICES])
def test_every_answer_is_read_through_a_sublattice_that_holds_the_coroots(name, basis, level):
    where = "datum %s, sublattice basis %s" % (name, basis)
    algebra = HeckeAlgebra(DATA[name])
    datum, rep = algebra.datum, algebra.rep
    m = tuple(zip(*basis))
    adjugate, det = _adjugate(m)
    coroots = [_apply(adjugate, a) for a in datum.simple_coroots]
    assert all(x % det == 0 for a in coroots for x in a), where  # Λ' holds the coroots
    sub_algebra = HeckeAlgebra({
        "cartan": [list(row) for row in datum.cartan_matrix],
        "coroots": [[x // det for x in a] for a in coroots],
        "roots": [[datum.pairing(b, alpha) for b in basis] for alpha in datum.simple_roots]})
    sub, sub_rep = sub_algebra.datum, sub_algebra.rep

    def move(vec):
        return _apply(m, vec)

    gamma = GAMMA[:datum.lattice_rank]
    sub_gamma = tuple(gamma_power(gamma, b) for b in basis)
    lams = sub.dominant_box(level)
    assert len(lams) >= 3, where
    if datum.rank == datum.lattice_rank:  # the dominant λ of Λ that lie on Λ'
        on_sub = [lam for lam in datum.dominant_box(level)
                  if all(x % det == 0 for x in _apply(adjugate, lam))]
        assert sorted(map(move, lams)) == sorted(on_sub), where
    for lam in lams:
        mlam = move(lam)
        assert datum.is_dominant(mlam) and datum.pairing_2rho(mlam) == sub.pairing_2rho(lam), where
        assert sub_rep.weyl_dim(lam) == rep.weyl_dim(mlam), where
        assert _moved(sub_rep.weight_table(lam), m) == rep.weight_table(mlam), where
        assert _moved(sub_algebra.satake_row(lam), m) == algebra.satake_row(mlam), where
        for _, mu in dominant_weights_below(sub_rep, lam):
            assert sub_rep.lusztig_q_analog(lam, mu) == rep.lusztig_q_analog(mlam, move(mu)), where
        for mu in lams:
            assert (_moved(sub_rep.tensor_decompose(lam, mu), m)
                    == rep.tensor_decompose(mlam, move(mu))), where
        assert sub_rep.character_eval(lam, sub_gamma) == rep.character_eval(mlam, gamma), where
        assert sub_rep.dual_character_eval(lam, sub_gamma) == rep.dual_character_eval(mlam, gamma), where
