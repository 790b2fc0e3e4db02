from itertools import product as iter_product

import pytest

from satake.hecke import HeckeAlgebra
from satake.laurent import LaurentPoly
from satake.rank1_oracle import Rank1Oracle


class _CorruptedBaseChange(HeckeAlgebra):
    """The PGL2 Hecke algebra with p_{2,0} ← q in the Satake row of A_2."""

    def satake_row(self, lam):
        row = super().satake_row(lam)
        if tuple(lam) == (2,):
            row[(0,)] = LaurentPoly({2: 1}).shift(-2)  # v^{−2} · q
        return row


# SL3 on the basis (1, 0), (5, 1) of Λ: its dominant coweights are λ = (p_1, 5p_1 + p_2) for the
# simple-root pairings p ≥ 0, whose second coordinate exceeds the level 2p_1 + 2p_2 when 3p_1 > p_2
SKEWED_SL3 = {"cartan": [[2, -1], [-1, 2]], "coroots": [[2, 9], [-1, -3]], "roots": [[1, 0], [-5, 1]]}


def cartan_datum(cartan):
    """The datum of a Cartan matrix C on its fundamental-coweight lattice, as the presets are built.

    The simple roots are the unit vectors and simple coroot j is column j of C, so
    ⟨α̌_j, α_i⟩ = C[i][j]; Λ is the weight lattice of the dual group.
    """
    r = len(cartan)
    return {"cartan": cartan, "coroots": [list(column) for column in zip(*cartan)],
            "roots": [[int(i == j) for j in range(r)] for i in range(r)]}


# rank 3, connected (B3's third simple root short)
A3 = cartan_datum([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
B3 = cartan_datum([[2, -1, 0], [-1, 2, -2], [0, -1, 2]])


def weyl_group(d):
    """W of the datum d as (matrix on Λ, Coxeter length) pairs, by BFS over its simple reflections.

    s_i x = x − ⟨x, α_i⟩ α̌_i is the matrix 1 − α̌_i α_iᵀ, acting by rows; the depth at which w
    first appears is ℓ(w).  Only d's simple roots and coroots are read, no library code.
    """
    n = len(d.simple_coroots[0])
    identity = tuple(tuple(int(r == c) for c in range(n)) for r in range(n))
    gens = [tuple(tuple(int(r == c) - coroot[r] * root[c] for c in range(n)) for r in range(n))
            for root, coroot in zip(d.simple_roots, d.simple_coroots)]
    lengths, frontier = {identity: 0}, [identity]
    while frontier:
        nxt = []
        for w in frontier:
            for s in gens:
                sw = tuple(tuple(sum(s[r][k] * w[k][c] for k in range(n)) for c in range(n))
                           for r in range(n))
                if sw not in lengths:
                    lengths[sw] = lengths[w] + 1
                    nxt.append(sw)
        frontier = nxt
    return list(lengths.items())


def invariant_form(d):
    """(x, y) ↦ Σ_{β>0} ⟨x, β⟩⟨y, β⟩ over d.positive_roots, as one integer matrix F: xᵀ F y.

    W permutes the roots up to sign, so the form is W-invariant; it vanishes on central
    directions and is positive definite on the span of the coroots.
    """
    columns = list(zip(*d.positive_roots))
    matrix = [[sum(a * b for a, b in zip(u, v)) for v in columns] for u in columns]
    return lambda x, y: sum(a * sum(f * b for f, b in zip(row, y)) for a, row in zip(x, matrix))


def box_scan(d, pair_bound, coord_bound):
    """Every point of the box |λ_i| ≤ coord_bound that is dominant at level ≤ pair_bound, sorted."""
    found = []
    for lam in iter_product(range(-coord_bound, coord_bound + 1), repeat=d.lattice_rank):
        level = sum(x * y for x, y in zip(lam, d.two_rho_check))
        if level <= pair_bound and all(d.pairing(lam, root) >= 0 for root in d.simple_roots):
            found.append((level, lam))
    return [lam for _, lam in sorted(found)]


@pytest.fixture
def corrupted_oracle():
    """A rank-1 oracle that reads its stalk weights from the corrupted base change."""
    return Rank1Oracle("PGL2", hecke=_CorruptedBaseChange("PGL2"))
