"""Macdonald's formula: a second route to every Satake row, sharing no code with the q-side.

For a dominant λ, a rational v with q = v² and a rational γ with γ^α̌ ≠ 1 for every
coroot α̌,

    Tr(γ, V^λ) = Σ_μ row_λ[μ](v) · v^⟨μ,2ρ̌⟩ · P_μ(γ; q⁻¹),

where row_λ = HeckeAlgebra.satake_row(λ) and P_μ is the Hall–Littlewood value

    P_μ(γ; t) = W_μ(t)⁻¹ Σ_{w∈W} γ^{wμ} Π_{α̌>0} (1 − t γ^{−wα̌}) / (1 − γ^{−wα̌}),
    W_μ(t) = Σ_{w: wμ=μ} t^ℓ(w).

At t = 0 the sum is Weyl's character formula, which gives the left side.  The Weyl
group with its lengths, the positive coroots and 2ρ̌ are built here from integer
reflections.  References: I. G. Macdonald, Spherical functions on a group of p-adic
type (1971); S. Kato, Invent. Math. 66 (1982).
"""

import functools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from satake.hecke import HeckeAlgebra
from satake.laurent import LaurentPoly
from satake.root_datum import PRESETS, build_root_datum

from conftest import box_scan


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _reflect(x, pair_with, along):
    """x − ⟨x, pair_with⟩ · along."""
    p = _dot(x, pair_with)
    return tuple(a - p * b for a, b in zip(x, along))


def _positive(simples, duals):
    """The positive roots generated by x ↦ x − ⟨x, duals_i⟩ simples_i: the orbit of the
    simples, with coordinates in the simples tracked along each reflection, kept where
    every coordinate is ≥ 0."""
    coords = {v: tuple(int(k == i) for k in range(len(simples))) for i, v in enumerate(simples)}
    frontier = list(coords)
    while frontier:
        x = frontier.pop()
        for i, (simple, dual) in enumerate(zip(simples, duals)):
            y = _reflect(x, dual, simple)
            if y not in coords:
                c = list(coords[x])
                c[i] -= _dot(x, dual)
                coords[y] = tuple(c)
                frontier.append(y)
    return [v for v, c in coords.items() if min(c) >= 0]


def _act(w, lam):
    """w·λ, for w given by the images of the basis vectors of Λ."""
    return tuple(sum(x * col[r] for x, col in zip(lam, w)) for r in range(len(lam)))


def _power(gamma, nu):
    out = Fraction(1)
    for g, n in zip(gamma, nu):
        out *= g ** n
    return out


class Macdonald:
    def __init__(self, name):
        d = build_root_datum(name)
        n = d.lattice_rank
        identity = tuple(tuple(int(r == c) for r in range(n)) for c in range(n))
        # breadth-first over s_i·w: the depth at which w first appears is ℓ(w)
        lengths = {identity: 0}
        frontier = [identity]
        while frontier:
            nxt = []
            for w in frontier:
                for root, coroot in zip(d.simple_roots, d.simple_coroots):
                    sw = tuple(_reflect(col, root, coroot) for col in w)
                    if sw not in lengths:
                        lengths[sw] = lengths[w] + 1
                        nxt.append(sw)
            frontier = nxt
        self.weyl = list(lengths.items())
        self.positive_coroots = _positive(d.simple_coroots, d.simple_roots)
        self.two_rho_check = tuple(map(sum, zip(*_positive(d.simple_roots, d.simple_coroots))))
        self.algebra = HeckeAlgebra(d)

    def regular(self, gamma):
        return all(_power(gamma, a) != 1 for a in self.positive_coroots)

    def hall_littlewood(self, mu, gamma, t):
        total = stabilizer = Fraction(0)
        for w, length in self.weyl:
            w_mu = _act(w, mu)
            if w_mu == mu:
                stabilizer += t ** length
            term = _power(gamma, w_mu)
            for a in self.positive_coroots:
                x = 1 / _power(gamma, _act(w, a))
                term *= (1 - t * x) / (1 - x)
            total += term
        return total / stabilizer

    def basis_values(self, row, gamma, v):
        """μ ↦ v^⟨μ,2ρ̌⟩ · P_μ(γ; v⁻²) over the support of a row."""
        return {mu: v ** _dot(mu, self.two_rho_check) * self.hall_littlewood(mu, gamma, 1 / v ** 2)
                for mu in row}


def _row_side(row, values, v):
    """Σ_μ row[μ](v) · values[μ]."""
    return sum(coeff.eval_v(v) * values[mu] for mu, coeff in row.items())


@functools.lru_cache(maxsize=None)
def _macdonald(name):
    return Macdonald(name)


def _weights(name):
    """Every dominant λ with coordinates in [−3, 3] (⟨λ,2ρ̌⟩ ≤ 48 on G2)."""
    return box_scan(build_root_datum(name), 60, 3)


_nonzero = st.integers(-9, 9).filter(bool)


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(PRESETS)),
       index=st.integers(0, 10 ** 6),
       coords=st.lists(st.tuples(_nonzero, st.integers(1, 9)), min_size=3, max_size=3),
       v=st.tuples(_nonzero, st.integers(1, 5)).map(lambda ab: Fraction(*ab)))
def test_satake_row_satisfies_macdonalds_formula(name, index, coords, v):
    mac = _macdonald(name)
    box = _weights(name)
    lam = box[index % len(box)]
    gamma = tuple(Fraction(a, b) for a, b in coords[: len(lam)])
    assume(mac.regular(gamma))
    trace = mac.hall_littlewood(lam, gamma, Fraction(0))
    assert trace == mac.algebra.rep.character_eval(lam, gamma)
    row = mac.algebra.satake_row(lam)
    assert _row_side(row, mac.basis_values(row, gamma, v), v) == trace


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_one_extra_q_power_in_a_row_breaks_the_formula(name):
    mac = _macdonald(name)
    gamma = (Fraction(3, 2), Fraction(-5, 7), Fraction(2, 9))[: build_root_datum(name).lattice_rank]
    v = Fraction(2, 3)
    assert mac.regular(gamma)
    lam = max(_weights(name), key=lambda w: len(mac.algebra.satake_row(w)))
    row = mac.algebra.satake_row(lam)
    trace = mac.hall_littlewood(lam, gamma, Fraction(0))
    values = mac.basis_values(row, gamma, v)
    assert len(row) >= 2 and _row_side(row, values, v) == trace
    for mu, coeff in row.items():
        mutated = dict(row)
        mutated[mu] = coeff + LaurentPoly({max(coeff.exponents()) + 2: 1})
        assert _row_side(mutated, values, v) != trace, mu
