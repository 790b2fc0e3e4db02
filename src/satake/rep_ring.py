"""The representation ring of the dual group over a fixed root datum.

Weight multiplicities come from the Freudenthal recursion in the datum's one
W-invariant form (x, y) = Σ_{β>0} ⟨x,β⟩⟨y,β⟩ (with the alternating Kostant
sum kept alongside as an independent cross-check),
tensor products from the Brauer–Klimyk ρ-shift algorithm, characters by
summing integer numerators over the memoized weight table with one
denominator per trace, and the q-side from the q-deformed Kostant partition
function (one coin-change table per instance, in integers) and the Lusztig
q-analog of weight multiplicity.  All values are exact (integers / Fractions
/ integer Laurent polynomials); per-instance memo dictionaries make repeated
queries cheap.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iter_product
from operator import mul
from typing import Dict, List, Sequence, Tuple

from .laurent import LaurentPoly, ZERO
from .root_datum import InvariantError, RootDatum, build_root_datum

Coweight = Tuple[int, ...]
TorusPoint = Tuple[Fraction, ...]


def torus_point(values, datum: RootDatum) -> TorusPoint:
    """A semisimple dual-group conjugacy class γ: nonzero rationals on a basis of Λ."""
    vals = tuple(Fraction(v) for v in values)
    if len(vals) != datum.lattice_rank:
        raise ValueError(
            "torus point needs %d coordinates, got %d" % (datum.lattice_rank, len(vals))
        )
    if any(v == 0 for v in vals):
        raise ValueError("torus point coordinates must be nonzero")
    return vals


def gamma_power(gamma: TorusPoint, nu: Sequence[int]) -> Fraction:
    """γ^ν = Π γ_i^{ν_i}, exact: the plain reference for one weight.

    A negative exponent divides by γ_i^{−ν_i}, so integer coordinates stay exact.
    """
    out = Fraction(1)
    for g, n in zip(gamma, nu):
        out = out * g ** n if n >= 0 else out / g ** -n
    return out


class RepRing:
    """Exact computations in Rep(dual group) for one root datum."""

    def __init__(self, datum) -> None:
        self.datum = build_root_datum(datum)
        self._dominant_tables: Dict[Coweight, Dict[Coweight, int]] = {}
        self._full_weights: Dict[Coweight, Tuple[Tuple[Coweight, int], ...]] = {}
        self._tensor: Dict[Tuple[Coweight, Coweight], Dict[Coweight, int]] = {}
        self._partition_table: Dict[Coweight, Tuple[Dict[int, int], ...]] = {}
        self._partition_box: Coweight = (0,) * self.datum.rank
        self._dims: Dict[Coweight, int] = {}

    # -- dimensions and weights ---------------------------------------------

    def weyl_dim(self, lam) -> int:
        """Dimension of the dual-group irreducible with highest weight λ (Weyl formula).

        The product of ⟨2λ+2ρ, α⟩ over the product of ⟨2ρ, α⟩, α > 0, in integers.
        """
        lam = self.datum.dominant(lam)
        if lam in self._dims:
            return self._dims[lam]
        datum = self.datum
        two_rho = datum.two_rho_dual
        shifted = tuple(2 * a + r for a, r in zip(lam, two_rho))
        numerator = denominator = 1
        for root in datum.positive_roots:
            numerator *= datum.pairing(shifted, root)
            denominator *= datum.pairing(two_rho, root)
        dim, rem = divmod(numerator, denominator)
        if rem or dim <= 0:
            raise InvariantError("Weyl dimension of %r is %d/%d" % (lam, numerator, denominator))
        self._dims[lam] = dim
        return dim

    def dominant_weights_below(self, lam) -> List[Tuple[int, Coweight, Coweight]]:
        """All dominant μ ≤ λ as (depth, μ, coroot-coordinates of λ−μ), depth-sorted."""
        lam = self.datum.dominant(lam)
        datum = self.datum
        max_depth = datum.pairing_2rho(lam) // 2
        out = []
        rank = datum.rank

        def rec(idx: int, remaining: int, coords: List[int], vec: List[int]):
            if idx == rank:
                if datum.is_dominant(vec):
                    out.append((sum(coords), tuple(vec), tuple(coords)))
                return
            alpha = datum.simple_coroots[idx]
            for c in range(remaining + 1):
                coords.append(c)
                rec(idx + 1, remaining - c, coords, [v - c * a for v, a in zip(vec, alpha)])
                coords.pop()

        rec(0, max_depth, [], list(lam))
        out.sort()
        return out

    def dominant_multiplicity_table(self, lam) -> Dict[Coweight, int]:
        """Weight multiplicities of V^λ on dominant weights, by Freudenthal recursion.

        The form is the datum's W-invariant (x, y) = Σ_{β>0} ⟨x,β⟩⟨y,β⟩;
        Freudenthal's formula holds for any W-invariant form that is
        nondegenerate on the span of the coroots (Humphreys, Lie Algebras, §22.3).
        """
        lam = self.datum.dominant(lam)
        if lam in self._dominant_tables:
            return dict(self._dominant_tables[lam])
        datum = self.datum
        two_rho = datum.two_rho_dual
        # (x, α̌) = ⟨x, u⟩ with one covector u per positive coroot α̌
        coroots = [(alpha, datum.form_covector(alpha)) for alpha, _ in datum.positive_coroots]
        table: Dict[Coweight, int] = {}
        for depth, mu, _ in self.dominant_weights_below(lam):
            if depth == 0:
                table[mu] = 1
                continue
            numerator = 0
            for alpha, covector in coroots:
                k = 1
                while True:
                    nu = tuple(m + k * a for m, a in zip(mu, alpha))
                    dom = datum.dominant_representative(nu).coweight
                    mult = table.get(dom, 0)
                    if mult == 0:
                        break  # weights along a root string are contiguous
                    numerator += mult * datum.pairing(nu, covector)
                    k += 1
            lam_mu_sum = tuple(a + b + r for a, b, r in zip(lam, mu, two_rho))
            lam_mu_diff = tuple(a - b for a, b in zip(lam, mu))
            denominator = datum.pairing(lam_mu_sum, datum.form_covector(lam_mu_diff))
            value, rem = divmod(2 * numerator, denominator)
            if rem or value <= 0:
                raise InvariantError("Freudenthal gave %d/%d" % (2 * numerator, denominator))
            table[mu] = value
        self._dominant_tables[lam] = table
        return dict(table)

    def weight_multiplicity(self, lam, nu) -> int:
        """dim of the ν-weight space of V^λ (Weyl-invariant in ν)."""
        lam = self.datum.dominant(lam)
        nu = self.datum.coweight(nu)
        dom = self.datum.dominant_representative(nu).coweight
        return self.dominant_multiplicity_table(lam).get(dom, 0)

    def kostant_multiplicity(self, lam, nu) -> int:
        """The same multiplicity by the alternating Kostant sum (independent route)."""
        lam = self.datum.dominant(lam)
        return int(self._alternating_sum(lam, self.datum.coweight(nu)).eval_q(1))

    def weight_table(self, lam) -> Dict[Coweight, int]:
        """The full (Weyl-invariant) weight multiplicity table of V^λ."""
        lam = self.datum.dominant(lam)
        out: Dict[Coweight, int] = {}
        for mu, mult in self.dominant_multiplicity_table(lam).items():
            for nu in self.datum.weyl_orbit(mu):
                out[nu] = mult
        return out

    def weights_with_multiplicity(self, lam) -> Tuple[Tuple[Coweight, int], ...]:
        lam = self.datum.dominant(lam)
        if lam not in self._full_weights:
            self._full_weights[lam] = tuple(sorted(self.weight_table(lam).items()))
        return self._full_weights[lam]

    # -- tensor products -----------------------------------------------------

    def tensor_decompose(self, lam, mu) -> Dict[Coweight, int]:
        """Multiplicities of irreducibles in V^λ ⊗ V^μ, by Brauer–Klimyk.

        ρ-shift each weight of the smaller factor against the other highest
        weight, drop the singular ones, and accumulate signs at the dominant
        representative minus ρ.  The shifted weights are held doubled,
        2(λ+τ)+2ρ, so they stay on the lattice.
        """
        lam = self.datum.dominant(lam)
        mu = self.datum.dominant(mu)
        key = (lam, mu)
        if key in self._tensor:
            return dict(self._tensor[key])
        datum = self.datum
        two_rho = datum.two_rho_dual
        if self.weyl_dim(mu) <= self.weyl_dim(lam):
            iter_weight, fixed = mu, lam
        else:
            iter_weight, fixed = lam, mu
        acc: Dict[Coweight, int] = {}
        for tau, mult in self.weights_with_multiplicity(iter_weight):
            shifted = tuple(2 * (f + t) + r for f, t, r in zip(fixed, tau, two_rho))
            dom, word, sign = datum.dominant_representative(shifted)
            if any(datum.pairing(dom, root) == 0 for root in datum.simple_roots):
                continue
            doubled = tuple(d - r for d, r in zip(dom, two_rho))
            if any(x % 2 for x in doubled):
                raise InvariantError("Brauer–Klimyk gave the non-integral weight %r/2" % (doubled,))
            nu = tuple(x // 2 for x in doubled)
            acc[nu] = acc.get(nu, 0) + sign * mult
        result = {nu: c for nu, c in acc.items() if c}
        if any(c < 0 for c in result.values()):
            raise InvariantError("negative tensor multiplicity")
        self._tensor[key] = result
        self._tensor[(mu, lam)] = result
        return dict(result)

    def tensor_multiplicity(self, lam, mu, nu) -> int:
        """dim Hom(V^ν, V^λ ⊗ V^μ)."""
        nu = self.datum.dominant(nu)
        return self.tensor_decompose(lam, mu).get(nu, 0)

    # -- characters ------------------------------------------------------------

    def character_eval(self, lam, gamma: TorusPoint) -> Fraction:
        """Tr(γ, V^λ) = Σ_ν mult(ν) γ^ν, exact, over one common denominator.

        With γ_i = a_i/b_i and lo_i, hi_i the least and greatest i-th
        coordinate of a weight, γ^ν = Π a_i^{lo_i} b_i^{−hi_i} · Π a_i^{ν_i−lo_i}
        b_i^{hi_i−ν_i}.  The second product is an integer read from one power
        list per coordinate, so the weights of the memoized table are summed in
        integers and the first product is applied once, as a single Fraction.
        """
        weights = self.weights_with_multiplicity(lam)
        rows = []
        num = den = 1
        for g, column in zip(gamma, zip(*(nu for nu, _ in weights))):
            a, b = g.numerator, g.denominator
            lo, hi = min(column), max(column)
            rows.append({x: a ** (x - lo) * b ** (hi - x) for x in range(lo, hi + 1)})
            num *= a ** max(lo, 0) * b ** max(-hi, 0)
            den *= a ** max(-lo, 0) * b ** max(hi, 0)
        total = 0
        for nu, mult in weights:
            for row, x in zip(rows, nu):
                mult *= row[x]
            total += mult
        return Fraction(total * num, den)

    def dual_character_eval(self, lam, gamma: TorusPoint) -> Fraction:
        """Tr(γ, (V^λ)*), computed as the character of V^{−w₀λ}."""
        lam = self.datum.dominant(lam)
        dual = tuple(-x for x in self.datum.apply_w0(lam))
        return self.character_eval(dual, gamma)

    # -- the q-side ---------------------------------------------------------------

    def q_kostant_partition(self, beta) -> LaurentPoly:
        """q-deformed Kostant partition function of β in the positive coroots.

        The coefficient of e^β in Π_{α>0} (1 − q e^α)^{-1}: each way of writing
        β as a nonnegative-integer combination of positive coroots contributes
        q^{number of parts}.  Zero unless β lies in the Z≥0-span.
        """
        if isinstance(beta, int):
            beta = self.datum.coweight(beta)
        coords = self.datum.coroot_coordinates(beta)
        if coords is None or any(c.denominator != 1 or c < 0 for c in coords):
            return ZERO
        key = tuple(int(c) for c in coords)
        self._grow_partition_table(key)
        return LaurentPoly({2 * k: c for k, c in self._partition_table[key][0].items()})

    def _grow_partition_table(self, target: Coweight) -> None:
        """Extend the coin-change table of the q-Kostant partition function to cover target.

        With α_0, …, α_{N−1} the positive coroots in coroot coordinates and
        P_N = δ_0, the table holds P_i[β] = P_{i+1}[β] + q·P_i[β − α_i] for
        every i and every β in a box [0, b_1] × … × [0, b_r]; P_0 is the
        partition function.  The box grows to the coordinatewise maximum of
        itself and target, and the new points are filled in lexicographic
        order, which puts β − α_i before β.  Values are {q-power: count} maps.
        """
        table = self._partition_table
        if target in table:
            return
        box = tuple(max(b, t) for b, t in zip(self._partition_box, target))
        roots = [c for _, c in self.datum.positive_coroots]
        for point in iter_product(*(range(b + 1) for b in box)):
            if point in table:
                continue
            value: Dict[int, int] = {} if any(point) else {0: 1}
            layers: List[Dict[int, int]] = [value] * len(roots)
            for i in reversed(range(len(roots))):
                prev = tuple(p - a for p, a in zip(point, roots[i]))
                if min(prev) >= 0:
                    value = dict(value)
                    for k, c in table[prev][i].items():
                        value[k + 1] = value.get(k + 1, 0) + c
                layers[i] = value
            table[point] = tuple(layers)
        self._partition_box = box

    def lusztig_q_analog(self, lam, mu) -> LaurentPoly:
        """Lusztig's q-analog of the weight multiplicity dim V^λ(μ).

        The alternating Weyl sum of the q-Kostant partition function at
        w(λ+ρ) − (μ+ρ); its value at q = 1 is the weight multiplicity.
        """
        return self._alternating_sum(self.datum.dominant(lam), self.datum.dominant(mu))

    def _alternating_sum(self, lam: Coweight, nu: Coweight) -> LaurentPoly:
        """The alternating Weyl sum Σ_w (−1)^{ℓ(w)} P_q(w(λ+ρ) − (ν+ρ)).

        P_q is the q-Kostant partition function; λ must be dominant, ν need not be.
        The arguments are formed from 2(λ+ρ) and 2(ν+ρ) with the integer Weyl
        matrices; an argument with an odd entry is off the lattice and adds 0.
        """
        datum = self.datum
        two_rho = datum.two_rho_dual
        shifted = tuple(2 * x + r for x, r in zip(lam, two_rho))
        target = tuple(2 * x + r for x, r in zip(nu, two_rho))
        total = ZERO
        for matrix, length in datum.weyl_elements:
            doubled = [sum(map(mul, row, shifted)) - t for row, t in zip(matrix, target)]
            if any(x % 2 for x in doubled):
                continue
            part = self.q_kostant_partition(tuple(x // 2 for x in doubled))
            if part:
                total = total + part if length % 2 == 0 else total - part
        return total
