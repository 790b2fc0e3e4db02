"""The representation ring of the dual group over a fixed root datum.

Demazure's character formula over the datum's reduced word for w₀ fills the full weight table of
V^λ one root string at a time, and the dominant table is read off it.  One Brauer–Klimyk core
acts by V^λ on an integer combination Σ n_μ [V^μ] of dominant μ: the dot action w·x = w(x+ρ) − ρ
moves each μ + τ, τ a weight of V^λ, into the dominant chamber by the datum's one chamber walk
on the simple-root pairings of μ+τ+ρ (those of τ+ρ memoized per λ, with their least values ℓ_i),
in integers on Λ; a deep μ, ⟨μ, α_i⟩ + ℓ_i > 0 for every i, needs no walk: its product is V^λ's
table shifted by μ, and any other μ walks only a μ + τ + ρ with a negative pairing and none 0.
A tensor product is a combination of one term; the Whittaker residual acts on its whole
truncation in one pass.  The signed shifts of λ, the coroot coordinates of w(λ+ρ) − (λ+ρ)
with (−1)^{ℓ(w)}, are walked on the datum's BFS tree of W from λ's simple-root pairings where a
sum needs them: the terms of both alternating Weyl sums.  A character is Weyl's
character formula over them, in t_j = γ^{α̌_j}, where |W| ≤ dim V^λ (for a regular λ without
weyl_dim: its orbit has |W| weights) and the torus point is regular, and the sum over the
weight table otherwise.  Each sum is one _power_sum: its terms in integers over one scale, read
from the kept powers a^k and b^k of each base a/b (each γ_i and each t_j), and a trace is one
Fraction.  Weyl's numerator keeps its terms ε(w)·γ^{w(λ+ρ)−ρ} per λ, and a λ whose neighbour
λ − e_k (e_k a basis vector of Λ) kept them steps from them: |W| integer products with the
factors γ^{w e_k}, kept per k, and no sum.  The traces, the powers, the terms, the step factors
and the Weyl denominator at the last torus point are kept until a call at another point.
Public methods check their coweights at the door; the private routes behind them (_weights,
_brauer_klimyk, _character, _dual_character, _walk, _satake_entries) take checked dominant
coweights.  The q-side reads one coin-change table of the q-Kostant partition function per ring: a
flat row-major list of ints over a box of coroot coordinates, each q-polynomial packed at q = 2^K
(exact: no coefficient is negative), K one guard bit over the table's largest value at q = 1, and
the box doubled on growth.  A q-analog m^q_λ(μ) is one signed sum of its entries, decoded once with
q^k at v^{2k}, or at v^{2·depth − ⟨λ,2ρ̌⟩ − 2k} for λ's Satake row.  Values are exact.  A weight
or q-Kostant table that could hold over LIMIT entries is refused by root_datum.require_within first.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import islice, product as iter_product
from math import lcm, prod
from typing import Dict, List, Sequence, Tuple

from .laurent import LaurentPoly, ONE, ZERO
from . import root_datum
from .root_datum import InvariantError, RootDatum, build_root_datum, require_within

Coweight = Tuple[int, ...]
_INT = frozenset((int,))  # the one coordinate type RootDatum.coweight accepts
_RATIONAL = frozenset((int, Fraction))  # the coordinate types torus_point accepts
TorusPoint = Tuple[Fraction, ...]


def torus_point(values, datum: RootDatum) -> TorusPoint:
    """A semisimple dual-group conjugacy class γ: nonzero ints or Fractions on a basis of Λ."""
    vals = tuple(values)
    if len(vals) != datum.lattice_rank:
        raise ValueError(
            "torus point needs %d coordinates, got %d" % (datum.lattice_rank, len(vals))
        )
    if not _RATIONAL.issuperset(map(type, vals)):  # a float or bool is refused, as by coweight
        raise ValueError("torus point %r has a coordinate that is not an int or a Fraction" % (vals,))
    if not all(vals):
        raise ValueError("torus point coordinates must be nonzero")
    return tuple(map(Fraction, vals))


def _power_sum(terms: Sequence[Tuple[Sequence[int], int]], powers) -> Tuple[List[int], int, int]:
    """The terms c·x^ν of Σ c·x^ν over the (ν, c) terms, exact, in ints over one scale.

    The terms are an alternating Weyl sum (c = ±1), a weight table (c the multiplicity) or one
    weight; powers[i] = (A, B) keeps A[k] = a_i^k and B[k] = b_i^k for x_i = a_i/b_i, from
    A = [1, a_i] and B = [1, b_i], extended only as far as the terms need.  With lo_i, hi_i the
    least and greatest i-th coordinate of a ν, x^ν = Π a_i^{lo_i} b_i^{−hi_i} ·
    Π a_i^{ν_i−lo_i} b_i^{hi_i−ν_i}: the second product is read from the lists, and the first,
    split by sign, is the scale.  Returns (acc, num, den): term k is acc[k]·num/den, so the sum
    is sum(acc)·num/den.
    """
    num = den = 1
    acc = [c for _, c in terms]
    for (a, b), column in zip(powers, zip(*(nu for nu, _ in terms))):
        lo, hi = min(column), max(column)
        for _ in range(len(a), (hi if hi > 0 else 0) - (lo if lo < 0 else 0) + 1):
            a.append(a[-1] * a[1])
            b.append(b[-1] * b[1])
        num *= a[lo if lo > 0 else 0] * b[-hi if hi < 0 else 0]
        den *= a[-lo if lo < 0 else 0] * b[hi if hi > 0 else 0]
        acc = [c * a[x - lo] * b[hi - x] for c, x in zip(acc, column)]
    return acc, num, den


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
        self._full_weights: Dict[Coweight, Tuple[Tuple[Coweight, int], ...]] = {}
        # the weight table of V^λ as (τ, the ⟨τ+ρ, α_i⟩ = ⟨τ, α_i⟩ + 1, multiplicity), and the
        # least ⟨τ+ρ, α_i⟩ over τ for each i
        self._rho_pairings: Dict[Coweight, Tuple[Tuple[Tuple[Coweight, Coweight, int], ...], Coweight]] = {}
        self._tensor: Dict[Tuple[Coweight, Coweight], Dict[Coweight, int]] = {}
        # the q-Kostant table (box, row-major strides, packed entries, width K: q = 2^K), and per
        # dominant λ its _walk and the flat offsets of its signed shifts
        self._box, self._strides, self._table, self._width = (-1,) * self.datum.rank, [], [], 0
        self._walks: Dict[Coweight, Dict[Coweight, Coweight]] = {}
        self._offsets: Dict[Coweight, Tuple[Tuple[Coweight, int, int], ...]] = {}
        # the last torus point γ, its traces by dominant λ, the kept powers of each γ_i, (the
        # kept powers of each t_j = γ^{α̌_j}, the Weyl denominator as an (int, int) pair) once
        # Weyl's formula has run at γ, the Weyl terms of each λ it traced as (acc, num, den), and
        # the step factors ([f_w], C_k) of each basis vector e_k of Λ
        self._gamma, self._traces, self._powers, self._denominator = None, {}, [], None
        self._terms, self._steps = {}, {}
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

    def _walk(self, lam: Coweight) -> Dict[Coweight, Coweight]:
        """Each dominant μ ≤ λ ↦ the coroot coordinates (c_j) of λ − μ, sorted by depth Σ c_j and μ.

        Built once per λ, one c_j at a time, carrying μ's simple-root pairings p_i; a unit of height
        on α̌_k, α̌_{k+1}, … lifts a pairing by ≤ lift[k], so a branch no lift can bring back to ≥ 0
        is cut before it is entered.  The last c_j is one interval: p_i − c_j·C[i][j] ≥ 0 bounds it
        below where C[i][j] < 0, by ⌊p_j/2⌋ and the height left, and empties it if p_i < 0 = C[i][j].
        """
        if lam not in self._walks:
            datum = self.datum
            cartan, last, max_depth = datum.cartan_matrix, datum.rank - 1, datum.pairing_2rho(lam) // 2
            lift = [max([0] + [-x for row in cartan for x in row[k:]]) for k in range(last + 2)]
            columns = [[row[j] for row in cartan] for j in range(last + 1)]
            below = [(i, -k) for i, k in enumerate(columns[last]) if k < 0]  # the last column's
            flat = [i for i, k in enumerate(columns[last]) if not k]  # filters, read once
            out = []

            def rec(idx: int, remaining: int, vec: List[int], pairings: List[int], coords=()):
                alpha, column = datum.simple_coroots[idx], columns[idx]
                if idx == last:  # each ⟨μ, α_i⟩ = p_i − c·C[i][idx] ≥ 0 cuts one interval of c
                    lo = max([0] + [-(pairings[i] // k) for i, k in below])
                    hi = min([remaining, pairings[idx] // 2] + [-1 for i in flat if pairings[i] < 0])
                    mu, depth = tuple(v - lo * a for v, a in zip(vec, alpha)), max_depth - remaining
                    for c in range(lo, hi + 1):
                        out.append((depth + c, mu, coords + (c,)))
                        mu = tuple(map(operator.sub, mu, alpha))
                    return
                for c in range(remaining + 1):
                    child = [p - c * k for p, k in zip(pairings, column)]
                    floor = (remaining - c) * lift[idx + 1]
                    if child[idx] + floor < 0:
                        break  # ⟨μ, α_idx⟩ only falls as c grows
                    if min(child) + floor >= 0:
                        rec(idx + 1, remaining - c, [v - c * a for v, a in zip(vec, alpha)], child,
                            coords + (c,))

            rec(0, max_depth, list(lam), [datum.pairing(lam, root) for root in datum.simple_roots])
            self._walks[lam] = {mu: coords for _, mu, coords in sorted(out)}
        return self._walks[lam]

    def dominant_multiplicity_table(self, lam) -> Dict[Coweight, int]:
        """Weight multiplicities of V^λ on dominant weights, read off the full table in its order.

        The full table is ch V^λ = D_{i_1} ⋯ D_{i_N} e^λ over the datum's reduced word for w₀
        (Demazure, Ann. Sci. ÉNS 7, 1974; Andersen, Invent. Math. 79, 1985), each D_i applied one
        α̌_i-string at a time.  A term c·e^β, n = ⟨β, α_i⟩, adds c at the string's pairings −n, …, n
        when n ≥ 0, −c at n+2, …, −n−2 when n ≤ −2, and nothing at n = −1: ranges centred on the
        string's pairing 0 or 1, so one bucket per (string, radius) and one suffix sum per string
        give the new string, in O(N·entries) work.  Only the full table is kept; InvariantError
        unless every multiplicity is positive and they sum to weyl_dim(λ).

        The guard (require_within) refuses a table before it is started when it could hold over
        LIMIT entries: at most dim V^λ, and at most |W| per dominant μ ≤ λ, whose λ − μ has
        coroot coordinates in the box datum.coroot_bound(λ).  The second bound is worked
        out only when the first is over LIMIT.
        """
        datum = self.datum
        lam = datum.dominant(lam)
        if lam not in self._full_weights:
            if (dim := self.weyl_dim(lam)) > root_datum.LIMIT:
                box = datum.coroot_bound(lam)
                require_within(orbits := datum.weyl_order * prod(b + 1 for b in box),
                               "the weight table of V^%s may hold %d entries (dim V^λ = %d; |W| = %d "
                               "times the points of the box %s is %d)", lam, min(dim, orbits), dim,
                               datum.weyl_order, box, orbits)
            full = {lam: 1}
            for i in datum._w0_word:
                root, coroot = datum.simple_roots[i], datum.simple_coroots[i]
                strings: Dict[Coweight, Dict[int, int]] = {}  # centre ↦ {radius r: coefficient}
                for beta, c in full.items():
                    n = sum(map(operator.mul, beta, root))
                    k = n >> 1  # β = centre + kα̌_i, the centre pairing to ε = n − 2k ∈ {0, 1}
                    r, c = (k, c) if k >= 0 else (~k - (n & 1), -c)  # c at the positions −r − ε … r
                    if r >= 0:
                        centre = tuple(b - k * a for b, a in zip(beta, coroot)) if k else beta
                        radii = strings.setdefault(centre, {})
                        radii[r] = radii.get(r, 0) + c
                full = {}
                for centre, radii in strings.items():
                    low, total = -sum(map(operator.mul, centre, root)), 0  # −ε
                    for r in range(max(radii), -1, -1):  # radii ≥ r cover the positions r and −r − ε
                        if total := total + radii.get(r, 0):
                            full[tuple(x + r * a for x, a in zip(centre, coroot))] = total
                            full[tuple(x + (low - r) * a for x, a in zip(centre, coroot))] = total
            if (least := min(full.values(), default=0)) <= 0 or sum(full.values()) != dim:
                raise InvariantError("Demazure's formula gave V^%s multiplicities that sum to %d, the "
                                     "least %d, for dim V^λ = %d" % (lam, sum(full.values()), least, dim))
            self._full_weights[lam] = tuple(sorted(full.items()))
        return {mu: m for mu, m in self._full_weights[lam] if datum.is_dominant(mu)}

    def weight_table(self, lam) -> Dict[Coweight, int]:
        """The full (Weyl-invariant) weight multiplicity table of V^λ, as a fresh dict."""
        return dict(self._weights(self.datum.dominant(lam)))

    def _weights(self, lam: Coweight) -> Tuple[Tuple[Coweight, int], ...]:
        """The memoized weight table of a checked dominant λ as sorted (ν, multiplicity) pairs."""
        if lam not in self._full_weights:  # filled by dominant_multiplicity_table
            self.dominant_multiplicity_table(lam)
        return self._full_weights[lam]

    # -- tensor products -----------------------------------------------------

    def tensor_decompose(self, lam, mu) -> Dict[Coweight, int]:
        """Multiplicities of irreducibles in V^λ ⊗ V^μ, by Brauer–Klimyk.

        The one core, _brauer_klimyk, iterates the weights of the smaller factor, the one of
        lesser dimension, μ on a tie.
        """
        lam = self.datum.dominant(lam)
        mu = self.datum.dominant(mu)
        key = (lam, mu)
        if key in self._tensor:
            return dict(self._tensor[key])
        iter_weight, fixed = (mu, lam) if self.weyl_dim(mu) <= self.weyl_dim(lam) else (lam, mu)
        result = self._brauer_klimyk(iter_weight, {fixed: 1})
        self._tensor[key] = self._tensor[(mu, lam)] = result
        return dict(result)

    def _brauer_klimyk(self, lam: Coweight, combination: Dict[Coweight, int]) -> Dict[Coweight, int]:
        """Σ_μ n_μ [V^λ ⊗ V^μ] in the basis of irreducibles, λ and every μ dominant and checked.

        Each product is Σ_τ mult(τ) ε(w) V^{w·(μ+τ)} over the weights τ of V^λ, w the element of
        the dot action w·x = w(x+ρ) − ρ that makes μ + τ + ρ dominant (Humphreys, Lie Algebras,
        §24 ex. 9).  The simple-root pairings of μ + τ + ρ are ⟨μ, α_i⟩ + ⟨τ+ρ, α_i⟩, the second
        memoized per λ with its least value ℓ_i over τ.  A deep μ, ⟨μ, α_i⟩ + ℓ_i > 0 for every
        i, has every μ + τ + ρ regular dominant, so its product is V^λ's table shifted by μ.  For
        any other μ, a τ whose μ + τ + ρ has a negative pairing and none 0 is walked: datum.
        _chamber_walk reflects μ + τ in place, on Λ, and ε(w) is (−1)^{#word}.  A pairing 0,
        before or after the walk, means μ + τ + ρ is singular and the term drops.  A table weight of
        multiplicity ≤ 0, or a walked product with a negative multiplicity, raises InvariantError.
        Zero coefficients are dropped.
        """
        datum = self.datum
        walk = datum._chamber_walk
        memo = self._rho_pairings.get(lam)
        if memo is None:
            rows = tuple((tau, tuple(p + 1 for p in datum._simple_pairings(tau)), mult)
                         for tau, mult in self._weights(lam))
            if min(mult for _, _, mult in rows) <= 0:
                raise InvariantError("negative tensor multiplicity")
            memo = self._rho_pairings[lam] = rows, tuple(map(min, zip(*(p for _, p, _ in rows))))
        rows, floor = memo
        acc: Dict[Coweight, int] = {}
        for mu, n in combination.items():
            base = datum._simple_pairings(mu)
            if min(map(operator.add, base, floor)) > 0:  # deep: the table shifted by μ
                for tau, _, mult in rows:
                    nu = tuple(map(operator.add, mu, tau))
                    acc[nu] = acc.get(nu, 0) + n * mult
                continue
            product = {}
            for tau, tau_pairings, mult in rows:
                pairings = list(map(operator.add, base, tau_pairings))
                nu, word = tuple(map(operator.add, mu, tau)), ()
                if min(pairings) < 0 and 0 not in pairings:
                    nu, pairings, word = walk(nu, pairings)
                if 0 not in pairings:
                    product[nu] = product.get(nu, 0) + (-mult if len(word) % 2 else mult)
            if min(product.values(), default=0) < 0:
                raise InvariantError("negative tensor multiplicity")
            for nu, c in product.items():
                acc[nu] = acc.get(nu, 0) + n * c
        return {nu: c for nu, c in acc.items() if c}

    # -- characters ------------------------------------------------------------

    def character_eval(self, lam, gamma: TorusPoint) -> Fraction:
        """Tr(γ, V^λ), exact.

        By Weyl's character formula Σ_w ε(w) γ^{w(λ+ρ)−ρ} over the Weyl denominator
        Σ_w ε(w) γ^{wρ−ρ} = Π_{α>0} (1 − γ^{−α}) (Humphreys, Lie Algebras, §24.3): with
        t_j = γ^{α̌_j}, the quotient γ^λ Σ_w ε(w) t^{c_w(λ)} / Σ_w ε(w) t^{c_w(0)} over the
        signed shifts.  That sum has |W| terms where the weight table has at most dim V^λ, so
        it is taken only when |W| ≤ dim V^λ (and |W| within LIMIT) and γ is regular, where the
        denominator is nonzero.  A regular λ (every ⟨λ, α_i⟩ > 0) has |W| weights on its orbit,
        so only a singular λ asks weyl_dim.  Otherwise the trace is Σ_ν mult(ν) γ^ν over the
        memoized weight table.  Either way each sum is one _power_sum over the powers of the γ_i
        or t_j kept at γ, and the trace is one Fraction; it is kept, with the powers and the
        denominator, until a call at another γ.  The Weyl route also keeps λ's numerator terms
        ε(w)·γ^{w(λ+ρ)−ρ}, and a λ whose neighbour λ − e_k kept them takes each as that term times
        γ^{w e_k}, with no sum (γ^{w(λ+ρ)−ρ} = γ^{w(λ−e_k+ρ)−ρ}·γ^{w e_k}).
        """
        return self._character(self.datum.dominant(lam), gamma)

    def _character(self, lam: Coweight, gamma: TorusPoint) -> Fraction:
        """character_eval of a checked dominant λ; a new γ, or a float or bool in γ, meets torus_point."""
        datum = self.datum
        if (pt := tuple(gamma)) is not self._gamma and (pt != self._gamma or not _RATIONAL.issuperset(map(type, pt))):
            torus_point(pt, datum)  # kept as given, so a repeat call with the same tuple is one test
            self._gamma, self._traces, self._terms, self._steps, self._denominator = pt, {}, {}, {}, None
            self._powers = [([1, g.numerator], [1, g.denominator]) for g in pt]
        trace = self._traces.get(lam)
        if trace is not None:
            return trace
        order, pairings = datum.weyl_order, datum._simple_pairings(lam)
        if order <= root_datum.LIMIT and (min(pairings) > 0 or order <= (self._dims.get(lam) or self.weyl_dim(lam))):
            if self._denominator is None:
                t = [Fraction(a * n, d) for (a,), n, d in
                     (_power_sum(((alpha, 1),), self._powers) for alpha in datum.simple_coroots)]
                t = [([1, x.numerator], [1, x.denominator]) for x in t]
                acc, n, d = _power_sum(datum._dot_walk([0] * datum.rank), t)
                self._denominator = (t, (sum(acc) * n, d))
            t, (n0, d0) = self._denominator
            if n0:
                acc, n, d = self._terms[lam] = self._weyl_terms(lam, pairings, t)
                trace = Fraction(sum(acc) * n * d0, d * n0)
        if trace is None:
            acc, n, d = _power_sum(self._weights(lam), self._powers)
            trace = Fraction(sum(acc) * n, d)
        self._traces[lam] = trace
        return trace

    def _weyl_terms(self, lam: Coweight, pairings: Sequence[int], t) -> Tuple[List[int], int, int]:
        """λ's Weyl numerator terms ε(w)·γ^{w(λ+ρ)−ρ} at the kept γ in tree order, as _power_sum's.

        With a traced neighbour λ − e_k, each is its term times γ^{w e_k} = f_w / C_k, kept per k
        at γ from one _dot_walk at the pairings ⟨e_k, α_i⟩ − 1 (each w e_k − e_k) and one lcm.
        Any other λ takes γ^λ times the sum over its signed shifts.
        """
        for k, x in enumerate(lam):
            near = self._terms.get(lam[:k] + (x - 1,) + lam[k + 1:])
            if near is not None:
                if (step := self._steps.get(k)) is None:
                    walk = self.datum._dot_walk([root[k] - 1 for root in self.datum.simple_roots])
                    acc, n, d = _power_sum([(c, 1) for c, _ in walk], t)
                    factors = [Fraction(a * n, d) * self._gamma[k] for a in acc]
                    scale = lcm(*(f.denominator for f in factors))
                    step = self._steps[k] = [f.numerator * (scale // f.denominator) for f in factors], scale
                acc, n, d = near
                return list(map(operator.mul, acc, step[0])), n, d * step[1]
        acc, n, d = _power_sum(self.datum._dot_walk(pairings), t)
        (g,), gn, h = _power_sum(((lam, 1),), self._powers)
        return acc, n * g * gn, d * h

    def dual_character_eval(self, lam, gamma: TorusPoint) -> Fraction:
        """Tr(γ, (V^λ)*), computed as the character of V^{−w₀λ}."""
        return self._dual_character(self.datum.dominant(lam), gamma)

    def _dual_character(self, lam: Coweight, gamma: TorusPoint) -> Fraction:
        """dual_character_eval of a dominant λ already through the door; w₀ is the cached matrix."""
        w0 = self.datum._w0_matrix
        return self._character(tuple(-sum(map(operator.mul, row, lam)) for row in w0), gamma)

    # -- the q-side ---------------------------------------------------------------

    def q_kostant_partition(self, beta) -> LaurentPoly:
        """q-deformed Kostant partition function of β in the positive coroots.

        The coefficient of e^β in Π_{α>0} (1 − q e^α)^{-1}: each way of writing
        β as a nonnegative-integer combination of positive coroots contributes
        q^{number of parts}.  Zero unless β lies in the Z≥0-span.
        """
        coords = self.datum.coroot_coordinates(self.datum.coweight(beta))
        if coords is None or min(coords) < 0:
            return ZERO
        self._grow_partition_table(coords)
        return self._decode(self._table[sum(map(operator.mul, coords, self._strides))])

    def _grow_partition_table(self, target: Coweight) -> None:
        """Refill the packed q-Kostant table over a box that covers target, unless it does.

        The box is the first of max(target, 2·box), max(target, box) and target (coordinatewise)
        within LIMIT points; the guard refuses a target over LIMIT and leaves the table as it was.
        K is one guard bit over the largest entry at q = 1 (K = 0), a bound on every coefficient.
        """
        box = self._box
        if all(map(operator.le, target, box)):
            return
        require_within(points := prod(x + 1 for x in target),
                       "q-Kostant table box %s would hold %d points", target, points)
        box = next(b for b in (tuple(max(t, 2 * b) for t, b in zip(target, box)),
                               tuple(map(max, target, box)), target)
                   if prod(x + 1 for x in b) <= root_datum.LIMIT)
        strides = [prod(x + 1 for x in box[j + 1:]) for j in range(len(box))]
        # the corner entry is the largest at q = 1: corner − β is a sum of simple coroots for
        # every β in the box, and adding those parts maps the partitions of β injectively into
        # those of the corner, so P(β) ≤ P(corner)
        width = _coin_change(box, strides, self.datum.positive_coroots, 0)[-1].bit_length() + 1
        self._table = _coin_change(box, strides, self.datum.positive_coroots, width)
        self._box, self._strides, self._width, self._offsets = box, strides, width, {}

    def _decode(self, packed: int, origin: int = 0, step: int = 2) -> LaurentPoly:
        """The q-polynomial packed at q = 2^K as a LaurentPoly in v, q^k at v^{origin + step·k}.

        The zero digits below the lowest set bit are skipped in one shift.  A digit in the guard
        bit (a negative int has one) is a negative coefficient, which no q-Kostant value or
        q-analog has (Lusztig 1983; Kato 1982): InvariantError.
        """
        mask, guard, coeffs, width = (1 << self._width) - 1, 1 << (self._width - 1), {}, self._width
        k = ((packed & -packed).bit_length() - 1) // width if packed else 0  # zero digits
        packed >>= k * width
        while packed:
            digit = packed & mask
            if digit & guard:
                raise InvariantError("a q-polynomial has a negative coefficient at q^%d" % k)
            if digit:
                coeffs[origin + step * k] = digit
            packed >>= width
            k += 1
        return LaurentPoly._from_clean(coeffs)

    def check_row_budget(self, lam) -> None:
        """Raise TooLarge before any work if λ's row is oversized: |W| first, then its box coroot_bound(λ)."""
        self.datum.check_weyl_order()
        box = self.datum.coroot_bound(self.datum.dominant(lam))
        require_within(points := prod(b + 1 for b in box),
                       "q-Kostant table box %s would hold %d points", box, points)

    def lusztig_q_analog(self, lam, mu) -> LaurentPoly:
        """Lusztig's q-analog of the weight multiplicity dim V^λ(μ), λ and μ dominant.

        The alternating Weyl sum Σ_w (−1)^{ℓ(w)} P_q(w(λ+ρ) − (μ+ρ)) of the q-Kostant partition
        function P_q; its value at q = 1 is the weight multiplicity.  In coroot coordinates the
        argument is (w(λ+ρ) − (λ+ρ)) + (λ − μ), the first part ≤ 0, a signed shift.  λ's _walk,
        built after check_row_budget(λ), brings the coordinates of λ − μ; a dominant μ off it is
        ≰ λ or off λ's coset: 0.  Else each term reads the packed table at a flat offset memoized
        per λ: one signed sum of ints, decoded once.  A term's argument is on the cone iff
        λ − μ ≥ need = −shift, tested as ((K | H) − N) & H == H on both packed in fields of F
        bits, H their top (guard) bits: exact while F − 1 bits hold every box and need coordinate,
        F derived per λ and refill.  A walked λ or μ of int coordinates is read unvalidated.
        """
        if type(lam) is not tuple or lam not in self._walks or not _INT.issuperset(map(type, lam)):
            lam = self.datum.dominant(lam)
            if lam not in self._walks:
                self.check_row_budget(lam)
                self._walk(lam)
        walk = self._walks[lam]
        key = walk.get(mu) if type(mu) is tuple and _INT.issuperset(map(type, mu)) else None
        if key is None and (key := walk.get(self.datum.dominant(mu))) is None:
            return ZERO
        if lam not in self._offsets:
            # a refill drops every λ's offsets, so λ settles its cover here, once: the table must
            # cover λ − (its walk's deepest μ), which lies below every dominant weight of its
            # coset (Stembridge, The partial order of dominant weights, 1998)
            deepest, top = next(reversed(walk.items()))
            if tuple(map(max, top, *walk.values())) != top:  # top is the coordinatewise maximum
                raise InvariantError("λ − %r does not bound the walk of λ = %r" % (deepest, lam))
            if not all(map(operator.le, top, self._box)):
                self.q_kostant_partition(tuple(map(operator.sub, lam, deepest)))
            shifts = self.datum._dot_walk(self.datum._simple_pairings(lam))[1:]  # each need = −shift ≥ 0
            width = max(self._box + tuple(-min(shift) for shift, _ in shifts)).bit_length() + 1
            fields = [1 << (width * j) for j in range(len(self._box))]
            self._offsets[lam] = (fields, sum(fields) << (width - 1), tuple(
                (-sum(map(operator.mul, shift, fields)), sum(map(operator.mul, shift, self._strides)), sign)
                for shift, sign in shifts))
        return self._decode(self._signed_sums(lam, (key,))[0])

    def _signed_sums(self, lam: Coweight, keys) -> List[int]:
        """Each packed Σ_w (−1)^{ℓ(w)} P_q(shift_w + key) over λ's offsets, key that of a λ − μ."""
        (fields, guard, terms), table, strides, sums = self._offsets[lam], self._table, self._strides, []
        for key in keys:
            base = sum(map(operator.mul, key, strides))
            guarded = sum(map(operator.mul, key, fields)) | guard
            total = table[base]
            for need, offset, sign in terms:
                if (guarded - need) & guard == guard:
                    total += sign * table[base + offset]
            sums.append(total)
        return sums

    def _satake_entries(self, lam: Coweight) -> Dict[Coweight, LaurentPoly]:
        """The c-basis row of A_λ, v^{−⟨λ,2ρ̌⟩} p_{λμ}(q) = v^{2·depth − ⟨λ,2ρ̌⟩} m^q_λ(μ)(v⁻²), by μ.

        After check_row_budget(λ) and λ's walk, lusztig_q_analog(λ, λ) settles the table's cover
        and λ's offsets and reads m_λ(λ), InvariantError unless 1; each other sum is decoded once.
        """
        self.check_row_budget(lam)
        walk = self._walk(lam)  # built here, after the budget, so lusztig_q_analog checks λ no more
        if (diagonal := self.lusztig_q_analog(lam, lam)) != ONE:
            raise InvariantError("the q-analog m_λ(λ) of λ = %r is %s, not 1" % (lam, diagonal))
        level = self.datum.pairing_2rho(lam)
        row, keys = {lam: LaurentPoly._from_clean({-level: 1})}, list(walk.values())[1:]
        for mu, key, packed in zip(islice(walk, 1, None), keys, self._signed_sums(lam, keys)):
            row[mu] = self._decode(packed, 2 * sum(key) - level, -2)
        return row


def _coin_change(box: Coweight, strides: Sequence[int], coroots, width: int) -> List[int]:
    """The q-Kostant partition function on the box, row-major, each value packed at q = 2^width.

    From δ_0, one in-place pass per positive coroot α adds P[β − α]·q to P[β] for each β ≥ α,
    in increasing index (β − α is final when read) along each row of the last coordinate.
    """
    table = [0] * prod(x + 1 for x in box)
    table[0] = 1
    for _, alpha in coroots:
        offset = sum(map(operator.mul, alpha, strides))
        for prefix in iter_product(*(range(a, b + 1) for a, b in zip(alpha[:-1], box[:-1]))):
            row = sum(map(operator.mul, prefix, strides))
            for i in range(row + alpha[-1], row + box[-1] + 1):
                table[i] += table[i - offset] << width
    return table
