"""The spherical Hecke algebra: A-basis, c-basis, Satake base change, star, evaluation.

Elements are finitely supported sums of dominant coweights with Laurent
polynomial coefficients, tagged by basis.  Multiplication never touches the
defining convolution integral: through the Satake isomorphism the structure
constants in the A-basis are the tensor multiplicities of the dual group.

The base-change matrix takes the unitriangular form

    A_λ = v^{−⟨λ,2ρ̌⟩} ( c_λ + Σ_{μ<λ} p_{λμ}(q) c_μ ),
    p_{λμ}(q) = q^{⟨λ−μ,ρ̌⟩} · m_λ^q(μ)(q^{-1}),

where m_λ^q is the Lusztig q-analog of the weight multiplicity: per μ of the walk below λ,
one signed sum of the ring's packed q-Kostant table, its q^k digit decoded straight at
v^{2·depth − ⟨λ,2ρ̌⟩ − 2k} (depth = ⟨λ−μ,ρ̌⟩).  The inverse peels the highest term, pairing
each coweight with 2ρ̌ once and dropping a cancelled term by a comparison.  Three checks pin
the q-powers in rank 1 or at q = 1 only (rank-1 closed forms, the finite-field character-sum
oracle, and the q = 1 mass count), and the oracle test battery fails for any other twist.
tests/test_macdonald.py checks the full q-dependence on every preset against Macdonald's
formula, a route that shares no code with the q-Kostant table or the Lusztig q-analogs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping, Tuple

from .laurent import LaurentPoly, ONE, ZERO, as_poly
from .rep_ring import RepRing, TorusPoint, torus_point
from .root_datum import build_root_datum

A_BASIS = "A"
C_BASIS = "C"
PHI_BASIS = "PHI"
_BASES = (A_BASIS, C_BASIS, PHI_BASIS)

Coweight = Tuple[int, ...]


class BasisElement:
    """A finitely supported map from dominant coweights to Laurent polynomials.

    Tagged with its basis: A (Satake images of dual irreducibles), C
    (characteristic functions of double cosets) or PHI (the Whittaker basis).  Keys are
    kept as given (HeckeAlgebra.element checks them through RootDatum.dominant), and
    zero-coefficient terms are dropped on construction; instances are treated as immutable.
    """

    __slots__ = ("basis", "terms")

    def __init__(self, basis: str, terms: Mapping[Coweight, LaurentPoly] | None = None):
        if basis not in _BASES:
            raise ValueError("unknown basis tag %r" % basis)
        clean: Dict[Coweight, LaurentPoly] = {}
        for cw, coeff in (terms or {}).items():
            poly = as_poly(coeff)
            if poly:
                clean[cw] = poly
        self.basis = basis
        self.terms = clean

    def sorted_terms(self) -> Tuple[Tuple[Coweight, LaurentPoly], ...]:
        return tuple(sorted(self.terms.items()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BasisElement):
            return NotImplemented
        return self.basis == other.basis and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        inner = ", ".join("%r: %s" % (cw, coeff) for cw, coeff in self.sorted_terms())
        return "BasisElement(%s, {%s})" % (self.basis, inner)

    def to_json(self) -> dict:
        return {
            "basis": self.basis,
            "terms": [
                {"coweight": list(cw), "coeff": coeff.to_json()}
                for cw, coeff in self.sorted_terms()
            ],
        }


def structure_product(
    rep: RepRing, left: Mapping[Coweight, LaurentPoly], right: Mapping[Coweight, LaurentPoly]
) -> Dict[Coweight, LaurentPoly]:
    """The bilinear product Σ_{λ,μ} left_λ · right_μ · Σ_ν C^ν_{λμ} e_ν."""
    acc: Dict[Coweight, LaurentPoly] = {}
    for lam, c1 in left.items():
        for mu, c2 in right.items():
            coeff = c1 * c2
            for nu, mult in rep.tensor_decompose(lam, mu).items():
                acc[nu] = acc.get(nu, ZERO) + coeff * mult
    return acc


class HeckeAlgebra:
    """The spherical Hecke algebra attached to a root datum."""

    def __init__(self, datum) -> None:
        self.datum = build_root_datum(datum)
        self.rep = RepRing(self.datum)
        self._satake_rows: Dict[Coweight, Dict[Coweight, LaurentPoly]] = {}

    # -- element construction ------------------------------------------------

    def element(self, basis: str, terms: Mapping) -> BasisElement:
        return BasisElement(basis, {self.datum.dominant(cw): c for cw, c in terms.items()})

    def monomial(self, basis: str, cw, coeff=ONE) -> BasisElement:
        return self.element(basis, {self.datum.coweight(cw): coeff})

    # -- multiplication --------------------------------------------------------

    def mul(self, h1: BasisElement, h2: BasisElement) -> BasisElement:
        """A_λ ⋆ A_μ = Σ_ν C^ν_{λμ} A_ν, extended bilinearly."""
        if h1.basis != A_BASIS or h2.basis != A_BASIS:
            raise ValueError("hecke_mul needs A-basis operands")
        return BasisElement(A_BASIS, structure_product(self.rep, h1.terms, h2.terms))

    # -- Satake base change -------------------------------------------------------

    def satake_row(self, lam) -> Dict[Coweight, LaurentPoly]:
        """The c-basis expansion of A_λ as a map μ ↦ coefficient, memoized per λ.

        The coefficient of c_μ is v^{−⟨λ,2ρ̌⟩} p_{λμ}(q) for dominant μ ≤ λ, with p_{λλ} = 1, from
        rep._satake_entries, which raises TooLarge before any work if rep.check_row_budget refuses λ.
        """
        lam = self.datum.dominant(lam)
        if lam not in self._satake_rows:
            self._satake_rows[lam] = self.rep._satake_entries(lam)
        return dict(self._satake_rows[lam])

    def satake_to_c(self, h: BasisElement) -> BasisElement:
        if h.basis != A_BASIS:
            raise ValueError("satake_to_c needs an A-basis element")
        acc: Dict[Coweight, LaurentPoly] = {}
        for lam, coeff in h.terms.items():
            for mu, entry in self.satake_row(lam).items():
                acc[mu] = acc.get(mu, ZERO) + coeff * entry
        return BasisElement(C_BASIS, acc)

    def c_to_satake(self, h: BasisElement) -> BasisElement:
        """Invert the unitriangular base change by peeling highest terms.

        Each coweight is paired with 2ρ̌ once per call; a term the peel cancels is dropped by a
        comparison, not built as a zero difference.
        """
        if h.basis != C_BASIS:
            raise ValueError("c_to_satake needs a C-basis element")
        work: Dict[Coweight, LaurentPoly] = dict(h.terms)
        levels = {cw: self.datum.pairing_2rho(cw) for cw in work}
        acc: Dict[Coweight, LaurentPoly] = {}
        while work:
            lam = max(work, key=lambda cw: (levels[cw], cw))
            # every later λ is lower, so none brings this one back into work
            acc[lam] = a_coeff = work.pop(lam).shift(levels[lam])
            for mu, entry in self.satake_row(lam).items():
                if mu == lam:
                    continue
                current, scaled = work.pop(mu, ZERO), a_coeff * entry
                if current != scaled:
                    work[mu] = current - scaled
                    if mu not in levels:
                        levels[mu] = self.datum.pairing_2rho(mu)
        return BasisElement(A_BASIS, acc)

    # -- involution and evaluation ---------------------------------------------------

    def star_involution(self, h: BasisElement) -> BasisElement:
        """The inversion involution: A_λ ↦ A_{−w₀λ}, extended linearly."""
        if h.basis != A_BASIS:
            raise ValueError("star_involution needs an A-basis element")
        out: Dict[Coweight, LaurentPoly] = {}
        for lam, coeff in h.terms.items():
            image = tuple(-x for x in self.datum.apply_w0(lam))
            out[image] = out.get(image, ZERO) + coeff
        return BasisElement(A_BASIS, out)

    def eval_gamma(self, h: BasisElement, gamma: TorusPoint, v=None) -> Fraction:
        """Σ_λ coeff_λ · Tr(γ, V^λ); a ring homomorphism.

        Coefficients that are honest polynomials in v need a rational value for v; constant
        coefficients evaluate symbolically.  γ passes torus_point even when h is zero.
        """
        if h.basis != A_BASIS:
            raise ValueError("eval_gamma needs an A-basis element")
        gamma = torus_point(gamma, self.datum)
        total = Fraction(0)
        for lam, coeff in h.terms.items():
            if coeff.is_constant():
                scalar = Fraction(coeff.constant_value())
            elif v is None:
                raise ValueError("element has v-dependent coefficients; pass a value for v")
            else:
                scalar = coeff.eval_v(v)
            total += scalar * self.rep.character_eval(lam, gamma)
        return total
