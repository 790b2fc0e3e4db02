"""The spherical Hecke algebra: A-basis, c-basis, Satake base change, star, evaluation.

Elements are finitely supported sums of dominant coweights with Laurent
polynomial coefficients, tagged by basis.  Multiplication never touches the
defining convolution integral: through the Satake isomorphism the structure
constants in the A-basis are the tensor multiplicities of the dual group.

The base-change matrix takes the unitriangular form

    A_λ = v^{−⟨λ,2ρ̌⟩} ( c_λ + Σ_{μ<λ} p_{λμ}(q) c_μ ),
    p_{λμ}(q) = q^{⟨λ−μ,ρ̌⟩} · m_λ^q(μ)(q^{-1}),

where m_λ^q is the Lusztig q-analog of the weight multiplicity.  Three checks
pin the q-powers in rank 1 or at q = 1 only (rank-1 closed forms, the
finite-field character-sum oracle, and the q = 1 mass count), and the oracle
test battery fails for any other twist.  tests/test_macdonald.py checks the
full q-dependence on every preset against Macdonald's formula, a route that
shares no code with the q-Kostant table or the Lusztig q-analogs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping, Tuple

from .laurent import LaurentPoly, ONE, as_poly
from .rep_ring import RepRing, TorusPoint
from .root_datum import build_root_datum

A_BASIS = "A"
C_BASIS = "C"
PHI_BASIS = "PHI"
_BASES = (A_BASIS, C_BASIS, PHI_BASIS)

Coweight = Tuple[int, ...]


class BasisElement:
    """A finitely supported map from dominant coweights to Laurent polynomials.

    Tagged with its basis: A (Satake images of dual irreducibles), C
    (characteristic functions of double cosets) or PHI (the Whittaker basis).
    Zero-coefficient terms are dropped on construction; instances are treated
    as immutable.
    """

    __slots__ = ("basis", "terms")

    def __init__(self, basis: str, terms: Mapping[Coweight, LaurentPoly] | None = None):
        if basis not in _BASES:
            raise ValueError("unknown basis tag %r" % basis)
        clean: Dict[Coweight, LaurentPoly] = {}
        for cw, coeff in (terms or {}).items():
            poly = as_poly(coeff)
            if poly:
                clean[tuple(int(x) for x in cw)] = poly
        self.basis = basis
        self.terms = clean

    def sorted_terms(self) -> Tuple[Tuple[Coweight, LaurentPoly], ...]:
        return tuple(sorted(self.terms.items()))

    def support(self) -> Tuple[Coweight, ...]:
        return tuple(sorted(self.terms))

    def coefficient(self, cw) -> LaurentPoly:
        return self.terms.get(tuple(cw), LaurentPoly())

    def plus(self, other: "BasisElement") -> "BasisElement":
        if self.basis != other.basis:
            raise ValueError("basis mismatch: %s vs %s" % (self.basis, other.basis))
        out = dict(self.terms)
        for cw, coeff in other.terms.items():
            out[cw] = out.get(cw, LaurentPoly()) + coeff
        return BasisElement(self.basis, out)

    def scaled(self, factor) -> "BasisElement":
        factor = as_poly(factor)
        return BasisElement(self.basis, {cw: coeff * factor for cw, coeff in self.terms.items()})

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

    @classmethod
    def from_json(cls, data: Mapping) -> "BasisElement":
        return cls(
            data["basis"],
            {
                tuple(term["coweight"]): LaurentPoly.from_json(term["coeff"])
                for term in data["terms"]
            },
        )


def structure_product(
    rep: RepRing, left: Mapping[Coweight, LaurentPoly], right: Mapping[Coweight, LaurentPoly]
) -> Dict[Coweight, LaurentPoly]:
    """The bilinear product Σ_{λ,μ} left_λ · right_μ · Σ_ν C^ν_{λμ} e_ν."""
    acc: Dict[Coweight, LaurentPoly] = {}
    for lam, c1 in left.items():
        for mu, c2 in right.items():
            coeff = c1 * c2
            for nu, mult in rep.tensor_decompose(lam, mu).items():
                acc[nu] = acc.get(nu, LaurentPoly()) + coeff * mult
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

    def unit(self) -> BasisElement:
        """The unit A_0 = c_0, the characteristic function of the maximal compact."""
        zero = (0,) * self.datum.lattice_rank
        return BasisElement(A_BASIS, {zero: ONE})

    # -- multiplication --------------------------------------------------------

    def mul(self, h1: BasisElement, h2: BasisElement) -> BasisElement:
        """A_λ ⋆ A_μ = Σ_ν C^ν_{λμ} A_ν, extended bilinearly."""
        if h1.basis != A_BASIS or h2.basis != A_BASIS:
            raise ValueError("hecke_mul needs A-basis operands")
        return BasisElement(A_BASIS, structure_product(self.rep, h1.terms, h2.terms))

    # -- Satake base change -------------------------------------------------------

    def satake_row(self, lam) -> Dict[Coweight, LaurentPoly]:
        """The c-basis expansion of A_λ as a map μ ↦ coefficient.

        The coefficient of c_μ is v^{−⟨λ,2ρ̌⟩} p_{λμ}(q) for dominant μ ≤ λ,
        with p_{λλ} = 1.
        """
        lam = self.datum.dominant(lam)
        if lam in self._satake_rows:
            return dict(self._satake_rows[lam])
        prefactor = -self.datum.pairing_2rho(lam)
        row: Dict[Coweight, LaurentPoly] = {}
        for depth, mu, _ in self.rep.dominant_weights_below(lam):
            if depth == 0:
                row[mu] = LaurentPoly.v_power(prefactor)
                continue
            analog = self.rep.lusztig_q_analog(lam, mu)
            # p(q) = q^{⟨λ−μ,ρ̌⟩} m^q(q^{-1}); the ρ̌-pairing of λ−μ equals the depth.
            p = analog.subst_v_inverse().shift(2 * depth)
            row[mu] = p.shift(prefactor)
        self._satake_rows[lam] = row
        return dict(row)

    def satake_to_c(self, h: BasisElement) -> BasisElement:
        if h.basis != A_BASIS:
            raise ValueError("satake_to_c needs an A-basis element")
        acc: Dict[Coweight, LaurentPoly] = {}
        for lam, coeff in h.terms.items():
            for mu, entry in self.satake_row(lam).items():
                acc[mu] = acc.get(mu, LaurentPoly()) + coeff * entry
        return BasisElement(C_BASIS, acc)

    def c_to_satake(self, h: BasisElement) -> BasisElement:
        """Invert the unitriangular base change by peeling highest terms."""
        if h.basis != C_BASIS:
            raise ValueError("c_to_satake needs a C-basis element")
        work: Dict[Coweight, LaurentPoly] = dict(h.terms)
        acc: Dict[Coweight, LaurentPoly] = {}
        while work:
            lam = max(work, key=lambda cw: (self.datum.pairing_2rho(cw), cw))
            coeff = work.pop(lam)
            a_coeff = coeff.shift(self.datum.pairing_2rho(lam))
            acc[lam] = acc.get(lam, LaurentPoly()) + a_coeff
            for mu, entry in self.satake_row(lam).items():
                if mu == lam:
                    continue
                updated = work.get(mu, LaurentPoly()) - a_coeff * entry
                if updated:
                    work[mu] = updated
                else:
                    work.pop(mu, None)
        return BasisElement(A_BASIS, acc)

    # -- involution and evaluation ---------------------------------------------------

    def star_involution(self, h: BasisElement) -> BasisElement:
        """The inversion involution: A_λ ↦ A_{−w₀λ}, extended linearly."""
        if h.basis != A_BASIS:
            raise ValueError("star_involution needs an A-basis element")
        out: Dict[Coweight, LaurentPoly] = {}
        for lam, coeff in h.terms.items():
            image = tuple(-x for x in self.datum.apply_w0(lam))
            out[image] = out.get(image, LaurentPoly()) + coeff
        return BasisElement(A_BASIS, out)

    def eval_gamma(self, h: BasisElement, gamma: TorusPoint, v=None) -> Fraction:
        """Σ_λ coeff_λ · Tr(γ, V^λ); a ring homomorphism.

        Coefficients that are honest polynomials in v need a rational value
        for v; constant coefficients evaluate symbolically.
        """
        if h.basis != A_BASIS:
            raise ValueError("eval_gamma needs an A-basis element")
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
