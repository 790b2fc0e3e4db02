"""The Whittaker module over the spherical Hecke algebra.

The module is free of rank one with basis {φ_λ} over dominant λ; the Hecke
action mirrors the tensor structure constants, φ_μ ⋆ A_λ = Σ_ν C^ν_{λμ} φ_ν,
and the intertwiner h ↦ φ_0 ⋆ h sends A_λ to φ_λ.  Casselman–Shalika values
of the unramified Whittaker function W_γ = Σ_λ Tr(γ,(V^λ)*) φ_λ come out as
an exact rational trace times an explicit power of v.

Only the right action is implemented: the algebra is commutative, so the
left convolution action gives the same coefficient rule after the inversion
involution A_λ ↦ A_{−w₀λ}.

W_γ is an infinite formal sum; only truncations are ever materialized, with
a safe-window contract (padding ⟨λ_act, 2ρ̌⟩) under which the eigenfunction
residual is exactly zero — truncation artifacts can never masquerade as
eigenvalue failures.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple

from .hecke import A_BASIS, PHI_BASIS, BasisElement, HeckeAlgebra, structure_product
from .laurent import ONE, VMonomial
from .rep_ring import TorusPoint

Coweight = Tuple[int, ...]


class WhittakerModule:
    """The rank-one Whittaker module attached to a Hecke algebra."""

    def __init__(self, hecke: HeckeAlgebra) -> None:
        self.hecke = hecke
        self.datum = hecke.datum
        self.rep = hecke.rep

    def phi(self, lam, coeff=ONE) -> BasisElement:
        return BasisElement(PHI_BASIS, {self.datum.dominant(lam): coeff})

    def phi_zero(self) -> BasisElement:
        return self.phi((0,) * self.datum.lattice_rank)

    def act(self, w: BasisElement, h: BasisElement) -> BasisElement:
        """The right Hecke action φ_μ ⋆ A_λ = Σ_ν C^ν_{λμ} φ_ν, bilinearly."""
        if w.basis != PHI_BASIS:
            raise ValueError("whit_act needs a PHI-basis module element")
        if h.basis != A_BASIS:
            raise ValueError("whit_act needs an A-basis algebra element")
        return BasisElement(PHI_BASIS, structure_product(self.rep, h.terms, w.terms))

    def f_transform(self, h: BasisElement) -> BasisElement:
        """The module isomorphism h ↦ φ_0 ⋆ h; on the A-basis it relabels A_λ ↦ φ_λ.

        The coefficient-wise relabeling and the explicit action of h on φ_0
        agree (the action route is exercised separately by the test suite).
        """
        if h.basis != A_BASIS:
            raise ValueError("f_transform needs an A-basis element")
        return BasisElement(PHI_BASIS, dict(h.terms))

    def whittaker_value(self, gamma: TorusPoint, lam) -> VMonomial:
        """Value of W_γ at the coweight λ: Tr(γ, V^{−w₀λ}) · v^{−⟨λ,2ρ̌⟩}.

        Zero off the dominant cone.
        """
        lam = self.datum.coweight(lam)
        if not self.datum.is_dominant(lam):
            return VMonomial(Fraction(0), 0)
        trace = self.rep.dual_character_eval(lam, gamma)
        return VMonomial(trace, -self.datum.pairing_2rho(lam))

    def require_window(self, cutoff: int) -> None:
        """Raise ValueError unless the eigen-residual window for cutoff is finite and nonempty."""
        if cutoff < 0:
            raise ValueError("cutoff too small: the safe window would be empty")
        if self.datum.rank != self.datum.lattice_rank:
            raise ValueError(
                "datum has central torus directions; the truncation window is infinite"
            )

    def eigen_residual(self, gamma: TorusPoint, lam_act, cutoff: int) -> Dict[Coweight, Fraction]:
        """Coefficients of (W_γ|trunc ⋆ A_λ) − Tr(γ,V^λ)·(W_γ|trunc) on the safe window.

        The truncation keeps dominant μ with ⟨μ,2ρ̌⟩ ≤ cutoff + ⟨λ,2ρ̌⟩; the
        window is ⟨ν,2ρ̌⟩ ≤ cutoff, where every tensor contribution is inside
        the truncation, so the contract is an exact zero map.
        """
        self.require_window(cutoff)
        lam_act = self.datum.dominant(lam_act)
        pad = self.datum.pairing_2rho(lam_act)
        truncation = self.datum.dominant_box(cutoff + pad)
        eigenvalue = self.rep.character_eval(lam_act, gamma)
        traces = {mu: self.rep.dual_character_eval(mu, gamma) for mu in truncation}
        acted: Dict[Coweight, Fraction] = {}
        for mu, t_mu in traces.items():
            if t_mu == 0:
                continue
            for nu, mult in self.rep.tensor_decompose(lam_act, mu).items():
                acted[nu] = acted.get(nu, Fraction(0)) + t_mu * mult
        return {
            nu: acted.get(nu, Fraction(0)) - eigenvalue * traces[nu]
            for nu in truncation
            if self.datum.pairing_2rho(nu) <= cutoff
        }
