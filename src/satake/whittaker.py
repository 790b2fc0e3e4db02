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
eigenvalue failures.  The residual validates λ_act once and nothing after it: the
truncation is dominant by construction, each of its traces is read once (the ring keeps
the traces at γ), and the action on the whole truncation is one Brauer–Klimyk pass of
V^{λ_act} over the integer combination Σ_μ N_μ [V^μ], the traces over one common
denominator.  The window is the truncation's prefix of level ≤ cutoff.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, Tuple

from .hecke import A_BASIS, PHI_BASIS, BasisElement, HeckeAlgebra, structure_product
from .laurent import ONE, VMonomial
from .rep_ring import TorusPoint, torus_point

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

        Zero off the dominant cone, where γ still passes the door (torus_point).
        """
        lam = self.datum.coweight(lam)
        if not self.datum.is_dominant(lam):
            torus_point(gamma, self.datum)
            return VMonomial(Fraction(0), 0)
        return VMonomial(self.rep._dual_character(lam, gamma), -self.datum.pairing_2rho(lam))

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
        the truncation, so the contract is an exact zero map.  Only λ is validated: each μ
        comes from dominant_box, so its dual trace Tr(γ, V^{−w₀μ}) is read by the ring's
        private route.  The traces are put over one common denominator d, the action is one
        Brauer–Klimyk pass of V^λ over Σ_μ N_μ [V^μ] in integers, and each window entry (a
        prefix of the level-sorted truncation) is one Fraction over d times the eigenvalue's
        denominator.
        """
        self.require_window(cutoff)
        datum, rep = self.datum, self.rep
        lam_act = datum.dominant(lam_act)
        truncation = datum.dominant_box(cutoff + datum.pairing_2rho(lam_act))
        eigenvalue = rep._character(lam_act, gamma)
        traces = [rep._dual_character(mu, gamma) for mu in truncation]
        d = lcm(*(t.denominator for t in traces))
        scaled = {mu: t.numerator * (d // t.denominator) for mu, t in zip(truncation, traces)}
        acted = rep._brauer_klimyk(lam_act, {mu: n for mu, n in scaled.items() if n})
        e, f = eigenvalue.numerator, eigenvalue.denominator
        return {nu: Fraction(acted.get(nu, 0) * f - e * scaled[nu], d * f)
                for nu in truncation[:datum.dominant_count(cutoff)]}
