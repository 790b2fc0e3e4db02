"""Numerical combinatorics of affine Grassmannian orbits and compactification strata.

Orbit dimensions ⟨λ,2ρ̌⟩, the closure order (= dominance), the
Mirković–Vilonen dimension bound for orbit/semi-infinite-orbit intersections,
character admissibility, the predicted compactly-supported cohomology of the
twisted intersection (degree, dimension, Frobenius weight), the large-μ
weight-multiplicity identity, and the even-codimension stratification of the
Drinfeld compactification.  Everything here is bookkeeping on top of the
dual-group representation ring; no geometry is materialized.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Dict, List, Optional, Tuple

from .rep_ring import RepRing
from .root_datum import InvariantError, require_within

Coweight = Tuple[int, ...]


@dataclass(frozen=True)
class CohomologyPrediction:
    """Outcome for one (λ, μ, ν): vanishing, or degree/dimension/Frobenius weight."""

    vanishes: bool
    degree: Optional[int]
    dimension: int
    frobenius_weight: Optional[int]

    def to_json(self) -> dict:
        return {
            "vanishes": self.vanishes,
            "k": self.degree,
            "dim": self.dimension,
            "frob": self.frobenius_weight,
        }


@dataclass(frozen=True)
class MVBound:
    """Dimension bound for an orbit/semi-infinite-orbit intersection.

    flag marks the two extreme cases: "point" at ν = w₀λ and "open dense" at
    ν = λ; empty means the intersection is empty.
    """

    empty: bool
    bound: Optional[int]
    flag: Optional[str]


class Grassmannian:
    """Orbit-level combinatorics for one root datum."""

    def __init__(self, rep: RepRing) -> None:
        self.rep = rep
        self.datum = rep.datum

    def orbit_dim(self, lam) -> int:
        """dim Gr^λ = ⟨λ, 2ρ̌⟩."""
        return self.datum.pairing_2rho(self.datum.dominant(lam))

    def closure_contains(self, lam, mu) -> bool:
        """Gr^μ ⊂ closure(Gr^λ) iff μ ≤ λ in dominance order."""
        return self.datum.dominance_leq(self.datum.dominant(mu), self.datum.dominant(lam))

    def mv_dim_bound(self, lam, nu) -> MVBound:
        """The bound dim(Gr^λ ∩ S^ν) ≤ ⟨λ+ν, ρ̌⟩ when the intersection is nonempty.

        Nonemptiness is decided by ν lying in the weight hull of V^λ (weight
        multiplicity positive), which also requires λ − ν in the coroot
        lattice.
        """
        lam = self.datum.dominant(lam)
        nu = self.datum.coweight(nu)
        if self.rep.weight_table(lam).get(nu, 0) == 0:
            return MVBound(True, None, None)
        total = tuple(a + b for a, b in zip(lam, nu))
        bound, odd = divmod(self.datum.pairing_2rho(total), 2)
        if odd:
            raise InvariantError("MV bound ⟨λ+ν, ρ̌⟩ = %d + 1/2 is not an integer" % bound)
        flag = None
        if nu == self.datum.apply_w0(lam):
            flag = "point"
        elif nu == lam:
            flag = "open dense"
        return MVBound(False, bound, flag)

    def chi_admissible(self, mu, nu) -> bool:
        """The character of conductor μ restricts to the orbit S^ν iff μ+ν is dominant."""
        mu = self.datum.coweight(mu)
        nu = self.datum.coweight(nu)
        return self.datum.is_dominant(tuple(a + b for a, b in zip(mu, nu)))

    def predicted_cohomology(self, lam, mu, nu) -> CohomologyPrediction:
        """Predicted twisted cohomology of the closed intersection at (λ, μ, ν).

        Requires dominant λ and dominant μ+ν (the standing hypothesis, which chi_admissible
        tests; other inputs are rejected, not guessed).  Vanishes unless μ is dominant and
        V^{μ+ν} occurs in V^λ ⊗ V^μ; otherwise: a single degree ⟨2ν,ρ̌⟩ of
        dimension C^{μ+ν}_{λμ}, with Frobenius acting by q^{⟨ν,2ρ̌⟩}.
        """
        lam, mu, nu = self.datum.dominant(lam), self.datum.coweight(mu), self.datum.coweight(nu)
        target = tuple(a + b for a, b in zip(mu, nu))
        if not self.chi_admissible(mu, nu):
            raise ValueError("hypothesis violated: μ+ν = %r is not dominant" % (target,))
        if not self.datum.is_dominant(mu):
            return CohomologyPrediction(True, None, 0, None)
        dim = self.rep.tensor_decompose(lam, mu).get(target, 0)
        if dim == 0:
            return CohomologyPrediction(True, None, 0, None)
        weight = self.datum.pairing_2rho(nu)
        return CohomologyPrediction(False, weight, dim, weight)

    def mv_weight_multiplicity_check(self, lam, nu, mu) -> bool:
        """For μ large against λ, the multiplicity C^{μ+ν}_{λμ} equals dim V^λ(ν).

        The largeness threshold ⟨μ, α̌_i⟩ ≥ ⟨λ, 2ρ̌⟩ for every i is a
        precondition; returns the comparison of the two sides.
        """
        lam = self.datum.dominant(lam)
        nu = self.datum.coweight(nu)
        mu = self.datum.coweight(mu)
        threshold = self.datum.pairing_2rho(lam)
        for root in self.datum.simple_roots:
            if self.datum.pairing(mu, root) < threshold:
                raise ValueError("μ = %r is not large enough against λ = %r" % (mu, lam))
        target = tuple(a + b for a, b in zip(mu, nu))
        if self.datum.is_dominant(target):
            tensor_side = self.rep.tensor_decompose(lam, mu).get(target, 0)
        else:
            tensor_side = 0
        return tensor_side == self.rep.weight_table(lam).get(nu, 0)

    def drinfeld_strata(self, degree_bound: int) -> List[Tuple[Coweight, int]]:
        """Strata of the compactified moduli of unipotent structures, with codimension.

        One stratum per defect γ = −Σ d_i α_i with Σ d_i ≤ degree_bound; the
        codimension is 2Σ d_i, always even.  The size guard refuses over LIMIT strata before any.
        """
        if degree_bound < 0:
            raise ValueError("degree bound must be nonnegative; got %d" % degree_bound)
        rank, coroots = self.datum.rank, self.datum.simple_coroots
        require_within(count := comb(degree_bound + rank, rank), "bound %d gives %d strata",
                       degree_bound, count)
        out: List[Tuple[Coweight, int]] = []
        # stars and bars: r cut points in range(bound + r) give the r degrees between them
        for cuts in combinations(range(degree_bound + rank), rank):
            degrees = [b - a - 1 for a, b in zip((-1,) + cuts, cuts)]
            gamma = tuple(-sum(map(operator.mul, degrees, column)) for column in zip(*coroots))
            out.append((gamma, 2 * sum(degrees)))
        out.sort(key=lambda item: (item[1], item[0]))
        return out
