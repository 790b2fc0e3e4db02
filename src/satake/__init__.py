"""Exact spherical Hecke algebra, Whittaker module, and orbit combinatorics.

The package computes, over a chosen root datum and entirely in exact
arithmetic: tensor decompositions and characters of the dual group, the
Satake base change between the two natural Hecke bases, Casselman–Shalika
values of the unramified Whittaker function, the cohomology bookkeeping of
affine Grassmannian orbit intersections, and a rank-1 finite-field oracle
that verifies the defining character-sum identity by direct enumeration.
"""

from .grassmannian import CohomologyPrediction, Grassmannian, MVBound
from .hecke import A_BASIS, C_BASIS, PHI_BASIS, BasisElement, HeckeAlgebra
from .laurent import LaurentPoly, ONE, Q, V, VMonomial, ZERO
from .rank1_oracle import Eq2Record, Eq2Report, Rank1Oracle
from .rep_ring import RepRing, gamma_power, torus_point
from .root_datum import (
    DomRep,
    InvariantError,
    PRESETS,
    RootDatum,
    TooLarge,
    build_root_datum,
)
from .whittaker import WhittakerModule

__all__ = [
    "A_BASIS",
    "BasisElement",
    "C_BASIS",
    "CohomologyPrediction",
    "DomRep",
    "Eq2Record",
    "Eq2Report",
    "Grassmannian",
    "HeckeAlgebra",
    "InvariantError",
    "LaurentPoly",
    "MVBound",
    "ONE",
    "PHI_BASIS",
    "PRESETS",
    "Q",
    "Rank1Oracle",
    "RepRing",
    "RootDatum",
    "TooLarge",
    "V",
    "VMonomial",
    "WhittakerModule",
    "ZERO",
    "build_root_datum",
    "gamma_power",
    "torus_point",
]

__version__ = "0.1.0"
