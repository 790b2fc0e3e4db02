import pytest

from satake.hecke import HeckeAlgebra
from satake.laurent import LaurentPoly
from satake.rank1_oracle import Rank1Oracle


class _CorruptedBaseChange(HeckeAlgebra):
    """The PGL2 Hecke algebra with p_{2,0} ← q in the Satake row of A_2."""

    def satake_row(self, lam):
        row = super().satake_row(lam)
        if tuple(lam) == (2,):
            row[(0,)] = LaurentPoly.q_power(1).shift(-2)  # v^{−2} · q
        return row


@pytest.fixture
def corrupted_oracle():
    """A rank-1 oracle that reads its stalk weights from the corrupted base change."""
    return Rank1Oracle("PGL2", hecke=_CorruptedBaseChange("PGL2"))
