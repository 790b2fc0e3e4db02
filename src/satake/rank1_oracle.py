"""Brute-force finite-field verification of the rank-1 character-sum identity.

For the adjoint rank-1 datum the intersections of orbit closures with
semi-infinite orbits are explicit affine cells: the closure cell for the
orbit labeled m meeting the stratum labeled n is nonempty iff m ≡ n (mod 2)
and |n| ≤ m, and is then an affine space of dimension (n+m)/2 with
coordinates a_i, i = (n−m)/2 … n−1.  The additive character of conductor μ
restricts to the cell as ψ(a_{−1−μ}) (ψ-value 1 when that coordinate is
absent).

The oracle checks, by direct enumeration of F_q-points against the Satake
stalk weights of the intersection-cohomology function, that

    ∫ A_λ(x^{-1}·ν(t)) χ_μ(x) dx  =  q^{−⟨ν,ρ̌⟩} · C^{μ+ν}_{λμ}

for every admissible triple, with the convention that the right side is zero
for non-dominant μ.  With the Haar measure giving the integral-points
subgroup measure 1, the integral over the orbit collapses to the point sum
times the stabilizer measure q^{−ν}; every F_q point carries weight 1.

Two evaluation routes are kept: literal point enumeration, which adds exact
ψ-values in Z[ζ_p] (sums are the only cyclotomic arithmetic it needs), and
the closed-form collapse (a free ψ-coordinate sums to zero; an absent one
contributes the point count).  Their agreement is itself part of the
contract.  q is restricted to primes, where the trace map is the identity.  The size guard
refuses a cell over LIMIT before it is enumerated, and a battery before its first triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Dict, List, Optional, Sequence, Tuple

from .hecke import HeckeAlgebra
from .laurent import LaurentPoly, VMonomial
from .root_datum import LIMIT, InvariantError, RootDatum, build_root_datum, require_within


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Cyclotomic:
    """Sums of p-th roots of unity in Z[ζ_p], p prime; basis 1, ζ, …, ζ^{p−2}.

    The relation Σ_{a ∈ F_p} ζ^a = 0 holds identically in this
    representation.  The public constructor checks p and gives the zero sum;
    sums are built by ``_result`` without the check, since their operands
    passed it, and so is ``zeta``, which point enumeration calls once per
    point after checking q once per cell.
    """

    __slots__ = ("p", "vec")

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError("%d is not prime" % p)
        self.p = p
        self.vec = (0,) * (p - 1)

    @classmethod
    def _result(cls, p: int, vec: Tuple[int, ...]) -> "Cyclotomic":
        out = cls.__new__(cls)
        out.p = p
        out.vec = vec
        return out

    @classmethod
    def zeta(cls, p: int, k: int) -> "Cyclotomic":
        """ζ^k, with ζ^{p−1} rewritten as −(1 + ζ + … + ζ^{p−2}); p is not checked."""
        k %= p
        if k < p - 1:
            return cls._result(p, tuple(1 if i == k else 0 for i in range(p - 1)))
        return cls._result(p, (-1,) * (p - 1))

    def _check(self, other: "Cyclotomic") -> None:
        if self.p != other.p:
            raise ValueError("mixed cyclotomic orders %d and %d" % (self.p, other.p))

    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check(other)
        return Cyclotomic._result(self.p, tuple(a + b for a, b in zip(self.vec, other.vec)))

    def to_integer(self) -> int:
        if any(self.vec[1:]):
            raise ValueError("cyclotomic value %r is not a rational integer" % (self.vec,))
        return self.vec[0]

    def __repr__(self) -> str:
        return "Cyclotomic(p=%d, %r)" % (self.p, self.vec)


def _cell_coordinates(m: int, n: int) -> Optional[Tuple[int, ...]]:
    """The indices i of the coefficients a_i of the closed cell (m, n), or None if it is empty.

    The cell is the affine space of dimension (n+m)/2 on these coordinates; the ψ-relevant
    coordinate for conductor μ is index −1−μ.
    """
    if (m - n) % 2 != 0 or abs(n) > m:
        return None
    return tuple(range((n - m) // 2, n))


def _require_cell(q: int, dim: int, what: str) -> None:
    """The size guard on q^dim points, or ψ-values of q − 1 integers, whichever is larger."""
    # q ≥ 2 passes LIMIT within its bit length in factors, so the power is never formed in full
    require_within(max(q, q ** min(dim, LIMIT.bit_length())),
                   "%s has %d^%d points, each with a ψ-value of %d integers", what, q, dim, q - 1)


def half_power(coeff, odd: bool) -> VMonomial:
    """The value c · v^ε with ε ∈ {0,1}, after folding q = v² into c; zero has ε = 0."""
    coeff = Fraction(coeff)
    return VMonomial(coeff, 1 if odd and coeff else 0)


@dataclass(frozen=True)
class Eq2Record:
    lam: int
    mu: int
    nu: int
    q: int
    lhs: VMonomial
    rhs: VMonomial
    passed: bool

    def to_json(self) -> dict:
        return {
            "lambda": self.lam,
            "mu": self.mu,
            "nu": self.nu,
            "q": self.q,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "pass": self.passed,
        }


@dataclass(frozen=True)
class Eq2Report:
    records: Tuple[Eq2Record, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.records)

    def failures(self) -> Tuple[Eq2Record, ...]:
        return tuple(r for r in self.records if not r.passed)

    def summary(self) -> str:
        good = sum(1 for r in self.records if r.passed)
        tag = "PASS" if good == len(self.records) else "FAIL"
        return "%s %d/%d" % (tag, good, len(self.records))

    def to_json(self) -> list:
        return [r.to_json() for r in self.records]


def _require_rank1_adjoint(datum: RootDatum) -> None:
    if datum.lattice_rank != 1 or datum.simple_coroots != ((2,),):
        raise ValueError(
            "the finite-field oracle needs the adjoint rank-1 datum (preset PGL2)"
        )


class Rank1Oracle:
    """Point-enumeration verifier over the adjoint rank-1 datum."""

    def __init__(self, datum="PGL2", hecke: Optional[HeckeAlgebra] = None):
        self.datum = build_root_datum(datum)
        _require_rank1_adjoint(self.datum)
        self.hecke = hecke if hecke is not None else HeckeAlgebra(self.datum)
        self.rep = self.hecke.rep
        self._closed_sums: Dict[Tuple[int, bool, int], int] = {}
        self._rows: Dict[int, Dict[Tuple[int], LaurentPoly]] = {}  # A_m's Satake row by m

    # -- stalk weights (deliberately pulled from the Hecke base change) -------

    def ic_weight(self, m: int, mprime: int) -> LaurentPoly:
        """Value of the function A_m on the orbit labeled m′: v^{−m} p_{m,m′}(q).

        A_m's Satake row is read once per oracle for an int m; any other m meets satake_row's door.
        """
        row = self._rows.get(m) if type(m) is int else None
        if row is None:
            row = self._rows[m] = self.hecke.satake_row((m,))
        key = (mprime,)
        if key not in row:
            raise ValueError("orbit %d does not meet the closure of orbit %d" % (mprime, m))
        return row[key]

    # -- character sums over cells ---------------------------------------------

    def closed_cell_charsum(self, mprime: int, n: int, j: int, q: int) -> int:
        """Σ over F_q-points of the closed cell of ψ(a_j); exact integer.

        Computed both ways, which must agree: by literal enumeration with
        cyclotomic ψ-values (memoized per cell dimension, ψ-coordinate
        presence and q), and in closed form (free ψ-coordinate ⇒ 0,
        absent ⇒ q^dim).  A cell over LIMIT raises TooLarge before it is enumerated.
        """
        coords = _cell_coordinates(mprime, n)
        if coords is None:
            raise ValueError("empty cell (m = %d, n = %d)" % (mprime, n))
        present = j in coords
        key = (len(coords), present, q)
        if key not in self._closed_sums:
            _require_cell(q, len(coords), "cell (%d, %d)" % (mprime, n))
            pos = coords.index(j) if present else None
            total = Cyclotomic(q)
            for point in iter_product(range(q), repeat=len(coords)):
                total = total + Cyclotomic.zeta(q, point[pos] if pos is not None else 0)
            self._closed_sums[key] = total.to_integer()
        enum_value = self._closed_sums[key]
        closed_value = 0 if present else q ** len(coords)
        if enum_value != closed_value:
            raise InvariantError(
                "evaluation paths disagree on cell (%d,%d): %d vs %d"
                % (mprime, n, enum_value, closed_value)
            )
        return enum_value

    def stratum_charsum(self, mprime: int, n: int, j: int, q: int) -> int:
        """ψ-sum over the locally closed stratum, by peeling the next closed cell."""
        total = self.closed_cell_charsum(mprime, n, j, q)
        if mprime - 2 >= abs(n):
            total -= self.closed_cell_charsum(mprime - 2, n, j, q)
        return total

    # -- the two sides of the identity ----------------------------------------

    def eq2_lhs(self, lam: int, mu: int, nu: int, q: int) -> VMonomial:
        """The orbit integral as an exact value c · v^ε.

        Sums the stalk weight of A_λ against the ψ(a_{−1−μ}) character sum
        over each locally closed stratum inside the closure, then applies the
        stabilizer measure q^{−ν}.  Each label passes datum.coweight, which refuses a non-int.
        """
        (m,), (mu,), (n,) = map(self.datum.coweight, (lam, mu, nu))
        if m < 0:
            raise ValueError("orbit label must be nonnegative")
        if mu + n < 0:
            raise ValueError(
                "inadmissible character: μ+ν = %d is not dominant" % (mu + n)
            )
        j = -1 - mu
        total = LaurentPoly()
        if (m - n) % 2 == 0:
            for mprime in range(m, abs(n) - 1, -2):  # the largest cell is checked first
                total = total + self.ic_weight(m, mprime) * self.stratum_charsum(mprime, n, j, q)
        total = total.shift(-2 * n)  # measure of the stabilizer of ν(t): q^{−ν}
        if not total:
            return half_power(0, False)
        parities = {e % 2 for e in total.exponents()}
        if len(parities) != 1:
            raise InvariantError("orbit integral %s mixes v-parities" % total)
        odd = parities.pop()
        return half_power(total.shift(-odd).eval_q(q), odd == 1)

    def eq2_rhs(self, lam: int, mu: int, nu: int, q: int) -> VMonomial:
        """q^{−⟨ν,ρ̌⟩} · C^{μ+ν}_{λμ}, zero for non-dominant μ."""
        (m,), (mu,), (n,) = map(self.datum.coweight, (lam, mu, nu))
        if mu + n < 0:
            raise ValueError("inadmissible character")
        if mu < 0:
            mult = 0
        else:
            mult = self.rep.tensor_decompose((m,), (mu,)).get((mu + n,), 0)
        odd = n % 2 == 1
        coeff = mult * Fraction(q) ** ((-n - (1 if odd else 0)) // 2)
        return half_power(coeff, odd)

    def check_triple(self, lam: int, mu: int, nu: int, q: int) -> Eq2Record:
        lhs = self.eq2_lhs(lam, mu, nu, q)
        rhs = self.eq2_rhs(lam, mu, nu, q)
        return Eq2Record(lam, mu, nu, q, lhs, rhs, lhs == rhs)

    def triples(self, m_max: int) -> List[Tuple[int, int, int]]:
        """All (λ, ν, μ) with 0 ≤ λ ≤ m_max, |ν| ≤ λ same parity, μ admissible, |μ| ≤ m_max."""
        out = []
        for m in range(m_max + 1):
            for n in range(-m, m + 1, 2):
                for mu in range(max(-n, -m_max), m_max + 1):
                    out.append((m, n, mu))
        return out

    def require_battery(self, m_max: int, q_list: Sequence[int]) -> None:
        """Raise ValueError unless verify_eq2 would run a nonempty battery over distinct primes.

        In order, so a huge q is refused before its slow primality test: m_max ≥ 0 and some q;
        the largest cell, q^m_max points, within LIMIT (TooLarge); each q prime, none repeated.
        """
        if m_max < 0 or not q_list:
            raise ValueError("m_max %d and q values %s give an empty battery" % (m_max, q_list))
        _require_cell(max(q_list), m_max, "battery too large: its largest cell")
        if len(set(q_list)) < len(q_list) or not all(map(is_prime, q_list)):
            raise ValueError("q values must be distinct primes; got %s" % list(q_list))

    def verify_eq2(self, m_max: int, q_list: Sequence[int]) -> Eq2Report:
        """Run the battery, checked first by require_battery; failures become report entries."""
        self.require_battery(m_max, q_list)
        records = [
            self.check_triple(m, mu, n, q)
            for q in q_list
            for (m, n, mu) in self.triples(m_max)
        ]
        records.sort(key=lambda r: (r.q, r.lam, r.nu, r.mu))
        return Eq2Report(tuple(records))
