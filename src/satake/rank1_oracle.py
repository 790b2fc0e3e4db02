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

Two evaluation routes are kept: literal point enumeration with exact
cyclotomic ψ-values, and the closed-form collapse (a free ψ-coordinate sums
to zero; an absent one contributes the point count).  Their agreement is
itself part of the contract.  q is restricted to primes, where the trace map
is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Dict, List, Optional, Sequence, Tuple

from .hecke import HeckeAlgebra
from .laurent import LaurentPoly, VMonomial
from .root_datum import InvariantError, RootDatum, build_root_datum


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
    """Exact arithmetic in Z[ζ_p], p prime; basis 1, ζ, …, ζ^{p−2}.

    The relation Σ_{a ∈ F_p} ζ^a = 0 holds identically in this
    representation.  The public constructor checks p and the length of the
    vector; results of arithmetic are built by ``_result`` without the
    checks, since their operands passed them, and so is ``zeta``, which point
    enumeration calls once per point after checking q once per cell.
    """

    __slots__ = ("p", "vec")

    def __init__(self, p: int, vec: Optional[Sequence[int]] = None):
        if not is_prime(p):
            raise ValueError("%d is not prime" % p)
        self.p = p
        self.vec = tuple(vec) if vec is not None else (0,) * (p - 1)
        if len(self.vec) != p - 1:
            raise ValueError("coordinate vector must have length p-1")

    @classmethod
    def _result(cls, p: int, vec: Tuple[int, ...]) -> "Cyclotomic":
        out = cls.__new__(cls)
        out.p = p
        out.vec = vec
        return out

    @classmethod
    def integer(cls, p: int, n: int) -> "Cyclotomic":
        return cls(p, (n,) + (0,) * (p - 2))

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

    def __sub__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check(other)
        return Cyclotomic._result(self.p, tuple(a - b for a, b in zip(self.vec, other.vec)))

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic._result(self.p, tuple(-a for a in self.vec))

    def __mul__(self, other):
        if isinstance(other, int):
            return Cyclotomic._result(self.p, tuple(a * other for a in self.vec))
        self._check(other)
        p = self.p
        acc = [0] * p
        for i, a in enumerate(self.vec):
            if not a:
                continue
            for j, b in enumerate(other.vec):
                if b:
                    acc[(i + j) % p] += a * b
        top = acc[p - 1]
        return Cyclotomic._result(p, tuple(acc[i] - top for i in range(p - 1)))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.vec == Cyclotomic.integer(self.p, other).vec
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.p == other.p and self.vec == other.vec

    def __bool__(self) -> bool:
        return any(self.vec)

    def is_integer(self) -> bool:
        return not any(self.vec[1:])

    def to_integer(self) -> int:
        if not self.is_integer():
            raise ValueError("cyclotomic value %r is not a rational integer" % (self.vec,))
        return self.vec[0]

    def __repr__(self) -> str:
        return "Cyclotomic(p=%d, %r)" % (self.p, self.vec)


@dataclass(frozen=True)
class Rank1Cell:
    """The closed cell: orbit-closure m meeting stratum n, an affine space.

    coordinates holds the live indices i of the coefficients a_i; dim is
    (n+m)/2.  The ψ-relevant coordinate for conductor μ is index −1−μ.
    """

    m: int
    n: int
    dim: int
    coordinates: Tuple[int, ...]

    @classmethod
    def build(cls, m: int, n: int) -> Optional["Rank1Cell"]:
        if m < 0:
            raise ValueError("orbit label must be nonnegative")
        if (m - n) % 2 != 0 or abs(n) > m:
            return None
        dim = (n + m) // 2
        coords = tuple(range((n - m) // 2, n))
        if len(coords) != dim:
            raise InvariantError("cell (%d,%d) has %d coordinates" % (m, n, len(coords)))
        return cls(m=m, n=n, dim=dim, coordinates=coords)


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

    # -- stalk weights (deliberately pulled from the Hecke base change) -------

    def ic_weight(self, m: int, mprime: int) -> LaurentPoly:
        """Value of the function A_m on the orbit labeled m′: v^{−m} p_{m,m′}(q)."""
        row = self.hecke.satake_row((m,))
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
        absent ⇒ q^dim).
        """
        if not is_prime(q):
            raise ValueError("the oracle works over prime fields; got q = %d" % q)
        c = Rank1Cell.build(mprime, n)
        if c is None:
            raise ValueError("empty cell (m = %d, n = %d)" % (mprime, n))
        present = j in c.coordinates
        key = (c.dim, present, q)
        if key not in self._closed_sums:
            pos = c.coordinates.index(j) if present else None
            total = Cyclotomic(q)
            for point in iter_product(range(q), repeat=c.dim):
                total = total + Cyclotomic.zeta(q, point[pos] if pos is not None else 0)
            self._closed_sums[key] = total.to_integer()
        enum_value = self._closed_sums[key]
        closed_value = 0 if present else q ** c.dim
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

    def point_count(self, m: int, n: int, q: int) -> int:
        """|closed cell(F_q)| by literal enumeration."""
        c = Rank1Cell.build(m, n)
        if c is None:
            return 0
        return sum(1 for _ in iter_product(range(q), repeat=c.dim))

    # -- the two sides of the identity ----------------------------------------

    def eq2_lhs(self, lam: int, mu: int, nu: int, q: int) -> VMonomial:
        """The orbit integral as an exact value c · v^ε.

        Sums the stalk weight of A_λ against the ψ(a_{−1−μ}) character sum
        over each locally closed stratum inside the closure, then applies the
        stabilizer measure q^{−ν}.
        """
        m, mu, n = int(lam), int(mu), int(nu)
        if m < 0:
            raise ValueError("orbit label must be nonnegative")
        if mu + n < 0:
            raise ValueError(
                "inadmissible character: μ+ν = %d is not dominant" % (mu + n)
            )
        j = -1 - mu
        total = LaurentPoly()
        if (m - n) % 2 == 0:
            for mprime in range(abs(n), m + 1, 2):
                total = total + self.ic_weight(m, mprime) * self.stratum_charsum(mprime, n, j, q)
        total = total.shift(-2 * n)  # measure of the stabilizer of ν(t): q^{−ν}
        if not total:
            return half_power(0, False)
        parities = {e % 2 for e in total.exponents()}
        if len(parities) != 1:
            raise InvariantError("orbit integral %s mixes v-parities" % total)
        odd = parities.pop() == 1
        coeff = Fraction(0)
        for e, cf in total.items():
            coeff += cf * Fraction(q) ** ((e - (1 if odd else 0)) // 2)
        return half_power(coeff, odd)

    def eq2_rhs(self, lam: int, mu: int, nu: int, q: int) -> VMonomial:
        """q^{−⟨ν,ρ̌⟩} · C^{μ+ν}_{λμ}, zero for non-dominant μ."""
        m, mu, n = int(lam), int(mu), int(nu)
        if mu + n < 0:
            raise ValueError("inadmissible character")
        if mu < 0:
            mult = 0
        else:
            mult = self.rep.tensor_multiplicity((m,), (mu,), (mu + n,))
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

    def verify_eq2(self, m_max: int, q_list: Sequence[int]) -> Eq2Report:
        """Run the whole battery; failures become report entries, not exceptions."""
        records = [
            self.check_triple(m, mu, n, q)
            for q in q_list
            for (m, n, mu) in self.triples(m_max)
        ]
        records.sort(key=lambda r: (r.q, r.lam, r.nu, r.mu))
        return Eq2Report(tuple(records))
