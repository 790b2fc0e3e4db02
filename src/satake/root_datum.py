"""Root data for split reductive groups and the combinatorics of their coweight lattice.

A datum fixes a concrete lattice Λ = Z^n together with the simple coroots
(vectors in Λ) and simple roots (vectors in the dual lattice).  Everything
downstream — the dual-group representation ring, the Hecke algebra, the
orbit combinatorics — is parameterized by one of these objects.

One breadth-first closure under the simple reflections (_closure) yields the
Weyl group as integer matrices on Λ (the BFS depth is the Coxeter length),
Weyl orbits, the ρ-shifted orbits in coroot coordinates, and both positive
systems, which run in simple-root coordinates under the Cartan matrix or its
transpose.  The datum also owns the one
W-invariant form (x, y) = Σ_{β>0} ⟨x, β⟩⟨y, β⟩ and the one dominance check
(dominant) that callers use on coweight arguments.  All arithmetic is exact.
Every lattice vector is a tuple of ints; a half-integral vector such as ρ̌ or
ρ of the dual group is only ever held doubled (two_rho_check, two_rho_dual),
and callers halve a result after a parity check.  No Fraction appears:
coroot coordinates are solved in integers through the adjugate of the Cartan
matrix, and determinants come from fraction-free elimination.  Instances are
immutable after construction and safe for concurrent reads.
LIMIT is the package's one size bound: work that would hold more than LIMIT elements
raises TooLarge where it would start, before any of it is done.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import combinations, product as iter_product
from math import prod
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

Vector = Tuple[int, ...]
Matrix = Tuple[Tuple[int, ...], ...]

LIMIT = 1_000_000


class InvariantError(AssertionError):
    """A mathematical contract of the library failed: a bug, not bad input.

    Raised explicitly, so the check also runs under ``python -O``.
    """


class TooLarge(ValueError):
    """An input whose work would hold more than LIMIT elements, refused before it starts."""


class DomRep(NamedTuple):
    """Result of reducing a lattice vector into the dominant Weyl chamber."""

    coweight: Tuple
    word: Tuple[int, ...]
    sign: int


def _dot(a: Sequence, b: Sequence):
    """The pairing Σ a_i b_i: an int for integer vectors."""
    if len(a) != len(b):
        raise ValueError("dimension mismatch: %d vs %d" % (len(a), len(b)))
    return sum(x * y for x, y in zip(a, b))


def _reflect(vec: Sequence, pair_with: Sequence, along: Sequence) -> Tuple:
    """vec − ⟨vec, pair_with⟩ · along."""
    c = _dot(vec, pair_with)
    return tuple(x - c * a for x, a in zip(vec, along))


def _closure(starts: Sequence, moves: Sequence) -> Dict:
    """Breadth-first closure of starts under moves, as {element: BFS depth}.

    Every closure here is a Weyl group, an orbit of it or a root system, so it
    raises TooLarge once it outgrows LIMIT.
    """
    seen = dict.fromkeys(starts, 0)
    frontier = list(seen)
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for x in frontier:
            for move in moves:
                y = move(x)
                if y not in seen:
                    seen[y] = depth
                    nxt.append(y)
        frontier = nxt
        if len(seen) > LIMIT:
            raise TooLarge("a Weyl group closure exceeds the limit of %d" % LIMIT)
    return seen


def _positive_system(
    pairings: Matrix, simples: Sequence[Vector]
) -> Tuple[Tuple[Vector, Vector], ...]:
    """Positive roots of the system with simple roots `simples`, as (vector, coordinates).

    pairings[i][j] pairs simple root j with simple dual root i, so in simple-root
    coordinates s_i changes only the i-th coordinate: c_i ↦ c_i − Σ_j pairings[i][j] c_j.
    Sorted by height and then lexicographically.
    """
    rank = len(simples)

    def reflection(i: int):
        return lambda c: c[:i] + (c[i] - _dot(pairings[i], c),) + c[i + 1:]

    units = [tuple(int(k == i) for k in range(rank)) for i in range(rank)]
    positive = [
        (tuple(_dot(c, column) for column in zip(*simples)), c)
        for c in _closure(units, [reflection(i) for i in range(rank)])
        if min(c) >= 0
    ]
    positive.sort(key=lambda vc: (sum(vc[1]), vc[0]))
    return tuple(positive)


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def _det(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss) elimination.

    Each division by the previous pivot is exact: the quotient is a minor (Sylvester).
    """
    m, sign, prev = [list(row) for row in matrix], 1, 1
    for k in range(len(m) - 1):
        pick = next((r for r in range(k, len(m)) if m[r][k]), None)
        if pick is None:
            return 0
        if pick != k:
            m[k], m[pick], sign = m[pick], m[k], -sign
        for i in range(k + 1, len(m)):
            m[i] = [(x * m[k][k] - m[i][k] * y) // prev for x, y in zip(m[i], m[k])]
        prev = m[k][k]
    return sign * m[-1][-1] if m else 1


def _adjugate(matrix: Sequence[Sequence[int]]) -> Tuple[Matrix, int]:
    """(adj M, det M) for a square integer matrix M, so that M · adj M = det M · I."""
    r = len(matrix)
    adjugate = tuple(  # entry (j, k) is the cofactor of entry (k, j)
        tuple((-1) ** (j + k) * _det([row[:j] + row[j + 1:] for row in matrix[:k] + matrix[k + 1:]])
              for k in range(r))
        for j in range(r))
    return adjugate, _det(matrix)


@dataclass(frozen=True)
class RootDatum:
    """A finite-type root datum on a concrete lattice Λ = Z^lattice_rank.

    cartan_matrix[i][j] = ⟨α̌_j, α_i⟩, so rows index the simple roots and
    columns the simple coroots.  Construct through build_root_datum, which
    validates finite type and pairing consistency.
    """

    lattice_rank: int
    simple_coroots: Tuple[Vector, ...]
    simple_roots: Tuple[Vector, ...]
    cartan_matrix: Matrix

    @property
    def rank(self) -> int:
        return len(self.simple_coroots)

    # -- basic lattice operations -----------------------------------------

    def coweight(self, x) -> Tuple:
        """Normalize an int (rank-1 convenience) or a sequence to a coweight tuple."""
        if isinstance(x, int):
            if self.lattice_rank != 1:
                raise ValueError("scalar coweight only allowed for lattice rank 1")
            return (x,)
        t = tuple(x)
        if len(t) != self.lattice_rank:
            raise ValueError(
                "coweight %r has length %d, expected %d" % (x, len(t), self.lattice_rank)
            )
        return t

    def pairing(self, lam: Sequence, x: Sequence):
        """The canonical pairing of a coweight with a dual-lattice vector."""
        return _dot(lam, x)

    def pairing_2rho(self, lam: Sequence) -> int:
        """⟨λ, 2ρ̌⟩, always an integer."""
        val = _dot(lam, self.two_rho_check)
        if val != int(val):
            raise InvariantError("⟨%r, 2ρ̌⟩ = %s is not an integer" % (tuple(lam), val))
        return int(val)

    def reflect(self, i: int, lam: Sequence) -> Tuple:
        """Simple reflection s_i(λ) = λ − ⟨λ, α_i⟩ α̌_i on the coweight side."""
        return _reflect(lam, self.simple_roots[i], self.simple_coroots[i])

    def _simple_pairings(self, lam: Sequence) -> List:
        """⟨λ, α_i⟩ for every simple root α_i."""
        if len(lam) != self.lattice_rank:
            raise ValueError("dimension mismatch: %d vs %d" % (len(lam), self.lattice_rank))
        return [sum(map(operator.mul, lam, root)) for root in self.simple_roots]

    def is_dominant(self, lam: Sequence) -> bool:
        return min(self._simple_pairings(lam)) >= 0

    def dominant(self, x) -> Tuple:
        """Normalize x as coweight() does, and raise ValueError unless it is dominant."""
        lam = self.coweight(x)
        if not self.is_dominant(lam):
            raise ValueError("coweight %r is not dominant" % (lam,))
        return lam

    def _chamber_walk(self, vec: Tuple, pairings: List[int]) -> Tuple[Tuple, List[int], List[int]]:
        """Reflect vec into the chamber where every pairing is ≥ 0: (vector, pairings, word).

        pairings are the ⟨vec + δ, α_i⟩ for a fixed offset δ: 0 for the action on Λ, ρ for the
        dot action w·x = w(x + ρ) − ρ.  While some p_i < 0, the first such i reflects vec + δ:
        vec ← vec − p_i α̌_i and p_j ← p_j − p_i ⟨α̌_i, α_j⟩, where ⟨α̌_i, α_j⟩ is
        cartan_matrix[j][i].  The word lists the reflections in application order.
        """
        word: List[int] = []
        while True:
            for i, p in enumerate(pairings):
                if p < 0:
                    break
            else:
                return vec, pairings, word
            vec = tuple(x - p * a for x, a in zip(vec, self.simple_coroots[i]))
            pairings = [q - p * row[i] for q, row in zip(pairings, self.cartan_matrix)]
            word.append(i)

    def dominant_representative(self, lam: Sequence) -> DomRep:
        """The dominant Weyl-orbit representative, with a word mapping λ to it.

        The word lists the simple reflections in application order: applying
        s_{word[0]}, then s_{word[1]}, ... to λ yields the returned coweight.
        The sign is (−1)^{#word}, which is the sign of the reducing Weyl
        element (word length has well-defined parity).  One _chamber_walk from
        the simple-root pairings of λ.
        """
        cur, _, word = self._chamber_walk(tuple(lam), self._simple_pairings(lam))
        return DomRep(cur, tuple(word), -1 if len(word) % 2 else 1)

    @cached_property
    def _w0_matrix(self) -> Matrix:
        """The longest element w₀ as an integer matrix on Λ, without building the Weyl group.

        2ρ of the dual group is strictly dominant, so −2ρ is strictly antidominant, and the
        chamber walk from it spells a reduced word for w₀, the unique element carrying it
        into the dominant chamber.  Column j is that word applied to the j-th basis vector.
        """
        start, n = tuple(-x for x in self.two_rho_dual), self.lattice_rank
        columns = [tuple(int(k == j) for k in range(n)) for j in range(n)]
        for i in self._chamber_walk(start, self._simple_pairings(start))[2]:
            columns = [self.reflect(i, column) for column in columns]
        return tuple(zip(*columns))

    def apply_w0(self, lam: Sequence) -> Tuple:
        """w₀λ, as one product with the cached integer matrix of w₀ on Λ."""
        lam = self.coweight(lam)
        return tuple(sum(map(operator.mul, row, lam)) for row in self._w0_matrix)

    @cached_property
    def _cartan_adjugate(self) -> Tuple[Matrix, int]:
        """(adj C, det C) for the Cartan matrix C; det C > 0 for every finite-type datum."""
        return _adjugate(self.cartan_matrix)

    def coroot_bound(self, vec: Sequence) -> Tuple[int, ...]:
        """⌊C⁻¹·p⌋ for the Cartan matrix C and the simple-root pairings p of vec.

        For dominant λ it bounds, coordinate by coordinate, the coroot coordinates of every
        λ − μ with μ ≤ λ dominant: those are C⁻¹·p(λ) − C⁻¹·p(μ), and C⁻¹ of a finite-type
        Cartan matrix has no negative entry, so C⁻¹·p(μ) ≥ 0.
        """
        adjugate, det = self._cartan_adjugate
        pairings = self._simple_pairings(vec)
        return tuple(sum(map(operator.mul, line, pairings)) // det for line in adjugate)

    def coroot_coordinates(self, vec: Sequence) -> Optional[Tuple[int, ...]]:
        """The integers c with vec = Σ c_j α̌_j, or None when vec is not in the coroot lattice.

        ⟨Σ c_j α̌_j, α_i⟩ = (C c)_i for the Cartan matrix C, so c = adj(C)·p / det C, p the
        simple-root pairings of vec.
        """
        coords = self.coroot_bound(vec)
        # one check on every lattice coordinate catches both failures: a division that left
        # a remainder (vec off the lattice) and a part of vec in the center (off the span)
        if any(sum(c * alpha[k] for c, alpha in zip(coords, self.simple_coroots)) != x
               for k, x in enumerate(vec)):
            return None
        return coords

    def dominance_leq(self, mu: Sequence, lam: Sequence) -> bool:
        """μ ≤ λ in the dominance order: λ − μ is a Z≥0-combination of simple coroots.

        The simple coroots of the group are the positive simple roots of the
        dual group, so this is also the dual group's weight dominance order.
        """
        diff = tuple(l - m for l, m in zip(lam, mu))
        coords = self.coroot_coordinates(diff)
        return coords is not None and min(coords) >= 0

    # -- derived structure (computed lazily, cached on the instance) -------

    @cached_property
    def positive_coroots(self) -> Tuple[Tuple[Vector, Vector], ...]:
        """Positive coroots of the group (= positive roots of the dual group).

        Each entry is (vector in Λ, coordinates in the simple coroots),
        sorted by height and then lexicographically.
        """
        return _positive_system(self.cartan_matrix, self.simple_coroots)

    @cached_property
    def positive_roots(self) -> Tuple[Vector, ...]:
        """Positive roots of the group, as vectors in the dual lattice."""
        transpose = tuple(zip(*self.cartan_matrix))
        return tuple(v for v, _ in _positive_system(transpose, self.simple_roots))

    @cached_property
    def two_rho_check(self) -> Vector:
        """2ρ̌: the sum of the positive roots, an honest dual-lattice vector."""
        total = [0] * self.lattice_rank
        for root in self.positive_roots:
            for k, x in enumerate(root):
                total[k] += x
        return tuple(total)

    @cached_property
    def two_rho_dual(self) -> Vector:
        """2ρ of the dual group: the sum of the positive coroots, a vector in Λ."""
        total = [0] * self.lattice_rank
        for v, _ in self.positive_coroots:
            for k, x in enumerate(v):
                total[k] += x
        return tuple(total)

    def form_covector(self, x: Sequence) -> Vector:
        """Σ_{β>0} ⟨x, β⟩ β: the dual-lattice vector with (x, y) = ⟨y, form_covector(x)⟩.

        (x, y) = Σ_{β>0} ⟨x, β⟩⟨y, β⟩ is a W-invariant symmetric form on Λ ⊗ Q,
        since W permutes the roots up to sign.  It vanishes on central
        directions and is positive definite on the span of the coroots.
        """
        pairs = [(_dot(x, root), root) for root in self.positive_roots]
        return tuple(sum(c * root[k] for c, root in pairs) for k in range(self.lattice_rank))

    @cached_property
    def weyl_elements(self) -> Tuple[Tuple[Matrix, int], ...]:
        """All Weyl group elements as (matrix on Λ, Coxeter length), by length and then matrix.

        A group of more than LIMIT elements raises TooLarge before any is built.
        """
        self.check_weyl_order()
        n = self.lattice_rank
        ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        gens = [tuple(zip(*(self.reflect(i, e) for e in ident))) for i in range(self.rank)]
        lengths = _closure([ident], [partial(_mat_mul, g) for g in gens])
        return tuple(sorted(lengths.items(), key=lambda kv: (kv[1], kv[0])))

    @cached_property
    def weyl_order(self) -> int:
        """|W| = Π (m_i + 1) over the exponents m_i, without building the group.

        k is an exponent n_k − n_{k+1} times, where n_k positive coroots have height k
        (Humphreys, Reflection Groups and Coxeter Groups, §3.20).
        """
        counts = Counter(sum(coords) for _, coords in self.positive_coroots)
        return prod((k + 1) ** (counts[k] - counts[k + 1]) for k in counts)

    def check_weyl_order(self) -> None:
        """Raise TooLarge when the Weyl group has more than LIMIT elements."""
        if self.weyl_order > LIMIT:
            raise TooLarge("the Weyl group has %d elements, over the limit of %d"
                           % (self.weyl_order, LIMIT))

    def dot_orbit(self, lam: Sequence) -> Tuple[Tuple[Vector, int], ...]:
        """(coroot coordinates c of w(λ+ρ) − (λ+ρ), (−1)^{ℓ(w)}) for every w in W, e first.

        λ must be dominant.  ⟨λ+ρ, α_i⟩ = p_i + 1 for the simple-root pairings p of λ, so on
        λ+ρ + Σ c_j α̌_j the reflection s_i changes only c_i, by −(p_i + 1 + (C c)_i) for the
        Cartan matrix C.  λ+ρ is strictly dominant, so its stabilizer is trivial and the BFS
        depth of w is ℓ(w).  Raises ValueError for a λ that is not dominant, and TooLarge for
        a group over LIMIT.
        """
        shifted = [p + 1 for p in self._simple_pairings(lam)]
        if min(shifted, default=1) <= 0:
            raise ValueError("coweight %r is not dominant" % (tuple(lam),))
        self.check_weyl_order()

        def reflection(i: int):
            row, p = self.cartan_matrix[i], shifted[i]
            return lambda c: c[:i] + (c[i] - p - sum(map(operator.mul, row, c)),) + c[i + 1:]

        orbit = _closure([(0,) * self.rank], [reflection(i) for i in range(self.rank)])
        return tuple((c, (-1) ** depth) for c, depth in orbit.items())

    def weyl_orbit(self, lam: Sequence) -> Tuple[Tuple, ...]:
        """The Weyl orbit of a lattice vector, sorted."""
        reflections = [partial(self.reflect, i) for i in range(self.rank)]
        return tuple(sorted(_closure([tuple(lam)], reflections)))

    def dominant_box(self, pair_bound: int, coord_bound: Optional[int] = None):
        """Dominant coweights λ with ⟨λ, 2ρ̌⟩ ≤ pair_bound inside a coordinate box, sorted by level.

        For data with a central torus direction (GL-type presets) the pairing
        does not bound the center, so a coordinate box is always imposed;
        coord_bound defaults to pair_bound.  That box is scanned only on such
        data: otherwise the walk runs over the simple-root pairings p ≥ 0 of λ,
        λ = adj(R)·p / det R for the matrix R of simple roots, and
        ⟨λ, 2ρ̌⟩ = Σ k_i p_i with 2ρ̌ = Σ k_i α_i, every k_i ≥ 1.  A scan of more
        than LIMIT candidates raises TooLarge before it starts.
        """
        if coord_bound is None:
            coord_bound = pair_bound
        roots, two_rho = self.simple_roots, self.two_rho_check
        central = self.rank < self.lattice_rank
        if central:
            ranges = [range(-coord_bound, coord_bound + 1)] * self.lattice_rank
        else:
            adjugate, det = _adjugate(roots)
            levels = [sum(map(operator.mul, column, two_rho)) // det for column in zip(*adjugate)]
            ranges = [range(pair_bound // k + 1) for k in levels]
        if (scan := prod(max(r.stop - r.start, 0) for r in ranges)) > LIMIT:
            raise TooLarge("the dominant coweights of level at most %d would take a scan of %d "
                           "candidates, over the limit of %d" % (pair_bound, scan, LIMIT))
        candidates = iter_product(*ranges)
        if not central:
            scaled = ([sum(map(operator.mul, row, p)) for row in adjugate] for p in candidates)
            candidates = (tuple(x // det for x in lam) for lam in scaled
                          if all(x % det == 0 for x in lam))
        out = []
        for coords in candidates:
            level = sum(map(operator.mul, coords, two_rho))
            if (level <= pair_bound and max(map(abs, coords)) <= coord_bound
                    and all(sum(map(operator.mul, coords, r)) >= 0 for r in roots)):
                out.append((level, coords))
        out.sort()
        return [coords for _, coords in out]


# Preset lattices.  Coordinates:
#   PGL2 — Λ = Z in the fundamental-coweight coordinate; dual group SL(2).
#   SL2  — Λ = Z = the coroot lattice; dual group PGL(2).
#   GL2  — Λ = Z^2 standard; self-dual.
#   SL3  — type A2, Λ = Z^2 in fundamental-coweight coordinates; dual group SL(3).
#   GL3  — Λ = Z^3 standard; self-dual.
#   Sp4  — type C2 on the dual side, Λ = Z^2 in fundamental-coweight
#          coordinates; dual group Sp(4).
#   G2   — Λ = Z^2 in fundamental-coweight coordinates; dual group G2.
PRESETS: Dict[str, dict] = {
    "PGL2": {"coroots": [[2]], "roots": [[1]], "cartan": [[2]]},
    "SL2": {"coroots": [[1]], "roots": [[2]], "cartan": [[2]]},
    "GL2": {"coroots": [[1, -1]], "roots": [[1, -1]], "cartan": [[2]]},
    "SL3": {
        "coroots": [[2, -1], [-1, 2]],
        "roots": [[1, 0], [0, 1]],
        "cartan": [[2, -1], [-1, 2]],
    },
    "GL3": {
        "coroots": [[1, -1, 0], [0, 1, -1]],
        "roots": [[1, -1, 0], [0, 1, -1]],
        "cartan": [[2, -1], [-1, 2]],
    },
    "Sp4": {
        "coroots": [[2, -1], [-2, 2]],
        "roots": [[1, 0], [0, 1]],
        "cartan": [[2, -2], [-1, 2]],
    },
    "G2": {
        "coroots": [[2, -1], [-3, 2]],
        "roots": [[1, 0], [0, 1]],
        "cartan": [[2, -3], [-1, 2]],
    },
}


def _validate_cartan(cartan: Sequence[Sequence[int]]) -> None:
    r = len(cartan)
    for i in range(r):
        if len(cartan[i]) != r:
            raise ValueError("Cartan matrix must be square")
        if cartan[i][i] != 2:
            raise ValueError("Cartan matrix diagonal must be 2")
        for j in range(r):
            if i != j:
                if cartan[i][j] > 0:
                    raise ValueError("off-diagonal Cartan entries must be nonpositive")
                if (cartan[i][j] == 0) != (cartan[j][i] == 0):
                    raise ValueError("Cartan zero pattern must be symmetric")
    # Finite type iff every principal minor is positive.
    for size in range(1, r + 1):
        for subset in combinations(range(r), size):
            if _det([[cartan[i][j] for j in subset] for i in subset]) <= 0:
                raise ValueError("Cartan matrix is not of finite type")


def build_root_datum(spec) -> RootDatum:
    """Build and validate a root datum from a preset name or explicit data.

    Explicit data is a mapping {"cartan": [[..]], "coroots": [[..]], "roots": [[..]]}
    with cartan[i][j] = ⟨coroot_j, root_i⟩.  Rejects non-finite-type Cartan
    matrices and coroot/root vectors inconsistent with the Cartan matrix.
    """
    if isinstance(spec, RootDatum):
        return spec
    if isinstance(spec, str):
        if spec not in PRESETS:
            raise ValueError(
                "unknown preset %r (available: %s)" % (spec, ", ".join(sorted(PRESETS)))
            )
        spec = PRESETS[spec]
    coroots = tuple(tuple(int(x) for x in v) for v in spec["coroots"])
    roots = tuple(tuple(int(x) for x in v) for v in spec["roots"])
    cartan = tuple(tuple(int(x) for x in row) for row in spec["cartan"])
    if not coroots or len(coroots) != len(roots) or len(cartan) != len(coroots):
        raise ValueError("coroots, roots and Cartan matrix must have matching rank")
    lattice_rank = len(coroots[0])
    if any(len(v) != lattice_rank for v in coroots) or any(len(v) != lattice_rank for v in roots):
        raise ValueError("all coroot/root vectors must have the same length")
    _validate_cartan(cartan)
    for i in range(len(roots)):
        for j in range(len(coroots)):
            if _dot(coroots[j], roots[i]) != cartan[i][j]:
                raise ValueError(
                    "pairing ⟨coroot_%d, root_%d⟩ = %s disagrees with Cartan entry %d"
                    % (j, i, _dot(coroots[j], roots[i]), cartan[i][j])
                )
    # both families are independent: the pairings give C = (roots)·(coroots)ᵀ, and det C > 0
    return RootDatum(
        lattice_rank=lattice_rank,
        simple_coroots=coroots,
        simple_roots=roots,
        cartan_matrix=cartan,
    )
