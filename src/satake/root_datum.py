"""Root data for split reductive groups and the combinatorics of their coweight lattice.

A datum fixes a concrete lattice Λ = Z^n together with the simple coroots
(vectors in Λ) and simple roots (vectors in the dual lattice).  Everything
downstream — the dual-group representation ring, the Hecke algebra, the
orbit combinatorics — is parameterized by one of these objects.

One breadth-first closure under the simple reflections (_closure) yields the
Weyl group as integer matrices on Λ (the BFS depth is the Coxeter length),
Weyl orbits, and both positive systems, which run in simple-root coordinates
under the Cartan matrix or its transpose.  The datum also owns the one
W-invariant form (x, y) = Σ_{β>0} ⟨x, β⟩⟨y, β⟩ and the one dominance check
(dominant) that callers use on coweight arguments.  All arithmetic is exact.
Every lattice vector is a tuple of ints; a half-integral vector such as ρ̌ or
ρ of the dual group is only ever held doubled (two_rho_check, two_rho_dual),
and callers halve a result after a parity check.  Fractions appear only in
coroot coordinates and in determinants.  Instances are immutable after
construction and safe for concurrent reads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import combinations, product as iter_product
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

Vector = Tuple[int, ...]
Matrix = Tuple[Tuple[int, ...], ...]

_WEYL_ORDER_CAP = 1_000_000


class InvariantError(AssertionError):
    """A mathematical contract of the library failed: a bug, not bad input.

    Raised explicitly, so the check also runs under ``python -O``.
    """


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
    is refused once it outgrows the supported Weyl group order.
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
        if len(seen) > _WEYL_ORDER_CAP:
            raise ValueError("Weyl group exceeds the supported size cap")
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


def _det(matrix: List[List[Fraction]]) -> Fraction:
    n = len(matrix)
    m = [list(row) for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pick = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pick is None:
            return Fraction(0)
        if pick != col:
            m[col], m[pick] = m[pick], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                factor = m[r][col] * inv
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return det


def _invertible_minor(vectors: Sequence[Sequence[int]]):
    """(rows, minor, det) for the first invertible square minor of the matrix with columns
    `vectors`, where minor[k][j] = vectors[j][rows[k]]; None if the vectors are dependent."""
    for rows in combinations(range(len(vectors[0])), len(vectors)):
        minor = [[Fraction(v[row]) for v in vectors] for row in rows]
        det = _det(minor)
        if det != 0:
            return rows, minor, int(det)
    return None


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

    def dominant_representative(self, lam: Sequence) -> DomRep:
        """The dominant Weyl-orbit representative, with a word mapping λ to it.

        The word lists the simple reflections in application order: applying
        s_{word[0]}, then s_{word[1]}, ... to λ yields the returned coweight.
        The sign is (−1)^{#word}, which is the sign of the reducing Weyl
        element (word length has well-defined parity).
        """
        # the simple-root pairings p are computed once; s_i(λ) = λ − p_i α̌_i changes
        # them by p_j ← p_j − p_i ⟨α̌_i, α_j⟩, and ⟨α̌_i, α_j⟩ = cartan_matrix[j][i]
        pairings = self._simple_pairings(lam)
        cur = tuple(lam)
        word: List[int] = []
        while True:
            for i, p in enumerate(pairings):
                if p < 0:
                    break
            else:
                return DomRep(cur, tuple(word), -1 if len(word) % 2 else 1)
            cur = tuple(x - p * a for x, a in zip(cur, self.simple_coroots[i]))
            pairings = [q - p * row[i] for q, row in zip(pairings, self.cartan_matrix)]
            word.append(i)

    def is_singular(self, lam: Sequence) -> bool:
        """True when some Weyl reflection fixes λ (a pairing vanishes on the orbit)."""
        dom = self.dominant_representative(lam).coweight
        return any(_dot(dom, root) == 0 for root in self.simple_roots)

    @cached_property
    def _w0_word(self) -> Tuple[int, ...]:
        """A reduced word for the longest element w₀, in application order.

        2ρ of the dual group is strictly dominant, so −2ρ is strictly
        antidominant, and w₀ is the unique element carrying it into the
        dominant chamber.
        """
        return self.dominant_representative(tuple(-x for x in self.two_rho_dual)).word

    def apply_w0(self, lam: Sequence) -> Tuple:
        """w₀λ, by applying a reduced word for w₀ (the Weyl group is not built)."""
        out = tuple(lam)
        for i in self._w0_word:
            out = self.reflect(i, out)
        return out

    @cached_property
    def _coroot_solver(self) -> Tuple[Tuple[int, ...], Matrix, int]:
        """(rows, adjugate, determinant) of an invertible rank×rank minor of the coroot matrix.

        The minor's inverse is adjugate / determinant, with the determinant made
        positive, so the coroot coordinates of a vector in the span are the
        adjugate applied to its `rows` entries, over one common denominator.
        """
        rows, minor, det = _invertible_minor(self.simple_coroots)
        sign = 1 if det > 0 else -1

        def cofactor(k: int, j: int) -> int:
            """(−1)^{j+k} times the determinant of the minor without row k and column j."""
            rest = [[x for c, x in enumerate(line) if c != j]
                    for m, line in enumerate(minor) if m != k]
            return (-1) ** (j + k) * int(_det(rest))

        r = self.rank
        adjugate = tuple(tuple(sign * cofactor(k, j) for k in range(r)) for j in range(r))
        return rows, adjugate, abs(det)

    def coroot_coordinates(self, vec: Sequence) -> Optional[Tuple[Fraction, ...]]:
        """Coordinates of vec in the simple coroots, or None if vec is outside their span."""
        rows, adjugate, det = self._coroot_solver
        sub = [vec[row] for row in rows]
        numerators = [sum(a * x for a, x in zip(line, sub)) for line in adjugate]
        # the minor fixes the solution; every lattice coordinate must agree with it
        for r in range(self.lattice_rank):
            if sum(n * v[r] for n, v in zip(numerators, self.simple_coroots)) != det * vec[r]:
                return None
        return tuple(Fraction(n, det) for n in numerators)

    def dominance_leq(self, mu: Sequence, lam: Sequence) -> bool:
        """μ ≤ λ in the dominance order: λ − μ is a Z≥0-combination of simple coroots.

        The simple coroots of the group are the positive simple roots of the
        dual group, so this is also the dual group's weight dominance order.
        """
        diff = tuple(l - m for l, m in zip(lam, mu))
        coords = self.coroot_coordinates(diff)
        if coords is None:
            return False
        return all(c.denominator == 1 and c >= 0 for c in coords)

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
        """All Weyl group elements as (matrix on Λ, Coxeter length), by length and then matrix."""
        n = self.lattice_rank
        ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        gens = [tuple(zip(*(self.reflect(i, e) for e in ident))) for i in range(self.rank)]
        lengths = _closure([ident], [partial(_mat_mul, g) for g in gens])
        return tuple(sorted(lengths.items(), key=lambda kv: (kv[1], kv[0])))

    @cached_property
    def weyl_order(self) -> int:
        return len(self.weyl_elements)

    def weyl_orbit(self, lam: Sequence) -> Tuple[Tuple, ...]:
        """The Weyl orbit of a lattice vector, sorted."""
        reflections = [partial(self.reflect, i) for i in range(self.rank)]
        return tuple(sorted(_closure([tuple(lam)], reflections)))

    def dominant_box(self, pair_bound: int, coord_bound: Optional[int] = None):
        """Dominant coweights λ with ⟨λ, 2ρ̌⟩ ≤ pair_bound inside a coordinate box.

        For data with a central torus direction (GL-type presets) the pairing
        does not bound the center, so a coordinate box is always imposed;
        coord_bound defaults to pair_bound.
        """
        if coord_bound is None:
            coord_bound = pair_bound
        out = []
        for coords in iter_product(range(-coord_bound, coord_bound + 1), repeat=self.lattice_rank):
            if self.is_dominant(coords) and self.pairing_2rho(coords) <= pair_bound:
                out.append(coords)
        out.sort(key=lambda v: (self.pairing_2rho(v), v))
        return out

    def to_json(self) -> dict:
        return {
            "cartan": [list(row) for row in self.cartan_matrix],
            "coroots": [list(v) for v in self.simple_coroots],
            "roots": [list(v) for v in self.simple_roots],
        }


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
            minor = [[Fraction(cartan[i][j]) for j in subset] for i in subset]
            if _det(minor) <= 0:
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
    if _invertible_minor(coroots) is None:
        raise ValueError("simple coroots must be linearly independent")
    if _invertible_minor(roots) is None:
        raise ValueError("simple roots must be linearly independent")
    return RootDatum(
        lattice_rank=lattice_rank,
        simple_coroots=coroots,
        simple_roots=roots,
        cartan_matrix=cartan,
    )
