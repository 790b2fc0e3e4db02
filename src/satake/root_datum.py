"""Root data for split reductive groups and the combinatorics of their coweight lattice.

A datum fixes a concrete lattice Λ = Z^n together with the simple coroots
(vectors in Λ) and simple roots (vectors in the dual lattice).  Everything
downstream — the dual-group representation ring, the Hecke algebra, the
orbit combinatorics — is parameterized by one of these objects.

One breadth-first closure under generating moves (_closure) yields the
Weyl group as integer matrices on Λ (the BFS depth is the Coxeter length),
Weyl orbits and both positive systems (in simple-root coordinates under the Cartan
matrix or its transpose).  The ρ-shifted orbits in coroot coordinates share one:
W's BFS tree, which each λ walks with one reflection per element.  One walk of the
dominant cone (_dominant_walk), over the central coordinates and simple-root
pairings of one square system per datum, yields both dominant_box and
dominant_count on every datum.  The chamber walk from −2ρ spells one reduced word for w₀ per
datum (_w0_word).  The datum also owns the one dominance check (dominant) that callers use on
coweight arguments.  All arithmetic is exact.
Every lattice vector is a tuple of ints; a half-integral vector such as ρ̌ or
ρ of the dual group is only ever held doubled (two_rho_check, two_rho_dual),
and callers halve a result after a parity check.  No Fraction appears:
coroot coordinates are solved in integers through the adjugate of the Cartan
matrix, and determinants come from fraction-free elimination.  Integrality is checked once,
at the doors: build_root_datum and RootDatum.coweight refuse a non-int entry with ValueError.
Instances are immutable after construction and safe for concurrent reads.
LIMIT is the package's one size bound, and require_within its one guard: work that would hold
more than LIMIT elements raises TooLarge where it would start, before any of it is done.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import combinations, product as iter_product
from math import gcd, prod
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


def require_within(count: int, what: str, *args) -> None:
    """Raise TooLarge("<what % args>, over the limit of LIMIT") when count is over LIMIT.

    The one place a TooLarge is raised.  what % args names the work and its counts; it is
    formatted only on refusal, so an admitted call costs one comparison.
    """
    if count > LIMIT:
        raise TooLarge("%s, over the limit of %d" % (what % args, LIMIT))


class DomRep(NamedTuple):
    """Result of reducing a lattice vector into the dominant Weyl chamber."""

    coweight: Tuple
    word: Tuple[int, ...]
    sign: int


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    """The pairing Σ a_i b_i of two integer vectors."""
    if len(a) != len(b):
        raise ValueError("dimension mismatch: %d vs %d" % (len(a), len(b)))
    return sum(map(operator.mul, a, b))


def _reflect(vec: Sequence, pair_with: Sequence, along: Sequence) -> Tuple:
    """vec − ⟨vec, pair_with⟩ · along."""
    c = _dot(vec, pair_with)
    return tuple(x - c * a for x, a in zip(vec, along))


def _closure(starts: Sequence, moves: Sequence) -> Dict:
    """Breadth-first closure of starts under moves, as {element: BFS depth} in BFS order.

    A closure that outgrows LIMIT raises TooLarge: a Weyl group, an orbit of it or a root
    system can.
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
        require_within(len(seen), "a Weyl group closure holds %d elements", len(seen))
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

    def coweight(self, x) -> Vector:
        """Normalize an int (rank-1 convenience) or a sequence of ints to a coweight tuple.

        The door of every coweight argument: a float, Fraction, str or None coordinate raises
        ValueError, so nothing behind it checks or truncates a coordinate again.
        """
        try:
            t = (x,) if isinstance(x, int) else tuple(x)
        except TypeError:  # a scalar that is not an int, refused as a coordinate below
            t = (x,)
        if len(t) != self.lattice_rank:
            raise ValueError("coweight %r has length %d, expected %d coordinates"
                             % (x, len(t), self.lattice_rank))
        for c in t:
            if type(c) is not int:
                raise ValueError("coweight %r has a coordinate that is not an integer" % (x,))
        return t

    def pairing(self, lam: Sequence, x: Sequence):
        """The canonical pairing of a coweight with a dual-lattice vector."""
        return _dot(lam, x)

    def pairing_2rho(self, lam: Sequence[int]) -> int:
        """⟨λ, 2ρ̌⟩, an integer since λ and 2ρ̌ are integer vectors."""
        return _dot(lam, self.two_rho_check)

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
    def _w0_word(self) -> Tuple[int, ...]:
        """A reduced word for the longest element w₀, in application order, without building W.

        2ρ of the dual group is strictly dominant, so −2ρ is strictly antidominant, and the
        chamber walk from it spells a reduced word for w₀, the unique element carrying it
        into the dominant chamber: one walk per datum, of one step per positive root.
        """
        start = tuple(-x for x in self.two_rho_dual)
        return tuple(self._chamber_walk(start, self._simple_pairings(start))[2])

    @cached_property
    def _w0_matrix(self) -> Matrix:
        """w₀ as an integer matrix on Λ: column j is _w0_word applied to the j-th basis vector."""
        n = self.lattice_rank
        columns = [tuple(int(k == j) for k in range(n)) for j in range(n)]
        for i in self._w0_word:
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
        require_within(self.weyl_order, "the Weyl group has %d elements", self.weyl_order)

    @cached_property
    def _weyl_tree(self) -> Tuple[Tuple[Tuple[int, int], ...], Tuple[int, ...]]:
        """W's BFS tree: (parent index, i) with w = s_i·parent for each w ≠ e, and each (−1)^{ℓ(w)}.

        Read off the closure of _dot_walk's steps at λ = 0 (each w ≠ e has an s_i with s_i·w one
        step shallower); on a strictly dominant λ+ρ its order depends only on W, so every λ walks
        this tree.  Raises TooLarge over LIMIT, InvariantError unless it has |W| elements.
        """
        self.check_weyl_order()
        moves = [lambda c, i=i, row=row: c[:i] + (c[i] - 1 - sum(map(operator.mul, row, c)),) + c[i + 1:]
                 for i, row in enumerate(self.cartan_matrix)]  # every ⟨ρ, α_i⟩ is 1
        depth = _closure([(0,) * self.rank], moves)
        if len(depth) != self.weyl_order:
            raise InvariantError("a closure of %d elements for |W| = %d" % (len(depth), self.weyl_order))
        index = {c: k for k, c in enumerate(depth)}
        tree = tuple(next((index[x], i) for i, x in enumerate(move(c) for move in moves) if depth[x] < d)
                     for c, d in depth.items() if d)
        return tree, tuple((-1) ** d for d in depth.values())

    def dot_orbit(self, lam: Sequence) -> Tuple[Tuple[Vector, int], ...]:
        """_dot_walk from the simple-root pairings of λ, or ValueError for a λ that is not dominant."""
        pairings = self._simple_pairings(lam)
        if min(pairings, default=0) < 0:
            raise ValueError("coweight %r is not dominant" % (tuple(lam),))
        return self._dot_walk(pairings)

    def _dot_walk(self, pairings: Sequence[int]) -> Tuple[Tuple[Vector, int], ...]:
        """(coroot coordinates c of w(λ+ρ) − (λ+ρ), (−1)^{ℓ(w)}) for every w in W, e first.

        λ is dominant with simple-root pairings p, not checked here.  ⟨λ+ρ, α_i⟩ = p_i + 1, so on
        λ+ρ + Σ c_j α̌_j the reflection s_i changes only c_i, by −(p_i + 1 + (C c)_i) for the
        Cartan matrix C: one step from the parent's c per w of the datum's BFS tree (_weyl_tree,
        one closure per datum), in its order.  Raises TooLarge for a group over LIMIT.
        """
        tree, signs = self._weyl_tree
        rows, coords = self.cartan_matrix, [(0,) * self.rank]
        for parent, i in tree:
            c = coords[parent]
            coords.append(c[:i] + (c[i] - pairings[i] - 1 - sum(map(operator.mul, rows[i], c)),) + c[i + 1:])
        return tuple(zip(coords, signs))

    def weyl_orbit(self, lam: Sequence) -> Tuple[Tuple, ...]:
        """The Weyl orbit of a lattice vector, sorted."""
        reflections = [partial(self.reflect, i) for i in range(self.rank)]
        return tuple(sorted(_closure([tuple(lam)], reflections)))

    @cached_property
    def _cone(self) -> Tuple[Matrix, int, Vector, int]:
        """(adj S, det S, the levels k, the period) of the one square system S of the dominant cone.

        S is the matrix R of simple roots with one unit row prepended per central coordinate: the
        columns off R's first invertible minor (none on semisimple data).  S·λ = (z, p) for those
        coordinates z and the simple-root pairings p, so λ = adj(S)·(z, p) / det S, and
        ⟨λ, 2ρ̌⟩ = Σ k_i (z, p)_i with k = adj(S)ᵀ·2ρ̌ / det S: 2ρ̌ = Σ k_i α_i with every k_i ≥ 1,
        and k = 0 on z.  The period is the least e with e·(the last column of adj S) ≡ 0 mod det S.
        """
        roots, n = self.simple_roots, self.lattice_rank
        minor = next(cols for cols in combinations(range(n), self.rank)
                     if _det([[root[j] for j in cols] for root in roots]))
        units = [tuple(int(k == j) for k in range(n)) for j in range(n) if j not in minor]
        adjugate, det = _adjugate(units + list(roots))
        levels = tuple(_dot(column, self.two_rho_check) // det for column in zip(*adjugate))
        return adjugate, det, levels, abs(det) // gcd(det, *(row[-1] for row in adjugate))

    def _dominant_walk(self, pair_bound: int):
        """The dominant coweights of level ≤ pair_bound, as (level, det S·λ at p_last = 0, p_last run).

        The heads (z, p_1 … p_{r−1}) of _cone's coordinates run over |z_i| ≤ pair_bound and
        0 ≤ p_i ≤ pair_bound // k_i.  Each head's admitted p_last are range(first, end, period):
        first is the least p < period with λ integral, and end the least p with level over
        pair_bound.  The pairing does not bound the center, so on data with a central direction the
        run is cut to the λ with every |λ_i| ≤ pair_bound: each λ_i is linear in p_last, so the cut
        is one interval, bounded by integer division.  A walk of more than LIMIT candidates
        raises TooLarge before it starts.
        """
        adjugate, det, levels, period = self._cone
        ranges = [range(pair_bound // k + 1) if k else range(-pair_bound, pair_bound + 1)
                  for k in levels]
        require_within(scan := prod(max(r.stop - r.start, 0) for r in ranges), "the dominant coweights "
                       "of level at most %d would take a scan of %d candidates", pair_bound, scan)
        last, step, bound = [row[-1] for row in adjugate], levels[-1], pair_bound * abs(det)
        for head in iter_product(*ranges[:-1]):
            start = [sum(map(operator.mul, row, head)) for row in adjugate]
            first = next((p for p in range(period)
                          if all((x + p * c) % det == 0 for x, c in zip(start, last))), None)
            if first is not None:
                level = sum(map(operator.mul, head, levels))
                lo, hi = first, (pair_bound - level) // step
                if self.rank < self.lattice_rank:
                    for x, c in zip(start, last):  # |x + p·c| ≤ bound, with c ≥ 0 after a sign flip
                        x, c = (-x, -c) if c < 0 else (x, c)
                        if c:
                            lo, hi = max(lo, -((bound + x) // c)), min(hi, (bound - x) // c)
                        elif abs(x) > bound:
                            hi = -1
                    lo += (first - lo) % period  # the least p ≥ lo in first's class
                yield level, start, range(lo, hi + 1, period)

    def dominant_box(self, pair_bound: int):
        """Dominant coweights λ with ⟨λ, 2ρ̌⟩ ≤ pair_bound, sorted by level and then λ.

        Read off _dominant_walk: every dominant λ of the level in any basis of Λ, and on data with
        a central torus direction (GL-type presets) those in the box |λ_i| ≤ pair_bound.
        """
        adjugate, det, levels, _ = self._cone
        last, step = [row[-1] for row in adjugate], levels[-1]
        return [lam for _, lam in sorted(
            (level + p * step, tuple((x + p * c) // det for x, c in zip(start, last)))
            for level, start, run in self._dominant_walk(pair_bound) for p in run)]

    def dominant_count(self, pair_bound: int) -> int:
        """len(dominant_box(pair_bound)), counted off _dominant_walk without building a λ."""
        return sum(len(run) for _, _, run in self._dominant_walk(pair_bound))


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
    # Finite type iff every principal minor is positive.  A finite-type Dynkin graph is a forest,
    # and a matrix on a forest is symmetrizable, D·B with D > 0 diagonal and B symmetric, so then
    # its r leading minors decide it (Sylvester; Kac, Infinite-dimensional Lie algebras, ch. 2, 4).
    nodes = set(range(r))  # stripping the nodes of degree ≤ 1 empties a forest, and no cycle
    while leaves := {i for i in nodes if sum(1 for j in nodes if j != i and cartan[i][j]) <= 1}:
        nodes -= leaves
    if nodes or any(_det([row[:k] for row in cartan[:k]]) <= 0 for k in range(1, r + 1)):
        raise ValueError("Cartan matrix is not of finite type")


def build_root_datum(spec) -> RootDatum:
    """Build and validate a root datum from a preset name or explicit data.

    Explicit data is a mapping {"coroots": [[..]], "roots": [[..]], "cartan": [[..]]}
    of int lists with cartan[i][j] = ⟨coroot_j, root_i⟩.  Raises ValueError on any other
    spec (a missing key, or a float, str, bool or None entry: nothing is truncated), on
    non-finite-type Cartan matrices and on coroot/root vectors inconsistent with the Cartan matrix.
    """
    if isinstance(spec, RootDatum):
        return spec
    if isinstance(spec, str):
        if spec not in PRESETS:
            raise ValueError(
                "unknown preset %r (available: %s)" % (spec, ", ".join(sorted(PRESETS)))
            )
        spec = PRESETS[spec]
    try:
        coroots, roots, cartan = (tuple(map(tuple, spec[k])) for k in ("coroots", "roots", "cartan"))
    except (KeyError, TypeError):
        raise ValueError("a datum spec is a preset name or a mapping of coroots, roots and "
                         "cartan to lists of lists; got %r" % (spec,))
    if any(type(x) is not int for rows in (coroots, roots, cartan) for row in rows for x in row):
        raise ValueError("every entry of a datum spec must be an integer; got %r" % (spec,))
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
