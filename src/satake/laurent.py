"""Exact sparse Laurent polynomials in the half-power variable v, with q = v**2.

Exponents and coefficients are ints: the constructor raises TypeError on any other.
Values are normalized on construction (no stored zero coefficients), so equality is
structural and the canonical form is unique.  Instances are immutable and hashable and may
be shared freely between threads.  A LaurentPoly equals only a LaurentPoly, so equal values
hash equal (LaurentPoly.const(3) != 3), and an int scales it from the right: p * 3, never 3 * p.

The half-power variable exists because pairings ⟨λ, ρ̌⟩ are half-integers off
the coroot lattice; every honest q-power is an even v-power.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Dict, Mapping, NamedTuple, Tuple


class LaurentPoly:
    """Integer-coefficient Laurent polynomial in v (convention: q = v^2)."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        clean: Dict[int, int] = {}
        if coeffs:
            for exp, c in coeffs.items():
                if c:
                    clean[operator.index(exp)] = operator.index(c)
        self._coeffs = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def _from_clean(cls, coeffs: Dict[int, int]) -> "LaurentPoly":
        """Wrap, without copying or checking, a dict of int exponents to nonzero int coefficients."""
        poly = cls.__new__(cls)
        poly._coeffs = coeffs
        return poly

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls({0: c})

    # -- inspection --------------------------------------------------------

    def items(self) -> Tuple[Tuple[int, int], ...]:
        """Terms as (exponent, coefficient), ascending in the exponent."""
        return tuple(sorted(self._coeffs.items()))

    def exponents(self) -> Tuple[int, ...]:
        return tuple(sorted(self._coeffs))

    def is_constant(self) -> bool:
        return not self._coeffs or set(self._coeffs) == {0}

    def constant_value(self) -> int:
        if not self.is_constant():
            raise ValueError("polynomial %s is not constant" % self)
        return self._coeffs.get(0, 0)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._combine(other, -1)

    def _combine(self, other: "LaurentPoly", sign: int) -> "LaurentPoly":
        """self + sign·other, dropping each coefficient that cancels as it is built."""
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            if c := out.get(e, 0) + sign * c:
                out[e] = c
            else:
                del out[e]
        return LaurentPoly._from_clean(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly({e: c * other for e, c in self._coeffs.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self._coeffs == {0: 1}:  # the unit; instances are immutable, so nothing is copied
            return other
        if other._coeffs == {0: 1}:
            return self
        out: Dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly._from_clean({e: c for e, c in out.items() if c})

    def shift(self, exp: int) -> "LaurentPoly":
        """Multiply by v^exp."""
        return LaurentPoly._from_clean({e + exp: c for e, c in self._coeffs.items()})

    def mirror(self, exp: int) -> "LaurentPoly":
        """v^exp times the image under v ↦ v^{-1}."""
        return LaurentPoly._from_clean({exp - e: c for e, c in self._coeffs.items()})

    # -- evaluation ----------------------------------------------------------

    def eval_v(self, v0) -> Fraction:
        """Exact evaluation at a nonzero rational v = v0."""
        v0 = Fraction(v0)
        if v0 == 0 and any(e < 0 for e in self._coeffs):
            raise ZeroDivisionError("negative exponents cannot be evaluated at v = 0")
        return sum((c * v0 ** e for e, c in self._coeffs.items()), Fraction(0))

    def eval_q(self, q0) -> Fraction:
        """Exact evaluation at q = q0; requires all v-exponents even."""
        q0 = Fraction(q0)
        if any(e % 2 for e in self._coeffs):
            raise ValueError("polynomial %s has odd v-powers; evaluate at v instead" % self)
        if q0 == 0 and any(e < 0 for e in self._coeffs):
            raise ZeroDivisionError("negative exponents cannot be evaluated at q = 0")
        return sum((c * q0 ** (e // 2) for e, c in self._coeffs.items()), Fraction(0))

    # -- serialization and display -------------------------------------------

    def to_json(self) -> dict:
        return {"v": {str(e): c for e, c in sorted(self._coeffs.items())}}

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for e, c in sorted(self._coeffs.items()):
            if e == 0:
                body = str(abs(c))
            else:
                token = "v" if e == 1 else "v^%d" % e
                body = token if abs(c) == 1 else "%d*%s" % (abs(c), token)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return "LaurentPoly(%r)" % (dict(sorted(self._coeffs.items())),)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})
V = LaurentPoly({1: 1})
Q = LaurentPoly({2: 1})


class VMonomial(NamedTuple):
    """An exact value: a rational coefficient times v^{v_power}."""

    coeff: Fraction
    v_power: int

    @property
    def odd(self) -> bool:
        return self.v_power % 2 == 1

    def evaluate(self, v0) -> Fraction:
        return self.coeff * Fraction(v0) ** self.v_power

    def __str__(self) -> str:
        if self.coeff == 0 or self.v_power == 0:
            return str(self.coeff)
        if self.v_power == 1:
            return "%s*v" % (self.coeff,)
        return "%s*v^%d" % (self.coeff, self.v_power)


def as_poly(x) -> LaurentPoly:
    """Coerce an int or LaurentPoly to LaurentPoly."""
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, int):
        return LaurentPoly.const(x)
    raise TypeError("cannot interpret %r as a Laurent polynomial" % (x,))
