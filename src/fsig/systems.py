"""Graded families of ideals b_e with b_e^[p^l] * b_l inside b_{e+l}.

Three constructors cover the package's inputs: colon families attached to a
quotient ideal, power families attached to an ideal with a rational exponent,
and products of families.  Every family memoizes its ideals per level, and
keeps a slot for the splitting ideals I_e that fsig.signature derives from
them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .groebner import Ideal, ideal_membership
from .ideals import bracket_power, colon, ideal_power, ideal_product
from .poly import CEILING_MODES, PolyRing, Polynomial


def power_exponent(t: Fraction, p: int, e: int, mode: str = "pminusone") -> int:
    """Exact integer exponent for level e: ceil(t*(p^e - 1)) or ceil(t*p^e)."""
    if mode not in CEILING_MODES:
        raise ValueError(f"unknown ceiling mode {mode!r}")
    base = p**e - 1 if mode == "pminusone" else p**e
    return math.ceil(Fraction(t) * base)


class FGradedSystem:
    """Base class; subclasses provide _compute(e) and a canonical description."""

    def __init__(self, ring: PolyRing):
        self.ring = ring
        self._cache: Dict[int, Ideal] = {}
        self.splitting_ideals: Dict[int, Ideal] = {}  # I_e, memoized by fsig.signature

    def b_of(self, e: int) -> Ideal:
        if e < 1:
            raise ValueError("b_of needs e >= 1")
        got = self._cache.get(e)
        if got is None:
            got = self._cache[e] = self._compute(e)
        return got

    def _compute(self, e: int) -> Ideal:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"<system {self.describe()} over F_{self.ring.p}>"


class QuotientSystem(FGradedSystem):
    """b_e = (J^[p^e] : J) for a fixed non-zero ideal J inside m = (x_1, ..., x_n)."""

    def __init__(self, ring: PolyRing, J: Ideal):
        super().__init__(ring)
        if J.is_zero():
            raise ValueError("quotient system needs a non-zero ideal")
        # s_e is taken at the origin, where S/J is 0 unless J lies in m
        if any(not any(m) for f in J.generators for m in f.terms):
            raise ValueError("quotient system needs generators with no constant term")
        self.J = J

    def _compute(self, e: int) -> Ideal:
        return colon(bracket_power(self.J, e), self.J)

    def describe(self) -> str:
        gens = ", ".join(str(g) for g in self.J.generators)
        return f"quotient{{J=[{gens}]}}"


class PairSystem(FGradedSystem):
    """b_e = a^N(e) with N(e) the exact rational ceiling exponent."""

    def __init__(self, ring: PolyRing, a: Ideal, t, ceiling: str = "pminusone"):
        super().__init__(ring)
        t = Fraction(t)
        if a.is_zero():
            raise ValueError("pair system needs a non-zero ideal")
        if t < 0:
            raise ValueError("pair system needs t >= 0")
        if ceiling not in CEILING_MODES:
            raise ValueError(f"unknown ceiling mode {ceiling!r}")
        self.a = a
        self.t = t
        self.ceiling = ceiling

    def exponent(self, e: int) -> int:
        return power_exponent(self.t, self.ring.p, e, self.ceiling)

    def _compute(self, e: int) -> Ideal:
        return ideal_power(self.a, self.exponent(e))

    def describe(self) -> str:
        gens = ", ".join(str(g) for g in self.a.generators)
        tail = "" if self.ceiling == "pminusone" else ", ceiling=pe"
        return f"pair{{a=[{gens}], t={self.t}{tail}}}"


class ProductSystem(FGradedSystem):
    """b_e = product of the factors' level-e ideals."""

    def __init__(self, ring: PolyRing, factors: Sequence[FGradedSystem]):
        super().__init__(ring)
        factors = tuple(factors)
        if not factors:
            raise ValueError("product system needs at least one factor")
        for f in factors:
            if f.ring != ring:
                raise ValueError("product factors live in different rings")
        self.factors = factors

    def _compute(self, e: int) -> Ideal:
        result = self.factors[0].b_of(e)
        for f in self.factors[1:]:
            result = ideal_product(result, f.b_of(e))
        return result

    def describe(self) -> str:
        return "product[" + ", ".join(f.describe() for f in self.factors) + "]"


def make_system(spec, ring: PolyRing, ceiling: str = "pminusone") -> FGradedSystem:
    """Build a system from a parsed expression tree.

    Nodes are tuples: ("quotient", [Polynomial]), ("pair", [Polynomial],
    Fraction) or ("product", [node, ...]).
    """
    kind = spec[0]
    if kind == "quotient":
        return QuotientSystem(ring, Ideal(ring, spec[1]))
    if kind == "pair":
        return PairSystem(ring, Ideal(ring, spec[1]), spec[2], ceiling)
    if kind == "product":
        return ProductSystem(ring, [make_system(s, ring, ceiling) for s in spec[1]])
    raise ValueError(f"unknown system kind {kind!r}")


def verify_graded(
    sys: FGradedSystem, emax: int
) -> Tuple[bool, Optional[Tuple[int, int, Polynomial]]]:
    """Check b_e^[p^l] * b_l inside b_{e+l} for all e + l <= emax.

    Returns (True, None) or (False, first failing (e, l, offending product)),
    scanning levels in increasing (e + l, e) order.
    """
    if emax < 2:
        raise ValueError("verify_graded needs emax >= 2")
    for total in range(2, emax + 1):
        for e in range(1, total):
            l = total - e
            target = sys.b_of(total)
            lhs = ideal_product(bracket_power(sys.b_of(e), l), sys.b_of(l))
            for g in lhs.generators:
                if not ideal_membership(g, target):
                    return False, (e, l, g)
    return True, None
