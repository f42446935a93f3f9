"""Buchberger engine over F_p: reduced bases, normal forms, lengths, dimension."""

from __future__ import annotations

import heapq
import itertools
import math
from operator import add, le, neg, sub
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .poly import (
    Exponents,
    InternalInvariantError,
    PolyRing,
    Polynomial,
    ResourceLimitError,
)

# Caps of every Buchberger run, elimination included: S-pairs reduced, live
# basis elements.  Each run reads them once, when it starts.
MAX_PAIRS = 40000
MAX_BASIS = 300

INFINITE = math.inf


class GroebnerBasis:
    """Reduced Groebner basis under ring.order: monic, mutually reduced.

    The elements are stored sorted by increasing leading monomial, whatever
    order they are given in; each lead is computed once, here.  Division
    never inverts a leading coefficient, so a non-monic element is a
    ValueError.
    """

    __slots__ = ("ring", "elements", "_lead")

    def __init__(self, ring: PolyRing, elements: Iterable[Polynomial]):
        key = ring.order.key
        lead = sorted(((g.leading_term()[0], g) for g in elements), key=lambda pair: key(pair[0]))
        if any(g.terms[lm] != 1 for lm, g in lead):
            raise ValueError("every Groebner basis element must be monic")
        self.ring = ring
        self.elements = tuple(g for _, g in lead)
        self._lead = lead  # reducers

    def leading_monomials(self) -> Tuple[Exponents, ...]:
        return tuple(lm for lm, _ in self._lead)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        return (
            isinstance(other, GroebnerBasis)
            and self.ring == other.ring
            and self.elements == other.elements
        )

    def __repr__(self):
        return "GroebnerBasis[" + "; ".join(str(g) for g in self.elements) + "]"


def normal_form(f: Polynomial, G: GroebnerBasis) -> Polynomial:
    """Remainder of f on division by G; no term divisible by a leading monomial."""
    if f.ring != G.ring:
        raise ValueError("normal_form: ring mismatch")
    return _reduce(f, G._lead)


def _reduce(f: Polynomial, lead: Sequence[Tuple[Exponents, Polynomial]]) -> Polynomial:
    """Full remainder of f by the monic reducers `lead`, as (leading monomial, g) pairs.

    Terms leave _term_heap largest first, so the remainder's first term is its lead.
    """
    work, heap, subtract = _term_heap(f)
    out: Dict[Exponents, int] = {}
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.get(m)
        if c is None:
            continue
        for lm, g in lead:
            if all(map(le, lm, m)):
                subtract(g, tuple(map(sub, m, lm)), c)
                break
        else:
            out[m] = c
            del work[m]
    return Polynomial(f.ring, out, reduce=False)


def _term_heap(f: Polynomial) -> Tuple[Dict[Exponents, int], List[Tuple[Tuple[int, ...], Exponents]], Callable]:
    """(work, heap, subtract) for a division of f that takes terms off largest first.

    work is f's terms as a dict; heap holds (negated order key, monomial) for
    them, so heappop gives the largest.  subtract(g, shift, c) takes
    c*x^shift*g off work and pushes each term it brings in.  A term cancelled
    since it was pushed is no longer in work, and its pop is skipped.
    """
    ring = f.ring
    p = ring.p
    key = ring.order.key
    work = dict(f.terms)
    heap = [(tuple(map(neg, key(m))), m) for m in work]
    heapq.heapify(heap)

    def subtract(g: Polynomial, shift: Exponents, c: int):
        for gm, gc in g.terms.items():
            t = tuple(map(add, gm, shift))
            v = (work.get(t, 0) - c * gc) % p
            if v:
                if t not in work:
                    heapq.heappush(heap, (tuple(map(neg, key(t))), t))
                work[t] = v
            else:
                work.pop(t, None)

    return work, heap, subtract


def minimal_monomials(monos: Iterable[Exponents]) -> List[Exponents]:
    """The minimal exponents under divisibility, sorted by (degree, exponents).

    They are the minimal generators of the monomial ideal the given monomials
    span; duplicates and multiples of another are dropped.
    """
    out: List[Exponents] = []
    for m in sorted(set(monos), key=lambda t: (sum(t), t)):
        if not any(all(map(le, o, m)) for o in out):
            out.append(m)
    return out


def pure_power_box(monos: Sequence[Exponents], n: int) -> Optional[List[int]]:
    """Per variable, the smallest exponent e with x_i^e among monos; None if one is missing.

    The constant monomial counts as a pure power of every variable.  For the
    minimal generators or leading monomials of a monomial ideal, a box means
    the quotient is finite and its standard monomials lie inside the box.
    """
    box = []
    for i in range(n):
        pure = [m[i] for m in monos if sum(m) == m[i]]
        if not pure:
            return None
        box.append(min(pure))
    return box


def buchberger(gens: Sequence[Polynomial]) -> GroebnerBasis:
    """Reduced Groebner basis under the ring's order: _minimal_basis, then _reduce_basis.

    Monomial generators are only minimalized, with no reduction pass.  The
    caps raise ResourceLimitError, never truncate.  Deterministic for a fixed input.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("buchberger needs at least one non-zero generator; use GroebnerBasis(ring, []) for the zero ideal")
    ring = gens[0].ring
    if any(g.ring != ring for g in gens):
        raise ValueError("generators live in different rings")
    if all(g.is_monomial() for g in gens):
        # monomial ideals are their own reduced basis after minimalization
        mins = minimal_monomials(m for g in gens for m in g.terms)
        return GroebnerBasis(ring, [ring.monomial(m) for m in mins])
    return _reduce_basis(ring, _minimal_basis(ring, gens))


def eliminate(ring: PolyRing, gens: Sequence[Polynomial]) -> GroebnerBasis:
    """Reduced basis of (gens) cap ring, for gens in ring.extended(): t eliminated.

    Under the block order a lead of t-degree 0 makes its whole element t-free,
    so the minimal elements with such leads are a minimal basis of the
    elimination ideal (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms,
    3.1).  Only they are projected into ring and reduced, which gives the
    same reduced basis as the t-free part of buchberger(gens), at the same caps.
    """
    ext = ring.extended()
    if any(g.ring != ext for g in gens):
        raise ValueError("eliminate: generators outside ring.extended()")
    lead = _minimal_basis(ext, [g for g in gens if not g.is_zero()])
    kept = [(lm[1:], Polynomial(ring, {m[1:]: c for m, c in g.terms.items()}, reduce=False)) for lm, g in lead if not lm[0]]
    return _reduce_basis(ring, kept)


def _minimal_basis(ring: PolyRing, gens: List[Polynomial]) -> List[Tuple[Exponents, Polynomial]]:
    """Minimal Groebner basis of the non-zero gens: monic (lead, g) pairs by increasing lead.

    Gebauer-Moeller update (J. Symbolic Comput. 6, 1988), once per inserted h:
    queue one pair (g, h) per minimal lcm, none whose lcm a coprime pair has
    (criteria M, F); delete each queued pair whose lcm lm(h) divides but equals
    neither of its lcms with h (criterion B); drop each live element whose lead
    lm(h) divides, so the live reducers stay a minimal basis (generators go in
    by decreasing lead).  Normal selection (smallest lcm, then indices) off a
    heap that skips deleted pairs.
    """
    max_pairs, max_basis = MAX_PAIRS, MAX_BASIS
    key = ring.order.key
    elems: List[Tuple[Exponents, Polynomial]] = []  # every inserted element, by index
    live: List[int] = []  # indices of the minimal basis, in insertion order
    pending: Dict[Tuple[int, int], Exponents] = {}  # queued pairs not deleted, with their lcm
    queue: List[Tuple[object, int, int, Exponents]] = []  # (order key of lcm, i, j, lcm)

    def insert(lm: Exponents, h: Polynomial):
        j = len(elems)
        for (i, k), lcm in list(pending.items()):  # criterion B
            if all(map(le, lm, lcm)) and lcm not in (tuple(map(max, elems[i][0], lm)), tuple(map(max, elems[k][0], lm))):
                del pending[i, k]
        first: Dict[Exponents, Optional[int]] = {}  # lcm -> first live index, None if coprime
        for i in live:
            lcm = tuple(map(max, elems[i][0], lm))
            first[lcm] = first.get(lcm, i) if any(map(min, elems[i][0], lm)) else None
        for lcm in minimal_monomials(first):  # criteria M and F
            if first[lcm] is not None:
                pending[first[lcm], j] = lcm
                heapq.heappush(queue, (key(lcm), first[lcm], j, lcm))
        elems.append((lm, h))
        live[:] = [i for i in live if not all(map(le, lm, elems[i][0]))] + [j]

    for g in sorted(map(Polynomial.monic, gens), key=lambda h: (key(h.leading_term()[0]), sorted(h.terms.items())), reverse=True):
        insert(g.leading_term()[0], g)
    pairs_done = 0

    while queue:
        _, i, j, lcm = heapq.heappop(queue)
        if pending.pop((i, j), None) is None:
            continue  # deleted by criterion B after it was queued
        pairs_done += 1
        if pairs_done > max_pairs:
            raise ResourceLimitError(f"pair cap {max_pairs} exceeded", pairs_done, len(live))
        (lm_i, f_i), (lm_j, f_j) = elems[i], elems[j]
        # both elements are monic, so the S-pair is f_i*(lcm/lm_i) - f_j*(lcm/lm_j)
        spair = f_i.monomial_shift(tuple(map(sub, lcm, lm_i))) - f_j.monomial_shift(
            tuple(map(sub, lcm, lm_j))
        )
        h = _reduce(spair, [elems[k] for k in live])
        if h.is_zero():
            continue
        lm = next(iter(h.terms))
        insert(lm, h.scale(ring.field.inv(h.terms[lm])))
        if len(live) > max_basis:
            raise ResourceLimitError(f"basis cap {max_basis} exceeded", pairs_done, len(live))

    return sorted((elems[k] for k in live), key=lambda pair: key(pair[0]))


def _reduce_basis(ring: PolyRing, lead: List[Tuple[Exponents, Polynomial]]) -> GroebnerBasis:
    """Reduced basis from a minimal Groebner basis: monic (leading monomial, g) pairs by increasing lead.

    No lead divides another, so leads stay monic and fixed.  A tail term lies
    below its lead, so only smaller leads divide it: each element is reduced
    once by the ones before it, already reduced.
    """
    for idx, (lm, g) in enumerate(lead):
        lead[idx] = (lm, _reduce(g, lead[:idx]))
    return GroebnerBasis(ring, [g for _, g in lead])


class Ideal:
    """Finite generator list with one reduced Groebner basis: the GroebnerBasis it is built from, else computed lazily."""

    __slots__ = ("ring", "generators", "_gb")

    def __init__(self, ring: PolyRing, generators: Iterable[Polynomial]):
        self._gb: Optional[GroebnerBasis] = generators if isinstance(generators, GroebnerBasis) else None
        if self._gb is not None and self._gb.ring != ring:
            raise ValueError("basis outside the ideal's ring")
        gens = tuple(g for g in generators if not g.is_zero())
        for g in gens:
            if g.ring != ring:
                raise ValueError("generator outside the ideal's ring")
        self.ring = ring
        self.generators = gens

    def is_zero(self) -> bool:
        return not self.generators

    def is_monomial(self) -> bool:
        return all(g.is_monomial() for g in self.generators)

    def groebner_basis(self) -> GroebnerBasis:
        if self._gb is None:
            self._gb = GroebnerBasis(self.ring, []) if self.is_zero() else buchberger(self.generators)
        return self._gb

    def is_proper(self) -> bool:
        gb = self.groebner_basis()
        return not any(g.is_constant() and not g.is_zero() for g in gb)

    def __repr__(self):
        return "Ideal<" + ", ".join(str(g) for g in self.generators) + ">"


def ideal_membership(f: Polynomial, I: Ideal) -> bool:
    """True iff f reduces to zero against the reduced basis of I."""
    if f.ring != I.ring:
        raise ValueError("membership: ring mismatch")
    if f.is_zero():
        return True
    return normal_form(f, I.groebner_basis()).is_zero()


def quotient_length(I: Ideal):
    """Number of standard monomials of S/I, or INFINITE.

    Standard monomials are those not divisible by any leading monomial of the
    reduced basis; the quotient is finite exactly when the leads hold a pure
    power of every variable, and then staircase_count counts them.
    """
    lms = I.groebner_basis().leading_monomials()
    if pure_power_box(lms, I.ring.nvars) is None:
        return INFINITE
    return staircase_count(lms)


def staircase_count(leads: Iterable[Exponents]) -> int:
    """Monomials divisible by none of the leads, counted without enumerating them.

    These are the standard monomials of the monomial ideal the leads
    generate, which must be zero-dimensional (a pure power of every variable
    among the leads, n >= 1).  Recursion on the last coordinate: the slice
    at v is the same count in one variable fewer, on the leads with last
    exponent <= v, their last coordinate dropped.  It changes only at the
    distinct last exponents, so the count is a sum of (run length) * (count
    of the slice), memoized on the slice's minimal leads.  Past the largest
    last exponent the leads hold the pure power of the last variable, so
    only the finite runs count.  In one variable the minimal leads are a
    single pure power, and its exponent is the count.
    """
    memo: Dict[Tuple[Exponents, ...], int] = {}

    def count(pts: Tuple[Exponents, ...], n: int) -> int:
        if n == 1:
            (only,) = pts
            return only[0]
        got = memo.get(pts)
        if got is None:
            cuts = sorted({0} | {m[-1] for m in pts})
            got = 0
            for v, w in zip(cuts, cuts[1:]):
                cut = minimal_monomials(m[:-1] for m in pts if m[-1] <= v)
                got += (w - v) * count(tuple(cut), n - 1)
            memo[pts] = got
        return got

    top = tuple(minimal_monomials(leads))
    return count(top, len(top[0]))


def krull_dimension(I: Ideal) -> int:
    """Dimension of S/I: the largest variable set meeting no leading support.

    Combinatorial form: max |U| such that no leading monomial of the reduced
    basis is supported inside U.  Rejects the unit ideal.
    """
    if not I.is_proper():
        raise ValueError("krull_dimension: the unit ideal has no dimension")
    n = I.ring.nvars
    supports = [frozenset(i for i, e in enumerate(lm) if e) for lm in I.groebner_basis().leading_monomials()]
    for size in range(n, -1, -1):
        for U in itertools.combinations(range(n), size):
            Uset = set(U)
            if not any(s <= Uset for s in supports):
                return size
    raise InternalInvariantError("no independent variable subset found")
