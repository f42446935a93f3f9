"""Ideal constructions: bracket powers, powers, products, intersections, colons.

Colon ideals drive everything downstream, so they get several routes, each
exact for a unit operand (no Buchberger run is spent ruling one out):

* both sides monomial        -> _colon_elimination (below), every step of
  it combinatorial: lcm intersections, monomial bases, monomial divisions
* principal by principal     -> one exact division when the divisor divides
* box ideal I = <x_i^{b_i}>  -> order-driven linear elimination over the
  standard monomials, on the rank route's rows (_linalg.box_rows), yielding
  the reduced Groebner basis directly; covers m^[q] and the unit ideal
* anything else              -> _colon_elimination, the intersection over f
  in J of (1/f)(I cap <f>) (the reference path; tests call it directly)

Intersections and the tangent cone eliminate an auxiliary variable with
groebner.eliminate, which reduces only the basis elements it keeps.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, List, Optional, Tuple

from . import _linalg
from .groebner import (
    GroebnerBasis,
    Ideal,
    eliminate,
    minimal_monomials,
    pure_power_box,
)
from .poly import (
    Exponents,
    InternalInvariantError,
    Polynomial,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)


class ExactDivisionError(InternalInvariantError):
    """A division that must be exact left a remainder."""


def bracket_power(I: Ideal, e: int) -> Ideal:
    """Ideal of the p^e-th powers of the generators; generator independent."""
    if e < 1:
        raise ValueError("bracket_power needs e >= 1")
    return Ideal(I.ring, [g.frobenius(e) for g in I.generators])


def ideal_power(I: Ideal, n: int) -> Ideal:
    """Ordinary n-th power; n = 0 gives the unit ideal."""
    if n < 0:
        raise ValueError("ideal_power needs n >= 0")
    ring = I.ring
    if n == 0:
        return Ideal(ring, [ring.one()])
    gens = I.generators
    if not gens:
        return Ideal(ring, [])
    if len(gens) == 1:
        return Ideal(ring, [gens[0] ** n])
    out = []
    for combo in itertools.combinations_with_replacement(gens, n):
        f = ring.one()
        for g in combo:
            f = f * g
        out.append(f)
    return Ideal(ring, out)


def ideal_product(I: Ideal, J: Ideal) -> Ideal:
    _check_same_ring(I, J)
    return Ideal(I.ring, [f * g for f in I.generators for g in J.generators])


def ideal_sum(I: Ideal, J: Ideal) -> Ideal:
    _check_same_ring(I, J)
    return Ideal(I.ring, I.generators + J.generators)


def ideal_equals(I: Ideal, J: Ideal) -> bool:
    """True iff the reduced bases (under the ring's order) coincide."""
    _check_same_ring(I, J)
    return I.groebner_basis().elements == J.groebner_basis().elements


def _check_same_ring(I: Ideal, J: Ideal):
    if I.ring != J.ring:
        raise ValueError("ideals live in different rings")


# -- intersection -------------------------------------------------------

def intersection(I: Ideal, J: Ideal) -> Ideal:
    """I cap J; monomial inputs are intersected by pairwise lcms."""
    _check_same_ring(I, J)
    ring = I.ring
    if I.is_zero() or J.is_zero():
        return Ideal(ring, [])
    if I.is_monomial() and J.is_monomial():
        gens = [
            ring.monomial(monomial_lcm(a, b))
            for a in minimal_monomials(m for g in I.generators for m in g.terms)
            for b in minimal_monomials(m for g in J.generators for m in g.terms)
        ]
        return Ideal(ring, gens)
    return _intersection_elimination(I, J)


def _intersection_elimination(I: Ideal, J: Ideal) -> Ideal:
    """I cap J by eliminating t from t*I + (1-t)*J; the result carries its reduced basis."""
    ring = I.ring
    ext = ring.extended()
    t = ext.variable(ext.variables[0])

    def lift(f: Polynomial) -> Polynomial:
        return Polynomial(ext, {(0,) + m: c for m, c in f.terms.items()}, reduce=False)

    gb = eliminate(ring, [t * lift(g) for g in I.generators] + [(ext.one() - t) * lift(g) for g in J.generators])
    result = Ideal(ring, gb.elements)
    result.set_groebner_basis(gb)
    return result


def tangent_cone(I: Ideal) -> Ideal:
    """The lowest-degree forms of I: S over them has the dimension of S/I at 0.

    Each generator f becomes f(t*x)/t^{ord f} in S[t], saturated by t (u
    eliminated from them and 1 - u*t over S[t]), at t = 0 (Greuel-Pfister, A
    Singular Introduction to Commutative Algebra, 5.5).  A homogeneous ideal
    skips it.
    """
    ring = I.ring
    if all(len({sum(m) for m in g.terms}) == 1 for g in I.groebner_basis()):
        return I
    sat = ring.extended().extended()  # variables u, t, then the ring's
    lows = [min(map(sum, g.terms)) for g in I.generators]
    gens = [Polynomial(sat, {(0, sum(m) - low) + m: c for m, c in g.terms.items()}) for g, low in zip(I.generators, lows)]
    gens.append(sat.one() - sat.monomial((1, 1) + (0,) * ring.nvars))
    saturated = eliminate(ring.extended(), gens)
    return Ideal(ring, [Polynomial(ring, {m[1:]: c for m, c in g.terms.items() if not m[0]}) for g in saturated])


# -- exact division -----------------------------------------------------

def exact_divide(f: Polynomial, g: Polynomial) -> Polynomial:
    """f / g when g divides f exactly; a remainder is an internal failure."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    ring = f.ring
    lm_g, lc_g = g.leading_term()
    inv = ring.field.inv(lc_g)
    work = dict(f.terms)
    quo: Dict[Exponents, int] = {}
    p = ring.p
    key = ring.order.key
    keys = {m: key(m) for m in work}  # each term's order key, built once
    while work:
        m = max(work, key=keys.__getitem__)
        c = work[m]
        if not monomial_divides(lm_g, m):
            raise ExactDivisionError(f"{g} does not divide {f}")
        shift = monomial_div(m, lm_g)
        factor = c * inv % p
        quo[shift] = factor
        for gm, gc in g.terms.items():
            tmono = monomial_mul(gm, shift)
            v = (work.get(tmono, 0) - factor * gc) % p
            if v:
                if tmono not in keys:
                    keys[tmono] = key(tmono)
                work[tmono] = v
            else:
                work.pop(tmono, None)
    return Polynomial(ring, quo, reduce=False)


# -- colon --------------------------------------------------------------

def colon(I: Ideal, J: Ideal) -> Ideal:
    """(I : J) = all g with g*J inside I, by the cheapest sound route.

    The fallback is the reference construction _colon_elimination.
    """
    _check_same_ring(I, J)
    if J.is_zero():
        raise ValueError("colon by the zero ideal")
    ring = I.ring
    if I.is_zero():
        return Ideal(ring, [])
    if I.is_monomial() and J.is_monomial():
        return _colon_elimination(I, J)
    if len(I.generators) == 1 and len(J.generators) == 1:
        try:
            return Ideal(ring, [exact_divide(I.generators[0], J.generators[0])])
        except ExactDivisionError:
            pass
    if I.is_monomial():
        mins = minimal_monomials(m for g in I.generators for m in g.terms)
        box = pure_power_box(mins, ring.nvars)
        if box is not None and all(sum(m) == max(m) for m in mins):
            return _colon_zero_dim(I, J, box)
    return _colon_elimination(I, J)


def _colon_elimination(I: Ideal, J: Ideal) -> Ideal:
    """(I : J) as the intersection over f in J of (1/f)(I cap <f>)."""
    ring = I.ring
    result: Optional[Ideal] = None
    for f in J.generators:
        K = intersection(I, Ideal(ring, [f]))
        gens = [exact_divide(g, f) for g in K.groebner_basis()]
        Q = Ideal(ring, gens)
        result = Q if result is None else intersection(result, Q)
    return result


def _colon_zero_dim(I: Ideal, J: Ideal, box: List[int]) -> Ideal:
    """(I : J) for the box ideal I = <x_i^{box_i}> by linear elimination.

    Walks candidate monomials in increasing term order.  The row of the k-th
    candidate m (m*f_j mod I stacked over j: row(m) of _linalg.box_rows, {}
    past the box) carries label column ~k.  When it depends linearly on the
    rows of the smaller standard monomials, the echelon leaves exactly its
    labels: the reduced-basis element m - sum(c_b * b), monic and led by m.
    A standard m pushes m + e_i for i at or past its last non-zero index, so
    c is pushed once, by c - e_last(c), with no record of what was pushed.
    Terminates because I is zero-dimensional, and the emitted elements form
    the reduced basis of the colon because their tails only involve its
    standard monomials (the only labels pivots hold).
    """
    ring = I.ring
    order = ring.order
    n = ring.nvars
    row, _ = _linalg.box_rows(box, [f.terms for f in J.generators])

    ech = _linalg.Echelon(ring.p)
    heap: List[Tuple[object, Exponents]] = [(order.key((0,) * n), (0,) * n)]
    standard = set()  # candidates confirmed standard so far
    labels: List[Exponents] = []  # candidate k has label column ~k
    gb_elems: List[Polynomial] = []

    while heap:
        _, m = heapq.heappop(heap)
        # every smaller monomial is settled, so m is divisible by a lead found
        # so far exactly when one of its divisors m - e_i is not standard
        if any(m[i] and m[:i] + (m[i] - 1,) + m[i + 1 :] not in standard for i in range(n)):
            continue
        vec = row(m)
        vec[~len(labels)] = 1
        labels.append(m)
        if ech.insert(vec):
            standard.add(m)
            last = max((i for i in range(n) if m[i]), default=0)
            for i in range(last, n):
                cand = m[:i] + (m[i] + 1,) + m[i + 1 :]
                heapq.heappush(heap, (order.key(cand), cand))
        else:
            gb_elems.append(Polynomial(ring, {labels[~k]: c for k, c in vec.items()}, reduce=False))

    gb = GroebnerBasis(ring, gb_elems)
    result = Ideal(ring, gb.elements)
    result.set_groebner_basis(gb)
    return result

