"""Ideal constructions: bracket powers, powers, products, intersections, colons.

Colon ideals drive everything downstream, so they get several routes, each
exact for a unit operand (no Buchberger run is spent ruling one out):

* both sides monomial        -> _colon_elimination (below), every step of
  it combinatorial: lcm intersections, monomial bases, monomial divisions
* principal by principal     -> one exact division when the divisor divides
* box ideal I = <x_i^{b_i}>  -> order-driven linear elimination over the
  standard monomials, on the rows of box_rows (below), yielding
  the reduced Groebner basis directly; covers m^[q] and the unit ideal
* anything else              -> _colon_elimination, the chain
  B_j = (1/f_j)(I cap f_j*B_{j-1}) from B_0 = S over the generators f_j of J,
  one intersection each, no lone (I : f_j) formed (tests call it directly)

Intersections and the tangent cone eliminate an auxiliary variable with
groebner.eliminate, which reduces only the basis elements it keeps.

box_rows alone knows the multiplication matrix of S/<x_i^{b_i}>: its columns
and which cells have a row.  It serves row(g) for one cell, which the colon
asks for as it walks candidates in term order.  A row is a dict mapping
column index to a coefficient in [1, p), with one entry per generator term
landing in the box, so a sparse row costs what it holds.  Echelon, row echelon
over F_p, keeps each pivot row as it reduced.  Its columns below 0 are label
columns, never a lead: the colon tags each candidate row with its own, so a
row that depends on earlier ones reduces to the labels of its dependency.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left
from operator import lt, mul
from typing import Callable, Dict, List, Sequence, Tuple

from .groebner import (
    GroebnerBasis,
    Ideal,
    _reduce_basis,
    _term_heap,
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
    """f / g when g divides f exactly; a remainder is an internal failure.

    Terms leave _term_heap largest first; each is cancelled by a multiple of
    g, whose lead must divide it.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    lm_g, lc_g = g.leading_term()
    inv = f.ring.field.inv(lc_g)
    work, heap, subtract = _term_heap(f)
    quo: Dict[Exponents, int] = {}
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.get(m)
        if c is None:
            continue
        if not monomial_divides(lm_g, m):
            raise ExactDivisionError(f"{g} does not divide {f}")
        shift = monomial_div(m, lm_g)
        quo[shift] = c * inv % f.ring.p
        subtract(g, shift, quo[shift])
    return Polynomial(f.ring, quo, reduce=False)


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
    """(I : J) as the chain B_0 = S, B_j = (1/f_j)(I cap f_j*B_{j-1}) over J's generators.

    g in B_{j-1} has g*f_j in I iff g*f_j lies in K = I cap f_j*B_{j-1}, and S
    is a domain, so B_j = K/f_j and B_k is the colon, after one intersection
    per generator.  lm(g/f_j) = lm(g)/lm(f_j), so the monic quotients of K's
    reduced basis are a minimal basis of B_j, by increasing lead;
    _reduce_basis finishes it, and the result carries it.
    """
    ring = I.ring
    result = Ideal(ring, [ring.one()])
    for f in J.generators:
        K = intersection(I, Ideal(ring, [f * g for g in result.generators]))
        quotients = [exact_divide(g, f).monic() for g in K.groebner_basis()]
        gb = _reduce_basis(ring, [(g.leading_term()[0], g) for g in quotients])
        result = Ideal(ring, gb.elements)
        result.set_groebner_basis(gb)
    return result


def box_rows(
    box: Sequence[int], polys: Sequence[Dict[Tuple[int, ...], int]]
) -> Callable[[Tuple[int, ...]], Dict[int, int]]:
    """row(g) = x^g * f_j mod <x_i^{box_i}> stacked over j.

    polys are term dicts {exponents: nonzero coefficient}.  Target t of f_j
    has column j*|box| + the mixed-radix index of t (first variable most
    significant).  Term m reaches cell g exactly when g_i < box_i - m_i for
    every i, so terms never share a column.  Each generator's sorted in-box
    terms are split greedily, once, into chains along which every coordinate
    is monotone; the terms of a chain that reach a cell are then a slice of
    it, each falling coordinate bounding it below and every other one above,
    read off a table by the coordinate's value; row(g) is {} off the box.
    box has at least one side.
    """
    strides, size = [], 1
    for b in reversed(box):
        strides.insert(0, size)
        size *= b
    n = len(box)
    gens = [
        sorted((m, j * size + sum(map(mul, m, strides)), c) for m, c in f.items() if all(map(lt, m, box)))
        for j, f in enumerate(polys)
    ]
    runs = []  # per chain: its terms (exponents, column offset, coefficient), its lower and its upper bounds
    for inbox in gens:
        chains: List[Tuple[List[int], List[Tuple[Tuple[int, ...], int, int]]]] = []  # (sign, terms)
        for term in inbox:
            for sign, chain in chains:  # sign: +1 rising, -1 falling, 0 constant so far
                step = [(u > v) - (u < v) for u, v in zip(term[0], chain[-1][0])]
                if all(a * b >= 0 for a, b in zip(step, sign)):
                    sign[:] = [a or b for a, b in zip(sign, step)]
                    chain.append(term)
                    break
            else:
                chains.append(([0] * n, [term]))
        for sign, chain in chains:
            cols = [sorted(col) for col in zip(*(m for m, _, _ in chain))]
            cuts = [[bisect_left(col, b - v) for v in range(b)] for col, b in zip(cols, box)]
            # a bound is (stride, side, slice end by coordinate value)
            falls = [(strides[i], box[i], [len(chain) - k for k in cuts[i]]) for i in range(n) if sign[i] < 0]
            runs.append((chain, falls, [(strides[i], box[i], cuts[i]) for i in range(n) if sign[i] >= 0]))

    def row(cell: Tuple[int, ...]) -> Dict[int, int]:
        vec: Dict[int, int] = {}
        if not all(map(lt, cell, box)):
            return vec
        g = sum(map(mul, cell, strides))
        for chain, falls, rises in runs:
            lo, hi = 0, len(chain)
            for t, b, cut in falls:
                k = cut[g // t % b]
                if k > lo:
                    lo = k
            for t, b, cut in rises:
                k = cut[g // t % b]
                if k < hi:
                    hi = k
            for _, o, c in chain[lo:hi]:
                vec[g + o] = c
        return vec

    return row


class Echelon:
    """Row space accumulator over F_p; insert vectors one at a time, rank = pivot count.

    Columns below 0 are label columns: row operations carry them, but they are
    never a lead.  A vector tagged with a label column of its own (coefficient
    1) that depends on earlier vectors reduces to its certificate: its own
    label minus sum(c * earlier label), a combination that cancels on every
    column at 0 and above.
    """

    def __init__(self, p: int):
        self.p = p
        self.pivots: Dict[int, Dict[int, int]] = {}  # leading index -> reduced row, as inserted
        self._inv: Dict[int, int] = {}  # coefficient -> its inverse mod p

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def insert(self, vec: Dict[int, int]) -> bool:
        """Reduce vec in place down to its label columns; True iff it became a pivot.

        vec is kept as a pivot when anything at column 0 or above survives;
        otherwise only its label columns are left in it.  Pivot rows are kept
        as they reduced, not made monic: the multiplier against a pivot is
        vec[lead] / row[lead].
        """
        p = self.p
        while vec:
            lead = max(vec)
            if lead < 0:
                return False
            row = self.pivots.get(lead)
            if row is None:
                self.pivots[lead] = vec
                return True
            c = row[lead]
            inv = self._inv.get(c)
            if inv is None:
                inv = self._inv[c] = pow(c, -1, p)
            lam = vec[lead] * inv % p
            for k, v in row.items():
                nv = (vec.get(k, 0) - lam * v) % p
                if nv:
                    vec[k] = nv
                else:
                    vec.pop(k, None)
        return False


def _colon_zero_dim(I: Ideal, J: Ideal, box: List[int]) -> Ideal:
    """(I : J) for the box ideal I = <x_i^{box_i}> by linear elimination.

    Walks candidate monomials in increasing term order.  The row of the k-th
    candidate m (m*f_j mod I stacked over j: row(m) of box_rows, {}
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
    row = box_rows(box, [f.terms for f in J.generators])

    ech = Echelon(ring.p)
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

