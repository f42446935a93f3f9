"""The box rows of the zero-dimensional colon, incremental row echelon over
F_p, and the one integer eliminator.

_bareiss, fraction-free Gauss-Jordan over the integers, gives every exact
rank, determinant, solution and kernel on the integer side: the facets,
clip vertices and volumes of fsig.newton.

box_rows alone knows the multiplication matrix of S/<x_i^{box_i}>: its
columns and which cells have a row.  Its one row builder serves row(g) for
one cell, which the colon (m^[q] : b_e) asks for as it walks candidates in
term order.  A vector is a dict mapping column index to a nonzero
coefficient in [1, p); the zero vector is the empty dict.  A row holds one
entry per generator term landing in the box, out of #gens * |box| columns,
so a sparse row costs what it holds.  Echelon keeps each pivot row as it
reduced, not made monic.  Its columns below 0 are label columns, never a
lead: the colon tags each candidate row with one, so a row that depends on
earlier ones reduces to the labels of its dependency.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from operator import lt, mul
from typing import Callable, Dict, List, Sequence, Tuple

Row = Dict[int, int]
IntPoint = Tuple[Tuple[int, ...], int]  # (numerators, denominator)


def _bareiss(rows: Sequence[Sequence[int]]) -> Tuple[List[int], List[List[int]], int]:
    """Fraction-free Gauss-Jordan on integer rows: (pivot columns, pivot rows, last pivot).

    After each step every row other than the pivot row is (pivot * row - f *
    pivot row) / previous pivot, an exact division, because each entry is a
    minor of the input (Bareiss; Nakos, Turner and Williams).  Each pivot row
    holds the last pivot at its own pivot column and 0 at the others, so the
    rows over the last pivot are the reduced row echelon form; the rank is the
    number of pivots, and for a square matrix of full rank the last pivot is
    +-det.
    """
    rows = [list(r) for r in rows]
    nrows = len(rows)
    pivots: List[int] = []
    prev = 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        pc = prow[c]
        for i in range(nrows):
            if i != r:
                f = rows[i][c]
                rows[i] = [(pc * a - f * b) // prev for a, b in zip(rows[i], prow)]
        prev = pc
        pivots.append(c)
    return pivots, rows[: len(pivots)], prev


def _reduced(nums: Sequence[int], den: int) -> IntPoint:
    """The point nums / den as (numerators, den), reduced by their gcd with den > 0."""
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    return tuple(x // g for x in nums), den // g


def box_rows(box: Sequence[int], polys: Sequence[Dict[Tuple[int, ...], int]]) -> Callable[[Tuple[int, ...]], Row]:
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

    def row(cell: Tuple[int, ...]) -> Row:
        vec: Row = {}
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
        vec[lead] / row[lead].  A vector equal to the pivot that has its lead
        cancels whole, with no reduction loop; it is cleared, so that like
        every dependent vector it is left holding only its labels (here none).
        This never fires on a vector tagged with its own label, which no
        pivot holds.
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
            if vec[lead] == c and vec == row:
                vec.clear()
                return False
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
