"""The box matrix of both a_e routes, and incremental row echelon over F_p.

box_rows alone knows the multiplication matrix of S/<x_i^{box_i}>: its
columns and which cells have a row.  Its one row builder serves row(g) for
one cell (the colon's term-order walk) and blocks(parents, s), the rank
route's walk of the lifts s*d + r, r in [0, s)^n, of a set of parent cells
d.  The rank route's descent lifts the previous level's pivot cells by p; a
level with no descent lifts every cell of the previous level's box by p,
which is the whole box [0, q)^n.  When every generator f_j is homogeneous
for a torus grading W (torus_grading, the integer kernel of the differences
of f_j's exponents, read off one pass of newton._bareiss), the row of cell g
writes only columns t of f_j with W*t - W*m_j = W*g: the matrix is block
diagonal in W*g, its rank the sum of the block ranks, and blocks walks it
block by block.  A vector is a dict
mapping column index to a nonzero coefficient in [1, p); the zero vector is
the empty dict.  A row holds one entry per generator term landing in the
box, out of #gens * |box| columns, so a sparse row costs what it holds.
When every generator is one monomial, distinct cells never share a column,
so the non-empty rows are independent (the rank route counts them as
q^n - length(S/(m^[q] + b_e)) instead of building them).  Echelon keeps each
pivot row as it reduced, not made monic.  Its columns below 0 are label
columns, never a lead: the colon tags each candidate row with one, so a row
that depends on earlier ones reduces to the labels of its dependency.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import groupby, product
from operator import itemgetter, lt, mul, sub
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

from .newton import _bareiss, _reduced

Row = Dict[int, int]
BLOCK_LIFTS = 256  # blocks(): consecutive degrees merge into one block until it holds this many lifts
Block = Iterator[Tuple[int, Row]]  # (cell index, row), in cell order


def torus_grading(groups: Iterable[Sequence[Tuple[int, ...]]], n: int) -> List[Tuple[int, ...]]:
    """Integer rows W spanning the vectors orthogonal to every difference of two exponents of one group.

    Every group (one generator's exponents) then has a single W-degree.  The
    differences are eliminated once (_bareiss): with pivot columns P, reduced
    rows R and last pivot den, each free column f gives the primitive row that
    is den at f and -R[i][f] at P[i], positive at f.  No difference leaves the
    unit rows; differences of rank n leave [], a single degree.
    """
    P, R, den = _bareiss([tuple(map(sub, m, ms[0])) for ms in groups for m in ms[1:]])
    W = []
    for f in (k for k in range(n) if k not in P):
        x, d = _reduced([-row[f] for row in R], den)
        W.append(tuple(d if k == f else x[P.index(k)] if k in P else 0 for k in range(n)))
    return W


def box_rows(
    box: Sequence[int], polys: Sequence[Dict[Tuple[int, ...], int]]
) -> Tuple[Callable[[Tuple[int, ...]], Row], Callable[[Iterable[int], int], Iterator[Block]]]:
    """row(g) = x^g * f_j mod <x_i^{box_i}> stacked over j, and blocks(parents, s) of them.

    polys are term dicts {exponents: nonzero coefficient}.  Target t of f_j
    has column j*|box| + the mixed-radix index of t (first variable most
    significant).  Term m reaches cell g exactly when g_i < box_i - m_i for
    every i, so terms never share a column.  Each generator's sorted in-box
    terms are split greedily, once, into chains along which every coordinate
    is monotone; the terms of a chain that reach a cell are then a slice of
    it, each falling coordinate bounding it below and every other one above,
    read off a table by the coordinate's value.  Every row, row(g) and the
    rows of blocks, is built from these slices; row(g) is {} off the box.

    blocks(parents, s) walks the lifts g = s*d + r, r in [0, s)^n, of the
    parent cells d, given as cell indices of the box with sides box_i / s;
    the parents [0] of the all-1 box give the whole box.  It yields one
    block at a time, as its non-empty rows (cell index, row(g)) in cell
    order, built as they are read.  The degree of g is w*g, w the first row
    of W = torus_grading of the in-box terms (0 if there is none), so the
    cells of one degree are a union of W-blocks.  A parent of degree K lifts
    into the degrees s*K + w*r, so the parents are grouped by degree, and
    the degrees are walked in order, consecutive ones merged into one block
    until it holds BLOCK_LIFTS lifts.  box has at least one side.
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

    def row_at(g: int) -> Row:
        vec: Row = {}
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

    def row(g: Tuple[int, ...]) -> Row:
        return row_at(sum(map(mul, g, strides))) if all(map(lt, g, box)) else {}

    def blocks(parents: Iterable[int], s: int) -> Iterator[Block]:
        W = torus_grading([[m for m, _, _ in inbox] for inbox in gens], n)
        w = W[0] if W else [0] * n

        def run(cells: List[int]) -> Block:  # the non-empty rows of cells, in their order
            return filter(itemgetter(1), zip(cells, map(row_at, cells)))

        # the parents, each as the index of s*d, grouped by the degree of
        # s*d; a parent whose lift s*d lies past every term's reach in some
        # coordinate (so every lift does) is skipped
        pstrides = [t // s ** (n - 1 - i) for i, t in enumerate(strides)]
        low = [min((m[i] for inbox in gens for m, _, _ in inbox), default=b) for i, b in enumerate(box)]
        limit = [-((u - b) // s) for u, b in zip(low, box)]  # ceil((box_i - low_i) / s)
        order = []
        for d in parents:
            dv = []
            for t in pstrides[:-1]:
                u, d = divmod(d, t)
                dv.append(u)
            dv.append(d)
            if all(map(lt, dv, limit)):
                order.append((s * sum(map(mul, dv, w)), s * sum(map(mul, dv, strides))))
        order.sort()
        groups = [(key, [first for _, first in group]) for key, group in groupby(order, itemgetter(0))]
        del order
        shifts: Dict[int, List[int]] = {}
        for r in product(range(s), repeat=n):
            shifts.setdefault(sum(map(mul, r, w)), []).append(sum(map(mul, r, strides)))
        cells: List[int] = []
        last = None
        for degree, j, k in sorted((key + k, j, k) for j, (key, _) in enumerate(groups) for k in shifts):
            if degree != last and len(cells) >= BLOCK_LIFTS:
                yield run(sorted(cells))
                cells = []
            last = degree
            for off in shifts[k]:
                cells += map(off.__add__, groups[j][1])
        yield run(sorted(cells))

    return row, blocks


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
