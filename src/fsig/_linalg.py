"""The box matrix of both a_e routes, and incremental row echelon over F_p.

box_rows alone knows the multiplication matrix of S/<x_i^{box_i}>: its
columns and which cells have a row.  It reads the matrix two ways: row(g)
for one cell (the colon's term-order walk) and slabs(parents, s)
term-major, where each term writes only the cells it reaches (the rank
route).  slabs has one walk: the lifts s*d + r, r in [0, s)^n, of a set of
parent cells d, which in a slab are runs of s cells along the last
variable.  The rank route's descent lifts the previous level's pivot cells
by p; a level with no descent lifts D_0 = {0} by q, which walks the whole
box [0, q)^n, as S is free over S^q on the x^r with r in [0, q)^n.  A
vector is a dict mapping column index to a nonzero coefficient in [1, p);
the zero vector is the empty dict.  A row holds one entry per generator
term landing in the box, out of #gens * |box| columns, so a sparse row
costs what it holds.  When every generator is one monomial, distinct cells
never share a column, so the non-empty rows are independent (the rank
route counts them with groebner.staircase_count instead of building them).
Echelon keeps each pivot row as it reduced, not made monic.  Its columns
below 0 are label columns, never a lead: the colon tags each candidate row
with one, so a row that depends on earlier ones reduces to the labels of
its dependency.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from itertools import groupby, product
from operator import lt, mul
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

Row = Dict[int, int]
Slab = Tuple[int, List[int], List[Row]]  # (index of the slab's first cell, in-slab offsets, rows)


def box_rows(
    box: Sequence[int], polys: Sequence[Dict[Tuple[int, ...], int]]
) -> Tuple[Callable[[Tuple[int, ...]], Row], Callable[[Iterable[int], int], Iterator[Slab]]]:
    """row(g) = x^g * f_j mod <x_i^{box_i}> stacked over j, and slabs(parents, s) of them.

    polys are term dicts {exponents: nonzero coefficient}.  Target t of f_j
    has column j*|box| + the mixed-radix index of t (first variable most
    significant).  Term m reaches cell g exactly when g_i < box_i - m_i for
    every i, so terms never share a column.  slabs(parents, s) walks the
    lifts g = s*d + r, r in [0, s)^n, of the parent cells d, given as cell
    indices in cell order of the parent box; box_i = s * (parent side i).
    It yields, for each value of the first exponent that holds lifts, up to
    the largest box_1 - m_1, that slab's non-empty rows in cell order as
    (index of the slab's first cell, in-slab offsets, rows); every in-box
    term walks only the lifts it reaches.  Concatenated, the slabs give
    index = first + offset and row(g) for every lift g with row(g).  When
    every side is s, the parents [0] give the whole box.  box has at least
    one side.
    """
    strides, size = [], 1
    for b in reversed(box):
        strides.insert(0, size)
        size *= b
    mid = strides[1:-1]
    terms = []
    for j, f in enumerate(polys):
        for m, c in f.items():
            bounds = tuple(b - u for b, u in zip(box, m))
            if all(b > 0 for b in bounds):
                terms.append((bounds, j * size + sum(map(mul, m, strides)), c))

    def row(g: Tuple[int, ...]) -> Row:
        base = sum(map(mul, g, strides))
        return {off + base: c for bounds, off, c in terms if all(map(lt, g, bounds))}

    def slabs(parents: Iterable[int], s: int) -> Iterator[Slab]:
        # a term reaches, in each slab below its first bound, the cells of
        # the middle heads it reaches whose last exponent is below its last bound
        walk = []
        for bounds, off, c in terms:
            heads = {sum(map(mul, g, mid)) for g in product(*map(range, bounds[1:-1]))}
            walk.append((bounds[0], off, c, heads, bounds[-1] if bounds[1:] else 1))
        top = max((w[0] for w in walk), default=0)
        width = s if box[1:] else 1
        shifts = [sum(map(mul, r, mid)) for r in product(range(s), repeat=len(mid))]
        pstrides = [t // s ** (len(box) - 1 - i) for i, t in enumerate(strides)]  # parent box
        outer, inner = pstrides[0], pstrides[1:-1]
        for d1, group in groupby(parents, lambda d: d // outer):
            # parents sharing d_1 lift into the slabs s*d_1 + r_1: parent d, for
            # each middle r, to the run of s cells from last exponent s*d_n on;
            # walked maps each middle head to its runs' in-slab offsets, in order
            walked: Dict[int, List[int]] = defaultdict(list)
            for d in group:
                rest, head = d - d1 * outer, 0
                for ps, t in zip(inner, mid):
                    u, rest = divmod(rest, ps)
                    head += u * t
                for r in shifts:
                    h = s * head + r
                    walked[h].extend(range(h + s * rest, h + s * rest + width))
            for a in range(s * d1, min(s * d1 + s, top)):
                slab: Dict[int, Row] = defaultdict(dict)
                base = a * strides[0]
                for b, off, c, heads, last in walk:
                    if a < b:
                        at = off + base
                        for h, run in walked.items():
                            if h in heads:
                                for k in run[: bisect_left(run, h + last)]:
                                    slab[k][at + k] = c
                offsets = sorted(slab)
                yield base, offsets, [slab[k] for k in offsets]

    return row, slabs


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
        cancels whole, with no reduction loop; it is cleared, as a reduced
        vector is emptied, so a caller that still holds it (the rank route
        holds a slab of rows) holds no entries.  This never fires on a vector
        tagged with its own label, which no pivot holds.
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
