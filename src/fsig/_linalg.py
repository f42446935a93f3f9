"""The box matrix of both a_e routes, and incremental row echelon over F_p.

box_rows alone knows the multiplication matrix of S/<x_i^{box_i}>: its
columns and which cells have a row.  It reads the matrix two ways: row(g)
for one cell (the colon's term-order walk) and slabs() term-major, where
each term writes only the cells it reaches (the rank route).  A vector is a
dict mapping column index to a nonzero coefficient in [1, p); the zero
vector is the empty dict.  A row holds one entry per generator term landing
in the box, out of #gens * |box| columns, so a sparse row costs what it
holds.  When every generator is one monomial, distinct cells never share a
column, so the non-empty rows are independent (the rank route counts them
with groebner.staircase_count instead of building them).  Echelon keeps each
pivot row as it reduced, not made monic.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import product
from operator import lt, mul
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

Row = Dict[int, int]


def box_rows(
    box: Sequence[int], polys: Sequence[Dict[Tuple[int, ...], int]]
) -> Tuple[Callable[[Tuple[int, ...]], Row], Callable[[], Iterator[List[Row]]]]:
    """row(g) = x^g * f_j mod <x_i^{box_i}> stacked over j, and slabs() of all rows.

    polys are term dicts {exponents: nonzero coefficient}.  Target t of f_j
    has column j*|box| + the mixed-radix index of t (first variable most
    significant).  Term m reaches cell g exactly when g_i < box_i - m_i for
    every i, so terms never share a column.  slabs() yields, for each value
    of the first exponent up to the largest box_1 - m_1, the non-empty rows
    of that slab in cell order; every in-box term walks only the sub-box
    prod_{i>=2} [0, box_i - m_i) it reaches.  Concatenated, the slabs are
    [row(g) for g in the box if row(g)] in the same order.  box has at least
    one side.
    """
    strides, size = [], 1
    for b in reversed(box):
        strides.insert(0, size)
        size *= b
    terms = []
    for j, f in enumerate(polys):
        for m, c in f.items():
            bounds = tuple(b - u for b, u in zip(box, m))
            if all(b > 0 for b in bounds):
                terms.append((bounds, j * size + sum(map(mul, m, strides)), c))

    def row(g: Tuple[int, ...]) -> Row:
        base = sum(map(mul, g, strides))
        return {off + base: c for bounds, off, c in terms if all(map(lt, g, bounds))}

    def slabs() -> Iterator[List[Row]]:
        # in one slab a term reaches, for each head (the offset of a reached
        # cell of the middle variables), a run of `last` consecutive cells
        walk = []
        for bounds, off, c in terms:
            heads = [sum(map(mul, g, strides[1:-1])) for g in product(*map(range, bounds[1:-1]))]
            walk.append((bounds[0], off, c, heads, bounds[-1] if bounds[1:] else 1))
        for a in range(max((w[0] for w in walk), default=0)):
            slab: Dict[int, Row] = defaultdict(dict)
            base = a * strides[0]
            for b, off, c, heads, last in walk:
                if a < b:
                    at = off + base
                    for h in heads:
                        for k in range(h, h + last):
                            slab[k][at + k] = c
            yield [slab[k] for k in sorted(slab)]

    return row, slabs


class Echelon:
    """Row space accumulator; insert vectors one at a time, rank = pivot count.

    With track=True each insert carries a label, and a vector that reduces to
    zero returns the coefficients expressing it over previously inserted
    (pivot) labels -- the certificate the colon extraction needs.
    """

    def __init__(self, p: int, track: bool = False):
        self.p = p
        self.track = track
        self.pivots: Dict[int, Dict[int, int]] = {}  # leading index -> reduced row, as inserted
        self.coords: Dict[int, Dict[object, int]] = {}
        self._inv: Dict[int, int] = {}  # coefficient -> its inverse mod p

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def insert(self, vec: Dict[int, int], label=None):
        """Reduce vec (consumed); return None if it became a pivot, else its coordinates.

        The returned dict maps labels to coefficients c with
        sum(c * pivot_label_vector) == vec; empty dict for the zero vector.
        Pivot rows are kept as they reduced, not made monic: the multiplier
        against a pivot is vec[lead] / row[lead].  A vector equal to the
        pivot that has its lead cancels whole, with no reduction loop; it is
        cleared, as a reduced vector is emptied, so a caller that still holds
        it (the rank route holds a slab of rows) holds no entries.
        """
        p = self.p
        coords: Dict[object, int] = {label: 1} if self.track else {}
        while vec:
            lead = max(vec)
            row = self.pivots.get(lead)
            if row is None:
                self.pivots[lead] = vec
                if self.track:
                    self.coords[lead] = coords
                return None
            c = row[lead]
            if vec[lead] == c and vec == row:
                lam = 1
                vec.clear()
            else:
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
            if self.track:
                coords = self._combine(coords, self.coords[lead], lam)
        return self._dependency(coords, label)

    def _combine(self, coords: Dict, row_coords: Dict, lam: int) -> Dict:
        # coords := coords - lam * row_coords
        p = self.p
        out = dict(coords)
        for k, v in row_coords.items():
            nv = (out.get(k, 0) - lam * v) % p
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
        return out

    def _dependency(self, coords: Dict, label) -> Dict:
        if not self.track:
            return {}
        # report the combination over *previous* labels equal to the inserted vector
        out = {k: (-v) % self.p for k, v in coords.items() if k != label}
        return out
