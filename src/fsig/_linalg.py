"""Incremental row echelon over F_p on sparse vectors.

A vector is a dict mapping column index to a nonzero coefficient in [1, p);
the zero vector is the empty dict.  Both a_e routes build rows with only a
handful of entries (one per generator term that lands inside the box), while
their column space is #gens * q^n wide.  A sparse row costs what it holds; a
dense bitmask would cost the full width on every row operation.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple


def vector_from_items(p: int, items: Iterable[Tuple[int, int]]) -> Dict[int, int]:
    """Build a vector from (index, coefficient) pairs; indices may repeat."""
    out: Dict[int, int] = {}
    for idx, c in items:
        v = (out.get(idx, 0) + c) % p
        if v:
            out[idx] = v
        else:
            out.pop(idx, None)
    return out


class Echelon:
    """Row space accumulator; insert vectors one at a time, rank = pivot count.

    With track=True each insert carries a label, and a vector that reduces to
    zero returns the coefficients expressing it over previously inserted
    (pivot) labels -- the certificate the colon extraction needs.
    """

    def __init__(self, p: int, track: bool = False):
        self.p = p
        self.track = track
        self.pivots: Dict[int, Dict[int, int]] = {}  # leading index -> monic row
        self.coords: Dict[int, Dict[object, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def insert(self, vec: Dict[int, int], label=None):
        """Reduce vec (consumed); return None if it became a pivot, else its coordinates.

        The returned dict maps labels to coefficients c with
        sum(c * pivot_label_vector) == vec; empty dict for the zero vector.
        """
        p = self.p
        coords: Dict[object, int] = {label: 1} if self.track else {}
        while vec:
            lead = max(vec)
            row = self.pivots.get(lead)
            if row is None:
                inv = pow(vec[lead], -1, p)
                vec = {k: (v * inv) % p for k, v in vec.items()}
                if self.track:
                    coords = {k: (v * inv) % p for k, v in coords.items()}
                self.pivots[lead] = vec
                if self.track:
                    self.coords[lead] = coords
                return None
            lam = vec[lead]
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
