"""Monomial fast path: Newton polyhedra, exact clipped volumes, lattice counts.

Everything here is exact.  Facet normals are primitive integer vectors.  The
values a caller sees stay Fractions: the halfspaces, vertices and simplex
points of a ClippedPolytope and every volume.  The clipped-volume pipeline
follows halfspace -> box-aware vertex enumeration -> pulling triangulation ->
determinant sums, and its inner loops run on Python ints, because a Fraction
normalises by a gcd after every operation and that cost dominated clipping:

* clip clears t's denominator once, so each halfspace is an integer pair
  (a, b) meaning a.u >= b;
* a vertex of the clip has k facets of t*P tight and its other n - k
  coordinates at 0 or 1, so [A_free | A_fixed | b] of each k facets on each
  k free coordinates is eliminated once, and every corner of the fixed
  coordinates is read off its reduced rows as gcd-reduced (numerators, den);
  feasibility and tightness are integer tests a.num >= b*den against every
  halfspace, and the tight halfspaces are kept as the vertex's incidence;
* the pulling triangulation (De Loera, Rambau and Santos, Triangulations,
  section 4.3) cones each face from its first vertex over its facets that
  miss that vertex, each face triangulated once; a face's facets come from
  incidence alone: the vertices tight at one more halfspace, kept when no
  other such set contains them (a facet is an inclusion-maximal proper face);
* every simplex point is a vertex, numerators over the one common den, so the
  volume is one determinant (the last pivot) per simplex, summed, over
  n! * den^n.

The facet search of `newton_polyhedron` is integer too: a candidate normal is
the kernel of a rank-n n x (n+1) integer system, read off the reduced rows of
[pt_free | 1] already primitive.  Every one of these steps, and every rank
test, is one pass of the one integer eliminator `_linalg._bareiss`.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ._linalg import IntPoint, _bareiss, _reduced
from .poly import FrozenRecord

DIMENSION_CAP = 6

Vector = Tuple[Fraction, ...]


# -- Newton polyhedron ----------------------------------------------------

class NewtonPolyhedron(FrozenRecord):
    """conv(generator exponents) + the nonnegative orthant, by facets.

    facets are (normal, offset) with nonnegative integer normals meaning
    <normal, u> >= offset; the n coordinate halfspaces u_i >= 0 are implied
    and not stored.  Generators are kept for tightness certification.
    """

    __slots__ = _fields = ("nvars", "facets", "generators")

    def __init__(
        self, nvars: int, facets: Tuple[Tuple[Tuple[int, ...], int], ...], generators: Tuple[Tuple[int, ...], ...]
    ):
        self._set_fields(nvars, facets, generators)


def newton_polyhedron(exponents: Sequence[Sequence[int]]) -> NewtonPolyhedron:
    """Irredundant facet description of conv(exponents) + orthant.

    Candidate hyperplanes pass through k generator points and are parallel to
    n - k coordinate axes; a candidate survives if its normal is nonnegative,
    every generator lies on the correct side, and its tight set spans an
    (n-1)-dimensional face.
    """
    points = sorted({tuple(int(u) for u in pt) for pt in exponents})
    if not points:
        raise ValueError("need at least one exponent vector")
    n = len(points[0])
    for pt in points:
        if len(pt) != n:
            raise ValueError("exponent vectors of mixed dimension")
        if any(u < 0 for u in pt):
            raise ValueError("exponents must be nonnegative")

    facets: Dict[Tuple[Tuple[int, ...], int], None] = {}
    axes = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    for k in range(1, min(n, len(points)) + 1):
        for T in itertools.combinations(points, k):
            for free in itertools.combinations(range(n), k):
                # (a, c) with a zero off `free` and a.pt = c on T spans the kernel
                # of an n x (n+1) integer system: its signed maximal minors.  The
                # minor without the c column is the determinant of the k x k
                # block of [pt_free | 1]; when it is 0 the kernel is wider than a
                # line or has c = 0, and no facet comes from it.
                pivots, R, den = _bareiss([[pt[i] for i in free] + [1] for pt in T])
                if pivots != list(range(k)):
                    continue
                nums, c = _reduced([row[k] for row in R], den)  # c > 0: already primitive
                if any(x < 0 for x in nums):
                    continue
                a = [0] * n
                for i, x in zip(free, nums):
                    a[i] = x
                a = tuple(a)
                if any(sum(x * u for x, u in zip(a, pt)) < c for pt in points):
                    continue
                tight_pts = [pt for pt in points if sum(x * u for x, u in zip(a, pt)) == c]
                tight_dirs = [axes[i] for i in range(n) if a[i] == 0]
                base = tight_pts[0]
                spanning = [
                    [u - b for u, b in zip(pt, base)] for pt in tight_pts[1:]
                ] + [list(d) for d in tight_dirs]
                if len(_bareiss(spanning)[0]) == n - 1:
                    facets[(a, c)] = None
    return NewtonPolyhedron(n, tuple(sorted(facets)), tuple(points))


# -- clipping and volume ---------------------------------------------------

class ClippedPolytope(FrozenRecord):
    """t*P intersected with the unit cube: halfspaces, vertices, triangulation.

    int_simplices is a pulling triangulation: each simplex is a tuple of
    vertices as integer points (numerators, den), over the one den common to
    all vertices; simplices reads them as Fraction points.
    """

    __slots__ = _fields = ("nvars", "halfspaces", "vertices", "int_simplices")

    def __init__(
        self, nvars: int, halfspaces: Tuple[Tuple[Tuple[Fraction, ...], Fraction], ...],
        vertices: Tuple[Vector, ...], int_simplices: Tuple[Tuple[IntPoint, ...], ...],
    ):
        self._set_fields(nvars, halfspaces, vertices, int_simplices)

    @property
    def simplices(self) -> Tuple[Tuple[Vector, ...], ...]:
        return tuple(tuple(tuple(Fraction(x, d) for x in nums) for nums, d in s) for s in self.int_simplices)

    def volume(self) -> Fraction:
        """Sum of |det| / (n! * den^n) over the simplices."""
        if not self.int_simplices:
            return Fraction(0)
        n, den, total = self.nvars, self.int_simplices[0][0][1], 0
        for (base, _), *rest in self.int_simplices:
            pivots, _, det = _bareiss([[a - b for a, b in zip(pt, base)] for pt, _ in rest])
            total += abs(det) if len(pivots) == n else 0
        return Fraction(total, math.factorial(n) * den**n)


def clip(P: NewtonPolyhedron, t) -> ClippedPolytope:
    """Vertices and pulling triangulation of t*P cut to [0,1]^n."""
    t = Fraction(t)
    if t < 0:
        raise ValueError("t must be nonnegative")
    n = P.nvars
    if n > DIMENSION_CAP:
        raise ValueError(f"dimension {n} exceeds the cap {DIMENSION_CAP}")
    # every halfspace times t's denominator: integer (a, b) meaning a.u >= b
    td = t.denominator
    facets = [(tuple(td * x for x in a), t.numerator * c) for a, c in P.facets]
    int_halfspaces = list(facets)
    for i in range(n):
        e = tuple(td if j == i else 0 for j in range(n))
        int_halfspaces += [(e, 0), (tuple(-x for x in e), -td)]
    halfspaces = tuple((tuple(Fraction(x, td) for x in a), Fraction(b, td)) for a, b in int_halfspaces)

    # (numerators, den) -> the halfspaces tight there, or None when infeasible.
    # A vertex has k facets tight and its other n - k coordinates at 0 or 1.
    # [A_free | A_fixed | b] of k facets is eliminated once, and every corner
    # v of the fixed coordinates is read off its reduced rows R:
    # u_free[i] = (R[i][n] - sum_j R[i][k + j] * v_j) / den.
    incidence: Dict[IntPoint, Optional[frozenset]] = {}
    for k in range(min(n, len(facets)) + 1):
        for combo in itertools.combinations(facets, k):
            for free in itertools.combinations(range(n), k):
                fixed = tuple(i for i in range(n) if i not in free)
                pivots, R, den = _bareiss([[a[i] for i in free + fixed] + [b] for a, b in combo])
                if pivots != list(range(k)):
                    continue  # singular on the free coordinates, whatever the corner
                for values in itertools.product((0, 1), repeat=n - k):
                    nums = [0] * n
                    for i, row in zip(free, R):
                        nums[i] = row[n] - sum(x for x, v in zip(row[k:n], values) if v)
                    for i, v in zip(fixed, values):
                        nums[i] = v * den
                    sol = _reduced(nums, den)
                    if sol not in incidence:
                        nums, d = sol  # d > 0, so a negative slack is a violated halfspace
                        slack = [sum(x * u for x, u in zip(a, nums)) - b * d for a, b in int_halfspaces]
                        incidence[sol] = None if min(slack) < 0 else frozenset(i for i, s in enumerate(slack) if s == 0)

    # scaled to one common denominator, integer points sort like the vertices
    feasible = [(sol, inc) for sol, inc in incidence.items() if inc is not None]
    den = math.lcm(*(d for (_, d), _ in feasible)) if feasible else 1
    scaled = sorted((tuple(x * (den // d) for x in nums), inc) for (nums, d), inc in feasible)
    points = [pt for pt, _ in scaled]
    vertices = tuple(tuple(Fraction(x, den) for x in pt) for pt in points)

    if len(vertices) <= n or len(_bareiss([[a - b for a, b in zip(pt, points[0])] for pt in points[1:]])[0]) < n:
        return ClippedPolytope(n, halfspaces, vertices, ())
    simplices = _pulling_triangulation([inc for _, inc in scaled], n)
    return ClippedPolytope(n, halfspaces, vertices, tuple(tuple((points[v], den) for v in s) for s in simplices))


def _pulling_triangulation(incidences: Sequence[frozenset], dim: int) -> List[Tuple[int, ...]]:
    """Each face coned from its first vertex over its facets that miss it.

    incidences[i] is the set of halfspace indices tight at vertex i, and a face
    is a sorted tuple of vertex indices.  Its vertices tight at one more
    halfspace form a proper face or the whole face; its facets are the
    inclusion-maximal proper ones.  A face's triangulation does not depend on
    the face it was reached from, so each is built once.  A simplex is a tuple
    of vertex indices.
    """
    memo: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {}

    def recurse(face: Tuple[int, ...], d: int) -> List[Tuple[int, ...]]:
        if d == 1:  # an edge: its two end vertices, first and last in sorted order
            return [(face[0], face[-1])]
        if face in memo:
            return memo[face]
        apex, k = face[0], len(face)
        subs = {}  # proper subfaces; a halfspace tight on the whole face gives the face
        for idx in sorted(frozenset().union(*(incidences[v] for v in face))):
            sub = tuple(v for v in face if idx in incidences[v])
            if len(sub) < k:
                subs[sub] = frozenset(sub)
        out = memo[face] = []
        for sub, s in subs.items():
            # the facets of a face are its inclusion-maximal proper faces
            if sub[0] != apex and not any(s < other for other in subs.values()):
                out.extend((apex,) + simplex for simplex in recurse(sub, d - 1))
        return out

    return recurse(tuple(range(len(incidences))), dim)


def clip_and_volume(P: NewtonPolyhedron, t) -> Fraction:
    """Exact volume of t*P cut to the unit cube; degenerate cuts give 0."""
    return clip(P, t).volume()


def lattice_count(P: NewtonPolyhedron, t, q: int) -> int:
    """Number of integer points of t*q*P inside [0, q]^n.

    Facet thresholds are exact rational, cleared to integer ceilings; the
    coordinate recursion prunes once the best possible completion fails a
    facet.
    """
    if q < 1:
        raise ValueError("q must be positive")
    t = Fraction(t)
    if t < 0:
        raise ValueError("t must be nonnegative")
    n = P.nvars
    thresholds = [(a, math.ceil(t * q * c)) for a, c in P.facets]
    # largest possible remaining contribution per facet and coordinate depth
    suffix = []
    for a, _ in thresholds:
        row = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            row[i] = row[i + 1] + a[i] * q
        suffix.append(row)

    def count(depth: int, partial: List[int]) -> int:
        if depth == n:
            return 1
        total = 0
        for u in range(q + 1):
            ok = True
            for f, (a, need) in enumerate(thresholds):
                acc = partial[f] + a[depth] * u
                if acc + suffix[f][depth + 1] < need:
                    ok = False
                    break
            if ok:
                total += count(depth + 1, [partial[f] + thresholds[f][0][depth] * u for f in range(len(thresholds))])
        return total

    return count(0, [0] * len(thresholds))


def closure_membership(u: Sequence[int], exponents: Sequence[Sequence[int]], lam) -> bool:
    """Whether u lies in lam * P, facet by facet; u must be nonnegative."""
    u = tuple(int(x) for x in u)
    if any(x < 0 for x in u):
        raise ValueError("u must be nonnegative")
    lam = Fraction(lam)
    P = newton_polyhedron(exponents)
    if len(u) != P.nvars:
        raise ValueError("dimension mismatch")
    return all(sum(a * x for a, x in zip(normal, u)) >= lam * c for normal, c in P.facets)


def monomial_signature(exponents: Sequence[Sequence[int]], t) -> Fraction:
    """Exact splitting density of a monomial-ideal pair at exponent t."""
    return clip_and_volume(newton_polyhedron(exponents), t)
