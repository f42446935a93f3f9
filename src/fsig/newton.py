"""Monomial fast path: Newton polyhedra, exact clipped volumes, lattice counts.

Everything here is exact.  Facet normals are primitive integer vectors.  The
values a caller sees stay Fractions: the halfspaces, vertices and simplex
points of a ClippedPolytope and every volume.  The clipped-volume pipeline
follows halfspace -> double description -> pulling triangulation ->
determinant sums, and its inner loops run on Python ints, because a Fraction
normalises by a gcd after every operation and that cost dominated clipping:

* clip clears t's denominator once, so each halfspace is an integer pair
  (a, b) meaning a.u >= b;
* _vertices, the one vertex enumerator, starts from the cube's corners and
  adds the halfspaces one at a time (double description): each drops the
  vertices it cuts off and adds a point on every edge it crosses, an edge
  being two vertices that no third is tight with; every point is a
  gcd-reduced (numerators, den) and keeps its tight halfspaces as incidence;
* the pulling triangulation (De Loera, Rambau and Santos, Triangulations,
  section 4.3) cones each face from its first vertex over its facets that
  miss that vertex, each face triangulated once; a face's facets come from
  incidence alone: the vertices tight at one more halfspace, kept when no
  other such set contains them (a facet is an inclusion-maximal proper face);
* every simplex point is a vertex, numerators over the one common den, so the
  volume is one determinant (the last pivot) per simplex, summed, over
  n! * den^n.

The facets of `newton_polyhedron` come from the same enumerator: by blocking
duality they are the vertices of {a >= 0 : a.pt >= 1}, which lie in the cube.
Every rank and determinant is one pass of the integer eliminator
`_linalg._bareiss`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

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


def newton_polyhedron(exponents: Sequence[Sequence[int]]) -> NewtonPolyhedron:
    """Irredundant facet description of conv(exponents) + orthant.

    A facet a.u >= c with c > 0 is the vertex a / c of the blocker {a >= 0 :
    a.pt >= 1 for every generator pt} (Fulkerson), and every such vertex lies
    in [0,1]^n: for a_i > 0 some tight pt has pt_i >= 1, so a_i <= 1.  Of the
    vertices of the blocker cut to the cube, the blocker's own are those whose
    tight generators and zero coordinates have rank n; the others lie on a face
    a_i = 1 of the cube.  A tight generator gives nums.pt = den, so gcd(nums)
    divides gcd(nums, den) = 1 and each normal is already primitive.
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

    facets = []
    for (nums, den), tight in _vertices([(pt, 1) for pt in points], n).items():
        rows = [points[h] for h in tight if h < len(points)]
        rows += [[int(j == i) for j in range(n)] for i in range(n) if nums[i] == 0]
        if len(_bareiss(rows)[0]) == n:
            facets.append((nums, den))
    return NewtonPolyhedron(n, tuple(sorted(facets)), tuple(points))


def _vertices(halfspaces: Sequence[Tuple[Sequence[int], int]], n: int) -> Dict[IntPoint, frozenset]:
    """Vertices of {u in [0,1]^n : a.u >= b for every (a, b)}, each with its tight set.

    Double description (Fukuda and Prodon) from the cube: its 2^n corners, then
    each halfspace in turn drops the vertices it cuts off and adds one point
    s_v*w - s_w*v (s the slack) on every edge it crosses.  Two vertices span an
    edge when no third vertex is tight on every halfspace both are tight on,
    exact for a polytope.  Halfspace h has index h; with F halfspaces, u_i >= 0
    is F + 2i and u_i <= 1 is F + 2i + 1.  Points are gcd-reduced (numerators,
    den); a point on an edge is tight where both ends are.
    """
    F = len(halfspaces)
    verts = {}
    for k in range(2**n):
        corner = tuple(k >> i & 1 for i in range(n))
        verts[corner, 1] = frozenset(F + 2 * i + x for i, x in enumerate(corner))
    for h, (a, b) in enumerate(halfspaces):
        slack = {v: sum(x * u for x, u in zip(a, v[0])) - b * v[1] for v in verts}
        kept, new = [v for v in verts if slack[v] > 0], {}
        for w in (w for w in verts if slack[w] < 0):
            for v in kept:
                common = verts[v] & verts[w]
                # an edge has n - 1 independent tight halfspaces, so at least n - 1
                if len(common) < n - 1 or any(common <= z for u, z in verts.items() if u is not v and u is not w):
                    continue
                (nv, dv), sv, (nw, dw), sw = v, slack[v], w, slack[w]
                new[_reduced([sv * y - sw * x for x, y in zip(nv, nw)], sv * dw - sw * dv)] = common | {h}
        verts = {v: z | {h} if slack[v] == 0 else z for v, z in verts.items() if slack[v] >= 0}
        verts.update(new)
    return verts


# -- clipping and volume ---------------------------------------------------

class ClippedPolytope(FrozenRecord):
    """t*P intersected with the unit cube: halfspaces, vertices, triangulation.

    int_simplices is a pulling triangulation: each simplex is a tuple of
    vertices as integer points (numerators, den), over the one den common to
    all vertices; simplices reads them as Fraction points.
    """

    __slots__ = _fields = ("nvars", "halfspaces", "vertices", "int_simplices")

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

    incidence = _vertices(facets, n)

    # scaled to one common denominator, integer points sort like the vertices
    den = math.lcm(*(d for _, d in incidence))
    scaled = sorted((tuple(x * (den // d) for x in nums), inc) for (nums, d), inc in incidence.items())
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
