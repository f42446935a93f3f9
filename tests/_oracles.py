"""Independent brute-force oracles used to pin expected values in tests.

Nothing here calls the Groebner engine, the echelon backends, or the polytope
pipeline: reduced bases come from a textbook Buchberger with no pair criterion,
membership and lengths go through dense Macaulay-style elimination
on integer lists, areas through the shoelace formula, 3-D volumes through
exact integration of slice areas, one-halfspace cube volumes through
inclusion-exclusion over the cube's vertices, clip vertices through every
choice of tight halfspaces and fixed coordinates, powers through repeated
multiplication on plain dicts.  Two exceptions are older constructions built
on fsig's own code: colon_by_quotients, a construction of (I : J) out of
fsig's intersection, kept to check the chained colon against; and BoxWalk,
the walk of the q^n box by which the rank route counted a_e before it
counted q^n - length(S/(m^[q] + b_e)), with its torus blocks (box_blocks,
torus_grading) and its descent certificate, kept for the tests that pin it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from array import array
from functools import cmp_to_key
from itertools import groupby
from operator import itemgetter, lt, mul, sub
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple


def dense_echelon_modp(rows: List[List[int]], p: int) -> List[Tuple[int, List[int]]]:
    """Forward Gaussian elimination on dense integer rows mod p.

    Returns the (pivot column, monic row) pairs in increasing column order;
    each pivot row is zero left of its pivot column.
    """
    rows = [[v % p for v in row] for row in rows]
    pivots: List[Tuple[int, List[int]]] = []
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        k = len(pivots)
        pivot = next((i for i in range(k, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[k], rows[pivot] = rows[pivot], rows[k]
        inv = pow(rows[k][col], -1, p)
        prow = [(v * inv) % p for v in rows[k]]
        for i in range(k + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], prow)]
        pivots.append((col, prow))
        if len(pivots) == len(rows):
            break
    return pivots


def fraction_rref(rows: List[List[Fraction]]) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form over the rationals: (rows, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1, 1) / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def fraction_newton_facets(points: Sequence[Tuple[int, ...]]) -> List[Tuple[Tuple[int, ...], int]]:
    """Sorted facets (a, c), a.u >= c, of conv(points) + orthant by rational kernels.

    Each candidate hyperplane passes through k of the points and is parallel
    to n - k axes.  Its (normal, offset) is the kernel of that linear system
    when the kernel is a line, scaled to a primitive integer vector.  It is a
    facet when the normal is nonnegative, the offset positive, no point lies
    below it and its tight points and axes span n - 1 dimensions.
    """
    points = sorted(set(points))
    n = len(points[0])
    facets = set()
    for k in range(1, min(n, len(points)) + 1):
        for T in itertools.combinations(points, k):
            for D in itertools.combinations(range(n), n - k):
                rows = [[Fraction(u) for u in pt] + [Fraction(-1)] for pt in T]
                rows += [[Fraction(int(j == i)) for j in range(n + 1)] for i in D]
                rref, pivots = fraction_rref(rows)
                if len(pivots) != n:
                    continue
                free = next(c for c in range(n + 1) if c not in pivots)
                vec = [Fraction(0)] * (n + 1)
                vec[free] = Fraction(1)
                for row, pc in zip(rref, pivots):
                    vec[pc] = -row[free]
                scale = math.lcm(*(v.denominator for v in vec))
                ints = [int(v * scale) for v in vec]
                g = math.gcd(*ints)
                ints = [x // g for x in ints]
                if all(x <= 0 for x in ints[:n]):
                    ints = [-x for x in ints]
                a, c = tuple(ints[:n]), ints[n]
                if c <= 0 or min(a) < 0:
                    continue
                values = [sum(x * u for x, u in zip(a, pt)) for pt in points]
                if min(values) < c:
                    continue
                tight = [pt for pt, v in zip(points, values) if v == c]
                span = [[Fraction(u - b) for u, b in zip(pt, tight[0])] for pt in tight[1:]]
                span += [[Fraction(int(j == i)) for j in range(n)] for i in range(n) if a[i] == 0]
                if len(fraction_rref(span)[1]) == n - 1:
                    facets.add((a, c))
    return sorted(facets)


def subset_clip_vertices(
    halfspaces: Sequence[Tuple[Tuple[int, ...], int]], n: int
) -> Dict[Tuple[Fraction, ...], frozenset]:
    """Vertices of {u in [0,1]^n : a.u >= b} with their tight sets, by subset enumeration.

    A vertex has k of the halfspaces tight and its other n - k coordinates at
    0 or 1, so [A_free | A_fixed | b] of each k halfspaces on each k free
    coordinates is reduced once and every corner of the fixed coordinates is
    read off it; a candidate is a vertex when it meets every halfspace.  The
    indices are the clip's: halfspace h is h, then with F halfspaces u_i >= 0
    is F + 2i and u_i <= 1 is F + 2i + 1.
    """
    full = list(halfspaces)
    for i in range(n):
        e = tuple(int(j == i) for j in range(n))
        full += [(e, 0), (tuple(-x for x in e), -1)]
    found = {}
    for k in range(min(n, len(halfspaces)) + 1):
        for combo in itertools.combinations(halfspaces, k):
            for free in itertools.combinations(range(n), k):
                fixed = tuple(i for i in range(n) if i not in free)
                rref, pivots = fraction_rref([[Fraction(a[i]) for i in free + fixed] + [Fraction(b)] for a, b in combo])
                if pivots != list(range(k)):
                    continue
                for values in itertools.product((0, 1), repeat=n - k):
                    u = [Fraction(0)] * n
                    for i, row in zip(free, rref):
                        u[i] = row[n] - sum(x * v for x, v in zip(row[k:n], values))
                    for i, v in zip(fixed, values):
                        u[i] = Fraction(v)
                    slack = [sum(x * y for x, y in zip(a, u)) - b for a, b in full]
                    if min(slack) >= 0:
                        found[tuple(u)] = frozenset(i for i, s in enumerate(slack) if s == 0)
    return found


def dense_rank_modp(rows: List[List[int]], p: int) -> int:
    """Rank mod p of dense integer rows."""
    return len(dense_echelon_modp(rows, p))


def box_multiplication_rank(
    gens: Sequence[Dict[Tuple[int, ...], int]], nvars: int, p: int, q: int
) -> int:
    """Rank of g -> (g*f_j mod <x_i^q>)_j: one dense row per box cell g."""
    box = list(itertools.product(range(q), repeat=nvars))
    col = {m: i for i, m in enumerate(box)}
    rows = []
    for g in box:
        row = [0] * (len(box) * len(gens))
        for j, f in enumerate(gens):
            for m, c in f.items():
                h = tuple(u + v for u, v in zip(g, m))
                if max(h) < q:
                    row[j * len(box) + col[h]] = c
        rows.append(row)
    return dense_rank_modp(rows, p)


def box_row(box: Sequence[int], polys: Sequence[Dict[Tuple[int, ...], int]], g: Tuple[int, ...]) -> Dict[int, int]:
    """x^g * f_j mod <x_i^{box_i}> stacked over j, by enumerating the box.

    Column j*|box| + k is the k-th cell of the box in itertools.product
    order; g may lie outside the box.
    """
    cells = list(itertools.product(*(range(b) for b in box)))
    position = {t: k for k, t in enumerate(cells)}
    row = {}
    for j, terms in enumerate(polys):
        for m, c in terms.items():
            t = tuple(a + b for a, b in zip(g, m))
            if t in position:
                row[j * len(cells) + position[t]] = c
    return row


def _monomials_up_to(nvars: int, deg: int) -> List[Tuple[int, ...]]:
    out = []
    for exps in itertools.product(range(deg + 1), repeat=nvars):
        if sum(exps) <= deg:
            out.append(exps)
    out.sort()
    return out


def _shift_terms(terms: Dict[Tuple[int, ...], int], mono: Tuple[int, ...]):
    return {tuple(a + b for a, b in zip(m, mono)): c for m, c in terms.items()}


def macaulay_member(
    f_terms: Dict[Tuple[int, ...], int],
    gen_terms: Sequence[Dict[Tuple[int, ...], int]],
    nvars: int,
    p: int,
    deg_bound: int,
) -> bool:
    """Is f in the ideal, witnessed by a certificate of total degree <= deg_bound?"""
    columns = _monomials_up_to(nvars, deg_bound)
    col_index = {m: i for i, m in enumerate(columns)}

    def to_row(terms):
        row = [0] * len(columns)
        for m, c in terms.items():
            if m not in col_index:
                return None
            row[col_index[m]] = c % p
        return row

    rows = []
    for terms in gen_terms:
        gdeg = max(sum(m) for m in terms)
        for mono in _monomials_up_to(nvars, deg_bound - gdeg):
            row = to_row(_shift_terms(terms, mono))
            if row is not None:
                rows.append(row)
    frow = to_row(f_terms)
    if frow is None:
        return False
    for col, prow in dense_echelon_modp(rows, p):
        c = frow[col]
        if c:
            frow = [(a - c * b) % p for a, b in zip(frow, prow)]
    return not any(frow)


def box_quotient_corank(
    gen_terms: Sequence[Dict[Tuple[int, ...], int]],
    nvars: int,
    p: int,
    q: int,
) -> int:
    """Length of S/(gens + <x_i^q>) as the corank of the reduced box matrix.

    Valid whenever the ideal contains the q-th power of every variable: the
    box monomials below q span the quotient and reducing m*g mod <x_i^q> just
    deletes out-of-box terms.
    """
    box = list(itertools.product(range(q), repeat=nvars))
    col_index = {m: i for i, m in enumerate(box)}
    rows = []
    for terms in gen_terms:
        for mono in box:
            row = [0] * len(box)
            hit = False
            for m, c in _shift_terms(terms, mono).items():
                if all(u < q for u in m):
                    row[col_index[m]] = c % p
                    hit = True
            if hit:
                rows.append(row)
    return len(box) - dense_rank_modp(rows, p)


def count_standard_monomials(lead_monomials: Sequence[Tuple[int, ...]], bound: int) -> int:
    """Exhaustive count of monomials below the bound box divisible by no lead."""
    nvars = len(lead_monomials[0])
    count = 0
    for exps in itertools.product(range(bound), repeat=nvars):
        if not any(all(l <= e for l, e in zip(lm, exps)) for lm in lead_monomials):
            count += 1
    return count


def union_of_boxes_count(corners: Sequence[Tuple[int, ...]]) -> int:
    """Cells g >= 0 with g < c componentwise for some corner c, by enumeration.

    Corner entries may be zero or negative (an empty box).
    """
    top = [max(0, max(side)) for side in zip(*corners)]
    return sum(
        1
        for g in itertools.product(*map(range, top))
        if any(all(u < c for u, c in zip(g, corner)) for corner in corners)
    )


def lex_cmp(a: Sequence[int], b: Sequence[int]) -> int:
    """-1, 0 or 1 as a <, = or > b in lex: the first differing exponent decides."""
    for x, y in zip(a, b):
        if x != y:
            return 1 if x > y else -1
    return 0


def degrevlex_cmp(a: Sequence[int], b: Sequence[int]) -> int:
    """Degree first; on a tie the smaller last differing exponent is the larger monomial."""
    if sum(a) != sum(b):
        return 1 if sum(a) > sum(b) else -1
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return 1 if x < y else -1
    return 0


def block_cmp(block_size: int, inner):
    """Comparator of the block order: degrevlex on the head, then `inner` on the tail."""

    def cmp(a: Sequence[int], b: Sequence[int]) -> int:
        head = degrevlex_cmp(a[:block_size], b[:block_size])
        return head if head else inner(a[block_size:], b[block_size:])

    return cmp


def plain_groebner(gens: Sequence[Dict[Tuple[int, ...], int]], p: int, cmp) -> set:
    """Reduced Groebner basis of the term dicts `gens` under the comparator `cmp`.

    Textbook Buchberger: the S-polynomial of every pair, in the order the
    pairs arise and with no criterion, each reduced by the whole list until
    no remainder is new; then the list is made minimal and every element
    tail-reduced by the others.  Returns the basis as a set of frozensets of
    (exponents, coefficient) items.
    """
    key = cmp_to_key(cmp)

    def lead(f):
        return max(f, key=key)

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    def monic(f):
        inv = pow(f[lead(f)], -1, p)
        return {m: c * inv % p for m, c in f.items()}

    def shifted(f, shift, factor):
        return {tuple(a + b for a, b in zip(m, shift)): c * factor % p for m, c in f.items()}

    def reduce(f, basis):
        f, out = dict(f), {}
        while f:
            m = lead(f)
            g = next((g for g in basis if divides(lead(g), m)), None)
            if g is None:
                out[m] = f.pop(m)
                continue
            shift = tuple(a - b for a, b in zip(m, lead(g)))
            for t, c in shifted(g, shift, f[m]).items():
                v = (f.get(t, 0) - c) % p
                if v:
                    f[t] = v
                else:
                    f.pop(t, None)
        return out

    basis = [monic(g) for g in gens if g]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        f, g = (basis[k] for k in pairs.pop(0))
        lcm = tuple(map(max, lead(f), lead(g)))
        s = shifted(f, tuple(a - b for a, b in zip(lcm, lead(f))), 1)
        for t, c in shifted(g, tuple(a - b for a, b in zip(lcm, lead(g))), 1).items():
            s[t] = (s.get(t, 0) - c) % p
        r = reduce({m: c for m, c in s.items() if c}, basis)
        if r:
            pairs += [(k, len(basis)) for k in range(len(basis))]
            basis.append(monic(r))
    minimal: List[Dict[Tuple[int, ...], int]] = []
    for g in sorted(basis, key=lambda g: key(lead(g))):
        if not any(divides(lead(h), lead(g)) for h in minimal):
            minimal.append(g)
    return {frozenset(reduce(g, [h for h in minimal if h is not g]).items()) for g in minimal}


def repeated_product(terms: Dict[Tuple[int, ...], int], k: int, p: int):
    """terms^k by k-1 naive convolutions on plain dicts."""
    nvars = len(next(iter(terms)))
    acc: Dict[Tuple[int, ...], int] = {(0,) * nvars: 1}
    for _ in range(k):
        nxt: Dict[Tuple[int, ...], int] = {}
        for m1, c1 in acc.items():
            for m2, c2 in terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                nxt[m] = (nxt.get(m, 0) + c1 * c2) % p
        acc = {m: c for m, c in nxt.items() if c}
    return acc


def shoelace_area(points: Sequence[Tuple[Fraction, Fraction]]) -> Fraction:
    """Exact area of the convex hull of the given rational points."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return Fraction(0)
    cx = sum(x for x, _ in pts) / len(pts)
    cy = sum(y for _, y in pts) / len(pts)

    def cmp(a, b):
        ang_a = _half(a, cx, cy)
        ang_b = _half(b, cx, cy)
        if ang_a != ang_b:
            return -1 if ang_a < ang_b else 1
        cross = (a[0] - cx) * (b[1] - cy) - (a[1] - cy) * (b[0] - cx)
        if cross == 0:
            return 0
        return -1 if cross > 0 else 1

    ordered = sorted(pts, key=cmp_to_key(cmp))
    area = Fraction(0)
    for i in range(len(ordered)):
        x1, y1 = ordered[i]
        x2, y2 = ordered[(i + 1) % len(ordered)]
        area += x1 * y2 - x2 * y1
    return abs(area) / 2


def _half(pt, cx, cy) -> int:
    dx = pt[0] - cx
    dy = pt[1] - cy
    if dy > 0 or (dy == 0 and dx > 0):
        return 0
    return 1


def _clip_halfplane(poly, a1, a2, b):
    """The convex polygon `poly` (vertices in order) cut to a1*x + a2*y >= b."""
    out = []
    for i, (x, y) in enumerate(poly):
        nx, ny = poly[(i + 1) % len(poly)]
        f = a1 * x + a2 * y - b
        g = a1 * nx + a2 * ny - b
        if f >= 0:
            out.append((x, y))
        if (f > 0 > g) or (f < 0 < g):
            r = f / (f - g)
            out.append((x + r * (nx - x), y + r * (ny - y)))
    return out


def _solve3(rows, rhs):
    """Cramer's rule for a 3x3 rational system; None when singular."""

    def det(m):
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )

    d = det(rows)
    if d == 0:
        return None
    return tuple(
        det([[rhs[r] if c == k else rows[r][c] for c in range(3)] for r in range(3)]) / d
        for k in range(3)
    )


def slice_volume_3d(facets: Sequence[Tuple[Tuple[int, ...], int]], t) -> Fraction:
    """Exact volume of {u in [0, 1]^3 : a.u >= t*c for every facet (a, c)}.

    Integrates the area of the slice u_3 = s over s in [0, 1]: the slice is the
    unit square cut by the half-planes a_1 u_1 + a_2 u_2 >= t*c - a_3 s, and
    its area (shoelace) is quadratic in s between breakpoints.  The
    breakpoints are the u_3 coordinates in [0, 1] of every nonsingular triple
    of facet and cube planes, a superset of the heights of the region's
    vertices.  A facet parallel to the slices makes the area jump at its
    breakpoint, so each piece uses the open three-point (Milne) rule, which is
    exact for quadratics and samples only inside the piece.
    """
    t = Fraction(t)
    planes = [(tuple(Fraction(x) for x in a), t * c) for a, c in facets]
    for i in range(3):
        axis = tuple(Fraction(int(j == i)) for j in range(3))
        planes += [(axis, Fraction(0)), (axis, Fraction(1))]
    cuts = {Fraction(0), Fraction(1)}
    for triple in itertools.combinations(planes, 3):
        pt = _solve3([a for a, _ in triple], [b for _, b in triple])
        if pt is not None and 0 <= pt[2] <= 1:
            cuts.add(pt[2])

    def area(s: Fraction) -> Fraction:
        poly = [(Fraction(x), Fraction(y)) for x, y in ((0, 0), (1, 0), (1, 1), (0, 1))]
        for a, c in facets:
            poly = _clip_halfplane(poly, a[0], a[1], t * c - a[2] * s)
        return shoelace_area(poly)

    cuts = sorted(cuts)
    return sum(
        (
            (hi - lo) * (2 * area((3 * lo + hi) / 4) - area((lo + hi) / 2) + 2 * area((lo + 3 * hi) / 4)) / 3
            for lo, hi in zip(cuts, cuts[1:])
        ),
        Fraction(0),
    )


def one_facet_volume(a: Sequence[Fraction], b) -> Fraction:
    """Exact volume of {u in [0, 1]^n : a.u >= b} for a >= 0, a != 0.

    With m = |supp a|, the volume of a.u <= b over the cube is
    sum over S in supp a of (-1)^|S| (b - sum_S a_i)_+^m / (m! prod_supp a_i):
    inclusion-exclusion of the simplex {a.u <= b, u >= 0} over the vertices
    of the cube, and the coordinates off the support contribute a factor 1.
    """
    b = Fraction(b)
    support = [Fraction(x) for x in a if x]
    m = len(support)
    below = sum(
        (
            (-1) ** len(S) * max(b - sum(S, Fraction(0)), Fraction(0)) ** m
            for r in range(m + 1)
            for S in itertools.combinations(support, r)
        ),
        Fraction(0),
    )
    return 1 - below / (math.factorial(m) * math.prod(support))


def brute_lattice_count(
    facets: Sequence[Tuple[Tuple[int, ...], int]], t: Fraction, q: int, nvars: int
) -> int:
    """Unpruned enumeration of [0, q]^n against the scaled facet inequalities."""
    count = 0
    for u in itertools.product(range(q + 1), repeat=nvars):
        if all(
            sum(a * x for a, x in zip(normal, u)) >= Fraction(t) * q * c
            for normal, c in facets
        ):
            count += 1
    return count


def colon_by_quotients(I, J):
    """(I : J) as the intersection over f in J of the lone quotients (1/f)(I cap <f>).

    2k - 1 intersections for k generators, against the chain's k; it reaches
    the same ideal along a different path.
    """
    from fsig.groebner import Ideal
    from fsig.ideals import exact_divide, intersection

    ring = I.ring
    result = None
    for f in J.generators:
        K = intersection(I, Ideal(ring, [f]))
        Q = Ideal(ring, [exact_divide(g, f) for g in K.groebner_basis()])
        result = Q if result is None else intersection(result, Q)
    return result


# -- the rank route's former walk of the q^n box ---------------------------

BLOCK_LIFTS = 256  # box_blocks: consecutive degrees merge into one block until it holds this many lifts


def torus_grading(groups: Iterable[Sequence[Tuple[int, ...]]], n: int) -> List[Tuple[int, ...]]:
    """Integer rows W spanning the vectors orthogonal to every difference of two exponents of one group.

    Every group (one generator's exponents) then has a single W-degree.  The
    differences are eliminated once (fsig's _bareiss): with pivot columns P,
    reduced rows R and last pivot den, each free column f gives the primitive
    row that is den at f and -R[i][f] at P[i], positive at f.  No difference
    leaves the unit rows; differences of rank n leave [], a single degree.
    """
    from fsig.newton import _bareiss, _reduced

    P, R, den = _bareiss([tuple(map(sub, m, ms[0])) for ms in groups for m in ms[1:]])
    W = []
    for f in (k for k in range(n) if k not in P):
        x, d = _reduced([-row[f] for row in R], den)
        W.append(tuple(d if k == f else x[P.index(k)] if k in P else 0 for k in range(n)))
    return W


def box_blocks(
    box: Sequence[int], polys: Sequence[Dict[Tuple[int, ...], int]], parents: Iterable[int], s: int
) -> Iterator[Iterator[Tuple[int, Dict[int, int]]]]:
    """The rows of the lifts g = s*d + r, r in [0, s)^n, of the parent cells d, one block at a time.

    The parents are cell indices of the box with sides box_i / s (first
    variable most significant); the parents [0] of the all-1 box give the
    whole box.  Each block is its non-empty rows (cell index, row(g)) of
    fsig's box_rows, in cell order, built as they are read.  The degree of
    g is w*g, w the first row of W = torus_grading of the in-box terms (0
    if there is none), so the cells of one degree are a union of W-blocks:
    the matrix is block diagonal in W*g, and no two blocks share a column.
    A parent of degree K lifts into the degrees s*K + w*r, so the parents
    are grouped by degree, and the degrees are walked in order, consecutive
    ones merged into one block until it holds BLOCK_LIFTS lifts.  A parent
    whose lift s*d lies past every term's reach in some coordinate (so every
    lift does) is skipped.
    """
    from fsig.ideals import box_rows

    row = box_rows(box, polys)
    n = len(box)
    strides = [math.prod(box[i + 1:]) for i in range(n)]
    inbox = [[m for m in f if all(map(lt, m, box))] for f in polys]
    W = torus_grading(inbox, n)
    w = W[0] if W else [0] * n

    def run(cells: List[int]) -> Iterator[Tuple[int, Dict[int, int]]]:
        for k in cells:
            vec = row(tuple(k // t % b for t, b in zip(strides, box)))
            if vec:
                yield k, vec

    pstrides = [t // s ** (n - 1 - i) for i, t in enumerate(strides)]
    low = [min((m[i] for f in inbox for m in f), default=b) for i, b in enumerate(box)]
    limit = [-((u - b) // s) for u, b in zip(low, box)]  # ceil((box_i - low_i) / s)
    order = []
    for d in parents:
        dv = [d // t % (b // s) for t, b in zip(pstrides, box)]
        if all(map(lt, dv, limit)):
            order.append((s * sum(map(mul, dv, w)), s * sum(map(mul, dv, strides))))
    order.sort()
    groups = [(key, [first for _, first in group]) for key, group in groupby(order, itemgetter(0))]
    shifts: Dict[int, List[int]] = {}
    for r in itertools.product(range(s), repeat=n):
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


class BoxWalk:
    """The rank route's walk of the q^n box, level by level, for one system.

    cells(e) is D_e, the cells whose rows became pivots at level e.  Rows are
    independent exactly when their monomials are independent modulo I_e, so
    D_e is a monomial basis of S/I_e and a_e = |D_e|.  When descends(e), S/I_e
    is spanned by the lifts p*d + r, r in [0, p)^n, of D_{e-1} (S is free over
    S^p on the x^r), and level e eliminates only their rows; otherwise it
    lifts every cell of the box [0, q/p)^n by p, which is the whole box (b_e
    lies in b_0^[q] = S).  Each block of box_blocks is eliminated in an
    Echelon of its own.  The cells are indices of the box [0, q)^n in cell
    order; pivot_cells keeps only the newest level's.
    """

    def __init__(self, sys):
        self.sys = sys
        self.pivot_cells: Dict[int, array] = {}

    def descends(self, e: int) -> bool:
        """Whether b_e lies in b_{e-1}^[p]: each generator of b_e has normal form 0 modulo it.

        Then I_{e-1}^[p] lies in I_e.  The p-th powers of b_{e-1}'s reduced
        basis are a reduced basis of b_{e-1}^[p], so no Buchberger run is made
        on it.  A resource cap on b_{e-1}'s basis leaves the level
        uncertified.  Level 1 never descends: its box is already the lift of
        D_0 = {0} by p.
        """
        from fsig.groebner import GroebnerBasis, normal_form
        from fsig.poly import ResourceLimitError

        if e < 2:
            return False
        try:
            basis = self.sys.b_of(e - 1).groebner_basis()
        except ResourceLimitError:
            return False
        bracket = GroebnerBasis(self.sys.ring, [g.frobenius(1) for g in basis])
        return all(normal_form(g, bracket).is_zero() for g in self.sys.b_of(e).generators)

    def cells(self, e: int) -> array:
        from fsig.ideals import Echelon

        got = self.pivot_cells.get(e)
        if got is None:
            ring, p = self.sys.ring, self.sys.ring.p
            q = p**e
            parents = self.cells(e - 1) if self.descends(e) else range((q // p) ** ring.nvars)
            polys = [f.terms for f in self.sys.b_of(e).generators]
            got = array("I" if q**ring.nvars <= 2**32 else "Q")
            for block in box_blocks([q] * ring.nvars, polys, parents, p):
                ech = Echelon(p)
                for cell, vec in block:
                    if ech.insert(vec):
                        got.append(cell)
            got = array(got.typecode, sorted(got))
            self.pivot_cells.pop(e - 1, None)
            self.pivot_cells[e] = got
        return got
