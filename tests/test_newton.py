import itertools
import math
import random
from fractions import Fraction

import pytest

from fsig.newton import (
    DIMENSION_CAP,
    ClippedPolytope,
    NewtonPolyhedron,
    clip,
    clip_and_volume,
    closure_membership,
    lattice_count,
    monomial_signature,
    newton_polyhedron,
)

from _oracles import (
    brute_lattice_count,
    fraction_newton_facets,
    one_facet_volume,
    shoelace_area,
    slice_volume_3d,
)

CUSP = [(3, 0), (0, 2)]


def cusp_pair_volume(t: Fraction) -> Fraction:
    """Piecewise closed form for the <x^3, y^2> pair, used as the oracle."""
    t = Fraction(t)
    if t <= Fraction(1, 3):
        return 1 - 3 * t * t
    if t <= Fraction(1, 2):
        return Fraction(4, 3) - 2 * t
    if t <= Fraction(5, 6):
        return Fraction(25, 12) - 5 * t + 3 * t * t
    return Fraction(0)


def test_newton_polyhedron_two_point_facet():
    P = newton_polyhedron(CUSP)
    assert P.facets == (((2, 3), 6),)
    for pt in CUSP:
        assert 2 * pt[0] + 3 * pt[1] == 6


def test_newton_polyhedron_maximal_ideal():
    P = newton_polyhedron([(1, 0), (0, 1)])
    assert P.facets == (((1, 1), 1),)


def test_newton_polyhedron_drops_interior_point():
    P = newton_polyhedron([(2, 0), (1, 1), (0, 2)])
    assert P.facets == (((1, 1), 2),)


def test_newton_polyhedron_axis_parallel_facets():
    P = newton_polyhedron([(1, 2)])
    assert set(P.facets) == {((1, 0), 1), ((0, 1), 2)}


def test_polyhedra_and_clips_are_value_records():
    P, Q = newton_polyhedron(CUSP), newton_polyhedron([(0, 2), (3, 0), (3, 0)])
    assert P is not Q and P == Q and hash(P) == hash(Q)
    assert P != newton_polyhedron([(2, 0), (0, 2)])
    assert repr(P) == "NewtonPolyhedron(nvars=2, facets=(((2, 3), 6),), generators=((0, 2), (3, 0)))"
    assert P == NewtonPolyhedron(2, (((2, 3), 6),), ((0, 2), (3, 0)))
    C, D = clip(P, Fraction(1, 4)), clip(Q, Fraction(1, 4))
    assert C is not D and C == D and hash(C) == hash(D) and len({C, D}) == 1
    assert C != clip(P, Fraction(1, 3))
    assert repr(C).startswith("ClippedPolytope(nvars=2, halfspaces=((")
    assert C == ClippedPolytope(C.nvars, C.halfspaces, C.vertices, C.int_simplices)
    with pytest.raises(AttributeError):
        C.nvars = 3


def test_generator_at_origin_leaves_the_orthant():
    # the unit ideal: the blocker {a >= 0 : a.pt >= 1} is empty, so P has no
    # facets and every clip is the whole cube
    P = newton_polyhedron([(0, 0), (1, 1)])
    assert P.facets == ()
    for t in (0, Fraction(1, 3), 1, 5):
        assert clip_and_volume(P, t) == 1


def test_newton_polyhedron_rejects_bad_input():
    with pytest.raises(ValueError):
        newton_polyhedron([])
    with pytest.raises(ValueError):
        newton_polyhedron([(1, -1)])
    with pytest.raises(ValueError):
        newton_polyhedron([(1, 0), (1, 0, 0)])


def test_clip_and_volume_pinned_values():
    P = newton_polyhedron(CUSP)
    assert clip_and_volume(P, Fraction(1, 4)) == Fraction(13, 16)
    assert clip_and_volume(P, Fraction(3, 5)) == Fraction(49, 300)
    assert clip_and_volume(P, 0) == 1
    assert clip_and_volume(P, Fraction(5, 6)) == 0
    assert clip_and_volume(P, 2) == 0


def test_clip_vertices_are_tight_and_feasible():
    P = newton_polyhedron(CUSP)
    poly = clip(P, Fraction(1, 4))
    assert len(poly.vertices) == 5
    for v in poly.vertices:
        tight = sum(
            1
            for normal, rhs in poly.halfspaces
            if sum(a * u for a, u in zip(normal, v)) == rhs
        )
        assert tight >= 2


def test_triangulation_matches_shoelace_on_sweep():
    P = newton_polyhedron(CUSP)
    for k in range(0, 51):
        t = Fraction(k, 60)
        poly = clip(P, t)
        assert poly.volume() == shoelace_area(poly.vertices)


def test_monomial_signature_piecewise_formula_exact():
    for k in range(0, 51):
        t = Fraction(k, 60)
        assert monomial_signature(CUSP, t) == cusp_pair_volume(t)


def test_monomial_signature_examples():
    assert monomial_signature(CUSP, Fraction(2, 5)) == Fraction(8, 15)
    assert monomial_signature(CUSP, Fraction(5, 6)) == 0
    assert monomial_signature([(1, 0), (0, 1)], 1) == Fraction(1, 2)


def test_volume_monotone_in_t():
    P = newton_polyhedron([(2, 1), (0, 3)])
    values = [clip_and_volume(P, Fraction(k, 12)) for k in range(0, 25)]
    assert values[0] == 1
    for a, b in zip(values, values[1:]):
        assert b <= a
    assert values[-1] == 0


def test_lattice_count_examples():
    P = newton_polyhedron(CUSP)
    assert lattice_count(P, Fraction(1, 2), 3) == 7
    assert lattice_count(P, Fraction(1, 2), 9) == 37
    assert lattice_count(P, 0, 4) == 25


def test_lattice_count_matches_brute_force():
    rng = random.Random(17)
    P = newton_polyhedron(CUSP)
    for _ in range(25):
        t = Fraction(rng.randint(0, 12), rng.randint(1, 12))
        q = rng.randint(1, 20)
        assert lattice_count(P, t, q) == brute_lattice_count(P.facets, t, q, 2)


def test_closure_membership_examples():
    assert closure_membership((2, 1), CUSP, 1)
    assert not closure_membership((1, 1), CUSP, 1)
    for pt in CUSP:
        assert closure_membership(pt, CUSP, 1)


def test_closure_membership_scaling():
    assert closure_membership((1, 1), CUSP, Fraction(5, 6))
    assert not closure_membership((1, 1), CUSP, Fraction(6, 7))


def test_lattice_volume_envelope():
    P = newton_polyhedron(CUSP)
    for t in (Fraction(1, 4), Fraction(1, 2), Fraction(2, 3)):
        vol = clip_and_volume(P, t)
        errors = {
            e: abs(Fraction(lattice_count(P, t, 3**e), 9**e) - vol) for e in (1, 2, 3, 4)
        }
        C = max(errors[1] * 3, errors[2] * 9)
        for e in (3, 4):
            assert errors[e] <= C / 3**e


def test_three_dimensional_volumes():
    # <x*y*z>: the region is u >= (t,t,t), so the clipped volume is (1-t)^3,
    # matching the simple-normal-crossings product formula
    P = newton_polyhedron([(1, 1, 1)])
    assert set(P.facets) == {((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1)}
    assert clip_and_volume(P, Fraction(1, 2)) == Fraction(1, 8)
    assert clip_and_volume(P, Fraction(1, 3)) == Fraction(8, 27)
    # maximal ideal at t = 1: the cube minus the unit corner simplex
    P2 = newton_polyhedron([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert clip_and_volume(P2, 1) == 1 - Fraction(1, 6)


def test_volume_agrees_with_splitting_sequence_envelope():
    # the level sequence of the plain-power pair family drifts toward the
    # exact clipped volume; at four levels the tail fit already brackets it
    from fsig.groebner import Ideal
    from fsig.poly import PolyRing
    from fsig.signature import signature_sequence
    from fsig.systems import PairSystem

    vol = monomial_signature(CUSP, Fraction(2, 5))
    assert vol == Fraction(8, 15)
    R = PolyRing.make(3, ["x", "y"])
    pair = PairSystem(R, Ideal(R, [R.parse("x^3"), R.parse("y^2")]), Fraction(2, 5))
    rep = signature_sequence(pair, 4, method="linear")
    assert abs(rep.rows[-1].s_e - vol) <= rep.error_envelope
    assert abs(rep.estimate - vol) <= rep.error_envelope


def test_dimension_cap():
    pts = [tuple(1 if j == i else 0 for j in range(7)) for i in range(7)]
    P = newton_polyhedron(pts)
    with pytest.raises(ValueError):
        clip_and_volume(P, Fraction(1, 2))


def test_slice_oracle_closed_forms():
    # <x*y*z> gives the box [t, 1]^3; <x, y, z> at t = 1 the cube minus the corner simplex
    P = newton_polyhedron([(1, 1, 1)])
    assert slice_volume_3d(P.facets, Fraction(1, 3)) == Fraction(8, 27)
    P2 = newton_polyhedron([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert slice_volume_3d(P2.facets, 1) == Fraction(5, 6)
    assert slice_volume_3d(P2.facets, 0) == 1


def test_clip_and_volume_match_slice_oracle_randomized():
    rng = random.Random(2025)
    ts = [Fraction(0), Fraction(1, 7), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
    for _ in range(40):
        exps = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(rng.randint(1, 4))]
        P = newton_polyhedron(exps)
        for t in ts:
            assert clip_and_volume(P, t) == slice_volume_3d(P.facets, t), (exps, t)


def test_clip_and_volume_match_one_facet_oracle_randomized():
    # generators d_i * e_i on a random set of axes: t*P is the one halfspace
    # sum u_i / d_i >= t, whose cube volume has a closed form
    rng = random.Random(1818)
    ts = [Fraction(1, 5), Fraction(1, 2), Fraction(1), Fraction(7, 4)]
    for n in range(2, DIMENSION_CAP + 1):
        for _ in range(3):
            degrees = {i: rng.randint(1, 5) for i in rng.sample(range(n), rng.randint(1, n))}
            exps = [tuple(d if j == i else 0 for j in range(n)) for i, d in degrees.items()]
            P = newton_polyhedron(exps)
            a = [Fraction(1, degrees[i]) if i in degrees else 0 for i in range(n)]
            for t in rng.sample(ts, 2):
                assert clip_and_volume(P, t) == one_facet_volume(a, t), (exps, t)


def test_one_facet_oracle_closed_forms():
    # the cube minus a corner simplex, one corner, a slab, the whole cube
    assert one_facet_volume([1, 1, 1], 1) == Fraction(5, 6)
    assert one_facet_volume([1, 1], 2) == 0
    assert one_facet_volume([1, 0, 0], Fraction(1, 3)) == Fraction(2, 3)
    assert one_facet_volume([2, 3], 0) == 1


def test_clip_builds_few_simplices():
    # a work pin without a wall clock: the pulling triangulation builds 347
    # simplices over this sweep and 1,092 on the 6-variable clip, where
    # coning from face centroids built one per flag of faces (2,784 and 29,280)
    P = newton_polyhedron([(3, 0, 0, 0), (0, 2, 0, 0), (0, 0, 5, 0), (0, 0, 0, 4), (1, 1, 1, 1)])
    assert sum(len(clip(P, Fraction(k, 12)).int_simplices) for k in range(13)) <= 400
    six = newton_polyhedron([tuple(d if j == i else 0 for j in range(6)) for i, d in enumerate((2, 3, 2, 3, 4, 5))])
    C = clip(six, Fraction(1, 2))
    assert len(C.int_simplices) <= 1200
    assert C.volume() == Fraction(1149360053, 1166400000)


def test_clip_eliminates_at_most_once_per_t(monkeypatch):
    # a work pin without a wall clock: clip's vertices come from double
    # description, which needs no elimination, so the one _bareiss pass left
    # is the full-dimension rank test
    import fsig.newton as newton  # newton calls the _linalg eliminator through its own name

    P = newton_polyhedron([(3, 0, 0, 0), (0, 2, 0, 0), (0, 0, 5, 0), (0, 0, 0, 4), (1, 1, 1, 1)])
    calls = []
    real = newton._bareiss

    def counting(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(newton, "_bareiss", counting)
    for k in range(13):
        calls.clear()
        clip(P, Fraction(k, 12))
        assert len(calls) <= 1, (k, len(calls))


def test_six_variable_clip_with_22_facets():
    # <x^2*y*u, y^3*z*v, x*z^2*w^2, w*u^3*v> over x, y, z, w, u, v: 125
    # vertices out of Σ_k C(22,k)·C(6,k)·2^(6−k) = 1,135,649 choices of tight
    # facets and corners, so only an output-sensitive enumeration is quick
    exps = [(2, 1, 0, 0, 1, 0), (0, 3, 1, 0, 0, 1), (1, 0, 2, 2, 0, 0), (0, 0, 0, 1, 3, 1)]
    P = newton_polyhedron(exps)
    assert len(P.facets) == 22
    C = clip(P, Fraction(1, 2))
    assert len(C.vertices) == 125 and len(C.int_simplices) == 2857
    assert C.volume() == Fraction(553859, 1492992)


def test_clip_vertices_match_subset_oracle_randomized():
    # double description against every choice of tight facets and fixed
    # coordinates: the same vertices with the same tight halfspaces
    from fsig.newton import _vertices
    from _oracles import subset_clip_vertices

    ts = [Fraction(1, 7), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)]
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for n in range(2, 6):
            for _ in range(7 - n):
                exps = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 7 - n))]
                P, t = newton_polyhedron(exps), rng.choice(ts)
                facets = [(tuple(t.denominator * x for x in a), t.numerator * c) for a, c in P.facets]
                oracle = subset_clip_vertices(facets, n)
                got = {tuple(Fraction(x, d) for x in nums): inc for (nums, d), inc in _vertices(facets, n).items()}
                assert got == oracle, (exps, t)
                assert clip(P, t).vertices == tuple(sorted(oracle)), (exps, t)


def test_monomial_4var_pinned_volumes():
    # values from the benchmark's pins for the monomial-4var sweep (cross-checked by qhull)
    P = newton_polyhedron([(3, 0, 0, 0), (0, 2, 0, 0), (0, 0, 5, 0), (0, 0, 0, 4), (1, 1, 1, 1)])
    assert clip_and_volume(P, Fraction(1, 3)) == Fraction(2436721, 2592000)
    assert clip_and_volume(P, Fraction(1, 2)) == Fraction(3043, 4050)
    assert clip_and_volume(P, 1) == Fraction(259, 8100)


def _leibniz_det(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def test_integer_kernels_match_fraction_elimination():
    # one fraction-free Gauss-Jordan pass: its pivots and rows over the last
    # pivot are the rational RREF, its last pivot is +-det, and the solution
    # of a square system is read off the reduced rows of [A | b]
    from fsig._linalg import _bareiss, _reduced
    from _oracles import fraction_rref as _rref

    rng = random.Random(31)
    for _ in range(400):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 1 and rng.random() < 0.4:  # force a dependent row
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1 % (nrows - 1)])]
        pivots, R, pivot = _bareiss(rows)
        rref, oracle_pivots = _rref([[Fraction(v) for v in r] for r in rows])
        assert pivots == oracle_pivots, rows
        assert [[Fraction(x, pivot) for x in r] for r in R] == rref[: len(pivots)], rows
        rank = len(pivots)
        if nrows != ncols:
            continue
        det = _leibniz_det(rows)
        assert (rank == nrows) == (det != 0), rows
        rhs = [rng.randint(-5, 5) for _ in range(nrows)]
        solved, S, last = _bareiss([r + [b] for r, b in zip(rows, rhs)])
        if det == 0:
            assert solved != list(range(nrows)), rows
            continue
        assert abs(pivot) == abs(det), rows
        assert solved == list(range(nrows)) and last == pivot, rows
        nums, den = _reduced([row[nrows] for row in S], last)
        assert den > 0 and math.gcd(den, *nums) == 1
        cramer = [
            Fraction(_leibniz_det([[rhs[r] if c == k else rows[r][c] for c in range(nrows)] for r in range(nrows)]), det)
            for k in range(nrows)
        ]
        assert [Fraction(x, den) for x in nums] == cramer, (rows, rhs)


def test_facets_match_fraction_kernel_oracle_randomized():
    rng = random.Random(515)
    for _ in range(80):
        n = rng.randint(2, 5)
        exps = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(1, 5))]
        if not any(map(any, exps)):
            continue
        assert list(newton_polyhedron(exps).facets) == fraction_newton_facets(exps), exps
    for n in (1, 6) * 10:
        exps = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(1, 5))]
        if not any(map(any, exps)):
            continue
        assert list(newton_polyhedron(exps).facets) == fraction_newton_facets(exps), exps


def test_volume_is_leibniz_sum_over_fraction_simplices_randomized():
    # the integer volume path against |det| / n! of each simplex's Fraction points
    rng = random.Random(616)
    ts = [Fraction(1, 5), Fraction(1, 2), Fraction(3, 4)]
    for _ in range(20):
        n = rng.randint(2, 4)
        exps = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(1, 4))]
        if not any(map(any, exps)):
            continue
        P = newton_polyhedron(exps)
        for t in ts:
            C = clip(P, t)
            leibniz = sum(
                (abs(_leibniz_det([[a - b for a, b in zip(pt, s[0])] for pt in s[1:]])) for s in C.simplices),
                Fraction(0),
            )
            assert C.volume() == leibniz / math.factorial(n), (exps, t)


def test_clip_simplices_are_full_dimensional_randomized():
    # every simplex of the pulling triangulation spans n dimensions: a subface
    # that is not a facet of its face would add a flat simplex, which
    # volume() counts as zero and so cannot show
    from _oracles import fraction_rref

    rng = random.Random(717)
    ts = [Fraction(1, 7), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2)]
    checked = 0
    for _ in range(120):
        n = rng.randint(2, 4)
        exps = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(1, 4))]
        if not any(map(any, exps)):
            continue
        P = newton_polyhedron(exps)
        for t in rng.sample(ts, 2):
            for s in clip(P, t).simplices:
                assert len(s) == n + 1
                rows = [[a - b for a, b in zip(pt, s[0])] for pt in s[1:]]
                assert len(fraction_rref(rows)[1]) == n, (exps, t, s)
                checked += 1
    assert checked > 1000
