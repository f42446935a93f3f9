"""Toric splitting numbers against an exact lattice count, level by level.

For a normal toric ring whose cone has primitive ray generators v_i,
a_e = #{u in Z^d : 0 <= <u, v_i> < q for every i} with q = p^e (Singh, J. Pure
Appl. Algebra 196, 2005; Von Korff, The F-signature of toric varieties,
2011).  The count takes no Groebner basis and no echelon, so it checks every
level of both routes independently of them and of their shared row builder.

The A_n singularity x*y - z^{n+1} has rays (0, 1) and (n+1, -n).  The rays
(0, 1) and (k, -1) belong to the rational normal curve of degree k (k = 2 is
A_1); for n >= 2 they give a different count from A_n's at some levels
(A_2 at p = 2, e = 1: 1, where (m^[2] : f) = (x, y, z^2) has length 2).
"""

import itertools

import pytest

import _oracles
from _oracles import BoxWalk
from fsig.groebner import Ideal
from fsig.poly import PolyRing
from fsig.signature import splitting_number
from fsig.systems import QuotientSystem

TWISTED_CUBIC = ["x*z - y^2", "x*w - y*z", "y*w - z^2"]
QUARTIC = ["a*c - b^2", "a*d - b*c", "a*f - b*d", "b*d - c^2", "b*f - c*d", "c*f - d^2"]  # degree 4
CONIFOLD_RAYS = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
CONIFOLD_FREE_RAYS = [v + (0,) for v in CONIFOLD_RAYS] + [(0, 0, 0, 1)]


def _toric_count(rays, q):
    """The lattice count, by brute force over (-q, q)^d.

    Every cone here keeps the region in that box.  With rays (0, 1) and
    (k, -j), 1 <= j < k: 0 <= u_2 < q and j*u_2 <= k*u_1 < q + j*u_2, so
    0 <= u_1 < q.  For the conifold: 0 <= u_3 < q and 0 <= u_i + u_3 < q for
    i = 1, 2.  A free variable adds the ray e_d, so 0 <= u_d < q.
    """
    d = len(rays[0])
    return sum(
        all(0 <= sum(a * b for a, b in zip(u, v)) < q for v in rays)
        for u in itertools.product(range(-q, q), repeat=d)
    )


# (variables, generators of J, rays, p, the last level checked by both routes,
# whether the rank route alone checks one level more, which it affords: it
# runs one Buchberger on m^[q] + b_e and walks no box)
CASES = [
    *(
        pytest.param(["x", "y", "z"], [f"x*y - z^{n + 1}"], [(0, 1), (n + 1, -n)], p, 3, p < 5, id=f"A{n}-p{p}")
        for n in (1, 2, 3)
        for p in (2, 3, 5)
    ),
    pytest.param(["x", "y", "z", "w"], TWISTED_CUBIC, [(0, 1), (3, -1)], 2, 3, True, id="twisted-cubic-p2"),
    pytest.param(["x", "y", "z", "w"], TWISTED_CUBIC, [(0, 1), (3, -1)], 3, 3, False, id="twisted-cubic-p3"),
    pytest.param(["x", "y", "z", "w"], TWISTED_CUBIC, [(0, 1), (3, -1)], 5, 2, False, id="twisted-cubic-p5"),
    pytest.param(["a", "b", "c", "d", "f"], QUARTIC, [(0, 1), (4, -1)], 2, 2, False, id="quartic-curve-p2"),
    pytest.param(["a", "b", "c", "d", "f"], QUARTIC, [(0, 1), (4, -1)], 3, 1, False, id="quartic-curve-p3"),
    pytest.param(["x", "y", "z", "w"], ["x*w - y*z"], CONIFOLD_RAYS, 2, 3, True, id="conifold-p2"),
    pytest.param(["x", "y", "z", "w"], ["x*w - y*z"], CONIFOLD_RAYS, 3, 2, True, id="conifold-p3"),
    pytest.param(["x", "y", "z", "w"], ["x*w - y*z"], CONIFOLD_RAYS, 5, 1, True, id="conifold-p5"),
    pytest.param(["x", "y", "z", "w", "v"], ["x*w - y*z"], CONIFOLD_FREE_RAYS, 2, 2, True, id="conifold-free-p2"),
    pytest.param(["x", "y", "z", "w", "v"], ["x*w - y*z"], CONIFOLD_FREE_RAYS, 3, 1, True, id="conifold-free-p3"),
    pytest.param(["x", "y", "z", "w", "v"], ["x*w - y*z"], CONIFOLD_FREE_RAYS, 5, 1, False, id="conifold-free-p5"),
]


@pytest.mark.parametrize("names, gens, rays, p, emax, rank_next", CASES)
def test_splitting_numbers_match_the_toric_lattice_count(names, gens, rays, p, emax, rank_next):
    R = PolyRing.make(p, names)
    system = QuotientSystem(R, Ideal(R, [R.parse(g) for g in gens]))
    for e in range(1, emax + 1):
        assert splitting_number(system, e, "both") == _toric_count(rays, p**e), e
    if rank_next:
        assert splitting_number(system, emax + 1, "linear") == _toric_count(rays, p ** (emax + 1))


def test_toric_count_gives_the_recorded_pins():
    # the cone x*y - z^2 and the twisted cubic at p = 3, the conifold at p = 2 and 3
    assert [_toric_count([(0, 1), (2, -1)], 3**e) for e in (1, 2, 3)] == [5, 41, 365]
    assert [_toric_count([(0, 1), (3, -1)], 3**e) for e in (1, 2, 3)] == [3, 27, 243]
    assert [_toric_count(CONIFOLD_RAYS, 2**e) for e in (1, 2)] == [6, 44]
    assert [_toric_count(CONIFOLD_RAYS, 3**e) for e in (1, 2)] == [19, 489]


def test_twisted_cubic_p3_walks_the_lifts_of_its_basis(monkeypatch):
    # b_2 lies in b_1^[3] and b_3 in b_2^[3], so the box walk's levels 2 and 3
    # walk the p^n * a_{e-1} lifts of D_{e-1}: 2,187 cells at e = 3, not
    # 27^4 = 531,441
    R = PolyRing.make(3, ["x", "y", "z", "w"])
    system = QuotientSystem(R, Ideal(R, [R.parse(g) for g in TWISTED_CUBIC]))
    walked = []
    box_blocks = _oracles.box_blocks

    def counted(box, polys, parents, s):
        parents = list(parents)
        walked.append(len(parents) * s ** len(box))
        return box_blocks(box, polys, parents, s)

    monkeypatch.setattr(_oracles, "box_blocks", counted)
    walk = BoxWalk(system)
    assert len(walk.cells(3)) == _toric_count([(0, 1), (3, -1)], 27) == 243
    assert splitting_number(system, 3, "linear") == 243
    assert walk.descends(2) and walk.descends(3)
    assert walked == [3**4, 3**4 * 3, 3**4 * 27] == [81, 243, 2187]
