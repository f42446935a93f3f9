import itertools
import random

import pytest

from _oracles import colon_by_quotients
from fsig.groebner import Ideal, buchberger, ideal_membership, krull_dimension
from fsig.ideals import (
    ExactDivisionError,
    bracket_power,
    colon,
    exact_divide,
    ideal_equals,
    ideal_power,
    ideal_product,
    ideal_sum,
    intersection,
    tangent_cone,
)
from fsig.ideals import _colon_elimination, _intersection_elimination
from fsig.poly import DEGREVLEX, LEX, PolyRing, Polynomial


def ring3(p=3):
    return PolyRing.make(p, ["x", "y", "z"])


def test_bracket_power_definition():
    R = ring3()
    I = Ideal(R, [R.parse("x + y"), R.parse("x*y")])
    B = bracket_power(I, 1)
    assert ideal_equals(B, Ideal(R, [R.parse("x^3 + y^3"), R.parse("x^3*y^3")]))
    assert ideal_equals(
        bracket_power(Ideal(R, [R.parse("x"), R.parse("y")]), 1),
        Ideal(R, [R.parse("x^3"), R.parse("y^3")]),
    )


def test_bracket_power_generator_independence():
    R = ring3()
    I = Ideal(R, [R.parse("x"), R.parse("x + y")])
    J = Ideal(R, [R.parse("x"), R.parse("y")])
    assert ideal_equals(I, J)
    for e in (1, 2):
        assert ideal_equals(bracket_power(I, e), bracket_power(J, e))


def test_bracket_power_composes():
    R = PolyRing.make(2, ["x", "y"])
    I = Ideal(R, [R.parse("x + y"), R.parse("x*y")])
    assert ideal_equals(bracket_power(I, 3), bracket_power(bracket_power(I, 1), 2))


def test_ideal_power_examples():
    R = PolyRing.make(3, ["x", "y"])
    m = Ideal(R, [R.parse("x"), R.parse("y")])
    assert ideal_equals(
        ideal_power(m, 2), Ideal(R, [R.parse("x^2"), R.parse("x*y"), R.parse("y^2")])
    )
    assert ideal_equals(ideal_power(m, 0), Ideal(R, [R.one()]))
    I = Ideal(R, [R.parse("x^3"), R.parse("y^2")])
    assert ideal_equals(
        ideal_power(I, 2),
        Ideal(R, [R.parse("x^6"), R.parse("x^3*y^2"), R.parse("y^4")]),
    )


def test_product_and_sum_examples():
    R = PolyRing.make(3, ["x", "y"])
    X = Ideal(R, [R.parse("x")])
    Y = Ideal(R, [R.parse("y")])
    assert ideal_equals(ideal_product(X, Y), Ideal(R, [R.parse("x*y")]))
    one = Ideal(R, [R.one()])
    I = Ideal(R, [R.parse("x^2 + y")])
    assert ideal_equals(ideal_product(I, one), I)
    assert ideal_equals(ideal_sum(X, Y), Ideal(R, [R.parse("x"), R.parse("y")]))


def test_intersection_examples():
    R = ring3()
    X = Ideal(R, [R.parse("x")])
    Y = Ideal(R, [R.parse("y")])
    assert ideal_equals(intersection(X, Y), Ideal(R, [R.parse("x*y")]))
    A = Ideal(R, [R.parse("x"), R.parse("y"), R.parse("z^2")])
    B = Ideal(R, [R.parse("x"), R.parse("y"), R.parse("z^5")])
    AB = intersection(A, B)
    assert ideal_equals(AB, B)
    assert all(ideal_membership(g, A) for g in AB.generators)
    one = Ideal(R, [R.one()])
    I = Ideal(R, [R.parse("x^2 + y*z")])
    assert ideal_equals(intersection(I, one), I)


def test_intersection_elimination_matches_monomial_path():
    R = PolyRing.make(3, ["x", "y"])
    A = Ideal(R, [R.parse("x^2"), R.parse("y")])
    B = Ideal(R, [R.parse("x")])
    fast = intersection(A, B)
    # force the elimination route by disguising a generator as non-monomial input
    slow = _intersection_elimination(A, B)
    assert ideal_equals(fast, slow)


def test_colon_simple_example_with_maximality_oracle():
    R = PolyRing.make(3, ["x", "y"])
    I = Ideal(R, [R.parse("x^2*y"), R.parse("y^3")])
    Q = colon(I, Ideal(R, [R.parse("y")]))
    assert ideal_equals(Q, Ideal(R, [R.parse("x^2"), R.parse("y^2")]))
    y = R.parse("y")
    for g in Q.generators:
        assert ideal_membership(g * y, I)
    # maximality: every box monomial with m*y in I already lies in Q
    for a, b in itertools.product(range(4), repeat=2):
        m = R.monomial((a, b))
        if ideal_membership(m * y, I):
            assert ideal_membership(m, Q)


def test_colon_principal_power_cross_checked():
    R = ring3()
    h = R.parse("x^2 - y^2*z")
    fast = colon(Ideal(R, [h**3]), Ideal(R, [h]))
    assert ideal_equals(fast, Ideal(R, [h**2]))
    slow = _colon_elimination(Ideal(R, [h**3]), Ideal(R, [h]))
    assert ideal_equals(fast, slow)


def test_colon_whitney_level_one_all_routes():
    R = ring3()
    h = R.parse("x^2 - y^2*z")
    cube = Ideal(R, [R.parse("x^3"), R.parse("y^3"), R.parse("z^3")])
    expected = Ideal(R, [R.parse("x"), R.parse("y"), R.parse("z^2")])
    fast = colon(cube, Ideal(R, [h * h]))
    slow = _colon_elimination(cube, Ideal(R, [h * h]))
    assert ideal_equals(fast, expected)
    assert ideal_equals(slow, expected)


def test_colon_by_unit_and_zero():
    R = ring3()
    I = Ideal(R, [R.parse("x^2")])
    assert ideal_equals(colon(I, Ideal(R, [R.one()])), I)
    with pytest.raises(ValueError):
        colon(I, Ideal(R, []))
    assert ideal_membership(R.one(), colon(I, I))
    # the unit ideal is a zero-dimensional monomial ideal for the linear route
    one = Ideal(R, [R.one()])
    assert ideal_equals(colon(one, Ideal(R, [R.parse("x + y")])), one)


@pytest.mark.parametrize("unit", ["1", "1 + x", "x, 1 + y"])
def test_colon_by_a_unit_ideal_without_a_unit_check(unit):
    # no unit check runs first: <1> takes the monomial route, the others the zero-dimensional one
    R = PolyRing.make(3, ["x", "y"])
    cube = Ideal(R, [R.parse("x^3"), R.parse("y^3")])
    got = colon(cube, Ideal(R, [R.parse(g) for g in unit.split(",")]))
    assert [str(g) for g in got.groebner_basis()] == ["y^3", "x^3"]


def test_intersection_with_a_unit_ideal_without_a_unit_check():
    R = PolyRing.make(3, ["x", "y"])
    I = Ideal(R, [R.parse("y^2 + x")])
    unit = Ideal(R, [R.parse("x"), R.parse("1 + x")])
    assert ideal_equals(intersection(I, unit), I)
    assert ideal_equals(intersection(unit, I), I)


def _random_form(rng, ring, deg, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        cuts = sorted(rng.randint(0, deg) for _ in range(ring.nvars - 1))
        mono = tuple(b - a for a, b in zip([0] + cuts, cuts + [deg]))
        terms[mono] = rng.randint(1, ring.p - 1)
    return Polynomial(ring, terms)


def test_tangent_cone_gives_the_dimension_at_the_origin_randomized():
    # a homogeneous J is its own cone; a unit factor 1 + h (h in m) on each generator,
    # or a product with a component off the origin (z - 1), leaves the local dimension
    rng = random.Random(3535)
    checked = 0
    for _ in range(30):
        p = rng.choice([2, 3, 5])
        R = PolyRing.make(p, ["x", "y", "z"])
        J = Ideal(R, [_random_form(rng, R, rng.randint(1, 2)) for _ in range(rng.randint(1, 2))])
        assert tangent_cone(J) is J
        d = krull_dimension(J)
        unit = [R.one() + _random_form(rng, R, rng.randint(1, 2)) for _ in J.generators]
        twisted = Ideal(R, [f * u for f, u in zip(J.generators, unit)])
        translated = Ideal(R, [f * R.parse("z - 1") for f in J.generators])
        assert krull_dimension(tangent_cone(twisted)) == d, J
        assert krull_dimension(tangent_cone(translated)) == d, J
        assert krull_dimension(translated) == max(d, 2)
        checked += d < 2
    assert checked >= 5


def test_tangent_cone_of_a_plane_and_a_line():
    # the plane z = 1 and the line x = y = 0: dimension 2 globally, the regular line at 0
    R = PolyRing.make(3, ["x", "y", "z"])
    J = Ideal(R, [R.parse("x*z - x"), R.parse("y*z - y")])
    assert ideal_equals(tangent_cone(J), Ideal(R, [R.parse("x"), R.parse("y")]))
    assert (krull_dimension(J), krull_dimension(tangent_cone(J))) == (2, 1)


def test_exact_division_failure_is_distinct():
    R = PolyRing.make(3, ["x", "y"])
    with pytest.raises(ExactDivisionError):
        exact_divide(R.parse("x^2 + y"), R.parse("x + 1"))
    assert exact_divide(R.parse("x^2 - y^2"), R.parse("x + y")) == R.parse("x - y")


def test_ideal_equals_examples():
    R = PolyRing.make(3, ["x", "y"])
    assert ideal_equals(
        Ideal(R, [R.parse("x"), R.parse("x + y")]), Ideal(R, [R.parse("x"), R.parse("y")])
    )
    assert not ideal_equals(Ideal(R, [R.parse("x^2")]), Ideal(R, [R.parse("x")]))
    I = Ideal(R, [R.parse("x*y + y^2")])
    assert ideal_equals(I, Ideal(R, list(I.generators) + [R.zero()]))


def _random_poly(rng, ring, max_terms=2, max_deg=2):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in range(ring.nvars))
        terms[mono] = rng.randint(1, ring.p - 1)
    return Polynomial(ring, terms)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_colon_product_containment_randomized(p):
    rng = random.Random(600 + p)
    for _ in range(12):
        nvars = rng.randint(1, 2)
        R = PolyRing.make(p, ["x", "y"][:nvars])
        I = Ideal(R, [_random_poly(rng, R) for _ in range(rng.randint(1, 2))])
        J = Ideal(R, [_random_poly(rng, R)])
        if J.is_zero():
            continue
        Q = colon(I, J)
        for g in Q.generators:
            for f in J.generators:
                assert ideal_membership(g * f, I)
    # box ideals in every term order, since the colon walk's parent rule
    # (m + e_i for i at or past m's last non-zero index) is divisibility-based
    squarefree = [m for m in itertools.product((0, 1), repeat=3) if any(m)]
    for order in (DEGREVLEX, LEX):
        # I = <x^a, y^b>: the linear route over box_rows against elimination
        R = PolyRing.make(p, ["x", "y"], order)
        for _ in range(8):
            I = Ideal(R, [R.monomial((rng.randint(1, 4), 0)), R.monomial((0, rng.randint(1, 4)))])
            J_gens, count = [], rng.randint(1, 2)
            while len(J_gens) < count:
                f = _random_poly(rng, R, max_terms=3)
                if len(f.terms) > 1:
                    J_gens.append(f)
            J = Ideal(R, J_gens)
            assert ideal_equals(colon(I, J), _colon_elimination(I, J))
        # three variables and up to three generators of J, so that a dependent row
        # reduces through several pivots and its remainder spans several labels;
        # J has no constant term, since such a generator is a unit modulo I
        R = PolyRing.make(p, ["x", "y", "z"], order)
        widest = 0
        for _ in range(8):
            I = Ideal(R, [R.monomial(tuple(rng.randint(2, 5) * (i == k) for i in range(3))) for k in range(3)])
            J = Ideal(R, [
                Polynomial(R, {m: rng.randint(1, p - 1) for m in rng.sample(squarefree, rng.randint(2, 4))})
                for _ in range(rng.randint(1, 3))
            ])
            Q = colon(I, J)
            assert ideal_equals(Q, _colon_elimination(I, J)), (I, J)
            widest = max(widest, *(len(g.terms) for g in Q.generators))
        assert widest >= 3


def test_intersection_commutative_idempotent():
    rng = random.Random(77)
    R = PolyRing.make(3, ["x", "y"])
    for _ in range(10):
        I = Ideal(R, [_random_poly(rng, R)])
        J = Ideal(R, [_random_poly(rng, R)])
        assert ideal_equals(intersection(I, J), intersection(J, I))
        assert ideal_equals(intersection(I, I), I)


def test_intersection_elimination_installs_reduced_basis_randomized():
    # the t-free part of the block-order basis is the reduced basis of I cap J
    rng = random.Random(909)
    checked = 0
    for p in (2, 3, 5):
        for _ in range(12):
            R = PolyRing.make(p, ["x", "y", "z"][: rng.randint(2, 3)])
            I = Ideal(R, [_random_poly(rng, R, max_terms=3) for _ in range(rng.randint(1, 2))])
            J = Ideal(R, [_random_poly(rng, R, max_terms=3) for _ in range(rng.randint(1, 2))])
            if I.is_zero() or J.is_zero():
                continue
            K = _intersection_elimination(I, J)
            installed = K._gb
            assert installed == buchberger(K.generators), (I, J)
            checked += 1
    assert checked >= 30


def test_chained_colon_matches_the_quotient_intersection_randomized():
    # (I : J) by the chain against the intersection of the lone (I : f_j), for J with
    # two or three generators; degrees stay small, since each lone quotient is large
    rng = random.Random(2121)
    kinds = set()
    proper = 0
    for p in (2, 3, 5):
        for _ in range(10):
            R = PolyRing.make(p, ["x", "y", "z"][: rng.randint(2, 3)])
            monomial = rng.random() < 0.3, rng.random() < 0.3

            def draw(mono, deg=2):
                return _random_poly(rng, R, max_terms=1 if mono else 3, max_deg=deg)

            J = Ideal(R, [draw(monomial[1]) for _ in range(rng.randint(2, 3))])
            if len(J.generators) < 2:
                continue
            # multiples of some generators of J, so that the colon is often neither I nor S
            multiples = [draw(monomial[0], 1) * f for f in rng.sample(J.generators, rng.randint(1, len(J.generators)))]
            I = Ideal(R, multiples + [draw(monomial[0])])
            Q = _colon_elimination(I, J)
            assert ideal_equals(Q, colon_by_quotients(I, J)), (I, J)
            installed = Q._gb
            assert installed == buchberger(Q.generators), (I, J)
            assert Q.generators == installed.elements
            kinds.add((I.is_monomial(), J.is_monomial()))
            proper += Q.is_proper() and not ideal_equals(Q, I)
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}
    assert proper >= 15


def test_chained_colon_intersects_once_per_generator(monkeypatch):
    # the twisted cubic's (J^[3] : J): one intersection per generator of J
    R = PolyRing.make(3, ["x", "y", "z", "w"])
    J = Ideal(R, [R.parse(g) for g in ["x*z - y^2", "x*w - y*z", "y*w - z^2"]])
    calls = []

    def counted(I, K):
        calls.append(K)
        return intersection(I, K)

    monkeypatch.setattr("fsig.ideals.intersection", counted)
    _colon_elimination(bracket_power(J, 1), J)
    assert len(calls) == len(J.generators) == 3
