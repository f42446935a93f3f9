import random
from functools import cmp_to_key

import pytest

from fsig.poly import (
    DEGREVLEX,
    LEX,
    PolyParseError,
    PolyRing,
    Polynomial,
    PrimeField,
    RingMismatchError,
    TermOrder,
    frobenius_power,
    poly_arith,
)

from _oracles import block_cmp, degrevlex_cmp, lex_cmp, repeated_product


def ring3():
    return PolyRing.make(3, ["x", "y", "z"])


def test_prime_field_rejects_composites():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)
    assert PrimeField(2).p == 2
    assert PrimeField(7919).inv(3) * 3 % 7919 == 1


def test_prime_field_term_order_and_ring_are_value_records():
    assert PrimeField(5) == PrimeField(5) and hash(PrimeField(5)) == hash(PrimeField(5))
    assert PrimeField(5) != PrimeField(7)
    assert repr(PrimeField(5)) == "PrimeField(p=5)"
    assert TermOrder() == DEGREVLEX and hash(TermOrder()) == hash(DEGREVLEX)
    assert TermOrder("lex") == LEX and LEX != DEGREVLEX
    assert repr(LEX) == "TermOrder(kind='lex', block_size=0, inner=None)"
    R, S = PolyRing.make(3, ["x", "y"]), PolyRing.make(3, ("x", "y"), TermOrder("degrevlex"))
    assert R is not S and R == S and hash(R) == hash(S)
    assert R != PolyRing.make(3, ["x", "y"], LEX) and R != PolyRing.make(5, ["x", "y"])
    assert repr(R) == (
        "PolyRing(field=PrimeField(p=3), variables=('x', 'y'), "
        "order=TermOrder(kind='degrevlex', block_size=0, inner=None))"
    )
    # extended() builds a fresh block order each call; equal rings key one dict slot
    E1, E2 = R.extended(), S.extended()
    assert E1 is not E2 and E1.order is not E2.order
    assert E1 == E2 and hash(E1) == hash(E2) and E1 != R
    assert repr(E1.order) == (
        "TermOrder(kind='block', block_size=1, inner=TermOrder(kind='degrevlex', block_size=0, inner=None))"
    )
    table = {R: "R", E1: "E"}
    assert table[S] == "R" and table[E2] == "E" and len({R, S, E1, E2}) == 2
    assert R.parse("x*y") == S.parse("x*y") and E1.parse("t*x") + E2.parse("y") == E2.parse("t*x + y")
    assert R != (3, ("x", "y"), DEGREVLEX)


def test_term_order_key_takes_no_part_in_equality():
    a, b = TermOrder("block", 2, LEX), TermOrder("block", 2, LEX)
    assert a.key is not b.key and a == b and hash(a) == hash(b)
    assert "key" not in repr(a)


def test_records_are_frozen_and_validate_in_init():
    R = PolyRing.make(3, ["x"])
    for record, name in ((PrimeField(3), "p"), (DEGREVLEX, "key"), (R, "order")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(ValueError, match="unknown term order 'revlex'"):
        TermOrder("revlex")
    with pytest.raises(ValueError, match="block order needs"):
        TermOrder("block", 0, DEGREVLEX)
    with pytest.raises(ValueError, match="block order needs"):
        TermOrder("block", 1)
    with pytest.raises(ValueError, match="modulus 4 is not prime"):
        PrimeField(4)


def test_parse_basic_reduction():
    R = ring3()
    f = R.parse("x^2 - y^2*z")
    assert f.terms == {(2, 0, 0): 1, (0, 2, 1): 2}


def test_parse_coefficient_vanishes():
    R = ring3()
    assert R.parse("3*x + y") == R.parse("y")


def test_parse_product_normalization():
    R = ring3()
    assert R.parse("x*x*x") == R.parse("x^3")
    assert R.parse("2x y^3") == R.parse("2*x*y^3")
    assert R.parse("- y + x") == R.parse("x - y")


def test_parse_errors_carry_position():
    R = ring3()
    with pytest.raises(PolyParseError) as err:
        R.parse("x + w")
    assert err.value.position == 4
    with pytest.raises(PolyParseError):
        R.parse("x + + y")
    with pytest.raises(PolyParseError):
        R.parse("")


def test_arith_examples():
    R5 = PolyRing.make(5, ["x", "y"])
    f = R5.parse("x + y")
    g = R5.parse("x - y")
    assert poly_arith(f, g, "mul") == R5.parse("x^2 + 4*y^2")
    assert poly_arith(f, R5.zero(), "add") == f
    R2 = PolyRing.make(2, ["x", "y"])
    s = R2.parse("x + y")
    assert s * s == R2.parse("x^2 + y^2")


def test_ring_mismatch_raises():
    R = ring3()
    other = PolyRing.make(5, ["x", "y", "z"])
    with pytest.raises(RingMismatchError):
        poly_arith(R.parse("x"), other.parse("x"), "add")


def test_frobenius_examples():
    R = ring3()
    assert frobenius_power(R.parse("x + y"), 1) == R.parse("x^3 + y^3")
    R2 = PolyRing.make(2, ["x", "y"])
    assert frobenius_power(R2.parse("x*y^2"), 2) == R2.parse("x^4*y^8")


def test_frobenius_of_square_matches_repeated_multiplication():
    R = ring3()
    f = R.parse("x + y") ** 2
    oracle = repeated_product(f.terms, 3, 3)
    assert frobenius_power(f, 1).terms == oracle
    assert frobenius_power(f, 1) == R.parse("x^6 + 2*x^3*y^3 + y^6")


def _random_poly(rng, ring, max_terms=4, max_deg=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in range(ring.nvars))
        terms[mono] = rng.randint(1, ring.p - 1) if ring.p > 2 else 1
    return Polynomial(ring, terms)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_frobenius_additivity(p):
    rng = random.Random(20240 + p)
    R = PolyRing.make(p, ["x", "y"])
    for _ in range(40):
        f = _random_poly(rng, R)
        g = _random_poly(rng, R)
        e = rng.randint(1, 2)
        assert frobenius_power(f + g, e) == frobenius_power(f, e) + frobenius_power(g, e)


@pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (3, 3)])
def test_frobenius_equals_repeated_multiplication(p, e):
    rng = random.Random(77 + p * 10 + e)
    R = PolyRing.make(p, ["x", "y"])
    q = p**e
    assert q <= 27
    for _ in range(10):
        f = _random_poly(rng, R, max_terms=4, max_deg=2)
        assert frobenius_power(f, e).terms == repeated_product(f.terms, q, p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ring_axioms_randomized(p):
    rng = random.Random(5150 + p)
    R = PolyRing.make(p, ["x", "y", "z"])
    for _ in range(40):
        f = _random_poly(rng, R)
        g = _random_poly(rng, R)
        h = _random_poly(rng, R)
        assert f + g == g + f
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


@pytest.mark.parametrize("p", [2, 3, 5])
def test_parse_print_roundtrip(p):
    rng = random.Random(99 + p)
    R = PolyRing.make(p, ["x", "y", "z"])
    for _ in range(60):
        f = _random_poly(rng, R)
        assert R.parse(str(f)) == f
    assert str(R.zero()) == "0"
    assert R.parse(str(R.one())) == R.one()


def test_canonical_printing_order():
    R = ring3()
    assert str(R.parse("x^2 - y^2*z")) == "2*y^2*z + x^2"
    assert str(R.parse("1 + x")) == "x + 1"


def test_term_orders_disagree_where_expected():
    # x^2*z vs x*y^2: same degree; degrevlex and lex rank them oppositely
    a = (2, 0, 1)
    b = (1, 2, 0)
    assert DEGREVLEX.greater(b, a)
    assert LEX.greater(a, b)
    block = TermOrder("block", 1, DEGREVLEX)
    # first coordinate dominates under the elimination block
    assert block.greater((1, 0, 0), (0, 9, 9))


def test_term_order_key_matches_comparator_randomized():
    # flat keys against the comparators of tests/_oracles.py, nested blocks included
    orders = [(DEGREVLEX, degrevlex_cmp), (LEX, lex_cmp)]
    for size in (1, 2):
        for inner, inner_cmp in list(orders[:2]):
            orders.append((TermOrder("block", size, inner), block_cmp(size, inner_cmp)))
    orders.append(
        (TermOrder("block", 1, TermOrder("block", 2, DEGREVLEX)), block_cmp(1, block_cmp(2, degrevlex_cmp)))
    )
    rng = random.Random(4242)
    for _ in range(30):
        n = rng.randint(3, 5)
        vecs = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(25)]
        vecs += rng.sample(vecs, 5)  # ties
        for order, cmp in orders:
            assert sorted(vecs, key=order.key) == sorted(vecs, key=cmp_to_key(cmp)), order
            for a in vecs[:10]:
                for b in vecs:
                    ka, kb = order.key(a), order.key(b)
                    assert (ka > kb) - (ka < kb) == cmp(a, b), (order, a, b)


def test_frobenius_rejects_nonpositive_e():
    R = ring3()
    with pytest.raises(ValueError):
        frobenius_power(R.parse("x"), 0)
