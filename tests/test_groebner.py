import math
import random
from functools import cmp_to_key
from operator import le

import pytest

import fsig.groebner as groebner
from fsig.groebner import (
    GroebnerBasis,
    Ideal,
    ResourceLimitError,
    buchberger,
    eliminate,
    ideal_membership,
    krull_dimension,
    normal_form,
    quotient_length,
    staircase_count,
)
from fsig.poly import DEGREVLEX, LEX, PolyRing, Polynomial

from _oracles import (
    block_cmp,
    box_quotient_corank,
    count_standard_monomials,
    degrevlex_cmp,
    lex_cmp,
    macaulay_member,
    plain_groebner,
    s_polynomial,
)

ORDER_CMPS = [
    pytest.param(DEGREVLEX, degrevlex_cmp, id="degrevlex"),
    pytest.param(LEX, lex_cmp, id="lex"),
]


def ring3(p=3):
    return PolyRing.make(p, ["x", "y", "z"])


def test_buchberger_linear_chain_lex():
    R = PolyRing.make(3, ["x", "y", "z"], LEX)
    gens = [R.parse("x - y"), R.parse("y - z")]
    gb = buchberger(gens)
    expected = [R.parse("y - z"), R.parse("x - z")]
    assert sorted(map(str, gb)) == sorted(map(str, expected))
    # both directions of membership between the two generating sets
    I = Ideal(R, gens)
    J = Ideal(R, expected)
    assert all(ideal_membership(g, J) for g in gens)
    assert all(ideal_membership(g, I) for g in expected)


def test_monomial_ideals_are_self_basis():
    R = ring3()
    gb = buchberger([R.parse("x^3"), R.parse("y^2")])
    assert [str(g) for g in gb] == ["y^2", "x^3"]


def test_principal_ideal_basis_is_monic():
    R = ring3()
    gb = buchberger([R.parse("2*x^2 + y")])
    assert list(gb) == [R.parse("x^2 + 2*y")]


def test_normal_form_examples():
    R = PolyRing.make(3, ["x", "y"])
    G = buchberger([R.parse("x^2 - y")])
    assert normal_form(R.parse("x^2"), G) == R.parse("y")
    assert normal_form(R.parse("x^2 - y"), G).is_zero()


def test_normal_form_idempotent_randomized():
    rng = random.Random(31)
    R = PolyRing.make(3, ["x", "y"])
    G = buchberger([R.parse("x^2 + y"), R.parse("y^2 + x")])
    for _ in range(30):
        terms = {
            (rng.randint(0, 4), rng.randint(0, 4)): rng.randint(1, 2) for _ in range(4)
        }
        f = Polynomial(R, terms)
        r = normal_form(f, G)
        assert normal_form(r, G) == r


def test_membership_examples():
    R = ring3()
    assert ideal_membership(R.parse("x^2"), Ideal(R, [R.parse("x")]))
    h = R.parse("x^2 - y^2*z")
    cube = Ideal(R, [R.parse("x^3"), R.parse("y^3"), R.parse("z^3")])
    # the x^2*y^2*z term of h^2 survives reduction mod the cube
    assert not ideal_membership(h * h, cube)
    R2 = PolyRing.make(2, ["x", "y", "z"][0:3])
    h2 = R2.parse("x^2 - y^2*z")
    assert ideal_membership(h2, Ideal(R2, [R2.parse("x^2"), R2.parse("y^2"), R2.parse("z^2")]))


def test_quotient_length_examples():
    R = PolyRing.make(3, ["x", "y"])
    I = Ideal(R, [R.parse("x^2"), R.parse("x*y"), R.parse("y^3")])
    lms = [next(iter(g.terms)) for g in I.generators]
    assert quotient_length(I) == count_standard_monomials(lms, 5) == 4
    q = 7
    box = Ideal(R, [R.parse(f"x^{q}"), R.parse(f"y^{q}")])
    assert quotient_length(box) == q * q
    assert quotient_length(Ideal(R, [R.parse("x")])) == math.inf
    assert quotient_length(Ideal(R, [R.one()])) == 0


def _random_staircase_leads(rng):
    """n = 1-4, a pure power of every variable (sides 0-12, smaller for n = 4), extra leads up to two past the box."""
    n = rng.randint(1, 4)
    top = 12 if n < 4 else 6
    box = [rng.choice([0, 1, rng.randint(0, top), rng.randint(0, top)]) for _ in range(n)]
    leads = [tuple(b if j == i else 0 for j in range(n)) for i, b in enumerate(box)]
    for _ in range(rng.randint(0, 6)):
        leads.append(tuple(rng.randint(0, b + 2) for b in box))
    if rng.random() < 0.3:  # a non-minimal lead and a duplicate
        leads.append(tuple(u + rng.randint(0, 2) for u in rng.choice(leads)))
        leads.append(rng.choice(leads))
    rng.shuffle(leads)
    return n, box, leads


def test_staircase_count_leads_match_brute_force_randomized():
    rng = random.Random(8080)
    for _ in range(400):
        n, box, leads = _random_staircase_leads(rng)
        expected = count_standard_monomials(leads, max(box) + 1)
        assert staircase_count(leads) == expected, leads
        if n <= 3:  # the same count through a reduced basis
            R = PolyRing.make(5, ["x", "y", "z"][:n])
            assert quotient_length(Ideal(R, [R.monomial(m) for m in leads])) == expected, leads


def test_quotient_length_of_a_huge_box_does_not_enumerate():
    R = PolyRing.make(3, ["x", "y", "z"])
    a, b, c = 10**6, 10**6 + 3, 999_983
    I = Ideal(R, [R.parse(f"x^{a}"), R.parse(f"y^{b}"), R.parse(f"z^{c}")])
    assert quotient_length(I) == a * b * c
    J = Ideal(R, [R.parse(f"x^{a}"), R.parse(f"y^{b}"), R.parse(f"z^{c}"), R.parse("x*y*z")])
    # the cells of the box minus those with every exponent positive
    assert quotient_length(J) == a * b * c - (a - 1) * (b - 1) * (c - 1)


def test_krull_dimension_examples():
    R2 = PolyRing.make(3, ["x", "y"])
    assert krull_dimension(Ideal(R2, [R2.parse("x*y")])) == 1
    R = ring3()
    assert krull_dimension(Ideal(R, [R.parse("x^2 - y^2*z")])) == 2
    assert krull_dimension(Ideal(R, [])) == 3
    with pytest.raises(ValueError):
        krull_dimension(Ideal(R, [R.one()]))


def test_resource_cap_is_distinct_error():
    R = ring3()
    with pytest.raises(ResourceLimitError):
        buchberger([R.parse("x^2 + y*z"), R.parse("y^2 + x*z"), R.parse("z^2 + x*y")], max_pairs=1)


@pytest.mark.parametrize("caps, pairs_done, basis_size", [
    ({"max_basis": 5}, 4, 6),
    ({"max_pairs": 7}, 8, 6),
])
def test_resource_cap_trips_at_pinned_pair(caps, pairs_done, basis_size):
    # the pair order (smallest lcm, then smallest indices) decides where a cap trips
    R = ring3()
    gens = [R.parse("x^2 + y*z"), R.parse("y^2 + x*z"), R.parse("z^2 + x*y")]
    with pytest.raises(ResourceLimitError) as err:
        buchberger(gens, **caps)
    assert (err.value.pairs_done, err.value.basis_size) == (pairs_done, basis_size)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_buchberger_matches_plain_oracle_randomized(p, monkeypatch):
    # the reduced basis is the textbook one (every pair, no criterion), and the
    # live reducers stay a minimal basis: no lead among them divides another
    reducer_sets = []
    real_reduce = groebner._reduce

    def watched(f, lead):
        leads = [lm for lm, _ in lead]
        reducer_sets.append(leads)
        assert not any(i != j and all(map(le, a, b)) for i, a in enumerate(leads) for j, b in enumerate(leads)), leads
        return real_reduce(f, lead)

    monkeypatch.setattr(groebner, "_reduce", watched)
    rng = random.Random(1600 + p)
    for trial in range(40):
        nvars = rng.randint(1, 4)
        R = PolyRing.make(p, ["x", "y", "z", "w"][:nvars])
        cmp = degrevlex_cmp
        if trial % 2 and nvars > 1:  # the extended ring's block order, t in front
            R = PolyRing.make(p, ["x", "y", "z"][: nvars - 1]).extended()
            cmp = block_cmp(1, degrevlex_cmp)
        gens = [_random_poly(rng, R, 3, 3 if nvars < 4 else 2) for _ in range(rng.randint(1, 3))]
        gb = buchberger(gens)
        assert {frozenset(g.terms.items()) for g in gb} == plain_groebner([g.terms for g in gens], p, cmp), gens
    assert sum(len(leads) > 1 for leads in reducer_sets) >= 40


def test_groebner_basis_rejects_non_monic_element():
    R = ring3()
    with pytest.raises(ValueError):
        GroebnerBasis(R, [R.parse("2*x + y")])
    assert len(GroebnerBasis(R, [R.parse("x + 2*y")])) == 1


def _random_poly(rng, ring, max_terms, max_deg):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in range(ring.nvars))
        terms[mono] = rng.randint(1, ring.p - 1)
    return Polynomial(ring, terms)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("inner", [DEGREVLEX, LEX], ids=["degrevlex", "lex"])
def test_eliminate_is_the_t_free_part_of_buchberger_randomized(p, inner):
    # reducing only the minimal elements with t-free leads gives the t-free
    # part of the full reduced basis, projected; over R[t] and over R[t0][t]
    rng = random.Random(2100 + p)
    kept = dropped = 0
    for _ in range(20):
        R = PolyRing.make(p, ["x", "y"][: rng.randint(1, 2)], inner)
        for base in (R, R.extended()):
            gens = [_random_poly(rng, base.extended(), 3, 2) for _ in range(rng.randint(1, 3))]
            gb = buchberger(gens)
            want = [Polynomial(base, {m[1:]: c for m, c in g.terms.items()}) for g in gb if not any(m[0] for m in g.terms)]
            assert eliminate(base, gens) == GroebnerBasis(base, want), gens
            kept += bool(want)
            dropped += len(want) < len(gb)
    assert kept >= 16 and dropped >= 16


@pytest.mark.parametrize("p", [2, 3, 5])
def test_all_s_polynomials_reduce_to_zero(p):
    rng = random.Random(400 + p)
    for _ in range(12):
        nvars = rng.randint(1, 3)
        R = PolyRing.make(p, ["x", "y", "z"][:nvars])
        gens = [_random_poly(rng, R, 3, 3) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens)
        lms = gb.leading_monomials()
        for g, lm in zip(gb, lms):
            assert g.terms[lm] == 1  # monic
            others = [o for o in lms if o != lm]
            assert not any(all(map(le, o, m)) for o in others for m in g.terms)
        for i in range(len(gb.elements)):
            for j in range(i + 1, len(gb.elements)):
                s = s_polynomial(gb.elements[i], gb.elements[j])
                assert normal_form(s, gb).is_zero()


def test_quotient_length_matches_box_corank():
    rng = random.Random(41)
    for _ in range(15):
        p = rng.choice([2, 3])
        q = p ** rng.randint(1, 2)
        nvars = rng.randint(1, 2)
        R = PolyRing.make(p, ["x", "y"][:nvars])
        gens = [_random_poly(rng, R, 3, 3) for _ in range(rng.randint(0, 2))]
        box = [R.monomial(tuple(q if j == i else 0 for j in range(nvars))) for i in range(nvars)]
        I = Ideal(R, gens + box)
        oracle = box_quotient_corank([g.terms for g in I.generators], nvars, p, q)
        assert quotient_length(I) == oracle


def test_membership_against_macaulay_oracle():
    rng = random.Random(42)
    for _ in range(20):
        p = rng.choice([2, 3, 5])
        nvars = rng.randint(1, 3)
        R = PolyRing.make(p, ["x", "y", "z"][:nvars])
        gens = [_random_poly(rng, R, 3, 2) for _ in range(rng.randint(1, 2))]
        I = Ideal(R, gens)
        f = _random_poly(rng, R, 3, 3)
        claim = ideal_membership(f, I)
        bound = f.total_degree() + max(g.total_degree() for g in gens) + 2
        oracle = macaulay_member(f.terms, [g.terms for g in gens], nvars, p, bound)
        assert claim == oracle


def test_dimension_monotone_under_more_generators():
    rng = random.Random(43)
    for _ in range(20):
        p = rng.choice([2, 3, 5])
        nvars = rng.randint(1, 3)
        R = PolyRing.make(p, ["x", "y", "z"][:nvars])
        gens = [_random_poly(rng, R, 2, 2) for _ in range(3)]
        dims = []
        for k in range(1, 4):
            I = Ideal(R, gens[:k])
            if not I.is_proper():
                break
            dims.append(krull_dimension(I))
        for a, b in zip(dims, dims[1:]):
            assert b <= a


def _ascending(leads, cmp):
    return all(cmp(a, b) < 0 for a, b in zip(leads, leads[1:]))


@pytest.mark.parametrize("order, cmp", ORDER_CMPS)
def test_groebner_basis_is_cached_and_sorted_by_lead(order, cmp):
    R = PolyRing.make(3, ["x", "y", "z"], order)
    I = Ideal(R, [R.parse("x^2 + y*z"), R.parse("y^2 + x*z"), R.parse("z^2 + x*y")])
    gb = I.groebner_basis()
    assert I.groebner_basis() is gb
    assert len(gb) >= 4
    leads = gb.leading_monomials()
    assert leads == tuple(max(g.terms, key=cmp_to_key(cmp)) for g in gb)
    assert _ascending(leads, cmp)
    # an ideal built from a basis carries it, and only a basis of its own ring
    assert Ideal(R, gb).groebner_basis() is gb
    other = PolyRing.make(3, ["x", "y", "z"], LEX if order == DEGREVLEX else DEGREVLEX)
    with pytest.raises(ValueError):
        Ideal(R, GroebnerBasis(other, [other.parse("x")]))
    with pytest.raises(ValueError):
        Ideal(R, GroebnerBasis(other, []))


@pytest.mark.parametrize("order, cmp", ORDER_CMPS)
def test_groebner_basis_sorts_shuffled_elements_randomized(order, cmp):
    rng = random.Random(4040 if order == DEGREVLEX else 4141)
    multi = 0
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        R = PolyRing.make(p, ["x", "y", "z"][: rng.randint(2, 3)], order)
        gb = buchberger([_random_poly(rng, R, 3, 3) for _ in range(rng.randint(2, 3))])
        assert _ascending(gb.leading_monomials(), cmp)
        shuffled = list(gb.elements)
        rng.shuffle(shuffled)
        again = GroebnerBasis(R, shuffled)
        assert again == gb
        assert again.elements == gb.elements
        multi += len(gb) >= 3
    assert multi >= 10
