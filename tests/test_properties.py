"""Randomized property suites; each runs at least 100 cases at <= 3 variables,
except the product suite, which checks that a_e is multiplicative over
products of systems on disjoint variables on a fixed case list, and the
monomial-volume suites at the end, which run 15-40 ideals in 2-4 variables
(Blickle-Schwede-Tucker: positivity exactly below the F-pure threshold,
monotonicity, symmetry, convexity for a principal ideal, and the lattice
count's sandwich around q^n times the volume).

The corpora stay deliberately small per case (few generators, low degree) so
the whole module runs in well under a minute; seeds are fixed so failures are
reproducible.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from fsig.groebner import Ideal, ideal_membership
from fsig.ideals import bracket_power, ideal_equals
from fsig.newton import clip_and_volume, lattice_count, newton_polyhedron
from fsig.poly import PolyRing, Polynomial
from fsig.signature import splitting_ideal, splitting_number
from fsig.systems import PairSystem, ProductSystem, QuotientSystem, verify_graded

from _oracles import box_multiplication_rank, macaulay_member, repeated_product

NAMES = ["x", "y", "z"]


def _random_poly(rng, ring, max_terms=2, max_deg=2):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in range(ring.nvars))
        terms[mono] = rng.randint(1, ring.p - 1)
    f = Polynomial(ring, terms)
    return f if not f.is_zero() else ring.variable(ring.variables[0])


def _random_small_ideal(rng, ring, monomial_only=False, max_gens=2):
    if monomial_only or rng.random() < 0.5:
        gens = [
            ring.monomial(tuple(rng.randint(0, 2) for _ in range(ring.nvars)))
            for _ in range(rng.randint(1, max_gens))
        ]
        return Ideal(ring, gens)
    return Ideal(ring, [_random_poly(rng, ring)])


def _inside_m(ring, f):
    """f, times the first variable when it has a constant term: a quotient's J lies in m."""
    return f * ring.variable(ring.variables[0]) if (0,) * ring.nvars in f.terms else f


def _random_system(rng, p, max_nvars=3):
    """pair / product / quotient instances kept small enough for level 3."""
    nvars = rng.randint(1, max_nvars)
    ring = PolyRing.make(p, NAMES[:nvars])
    t = Fraction(rng.randint(0, 6), rng.randint(6, 12))
    kind = rng.choice(["pair", "pair", "product", "quotient"])
    if kind == "pair":
        return PairSystem(ring, _random_small_ideal(rng, ring), t)
    if kind == "product":
        return ProductSystem(
            ring,
            [
                PairSystem(ring, _random_small_ideal(rng, ring), t),
                PairSystem(ring, _random_small_ideal(rng, ring), Fraction(rng.randint(0, 3), 4)),
            ],
        )
    if p == 2 and rng.random() < 0.4:
        gens = [_random_poly(rng, ring), _random_poly(rng, ring)]
        J = Ideal(ring, gens)
        if J.is_proper() and not J.is_zero():
            return QuotientSystem(ring, Ideal(ring, [_inside_m(ring, g) for g in gens]))
    return QuotientSystem(ring, Ideal(ring, [_inside_m(ring, _random_poly(rng, ring))]))


def test_fgraded_axiom_holds_on_constructed_systems():
    rng = random.Random(1001)
    checked = 0
    while checked < 102:
        p = rng.choice([2, 3, 5])
        try:
            sys_obj = _random_system(rng, p)
        except ValueError:
            continue
        ok, counterexample = verify_graded(sys_obj, 3)
        assert ok, f"{sys_obj.describe()} over F_{p}: {counterexample}"
        checked += 1


def test_bracket_power_generator_independence():
    rng = random.Random(1002)
    checked = 0
    while checked < 100:
        p = rng.choice([2, 3, 5])
        nvars = rng.randint(1, 3)
        ring = PolyRing.make(p, NAMES[:nvars])
        g1 = _random_poly(rng, ring)
        g2 = _random_poly(rng, ring)
        I = Ideal(ring, [g1, g2])
        if I.is_zero():
            continue
        shift = ring.monomial(tuple(rng.randint(0, 1) for _ in range(nvars)))
        rewritten = Ideal(ring, [g1, g2 + shift * g1, g1.scale(p - 1)])
        assert ideal_equals(I, rewritten)
        e = 1 if p == 5 else rng.randint(1, 2)
        assert ideal_equals(bracket_power(I, e), bracket_power(rewritten, e))
        checked += 1


def test_splitting_ideal_nesting_under_level_one_purity():
    rng = random.Random(1003)
    checked = 0
    while checked < 100:
        p = rng.choice([2, 3, 5])
        try:
            sys_obj = _random_system(rng, p, max_nvars=2 if p == 5 else 3)
        except ValueError:
            continue
        if splitting_number(sys_obj, 1, method="linear") == 0:
            continue
        emax = 2 if p == 5 else 3
        ideals = [splitting_ideal(sys_obj, e) for e in range(1, emax + 1)]
        for bigger, smaller in zip(ideals[1:], ideals):
            for g in bigger.groebner_basis():
                assert ideal_membership(g, smaller), sys_obj.describe()
        checked += 1


def test_dual_method_agreement():
    rng = random.Random(1004)
    checked = 0
    while checked < 100:
        p = rng.choice([2, 3, 5])
        try:
            sys_obj = _random_system(rng, p, max_nvars=2 if p == 5 else 3)
        except ValueError:
            continue
        e = rng.randint(1, 2)
        via_basis = splitting_number(sys_obj, e, method="groebner")
        via_rank = splitting_number(sys_obj, e, method="linear")
        assert via_basis == via_rank, f"{sys_obj.describe()} at e={e}"
        checked += 1


def test_membership_matches_macaulay_oracle():
    rng = random.Random(1005)
    checked = 0
    while checked < 120:
        p = rng.choice([2, 3, 5])
        nvars = rng.randint(1, 3)
        ring = PolyRing.make(p, NAMES[:nvars])
        gens = [_random_poly(rng, ring, max_terms=3, max_deg=3) for _ in range(rng.randint(1, 2))]
        I = Ideal(ring, gens)
        if checked % 2 == 0:
            # constructed member: certificate degree is known by construction
            f = ring.zero()
            for g in gens:
                f = f + g * _random_poly(rng, ring, max_terms=2, max_deg=1)
            if f.is_zero():
                continue
            bound = max(f.total_degree(), 0) + max(g.total_degree() for g in gens) + 1
        else:
            f = _random_poly(rng, ring, max_terms=3, max_deg=4)
            bound = f.total_degree() + max(g.total_degree() for g in gens) + 2
        claim = ideal_membership(f, I)
        oracle = macaulay_member(f.terms, [g.terms for g in gens], nvars, p, bound)
        assert claim == oracle, f"{f} vs {gens} (bound {bound})"
        checked += 1


def test_lattice_count_volume_envelope_on_cusp_ideal():
    P = newton_polyhedron([(3, 0), (0, 2)])
    cases = []
    for p, emax in ((2, 4), (3, 4), (5, 3)):
        for num in range(0, 12):
            for den in (4, 6, 12):
                cases.append((p, emax, Fraction(num, den)))
    assert len(cases) >= 100
    for p, emax, t in cases:
        vol = clip_and_volume(P, t)
        errors = {
            e: abs(Fraction(lattice_count(P, t, p**e), p ** (2 * e)) - vol)
            for e in range(1, emax + 1)
        }
        C = max(errors[1] * p, errors[2] * p**2)
        for e in range(3, emax + 1):
            assert errors[e] <= C / p**e, (p, t, e, errors)


# -- a_e of a product on disjoint variables ------------------------------
#
# On disjoint variables the box is the tensor product of the factors' boxes
# and each generator u*v of the product acts as the Kronecker product of the
# two multiplications, so a_e, the rank of the stacked multiplication map,
# is the product of the factors' ranks.

PRODUCT_CASES = [
    # (p, factor-1 variables, factor 1, factor 2 in x, emax); a factor is
    # ("pair", generators, t) or ("quotient", [f], None); snc pins 4, 25, 196
    pytest.param(3, ("a",), ("pair", ["a"], "1/2"), ("pair", ["x"], "1/2"), 3, id="snc-p3"),
    pytest.param(
        2, ("a", "b"), ("pair", ["a^3 + b^2"], "1/4"), ("pair", ["x + x^2"], "1/3"), 3, id="cusp-p2"
    ),
    pytest.param(
        2, ("a", "b"), ("quotient", ["a + a*b + b^3"], None), ("pair", ["x^2 + x^3"], "1/3"), 3,
        id="quotient-p2",
    ),
    pytest.param(
        3, ("a", "b"), ("quotient", ["b + a^2 + a*b"], None), ("pair", ["x^2"], "1/4"), 2,
        id="quotient-p3",
    ),
    pytest.param(
        3, ("a", "b"), ("pair", ["a*b", "a^2 - b^2"], "1/3"), ("pair", ["x^3"], "1/5"), 2,
        id="two-generators-p3",
    ),
    pytest.param(
        5, ("a", "b"), ("pair", ["a^2 + b^3"], "1/2"), ("pair", ["x + 2*x^2"], "1/3"), 2, id="cusp-p5"
    ),
    pytest.param(5, ("a", "b"), ("pair", ["a", "b^2"], "1/2"), ("pair", ["x"], "1/2"), 2, id="monomial-p5"),
]


def _dict_product(f, g, p):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(u + v for u, v in zip(m1, m2))
            out[m] = (out.get(m, 0) + c1 * c2) % p
    return {m: c for m, c in out.items() if c}


def _factor_level_generators(spec, gens, p, e):
    """Generators of b_e on plain dicts: f^(q-1) for a principal quotient
    (f^q : f), and every product of N = ceil(t*(q-1)) generators for a pair."""
    kind, _, t = spec
    q = p**e
    if kind == "quotient":
        (f,) = gens
        return [repeated_product(f, q - 1, p)]
    one = {(0,) * len(next(iter(gens[0]))): 1}
    out = []
    for combo in itertools.combinations_with_replacement(gens, math.ceil(Fraction(t) * (q - 1))):
        acc = one
        for g in combo:
            acc = _dict_product(acc, g, p)
        out.append(acc)
    return out


@pytest.mark.parametrize("p, names, spec1, spec2, emax", PRODUCT_CASES)
def test_splitting_number_multiplicative_over_disjoint_product(p, names, spec1, spec2, emax):
    ring = PolyRing.make(p, names + ("x",))

    def system(spec):
        kind, polys, t = spec
        I = Ideal(ring, [ring.parse(s) for s in polys])
        return QuotientSystem(ring, I) if kind == "quotient" else PairSystem(ring, I, Fraction(t))

    own = [(spec1, PolyRing.make(p, names)), (spec2, PolyRing.make(p, ["x"]))]
    values, nontrivial = [], 0
    for e in range(1, emax + 1):
        ranks = [
            box_multiplication_rank(
                _factor_level_generators(spec, [R.parse(s).terms for s in spec[1]], p, e),
                R.nvars,
                p,
                p**e,
            )
            for spec, R in own
        ]
        nontrivial += min(ranks) >= 2
        for method in ("groebner", "linear", "both"):
            product = ProductSystem(ring, [system(spec1), system(spec2)])
            got = splitting_number(product, e, method=method)
            assert got == ranks[0] * ranks[1], (spec1, spec2, e, method, ranks)
        values.append(got)
    assert nontrivial >= 1, (spec1, spec2)
    if names == ("a",):
        assert values == [4, 25, 196]


# -- monomial volumes s(t) = vol(t*P cut to [0, 1]^n), n = 2..4 -----------


def _random_monomial_exponents(rng, nvars, max_gens=3, max_exp=3):
    count = rng.randint(1, max_gens)
    gens = []
    while len(gens) < count:
        g = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        if any(g):
            gens.append(g)
    return gens


def _fpt(P):
    """min over facets (a, c) of sum(a)/c, read from the facets alone."""
    return min(Fraction(sum(a), c) for a, c in P.facets)


def _second_differences(values):
    return [a - 2 * b + c for a, b, c in zip(values, values[1:], values[2:])]


def test_volume_positive_exactly_below_fpt():
    rng = random.Random(1006)
    for _ in range(30):
        P = newton_polyhedron(_random_monomial_exponents(rng, rng.randint(2, 4)))
        fpt = _fpt(P)
        for t in (fpt - Fraction(1, 97), fpt, fpt + Fraction(1, 97)):
            assert (clip_and_volume(P, t) > 0) == (t < fpt), (P.generators, t)


def test_volume_nonincreasing_along_sweep():
    rng = random.Random(1007)
    for _ in range(15):
        P = newton_polyhedron(_random_monomial_exponents(rng, rng.randint(2, 4)))
        values = [clip_and_volume(P, Fraction(k, 8)) for k in range(0, 9)]
        assert values[0] == 1
        for a, b in zip(values, values[1:]):
            assert b <= a, P.generators


def test_volume_invariant_under_variable_permutation():
    rng = random.Random(1008)
    for _ in range(20):
        nvars = rng.randint(2, 4)
        exps = _random_monomial_exponents(rng, nvars)
        perm = list(range(nvars))
        rng.shuffle(perm)
        permuted = [tuple(g[i] for i in perm) for g in exps]
        P, Q = newton_polyhedron(exps), newton_polyhedron(permuted)
        for t in (Fraction(1, 5), Fraction(1, 2), Fraction(3, 4)):
            assert clip_and_volume(P, t) == clip_and_volume(Q, t), (exps, perm, t)


def test_volume_convex_for_single_monomial():
    rng = random.Random(1009)
    for _ in range(15):
        P = newton_polyhedron(_random_monomial_exponents(rng, rng.randint(2, 4), max_gens=1))
        values = [clip_and_volume(P, Fraction(k, 12)) for k in range(0, 13)]
        assert all(d >= 0 for d in _second_differences(values)), P.generators
    # not for every monomial ideal: <x^3, y^2> has s(t) = 1 - 3t^2 on [0, 1/3]
    cusp = newton_polyhedron([(3, 0), (0, 2)])
    values = [clip_and_volume(cusp, Fraction(k, 12)) for k in range(0, 3)]
    assert _second_differences(values) == [Fraction(-1, 24)]


def test_lattice_count_sandwiches_the_volume():
    # facet normals are nonnegative, so the clipped region U is an up-set of
    # [0, 1]^n: the unit cell above a lattice point of [0, q-1]^n in q*U lies
    # in q*U, and the top corner of a cell that meets q*U is in q*U, so
    # q^n vol <= count <= q^n vol + (q+1)^n - q^n (the points on the top faces)
    rng = random.Random(1010)
    for _ in range(40):
        nvars = rng.randint(2, 3)
        P = newton_polyhedron(_random_monomial_exponents(rng, nvars))
        for t in (Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), Fraction(1)):
            vol = clip_and_volume(P, t)
            for q in range(1, 10):
                count = lattice_count(P, t, q)
                assert q**nvars * vol <= count <= q**nvars * vol + (q + 1) ** nvars - q**nvars, (P.generators, t, q)
