import random
from fractions import Fraction

import pytest

from fsig.groebner import Ideal
from fsig.ideals import ideal_equals
from fsig.poly import PolyRing, Polynomial
from fsig.systems import (
    FGradedSystem,
    PairSystem,
    ProductSystem,
    QuotientSystem,
    make_system,
    power_exponent,
    verify_graded,
)


def ring3(p=3):
    return PolyRing.make(p, ["x", "y", "z"])


def test_make_system_constructors():
    R = ring3()
    sys_q = make_system(("quotient", [R.parse("x^2 - y^2*z")]), R)
    assert isinstance(sys_q, QuotientSystem)
    R2 = PolyRing.make(3, ["x", "y"])
    sys_p = make_system(("pair", [R2.parse("x^3"), R2.parse("y^2")], Fraction(2, 5)), R2)
    assert isinstance(sys_p, PairSystem)
    assert sys_p.t == Fraction(2, 5)
    sys_prod = make_system(
        ("product", [("pair", [R2.parse("x")], Fraction(1, 2)), ("pair", [R2.parse("y")], Fraction(1, 2))]),
        R2,
    )
    assert isinstance(sys_prod, ProductSystem)
    assert len(sys_prod.factors) == 2


def test_constructor_validation():
    R = ring3()
    with pytest.raises(ValueError):
        QuotientSystem(R, Ideal(R, []))
    with pytest.raises(ValueError):
        QuotientSystem(R, Ideal(R, [R.one()]))
    with pytest.raises(ValueError, match="no constant term"):
        QuotientSystem(R, Ideal(R, [R.parse("1 + x")]))
    with pytest.raises(ValueError):
        PairSystem(R, Ideal(R, []), Fraction(1, 2))
    with pytest.raises(ValueError):
        PairSystem(R, Ideal(R, [R.parse("x")]), Fraction(-1, 2))
    with pytest.raises(ValueError):
        ProductSystem(R, [])
    other = PolyRing.make(5, ["x", "y", "z"])
    with pytest.raises(ValueError):
        ProductSystem(R, [PairSystem(other, Ideal(other, [other.parse("x")]), 1)])


def test_power_exponent_exact_ceilings():
    assert power_exponent(Fraction(1, 2), 3, 2) == 4  # ceil(8/2)
    assert power_exponent(Fraction(2, 5), 3, 2) == 4  # ceil(3.2)
    assert power_exponent(Fraction(2, 5), 3, 2, "pe") == 4  # ceil(3.6)
    assert power_exponent(Fraction(1, 2), 3, 2, "pe") == 5  # ceil(4.5)
    assert power_exponent(Fraction(1, 3), 2, 1) == 1
    with pytest.raises(ValueError):
        power_exponent(Fraction(1, 2), 3, 1, "bogus")


def test_b_of_quotient_principal_identity():
    R = ring3()
    h = R.parse("x^2 - y^2*z")
    sys_q = QuotientSystem(R, Ideal(R, [h]))
    for e in (1, 2, 3):
        assert ideal_equals(sys_q.b_of(e), Ideal(R, [h ** (3**e - 1)]))
    # cross-check the principal route against elimination at e = 1
    from fsig.ideals import _colon_elimination, bracket_power

    elim = _colon_elimination(bracket_power(Ideal(R, [h]), 1), Ideal(R, [h]))
    assert ideal_equals(sys_q.b_of(1), elim)


def test_b_of_pair_examples():
    R = ring3()
    sys_z = PairSystem(R, Ideal(R, [R.parse("z")]), Fraction(1, 2))
    assert ideal_equals(sys_z.b_of(2), Ideal(R, [R.parse("z^4")]))
    R2 = PolyRing.make(3, ["x", "y"])
    sys_a = PairSystem(R2, Ideal(R2, [R2.parse("x^3"), R2.parse("y^2")]), Fraction(2, 5))
    from fsig.ideals import ideal_power

    assert ideal_equals(
        sys_a.b_of(2), ideal_power(Ideal(R2, [R2.parse("x^3"), R2.parse("y^2")]), 4)
    )


def test_b_of_cache_transparent():
    R = ring3()
    sys_q = QuotientSystem(R, Ideal(R, [R.parse("x^2 - y^2*z")]))
    first = sys_q.b_of(2)
    assert sys_q.b_of(2) is first
    fresh = QuotientSystem(R, Ideal(R, [R.parse("x^2 - y^2*z")]))
    assert ideal_equals(first, fresh.b_of(2))


def test_verify_graded_on_spec_systems():
    R = ring3()
    ok, ce = verify_graded(QuotientSystem(R, Ideal(R, [R.parse("x^2 - y^2*z")])), 2)
    assert ok and ce is None
    R2 = PolyRing.make(3, ["x", "y"])
    ok, ce = verify_graded(
        PairSystem(R2, Ideal(R2, [R2.parse("x^3"), R2.parse("y^2")]), Fraction(2, 5)), 2
    )
    assert ok and ce is None


def test_verify_graded_adversarial_counterexample():
    R = PolyRing.make(2, ["x", "y"])

    class Broken(FGradedSystem):
        def _compute(self, e):
            return Ideal(self.ring, [self.ring.parse("x" if e == 1 else "x^4")])

        def describe(self):
            return "broken"

    ok, ce = verify_graded(Broken(R), 2)
    assert not ok
    e, l, witness = ce
    assert (e, l) == (1, 1)
    assert witness == R.parse("x^3")


def _random_principal_or_monomial(rng, ring):
    if rng.random() < 0.5:
        terms = {}
        for _ in range(rng.randint(1, 2)):
            mono = tuple(rng.randint(0, 2) for _ in range(ring.nvars))
            terms[mono] = rng.randint(1, ring.p - 1)
        f = Polynomial(ring, terms)
        return Ideal(ring, [f if not f.is_zero() else ring.parse("x")])
    gens = []
    for _ in range(rng.randint(1, 2)):
        mono = tuple(rng.randint(0, 2) for _ in range(ring.nvars))
        gens.append(ring.monomial(mono))
    return Ideal(ring, gens)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_verify_graded_randomized_constructors(p):
    rng = random.Random(900 + p)
    names = ["x", "y", "z"]
    for _ in range(8):
        nvars = rng.randint(1, 3)
        R = PolyRing.make(p, names[:nvars])
        t = Fraction(rng.randint(0, 8), rng.randint(1, 8))
        kind = rng.choice(["pair", "product", "quotient"])
        if kind == "pair":
            sys_obj = PairSystem(R, _random_principal_or_monomial(rng, R), t)
        elif kind == "product":
            sys_obj = ProductSystem(
                R,
                [
                    PairSystem(R, _random_principal_or_monomial(rng, R), t),
                    PairSystem(R, _random_principal_or_monomial(rng, R), Fraction(1, 2)),
                ],
            )
        else:
            f = _random_principal_or_monomial(rng, R)
            gens = [g for g in f.generators if not g.is_constant()]
            if not gens:
                gens = [R.parse(names[0])]
            sys_obj = QuotientSystem(R, Ideal(R, gens[:1]))
        ok, ce = verify_graded(sys_obj, 3)
        assert ok, f"axiom failed for {sys_obj.describe()}: {ce}"


def test_pair_exponent_subadditivity():
    # ceil(t(p^{e+l}-1)) <= p^l*ceil(t(p^e-1)) + ceil(t(p^l-1)): the power-family axiom
    rng = random.Random(11)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        t = Fraction(rng.randint(0, 24), rng.randint(1, 12))
        e = rng.randint(1, 3)
        l = rng.randint(1, 3)
        lhs = power_exponent(t, p, e + l)
        rhs = p**l * power_exponent(t, p, e) + power_exponent(t, p, l)
        assert lhs <= rhs


def test_describe_is_canonical():
    R = ring3()
    a = QuotientSystem(R, Ideal(R, [R.parse("x^2 - y^2*z")]))
    b = QuotientSystem(R, Ideal(R, [R.parse("x^2 - y^2*z")]))
    assert a.describe() == b.describe()
    assert "quotient" in a.describe()
