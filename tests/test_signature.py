import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

import _oracles
from _oracles import BoxWalk, box_blocks, box_multiplication_rank, torus_grading, union_of_boxes_count
from fsig import groebner
from fsig.groebner import Ideal, ideal_membership, quotient_length
from fsig.ideals import Echelon, box_rows, bracket_power, colon, ideal_equals, ideal_sum
from fsig.poly import PolyRing, Polynomial, ResourceLimitError
import fsig.signature as signature
from fsig.signature import (
    InfeasibleError,
    Row,
    SplittingReport,
    _splitting_number_rank,
    compatibility_check,
    is_f_pure,
    maximal_bracket,
    semigroup_data,
    signature_sequence,
    splitting_ideal,
    splitting_number,
    splitting_prime_candidate,
    splitting_ratio,
)
from fsig.systems import FGradedSystem, PairSystem, ProductSystem, QuotientSystem


def whitney(p=3):
    R = PolyRing.make(p, ["x", "y", "z"])
    return R, QuotientSystem(R, Ideal(R, [R.parse("x^2 - y^2*z")]))


def snc_half_half():
    R = PolyRing.make(3, ["x", "y"])
    return R, ProductSystem(
        R,
        [
            PairSystem(R, Ideal(R, [R.parse("x")]), Fraction(1, 2)),
            PairSystem(R, Ideal(R, [R.parse("y")]), Fraction(1, 2)),
        ],
    )


def trivial_system(p, nvars=2):
    R = PolyRing.make(p, ["x", "y", "z"][:nvars])
    return R, PairSystem(R, Ideal(R, [R.parse("x")]), 0)


def test_splitting_ideal_examples():
    R = PolyRing.make(3, ["x", "y", "z"])
    sys_z = PairSystem(R, Ideal(R, [R.parse("z")]), Fraction(1, 2))
    assert ideal_equals(
        splitting_ideal(sys_z, 1),
        Ideal(R, [R.parse("x^3"), R.parse("y^3"), R.parse("z^2")]),
    )
    _, wh = whitney()
    assert ideal_equals(
        splitting_ideal(wh, 1), Ideal(R, [R.parse("x"), R.parse("y"), R.parse("z^2")])
    )
    R1 = PolyRing.make(3, ["x"])
    _, triv = trivial_system(3, 1)
    assert ideal_equals(splitting_ideal(triv, 1), Ideal(R1, [R1.parse("x^3")]))


def test_splitting_ideal_contains_variable_bracket():
    R, wh = whitney()
    for e in (1, 2):
        Ie = splitting_ideal(wh, e)
        for g in maximal_bracket(R, e).generators:
            assert ideal_membership(g, Ie)


def test_splitting_number_examples():
    _, snc = snc_half_half()
    assert splitting_number(snc, 1) == 4
    _, wh = whitney()
    assert splitting_number(wh, 1) == 2
    _, wh2 = whitney(p=2)
    assert splitting_number(wh2, 1) == 0


def test_splitting_number_methods_agree_separately():
    _, wh = whitney()
    assert splitting_number(wh, 2, method="groebner") == 5
    assert splitting_number(wh, 2, method="linear") == 5
    with pytest.raises(ValueError):
        splitting_number(wh, 1, method="bogus")


def test_snc_closed_form_all_levels():
    # the product-of-floors count for t = (1/2, 1/2) at p = 3
    _, snc = snc_half_half()
    for e in (1, 2, 3):
        expected = ((3**e + 1) // 2) ** 2
        assert splitting_number(snc, e) == expected


def test_signature_sequence_snc():
    _, snc = snc_half_half()
    rep = signature_sequence(snc, 3)
    assert [r.a_e for r in rep.rows] == [4, 25, 196]
    assert [r.s_e for r in rep.rows] == [
        Fraction(4, 9),
        Fraction(25, 81),
        Fraction(196, 729),
    ]
    assert rep.d == 2
    assert abs(rep.estimate - Fraction(1, 4)) < Fraction(1, 100)
    assert abs(rep.estimate - Fraction(1, 4)) <= rep.error_envelope
    assert not rep.partial


def test_whitney_estimate_clamped_into_unit_interval():
    # the raw least-squares limit at emax 4 is -5/4374
    _, wh = whitney()
    rep = signature_sequence(wh, 4, method="groebner")
    assert 0 <= rep.estimate <= 1
    assert abs(rep.estimate - Fraction(-5, 4374)) <= rep.error_envelope


def test_signature_sequence_dimension_override():
    _, wh = whitney()
    rep = signature_sequence(wh, 1, d=3)
    assert rep.d == 3
    assert rep.rows[0].s_e == Fraction(2, 27)


def test_twisted_cubic_reaches_e3_at_the_default_caps():
    # the basis cap counts the live minimal basis, so b_3 = (J^[27] : J) builds
    # within DEFAULT_MAX_BASIS; a_e = q^2/3
    R = PolyRing.make(3, ["x", "y", "z", "w"])
    J = Ideal(R, [R.parse("x*z - y^2"), R.parse("x*w - y*z"), R.parse("y*w - z^2")])
    rep = signature_sequence(QuotientSystem(R, J), 3)
    assert [r.a_e for r in rep.rows] == [3, 27, 243]
    assert rep.d == 2 and not rep.partial


def test_signature_sequence_trivial_is_one():
    for p in (2, 3, 5):
        _, triv = trivial_system(p)
        rep = signature_sequence(triv, 2)
        assert all(r.s_e == 1 for r in rep.rows)


def test_signature_sequence_cusp_envelope():
    R = PolyRing.make(3, ["a", "b"])
    cusp = PairSystem(R, Ideal(R, [R.parse("a^3 - b^2")]), Fraction(1, 2))
    rep = signature_sequence(cusp, 3)
    for r in rep.rows:
        assert abs(r.s_e - Fraction(1, 6)) <= Fraction(1, 3 ** (r.e - 1))


def test_is_f_pure_examples():
    _, wh = whitney()
    assert is_f_pure(wh, 3) == (True, 1)
    _, wh2 = whitney(p=2)
    assert is_f_pure(wh2, 3) == (False, None)
    _, triv = trivial_system(3)
    assert is_f_pure(triv, 1) == (True, 1)


def test_is_f_pure_matches_splitting_numbers():
    rng = random.Random(123)
    for _ in range(10):
        p = rng.choice([2, 3])
        R = PolyRing.make(p, ["x", "y"])
        terms = {
            (rng.randint(0, 2), rng.randint(0, 2)): rng.randint(1, p - 1)
            for _ in range(2)
        }
        f = Polynomial(R, terms)
        if f.is_zero() or f.is_constant():
            continue
        if (0, 0) in f.terms:  # a quotient is taken at the origin: J inside m
            f = f * R.variable("x")
        sys_obj = QuotientSystem(R, Ideal(R, [f]))
        pure, witness = is_f_pure(sys_obj, 2)
        numbers = [splitting_number(sys_obj, e) for e in (1, 2)]
        assert pure == any(numbers)
        if pure:
            assert witness == min(e for e, a in zip((1, 2), numbers) if a)


def test_semigroup_data():
    _, snc = snc_half_half()
    rep = signature_sequence(snc, 3)
    gamma, index = semigroup_data(rep)
    assert gamma == (1, 2, 3)
    assert index == 1
    _, wh2 = whitney(p=2)
    rep2 = signature_sequence(wh2, 3)
    gamma2, index2 = semigroup_data(rep2)
    assert gamma2 == ()
    assert index2 is None


def test_prime_candidate_whitney():
    R, wh = whitney()
    C, diag = splitting_prime_candidate(wh, 2)
    assert C is not None
    assert ideal_equals(C, Ideal(R, [R.parse("x"), R.parse("y")]))
    # transient generator z^5 of I_2 is dropped by the degree cut
    assert "z^5" in " ".join(diag["dropped"])


def test_prime_candidate_pair_t_one():
    R = PolyRing.make(3, ["x"])
    sys_obj = PairSystem(R, Ideal(R, [R.parse("x")]), 1)
    C, _ = splitting_prime_candidate(sys_obj, 2)
    assert C is not None
    assert ideal_equals(C, Ideal(R, [R.parse("x")]))


def test_prime_candidate_trivial_is_zero_ideal():
    _, triv = trivial_system(3)
    C, diag = splitting_prime_candidate(triv, 2)
    assert C is not None
    assert C.is_zero()


def test_prime_candidate_absent_when_not_pure():
    _, wh2 = whitney(p=2)
    C, diag = splitting_prime_candidate(wh2, 3)
    assert C is None
    assert "not F-pure" in diag["reason"]


def test_compatibility_examples():
    R, wh = whitney()
    ok, _ = compatibility_check(wh, Ideal(R, [R.parse("x"), R.parse("y")]), 1)
    assert ok
    ok_max, _ = compatibility_check(
        wh, Ideal(R, [R.parse("x"), R.parse("y"), R.parse("z")]), 1
    )
    assert not ok_max
    # the defining ideal itself is always compatible for colon families
    ok_j, transcript = compatibility_check(wh, Ideal(R, [R.parse("x^2 - y^2*z")]), 3)
    assert ok_j and len(transcript) == 3


def test_compatibility_zero_ideal_note():
    _, triv = trivial_system(3)
    R = triv.ring
    ok, notes = compatibility_check(triv, Ideal(R, []), 2)
    assert ok
    assert "vacuous" in notes[0]


def test_splitting_ratio_whitney():
    R, wh = whitney()
    rep = splitting_ratio(wh, 3)
    assert rep.ratio_dimension == 1
    assert [r for _, r in rep.ratio_rows] == [
        Fraction(2, 3),
        Fraction(5, 9),
        Fraction(14, 27),
    ]
    assert rep.ratio_estimate == Fraction(1, 2)
    assert ideal_equals(rep.prime_candidate, Ideal(R, [R.parse("x"), R.parse("y")]))


def test_splitting_ratio_pair_t_one_dimension_zero():
    R = PolyRing.make(3, ["x"])
    sys_obj = PairSystem(R, Ideal(R, [R.parse("x")]), 1)
    rep = splitting_ratio(sys_obj, 2)
    assert rep.ratio_dimension == 0
    assert all(r == 1 for _, r in rep.ratio_rows)


def test_splitting_ratio_trivial_equals_signature():
    _, triv = trivial_system(3)
    rep = splitting_ratio(triv, 2)
    assert rep.ratio_dimension == 2
    assert all(r == 1 for _, r in rep.ratio_rows)
    assert rep.prime_candidate.is_zero()


def test_splitting_ratio_infeasible_without_purity():
    _, wh2 = whitney(p=2)
    with pytest.raises(InfeasibleError):
        splitting_ratio(wh2, 3)


def test_nesting_when_level_one_splits():
    R, wh = whitney()
    ideals = [splitting_ideal(wh, e) for e in (1, 2, 3)]
    for big, small in zip(ideals[1:], ideals):
        for g in big.groebner_basis():
            assert ideal_membership(g, small)


def test_whitney_level_formula_verified_range():
    _, wh = whitney()
    for e in (1, 2, 3):
        assert splitting_number(wh, e) == (3**e + 1) // 2


def test_renaming_invariance():
    _, wh = whitney()
    Rp = PolyRing.make(3, ["z", "x", "y"])
    wh_renamed = QuotientSystem(Rp, Ideal(Rp, [Rp.parse("x^2 - y^2*z")]))
    for e in (1, 2):
        assert splitting_number(wh, e) == splitting_number(wh_renamed, e)


def test_report_bounds_invariants():
    _, snc = snc_half_half()
    rep = signature_sequence(snc, 3)
    n = len(rep.variables)
    for r in rep.rows:
        assert 0 <= r.s_e <= 1
        assert r.a_e <= rep.p ** (r.e * n)


def test_rows_and_reports_are_records():
    assert Row(2, 41, Fraction(41, 81)) == Row(2, 41, Fraction(41, 81))
    assert hash(Row(2, 41, Fraction(41, 81))) == hash(Row(2, 41, Fraction(41, 81)))
    assert Row(2, 41, Fraction(41, 81)) != Row(2, 40, Fraction(40, 81))
    assert repr(Row(1, 5, Fraction(5, 9))) == "Row(e=1, a_e=5, s_e=Fraction(5, 9))"
    with pytest.raises(AttributeError):
        Row(1, 5, Fraction(5, 9)).a_e = 4
    _, snc = snc_half_half()
    rep, again = signature_sequence(snc, 2), signature_sequence(snc, 2)
    assert rep == again and rep != signature_sequence(snc, 1)
    with pytest.raises(TypeError):
        hash(rep)
    assert repr(rep).startswith("SplittingReport(p=3, variables=('x', 'y'), system=")
    assert repr(rep).endswith(", partial=False, notes=())")
    rep.partial = True  # a report stays mutable: the CLI sets its prime candidate
    assert rep != again


def test_report_rejects_out_of_range_rows():
    fields = dict(p=3, variables=("x",), system="s", d=1, estimate=None, error_envelope=None,
                  gamma=(1,), index=1, f_pure=True, witness=1)
    with pytest.raises(signature.InternalInvariantError, match="outside"):
        SplittingReport(rows=(Row(1, 4, Fraction(4, 3)),), **fields)
    with pytest.raises(signature.InternalInvariantError, match="exceeds the free rank"):
        SplittingReport(rows=(Row(1, 4, Fraction(1, 3)),), **fields)
    with pytest.raises(signature.InternalInvariantError, match="not closed under addition"):
        SplittingReport(rows=(), **dict(fields, gamma=(1, 3)))
    assert SplittingReport(rows=(Row(1, 3, Fraction(1)),), **fields).rows[0].a_e == 3


def test_regular_quotient_candidate_is_the_defining_ideal():
    R = PolyRing.make(3, ["x", "y"])
    sys_obj = QuotientSystem(R, Ideal(R, [R.parse("x")]))
    C, _ = splitting_prime_candidate(sys_obj, 2)
    assert ideal_equals(C, Ideal(R, [R.parse("x")]))
    rep = signature_sequence(sys_obj, 2)
    assert rep.rows[-1].s_e > 0
    assert all(r.s_e == 1 for r in rep.rows)


def test_non_regular_decay_envelope():
    # candidate strictly above the defining ideal forces a_e/p^{ed} <= C/p^e
    _, wh = whitney()
    rep = signature_sequence(wh, 3)
    C = rep.rows[0].s_e * 3
    for r in rep.rows[1:]:
        assert r.s_e <= C / 3**r.e


def test_sequence_partial_on_cap(monkeypatch):
    from fsig import signature as sig
    from fsig.groebner import ResourceLimitError

    _, wh = whitney()
    calls = {"n": 0}
    original = sig.splitting_number

    def capped(sys_obj, e, method="both"):
        if e >= 2:
            raise ResourceLimitError("synthetic cap")
        return original(sys_obj, e, method)

    monkeypatch.setattr(sig, "splitting_number", capped)
    rep = sig.signature_sequence(wh, 3, on_cap="partial")
    assert rep.partial
    assert len(rep.rows) == 1
    with pytest.raises(ResourceLimitError):
        sig.signature_sequence(wh, 3, on_cap="raise")


def test_sequence_partial_on_memory_error(monkeypatch):
    # a level that runs out of memory ends the sequence like a resource cap
    from fsig import signature as sig

    _, wh = whitney()
    original = sig.splitting_number

    def starved(sys_obj, e, method="both"):
        if e >= 2:
            raise MemoryError
        return original(sys_obj, e, method)

    monkeypatch.setattr(sig, "splitting_number", starved)
    rep = sig.signature_sequence(wh, 3, on_cap="partial")
    assert rep.partial
    assert [r.e for r in rep.rows] == [1]
    assert rep.notes == ("out of memory at e=2; largest completed e=1",)
    with pytest.raises(MemoryError):
        sig.signature_sequence(wh, 3, on_cap="raise")


def _pair(R, text, t):
    return PairSystem(R, Ideal(R, [R.parse(text)]), Fraction(t))


def _cone(p):
    R = PolyRing.make(p, ["x", "y", "z"])
    return QuotientSystem(R, Ideal(R, [R.parse("x*y - z^2")]))


def _cusp(p, t=Fraction(1, 2)):
    return _pair(PolyRing.make(p, ["a", "b"]), "a^3 - b^2", t)


def _snc(p):
    R = PolyRing.make(p, ["x", "y"])
    return ProductSystem(R, [_pair(R, "x", Fraction(1, 2)), _pair(R, "y", Fraction(1, 2))])


def _twisted_cubic(p=3):
    R = PolyRing.make(p, ["x", "y", "z", "w"])
    return QuotientSystem(R, Ideal(R, [R.parse(g) for g in ("x*z - y^2", "x*w - y*z", "y*w - z^2")]))


def _ungraded_pair():
    R = PolyRing.make(3, ["x", "y"])
    return PairSystem(R, Ideal(R, [R.parse("x^2 - y"), R.parse("y^2 - x*y")]), Fraction(1, 2))


# Pins and provenance as in perfbench/cases.py: cone a_e = q^2/2 and snc
# a_e = ((q + 1)/2)^2 are closed forms; the cusp values have no closed form
# and were matched by an independent dense rank over weighted-degree blocks.
@pytest.mark.parametrize(
    "system, expected",
    [
        (lambda: _cone(2), tuple((2**e) ** 2 // 2 for e in range(1, 6))),
        (lambda: _cusp(3), (3, 18, 135, 1134)),
        (lambda: _cusp(5), (7, 117)),
        (lambda: _snc(5), (9, 169, 3969)),
    ],
    ids=["cone-p2", "cusp-p3", "cusp-p5", "snc-p5"],
)
def test_rank_route_pins(system, expected):
    sys_ = system()
    got = tuple(splitting_number(sys_, e, method="linear") for e in range(1, len(expected) + 1))
    assert got == expected


# -- Frobenius descent on the rank route ----------------------------------


@pytest.mark.parametrize("t", [Fraction(1, 2), Fraction(1, 5)], ids=["t1/2", "t1/5"])
@pytest.mark.parametrize("p", [3, 5])
def test_descent_certificate_truth_table_on_cusp_pairs(p, t):
    # b_e = (f^N(e)) with N(e) = ceil(t*(p^e - 1)): b_{e+1} lies in
    # b_e^[p] = (f^(p*N(e))) exactly when N(e+1) >= p*N(e)
    sys_ = _cusp(p, t)
    walk = BoxWalk(sys_)
    N = [sys_.exponent(e) for e in range(1, 5)]
    got = [walk.descends(e + 1) for e in range(1, 4)]
    assert got == [N[e] >= p * N[e - 1] for e in range(1, 4)]
    if (p, t) == (3, Fraction(1, 5)):
        assert N[:3] == [1, 2, 6] and got[:2] == [False, True]
    assert not walk.descends(1)  # level 1 has no parent level


def test_descent_without_its_certificate_gives_a_wrong_count(monkeypatch):
    # cusp t = 1/5, p = 3: N = 1, 2, so b_2 is not inside b_1^[3] and the
    # lifts of D_1 do not span S/I_2; skipping the check must show
    with monkeypatch.context() as m:
        m.setattr(BoxWalk, "descends", lambda walk, e: e > 1)
        assert len(BoxWalk(_cusp(3, Fraction(1, 5))).cells(2)) == 27
    assert len(BoxWalk(_cusp(3, Fraction(1, 5))).cells(2)) == 45
    assert splitting_number(_cusp(3, Fraction(1, 5)), 2, method="linear") == 45


@pytest.mark.parametrize(
    "system, uncertified",
    [
        (lambda: _cusp(3), ()),
        (lambda: _cusp(3, Fraction(1, 5)), (1,)),
        (lambda: _cusp(5), ()),
        (lambda: _cusp(5, Fraction(1, 5)), ()),
        (lambda: _cone(3), ()),
        (_twisted_cubic, ()),
        (_ungraded_pair, (1, 2, 3)),
    ],
    ids=["cusp-p3-t1/2", "cusp-p3-t1/5", "cusp-p5-t1/2", "cusp-p5-t1/5", "cone-p3", "twisted-cubic-p3", "ungraded-pair"],
)
def test_descent_certificate_gives_the_frobenius_facts(system, uncertified):
    # where b_{e+1} lies in b_e^[p], I_e^[p] lies in I_{e+1} (basis route),
    # and S/I_{e+1} is spanned by the p^n lifts x^(p*d + r) of a basis of S/I_e
    sys_ = system()
    walk = BoxWalk(sys_)
    p, n = sys_.ring.p, sys_.ring.nvars
    ideals = {e: splitting_ideal(sys_, e) for e in (1, 2, 3)}
    a = {e: splitting_number(sys_, e, method="groebner") for e in (1, 2, 3)}
    for e in (1, 2):
        contained = all(ideal_membership(g, ideals[e + 1]) for g in bracket_power(ideals[e], 1).generators)
        if walk.descends(e + 1):
            assert e not in uncertified
            assert contained, e
            assert a[e + 1] <= p**n * a[e], e
        else:
            assert e in uncertified
    assert not any(walk.descends(e + 1) for e in uncertified)
    if uncertified == (1,):
        # cusp t = 1/5, p = 3 at e = 1: N = 1, 2, the containment fails, and
        # the 27 lifts of a basis of S/I_1 cannot span S/I_2, of length 45
        assert not all(ideal_membership(g, ideals[2]) for g in bracket_power(ideals[1], 1).generators)
        assert (p**n * a[1], a[2]) == (27, 45)


def _check_blocked_level(walk, e, parents, expected):
    """Level e of the walk, just computed from the parent cells of level
    e - 1 (None for the whole box): |D_e| = a_e; D_e is the pivot set of one
    echelon over the same lifts in cell order; W is orthogonal to every term
    difference within a generator of b_e; the per-block ranks of the whole
    box sum to the dense rank.  Returns whether the in-box terms have a
    grading and how many blocks have a pivot."""
    R = walk.sys.ring
    n, p, q = R.nvars, R.p, R.p**e
    got = walk.pivot_cells[e]
    assert len(got) == expected
    gens = [g.terms for g in walk.sys.b_of(e).generators]
    row = box_rows([q] * n, gens)
    cells = list(itertools.product(range(q), repeat=n))
    if parents is not None:
        pcells = list(itertools.product(range(q // p), repeat=n))
        lifted = {tuple(p * u + v for u, v in zip(pcells[d], r))
                  for d in parents for r in itertools.product(range(p), repeat=n)}
        cells = sorted(lifted)
    ech, pivots = Echelon(p), []
    for g in cells:
        if ech.insert(row(g)):
            pivots.append(sum(u * q ** (n - 1 - i) for i, u in enumerate(g)))
    assert list(got) == pivots
    W = torus_grading([list(f) for f in gens], n)
    assert all(sum(a * (u - v) for a, u, v in zip(w, m, next(iter(f)))) == 0 for w in W for f in gens for m in f)
    ranks = []
    for block in box_blocks([q] * n, gens, range((q // p) ** n), p):
        ech = Echelon(p)
        ranks.append(sum(ech.insert(vec) for _, vec in block))
    assert sum(ranks) == expected
    inbox = [[m for m in f if max(m) < q] for f in gens]
    return torus_grading(inbox, n) != [], sum(1 for r in ranks if r)


def test_descended_rank_matches_dense_rank_randomized(monkeypatch):
    # random principal quotients (f^q : f) = (f^(q-1)) and pairs (f)^N(e):
    # the rank route, and the box walk descending wherever the certificate
    # holds, against a dense rank over every cell of the box, and each
    # level's blocks, one block per degree
    monkeypatch.setattr(_oracles, "BLOCK_LIFTS", 1)
    rng = random.Random(7272)
    shapes = [(2, 2, 3), (2, 3, 3), (3, 2, 3), (3, 3, 2), (5, 2, 2)]  # (p, n, emax)
    walks = [0, 0]  # levels above 1 lifting D_0 = {0} by q (the whole box), and by p
    graded = [0, 0]  # levels with no grading (one block) and with one
    for _ in range(20):
        p, n, emax = rng.choice(shapes)
        R = PolyRing.make(p, ["x", "y", "z"][:n])
        f = Polynomial(R, {
            tuple(rng.randint(0, 2) for _ in range(n)): rng.randint(1, p - 1)
            for _ in range(rng.randint(2, 3))
        })
        if len(f.terms) < 2 or f.is_constant():
            continue
        if rng.random() < 0.5:
            sys_ = QuotientSystem(R, Ideal(R, [f]))
        else:
            sys_ = PairSystem(R, Ideal(R, [f]), Fraction(1, rng.randint(1, 6)))
        walk = BoxWalk(sys_)
        for e in range(1, emax + 1):
            gens = [g.terms for g in sys_.b_of(e).generators]
            expected = box_multiplication_rank(gens, n, p, p**e)
            parents = list(walk.cells(e - 1)) if e > 1 and walk.descends(e) else None
            assert splitting_number(sys_, e, method="linear") == expected, (sys_, e)
            assert len(walk.cells(e)) == expected, (sys_, e)
            if len(gens) > 1 or len(gens[0]) > 1:
                has_grading, nonempty = _check_blocked_level(walk, e, parents, expected)
                graded[has_grading] += 1
                assert has_grading or nonempty <= 1, (sys_, e)
            if e > 1:
                walks[walk.descends(e)] += 1
    assert min(walks) >= 3, walks  # both the descent and, with no certificate, the whole box
    assert graded[1] >= 3, graded


def _homogeneous(rng, R, w, degree):
    """A random polynomial of 2-4 terms of one w-degree (None if fewer than 2 exist)."""
    pool = [m for m in itertools.product(range(degree + 1), repeat=R.nvars)
            if sum(a * u for a, u in zip(w, m)) == degree]
    if len(pool) < 2:
        return None
    return Polynomial(R, {m: rng.randint(1, R.p - 1) for m in rng.sample(pool, min(len(pool), rng.randint(2, 4)))})


def test_blocked_rank_matches_dense_rank_on_graded_systems_randomized(monkeypatch):
    # W-homogeneous principal quotients, pairs of one or two generators, and
    # products of pairs, in 2-3 variables over p in {2, 3, 5}, every kind and
    # every shape in 12 draws: every level's blocked rank against the
    # dense rank, with the block checks above; in every other draw one term
    # of another degree may leave b_e with no grading (one block); one block
    # per degree
    monkeypatch.setattr(_oracles, "BLOCK_LIFTS", 1)
    rng = random.Random(7373)
    shapes = [(2, 2, 4), (2, 3, 2), (3, 2, 2), (3, 3, 2), (5, 2, 2)]  # (p, n, emax)
    kinds = ["quotient", "pair", "pair2", "product"]
    graded, several = [0, 0], 0
    for draw in range(12):
        (p, n, emax), kind = shapes[draw % 5], kinds[draw % 4]
        R = PolyRing.make(p, ["x", "y", "z"][:n])
        polys = None
        while polys is None or None in polys:
            w = [rng.randint(1, 3) for _ in range(n)]
            polys = [_homogeneous(rng, R, w, rng.randint(2, 4)) for _ in range(2)]
        if draw % 2:
            polys[0] = polys[0] + R.monomial(tuple(rng.randint(0, 2) for _ in range(n)))
        t = Fraction(1, rng.randint(1, 4))
        if kind == "quotient":
            sys_ = QuotientSystem(R, Ideal(R, polys[:1]))
        elif kind == "pair":
            sys_ = PairSystem(R, Ideal(R, polys[:1]), t)
        elif kind == "pair2":
            sys_ = PairSystem(R, Ideal(R, polys), t)
        else:
            sys_ = ProductSystem(R, [PairSystem(R, Ideal(R, [g]), t) for g in polys])
        walk = BoxWalk(sys_)
        for e in range(1, emax + 1):
            gens = [g.terms for g in sys_.b_of(e).generators]
            expected = box_multiplication_rank(gens, n, p, p**e)
            parents = list(walk.cells(e - 1)) if e > 1 and walk.descends(e) else None
            assert splitting_number(sys_, e, method="linear") == expected, (sys_, e)
            assert len(walk.cells(e)) == expected, (sys_, e)
            if len(gens) > 1 or len(gens[0]) > 1:
                has_grading, nonempty = _check_blocked_level(walk, e, parents, expected)
                assert has_grading or nonempty <= 1, (sys_, e)
                assert has_grading or draw % 2, (sys_, e)
                graded[has_grading] += 1
                several += nonempty > 1
    assert min(graded) >= 3 and several >= 10, (graded, several)


def test_descent_certificate_on_non_principal_b_e_randomized(monkeypatch):
    # non-principal quotients (2-3 binomials or trinomials), two-generator
    # pairs and products with one, over p in {2, 3, 5}: the certificate
    # against membership in b_{e-1}^[p] by a Buchberger run on the bracket
    # power itself, and each certified level against the dense rank, with
    # D_e the pivot set of one echelon over the lifts of D_{e-1}.  A quotient's
    # generators are homogeneous: a random ungraded J can take minutes to
    # build b_3 (Buchberger's caps bound pairs, not work)
    monkeypatch.setattr(_oracles, "BLOCK_LIFTS", 1)
    rng = random.Random(2525)
    shapes = [(2, 2, 3), (2, 3, 3), (3, 2, 3), (3, 3, 2), (5, 2, 2)]  # (p, n, emax)
    kinds = ["quotient", "pair2", "product"]
    certified = [0, 0]  # non-principal levels without and with the certificate
    for draw in range(10):
        (p, n, emax), kind = shapes[draw % 5], kinds[draw % 3]
        R = PolyRing.make(p, ["x", "y", "z"][:n])
        polys = []
        for _ in range(3):
            degree = rng.randint(2, 3)
            pool = [m for m in itertools.product(range(4), repeat=n)
                    if (sum(m) == degree if kind == "quotient" else 0 < max(m) < 3)]
            polys.append(Polynomial(R, {m: rng.randint(1, p - 1) for m in rng.sample(pool, rng.randint(2, 3))}))
        t = Fraction(1, rng.randint(2, 4))
        if kind == "quotient":
            sys_ = QuotientSystem(R, Ideal(R, polys[: rng.randint(2, 3)]))
        elif kind == "pair2":
            sys_ = PairSystem(R, Ideal(R, polys[:2]), t)
        else:
            sys_ = ProductSystem(R, [PairSystem(R, Ideal(R, polys[:2]), t), PairSystem(R, Ideal(R, polys[2:]), t)])
        walk = BoxWalk(sys_)
        for e in range(2, emax + 1):
            now, before = sys_.b_of(e), sys_.b_of(e - 1)
            got = walk.descends(e)
            assert got == all(ideal_membership(g, bracket_power(before, 1)) for g in now.generators), (sys_, e)
            if got and not now.is_monomial():  # a monomial b_e was counted on its staircase
                parents = list(walk.cells(e - 1))
                gens = [g.terms for g in now.generators]
                expected = box_multiplication_rank(gens, n, p, p**e)
                assert splitting_number(sys_, e, method="linear") == expected, (sys_, e)
                walk.cells(e)
                _check_blocked_level(walk, e, parents, expected)
            if len(now.generators) > 1 or len(before.generators) > 1:
                certified[got] += 1
    assert min(certified) >= 3, certified


def test_descent_certificate_under_a_buchberger_cap(monkeypatch):
    # b_1 = <x^2 + y*z, y^2 + x*z, z^2 + x*y>, b_2 = b_1^[3]: certified, until a
    # cap trips while b_1's basis is built; the level then walks the whole box,
    # and the rank route's own Buchberger run trips it too
    R = PolyRing.make(3, ["x", "y", "z"])
    b1 = Ideal(R, [R.parse("x^2 + y*z"), R.parse("y^2 + x*z"), R.parse("z^2 + x*y")])

    class Bracketed(_FixedSystem):
        def _compute(self, e):
            return self.ideal if e == 1 else bracket_power(self.ideal, e - 1)

    assert BoxWalk(Bracketed(R, b1)).descends(2)
    sys_ = Bracketed(R, Ideal(R, b1.generators))
    walk = BoxWalk(sys_)
    monkeypatch.setattr(groebner.buchberger, "__defaults__", (1, groebner.DEFAULT_MAX_BASIS))
    with pytest.raises(ResourceLimitError):
        sys_.b_of(1).groebner_basis()
    assert not walk.descends(2)
    gens = [g.terms for g in sys_.b_of(2).generators]
    assert len(walk.cells(2)) == box_multiplication_rank(gens, 3, 3, 9)
    with pytest.raises(ResourceLimitError):
        splitting_number(sys_, 2, method="linear")


def test_rank_route_memory_canary():
    # levels 1..5 of the cusp pair at p = 3 (a_5 = 9963) stay under 2 MiB of
    # traced allocations (the box walk held 0.65 MiB in one torus block's
    # echelon at a time, and 6.7 MiB in one echelon over the whole walk)
    sys_ = _cusp(3)
    tracemalloc.start()
    try:
        assert splitting_number(sys_, 5, method="linear") == 9963
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


@pytest.mark.parametrize(
    "system, e",
    [
        (lambda: _cusp(3, Fraction(1, 5)), 3),
        (lambda: _cone(3), 3),
        (lambda: _cusp(5), 2),
    ],
    ids=["cusp-t1/5-p3", "cone-p3", "cusp-p5"],
)
def test_rank_route_at_one_level_matches_the_sequence(system, e):
    # a direct call needs no level below it; the box walk recurses through
    # them on its own, and keeps only the newest level's pivot cells
    sys_ = system()
    a_e = signature_sequence(system(), e).rows[-1].a_e
    assert splitting_number(sys_, e, method="linear") == a_e
    walk = BoxWalk(system())
    assert len(walk.cells(e)) == a_e
    assert list(walk.pivot_cells) == [e]


def test_descent_frontier_canary():
    # cone p = 3: a_e = (q^2 + 1)/2, by the rank route and by the box walk.
    # Level 5 walks 88,587 lifted cells against the 1.26M rows of its whole
    # reach.
    cone, walk = _cone(3), BoxWalk(_cone(3))
    expected = [(3 ** (2 * e) + 1) // 2 for e in range(1, 6)]
    assert [splitting_number(cone, e, method="linear") for e in range(1, 6)] == expected
    assert [len(walk.cells(e)) for e in range(1, 6)] == expected
    # cusp t = 1/5, p = 3: the certificate fails at levels 2 and 4
    linear, basis = _cusp(3, Fraction(1, 5)), _cusp(3, Fraction(1, 5))
    walk = BoxWalk(_cusp(3, Fraction(1, 5)))
    got = [splitting_number(linear, e, method="linear") for e in range(1, 5)]
    assert got == [3, 45, 405, 3969]
    assert got == [splitting_number(basis, e, method="groebner") for e in range(1, 5)]
    assert got == [len(walk.cells(e)) for e in range(1, 5)]
    assert [walk.descends(e) for e in range(2, 5)] == [False, True, False]


def test_rank_route_counts_with_pure_powers_first():
    # in the ring's order the cone's dual basis at p = 3 roughly triples per
    # level and trips the basis cap at e = 6 (732 elements); with z, the
    # variable of the pure power z^4 in b_1, first it has 5 elements at every
    # level.  The ungraded pair's y (the term y of x^2 - y) goes before x.
    cone = _cone(3)
    R, into = signature._counting_ring(cone)
    assert R.variables == ("z", "x", "y")
    assert into(cone.ring.parse("x*y^2 - z")).terms == {(0, 1, 2): 1, (1, 0, 0): 2}
    assert splitting_number(cone, 6, method="linear") == (3**12 + 1) // 2
    assert signature._counting_ring(_ungraded_pair())[0].variables == ("y", "x")


class _FixedSystem(FGradedSystem):
    """b_e = one fixed ideal at every level, to drive the rank route on chosen generators."""

    def __init__(self, ring, ideal):
        super().__init__(ring)
        self.ideal = ideal

    def _compute(self, e):
        return self.ideal

    def describe(self):
        return "fixed"


@pytest.mark.parametrize("method", ["groebner", "linear", "both"])
def test_snc_at_level_twelve_is_counted_not_enumerated(method):
    # q^2 = 5^24 cells: only a staircase count reaches this level
    q = 5**12
    assert splitting_number(_snc(5), 12, method=method) == ((q + 1) // 2) ** 2


def test_monomial_rank_route_counts_union_of_boxes_randomized():
    # all-monomial b_e: the rank route counts q^n - length(S/(m^[q] + b_e)),
    # which must equal the union of the boxes prod [0, q - m_j) and the rank
    # of the full box's rows
    rng = random.Random(6161)
    levels = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]
    for _ in range(80):
        n = rng.randint(1, 3)
        p, e = rng.choice(levels)
        q = p**e
        R = PolyRing.make(p, ["x", "y", "z"][:n])
        # exponents up to one past the box, so some generators lie outside it
        exps = [tuple(rng.randint(0, q + 1) for _ in range(n)) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.5:  # a non-minimal generator: a multiple of another
            m = rng.choice(exps)
            exps.append(tuple(u + rng.randint(0, 2) for u in m))
        if rng.random() < 0.5:  # a duplicate generator
            exps.append(rng.choice(exps))
        gens = [R.monomial(m, rng.randint(1, p - 1)) for m in exps]
        got = _splitting_number_rank(_FixedSystem(R, Ideal(R, gens)), e)
        assert got == union_of_boxes_count([tuple(q - u for u in m) for m in exps]), (p, e, exps)
        row = box_rows([q] * n, [g.terms for g in gens])
        ech = Echelon(p)
        for g in itertools.product(range(q), repeat=n):
            ech.insert(row(g))
        assert got == ech.rank, (p, e, exps)


def test_colon_length_is_dual_to_sum_length_randomized():
    # S/m^[q] is Artinian Gorenstein, so Matlis duality gives
    # length(S/(m^[q] : b)) = q^n - length(S/(m^[q] + b)) for every ideal b:
    # on non-monomial b_e (principal quotients, principal and two-generator
    # pairs) the cross-checked a_e must equal the sum's co-length; every
    # shape meets every kind, but a two-generator pair at p = 3 stops at
    # e = 2 (b_3 = a^N with N >= 7 has at least 8 generators)
    rng = random.Random(9494)
    shapes = [(2, 2, 3), (2, 3, 3), (3, 2, 3), (3, 3, 2)]  # (p, n, emax)
    kinds = ["quotient", "pair", "pair2"]
    levels = 0
    for draw in range(12):
        (p, n, emax), kind = shapes[draw % 4], kinds[draw % 3]
        emax = min(emax, 2) if (p, kind) == (3, "pair2") else emax
        R = PolyRing.make(p, ["x", "y", "z"][:n])
        polys = []
        while len(polys) < 2:
            terms = {tuple(rng.randint(0, 2) for _ in range(n)): rng.randint(1, p - 1) for _ in range(3)}
            terms.pop((0,) * n, None)  # J inside m, and b_e = a^N is then non-trivial
            if len(terms) > 1:
                polys.append(Polynomial(R, terms))
        if kind == "quotient":
            sys_ = QuotientSystem(R, Ideal(R, polys[:1]))
        else:
            sys_ = PairSystem(R, Ideal(R, polys[: 1 + (kind == "pair2")]), Fraction(1, rng.randint(2, 4)))
        for e in range(1, emax + 1):
            b = sys_.b_of(e)
            sum_length = quotient_length(ideal_sum(maximal_bracket(R, e), b))
            assert splitting_number(sys_, e, "both") == p ** (e * n) - sum_length, (sys_, e)
            levels += not b.is_monomial()
    assert levels >= 24, levels


# (kind, p, n, emax): every kind at two or three of p in {2, 3, 5}, n <= 4
_HOMOGENEOUS_DRAWS = [
    ("quotient", 2, 3, 3), ("quotient", 3, 3, 2), ("quotient", 2, 4, 2),
    ("pair", 3, 2, 3), ("pair", 5, 2, 2), ("pair", 2, 3, 3),
    ("pair2", 2, 2, 3), ("pair2", 3, 2, 2), ("pair2", 5, 2, 2),
    ("product", 2, 3, 2), ("product", 3, 2, 2), ("product", 2, 2, 3),
]


def _homogeneous_system(rng, kind, p, n):
    """A random system over F_p in n variables from homogeneous binomials and
    trinomials: a "quotient" by 1 to n - 2 of degree 2, a "pair" of one or
    "pair2" of two of degree 2-3, or a "product" of two principal pairs."""
    R = PolyRing.make(p, ["x", "y", "z", "w"][:n])

    def poly(degree):
        pool = [m for m in itertools.product(range(degree + 1), repeat=n) if sum(m) == degree]
        return Polynomial(R, {m: rng.randint(1, p - 1) for m in rng.sample(pool, rng.randint(2, 3))})

    t = Fraction(1, rng.randint(2, 4))
    if kind == "quotient":
        return QuotientSystem(R, Ideal(R, [poly(2) for _ in range(rng.randint(1, n - 2))]))
    polys = [poly(rng.randint(2, 3)) for _ in range(2)]
    if kind == "product":
        return ProductSystem(R, [PairSystem(R, Ideal(R, [g]), t) for g in polys])
    return PairSystem(R, Ideal(R, polys[: 1 + (kind == "pair2")]), t)


class _Renamed(FGradedSystem):
    """A system with its variables reordered by perm: b_e is the base's, exponents permuted."""

    def __init__(self, base, perm):
        super().__init__(PolyRing(base.ring.field, tuple(base.ring.variables[i] for i in perm)))
        self.base, self.perm = base, perm

    def _compute(self, e):
        ring, perm = self.ring, self.perm
        return Ideal(ring, [
            Polynomial(ring, {tuple(m[i] for i in perm): c for m, c in g.terms.items()})
            for g in self.base.b_of(e).generators
        ])

    def describe(self):
        return "renamed"


def test_every_variable_order_gives_the_same_a_e_randomized(monkeypatch):
    # a_e does not depend on the term order: in every order of the variables
    # under degrevlex, the basis route (colon in the ring's order) and the
    # rank route (its count made in the ring itself, not in the order the
    # route would choose) both equal the cross-checked a_e of the ring given
    rng = random.Random(2626)
    levels = 0
    for kind, p, n, emax in _HOMOGENEOUS_DRAWS * 2:
        sys_ = _homogeneous_system(rng, kind, p, n)
        expected = [splitting_number(sys_, e, "both") for e in range(1, emax + 1)]
        with monkeypatch.context() as m:
            m.setattr(signature, "_counting_ring", lambda s: (s.ring, lambda f: f))
            for perm in itertools.permutations(range(n)):
                renamed = _Renamed(sys_, perm)
                for e in range(1, emax + 1):
                    assert splitting_number(renamed, e, "groebner") == expected[e - 1], (sys_, perm, e)
                    assert splitting_number(renamed, e, "linear") == expected[e - 1], (sys_, perm, e)
        levels += sum(1 for a in expected if a)
    assert levels >= 40, levels


def test_double_annihilator_randomized():
    # S/m^[q] is Gorenstein, so every ideal b_e + m^[q] is the annihilator of
    # its annihilator: (m^[q] : (m^[q] : b_e)) = b_e + m^[q]
    rng = random.Random(2727)
    levels = 0
    for kind, p, n, emax in _HOMOGENEOUS_DRAWS * 2:
        sys_ = _homogeneous_system(rng, kind, p, n)
        for e in range(1, emax + 1):
            box, b = maximal_bracket(sys_.ring, e), sys_.b_of(e)
            assert ideal_equals(colon(box, colon(box, b)), ideal_sum(b, box)), (sys_, e)
            levels += not b.is_monomial()
    assert levels >= 40, levels
