"""Splitting ideals and numbers, signature sequences, purity, primes, ratios.

Level counts a_e are computed by two routes that must agree: the basis route
(length of the quotient by the splitting ideal, via standard monomials) and
the rank route (rank over F_p of the stacked multiplication-by-generators map
on the box basis below p^e).  The rank route is the performance path; the
basis route is the semantic reference.  Both read the rows of the one
builder _linalg.box_rows and eliminate with _linalg.Echelon.  The colon
walks cells in term order, tags each row(g) with a label column and reads
each reduced-basis element off the labels of a dependent row; the rank
route counts the pivots of its blocks.  It descends level by level, on one
walk: the cells whose rows became pivots at level e - 1 are a monomial
basis D_{e-1} of S/I_{e-1}, and when b_e lies in b_{e-1}^[p] (certified by
normal forms, for any b_e and b_{e-1}) the rows of their lifts
p*d + r, r in [0, p)^n, span the whole row space of level e, so it
eliminates only those.  Every other level lifts every cell of the box of
level e - 1 by p, the whole box: b_0 = S and I_0 = m, so b_e lies in
b_0^[q] = S always, and S is free over S^q on the x^r, r in [0, q)^n.
When every generator of b_e is homogeneous for a torus grading W, the
matrix is block diagonal in W*g (see _linalg), so the walk eliminates one
block at a time, in cell order, in an Echelon of its own that is dropped
once passed: the pivots held are one block's, not the rank's, and D_e is
the pivot set of one echelon over the same cells in cell order.  When
every generator of b_e is a monomial, no two cells share a column, so the
rank is the number of cells g with some g + m_j in the box, and
g -> q - 1 - g maps them onto the box's multiples of some m_j: a_e is
q^n - length(S/(m^[q] + b_e)), the Matlis duality of the Gorenstein ring
S/m^[q] read off a monomial b_e.  quotient_length counts that length on
the one staircase (groebner.staircase_count) and builds no row.  So
method="both" checks the walks and the read-outs (reduced basis from label
columns and staircase count of the colon (m^[q] : b_e) vs pivot count or
staircase count of the sum m^[q] + b_e), but not the shared row builder or
the shared echelon.  Those are checked in tests only, against the
brute-force oracles of tests/_oracles.py (box rows, dense elimination,
Macaulay membership, brute-force standard-monomial and union-of-boxes
counts).  Each system memoizes its I_e, which the basis route and the
prime candidate both read, and the rank route's newest D_e, which the
basis route never reads.
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import _linalg
from .groebner import GroebnerBasis, Ideal, krull_dimension, normal_form, quotient_length
from .ideals import bracket_power, colon, ideal_sum, tangent_cone
from .poly import (
    FrozenRecord,
    InfeasibleError,
    InternalInvariantError,
    PolyRing,
    Record,
    ResourceLimitError,
)
from .systems import FGradedSystem, QuotientSystem


class MethodDisagreement(InternalInvariantError):
    """The two splitting-number algorithms returned different values."""


def maximal_bracket(ring: PolyRing, e: int) -> Ideal:
    """The ideal of p^e-th powers of all variables."""
    q = ring.p**e
    gens = []
    for i in range(ring.nvars):
        exps = [0] * ring.nvars
        exps[i] = q
        gens.append(ring.monomial(tuple(exps)))
    return Ideal(ring, gens)


def splitting_ideal(sys: FGradedSystem, e: int) -> Ideal:
    """I_e = (<x_i^{p^e}> : b_e); always contains the bracket of the variables."""
    if e < 1:
        raise ValueError("splitting_ideal needs e >= 1")
    return colon(maximal_bracket(sys.ring, e), sys.b_of(e))


def _memo_splitting_ideal(sys: FGradedSystem, e: int) -> Ideal:
    """splitting_ideal(sys, e), built once per system and level."""
    got = sys.splitting_ideals.get(e)
    if got is None:
        got = sys.splitting_ideals[e] = splitting_ideal(sys, e)
    return got


def _splitting_number_basis(sys: FGradedSystem, e: int) -> int:
    length = quotient_length(_memo_splitting_ideal(sys, e))
    if length == math.inf:
        raise InternalInvariantError("splitting ideal is not zero-dimensional")
    return int(length)


def _splitting_number_rank(sys: FGradedSystem, e: int) -> int:
    """Rank over F_p of g -> (g*f_j mod <x_i^q>) on the box basis of exponents < q."""
    ring = sys.ring
    b = sys.b_of(e)
    if b.is_monomial():
        # no two cells share a column, so the rank counts the cells g with some
        # g + m_j in the box; g -> q - 1 - g maps them onto the box's multiples
        # of some m_j, the cells outside the staircase of m^[q] + b_e
        return ring.p ** (e * ring.nvars) - quotient_length(ideal_sum(maximal_bracket(ring, e), b))
    return len(_pivot_cells(sys, e))


def _descends(sys: FGradedSystem, e: int) -> bool:
    """Whether b_e lies in b_{e-1}^[p]: each generator of b_e has normal form 0 modulo it.

    Then I_{e-1}^[p] lies in I_e: g*b_{e-1} in m^[q/p] gives g^p*b_e in
    m^[q].  The p-th powers of b_{e-1}'s reduced basis are a reduced basis
    of b_{e-1}^[p] (S(g^p, h^p) = S(g, h)^p), so no Buchberger run is made on
    it.  A resource cap on b_{e-1}'s basis leaves the level uncertified.
    Level 1 never descends: its box is already the lift of D_0 = {0} by p.
    """
    if e < 2:
        return False
    before = sys.b_of(e - 1)
    try:
        basis = before.groebner_basis()
    except ResourceLimitError:
        return False
    bracket = GroebnerBasis(sys.ring, [g.frobenius(1) for g in basis])
    return all(normal_form(g, bracket).is_zero() for g in sys.b_of(e).generators)


def _pivot_cells(sys: FGradedSystem, e: int) -> array:
    """D_e, the cells whose rows became pivots on the rank route at level e, memoized.

    Rows are independent exactly when their monomials are independent modulo
    I_e, so D_e is a monomial basis of S/I_e and a_e = |D_e|.  When
    _descends(sys, e), b_e principal or not, S/I_e is spanned by the lifts
    p*d + r, r in [0, p)^n, of D_{e-1} (S is free over S^p on the x^r), and
    level e eliminates only their rows; otherwise it lifts every cell of the
    box [0, q/p)^n by p, which is the whole box (b_e lies in b_0^[q] = S),
    one torus block at a time.  The cells are indices of the box [0, q)^n,
    re-sorted into cell order, 4 bytes each while they fit.  Only level
    e + 1 reads D_e, so the memo drops D_{e-1} once D_e is built.
    """
    got = sys.pivot_cells.get(e)
    if got is None:
        ring, p = sys.ring, sys.ring.p
        q = p**e
        parents = _pivot_cells(sys, e - 1) if _descends(sys, e) else range((q // p) ** ring.nvars)
        polys = [f.terms for f in sys.b_of(e).generators]
        _, blocks = _linalg.box_rows([q] * ring.nvars, polys)
        got = array("I" if q**ring.nvars <= 2**32 else "Q")
        for block in blocks(parents, p):
            ech = _linalg.Echelon(p)
            for cell, vec in block:
                if ech.insert(vec):
                    got.append(cell)
        got = array(got.typecode, sorted(got))
        sys.pivot_cells.pop(e - 1, None)
        sys.pivot_cells[e] = got
    return got


def splitting_number(sys: FGradedSystem, e: int, method: str = "both") -> int:
    """a_e by the requested route; "both" cross-checks and fails hard on mismatch."""
    if method == "groebner":
        return _splitting_number_basis(sys, e)
    if method == "linear":
        return _splitting_number_rank(sys, e)
    if method == "both":
        via_basis = _splitting_number_basis(sys, e)
        via_rank = _splitting_number_rank(sys, e)
        if via_basis != via_rank:
            raise MethodDisagreement(
                f"a_{e}: basis route gave {via_basis}, rank route gave {via_rank}"
            )
        return via_basis
    raise ValueError(f"unknown method {method!r}")


# -- reports ------------------------------------------------------------

class Row(FrozenRecord):
    __slots__ = _fields = ("e", "a_e", "s_e")


class SplittingReport(Record):
    """Per-level table plus convergence and semigroup diagnostics."""

    __slots__ = _fields = (
        "p", "variables", "system", "d", "rows", "estimate", "error_envelope", "gamma", "index",
        "f_pure", "witness", "prime_candidate", "ratio_rows", "ratio_estimate", "ratio_envelope",
        "ratio_dimension", "partial", "notes",
    )
    _defaults = {
        "prime_candidate": None, "ratio_rows": None, "ratio_estimate": None, "ratio_envelope": None,
        "ratio_dimension": None, "partial": False, "notes": (),
    }

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        p, rows, gamma = self.p, self.rows, self.gamma
        n = len(self.variables)
        for row in rows:
            if not (0 <= row.s_e <= 1):
                raise InternalInvariantError(f"s_{row.e} = {row.s_e} outside [0, 1]")
            if row.a_e > p ** (row.e * n):
                raise InternalInvariantError(f"a_{row.e} = {row.a_e} exceeds the free rank")
        got = set(gamma)
        for e1 in gamma:
            for e2 in gamma:
                if e1 + e2 <= max(gamma, default=0) and (e1 + e2) not in got:
                    raise InternalInvariantError(
                        f"observed level set not closed under addition at {e1}+{e2}"
                    )


def _fit_tail(points: Sequence[Tuple[int, Fraction]], p: int) -> Tuple[Optional[Fraction], Optional[Fraction]]:
    """Least-squares fit of s_e = L + c*p^-e over the last (up to) three (e, s_e) points.

    Returns (L clamped into [0, 1], |c|/p^emax + the clamp distance), so the
    interval around the estimate still covers the raw fitted L.  The envelope
    is a fit diagnostic, not a proven bound on the limit.
    """
    if not points:
        return None, None
    tail = points[-3:]
    emax = tail[-1][0]
    if len(tail) == 1:
        return tail[0][1], Fraction(0)
    xs = [Fraction(1, p**e) for e, _ in tail]
    ss = [s for _, s in tail]
    k = len(tail)
    sx = sum(xs)
    sxx = sum(x * x for x in xs)
    sy = sum(ss)
    sxy = sum(x * s for x, s in zip(xs, ss))
    det = k * sxx - sx * sx
    c = (k * sxy - sx * sy) / det
    L = (sy * sxx - sx * sxy) / det
    clamped = min(max(L, Fraction(0)), Fraction(1))
    return clamped, abs(c) / p**emax + abs(L - clamped)


def signature_sequence(
    sys: FGradedSystem,
    emax: int,
    d: Optional[int] = None,
    method: str = "both",
    on_cap: str = "raise",
) -> SplittingReport:
    """Rows (e, a_e, a_e/p^{ed}) for e = 1..emax with a geometric-tail estimate.

    on_cap="partial" turns a resource cap, or a level that runs out of
    memory, into a truncated report marked partial instead of an exception.
    """
    if emax < 1:
        raise ValueError("signature_sequence needs emax >= 1")
    ring = sys.ring
    p = ring.p
    if d is None:
        d = ratio_dimension(sys, Ideal(ring, []))
    rows: List[Row] = []
    partial = False
    notes: List[str] = []
    for e in range(1, emax + 1):
        try:
            a_e = splitting_number(sys, e, method=method)
        except (ResourceLimitError, MemoryError) as err:
            if on_cap != "partial":
                raise
            partial = True
            cause = f"resource cap at e={e}: {err}"
            if isinstance(err, MemoryError):
                cause = f"out of memory at e={e}"
            notes.append(f"{cause}; largest completed e={e - 1}")
            break
        rows.append(Row(e, a_e, Fraction(a_e, p ** (e * d))))
    gamma = tuple(r.e for r in rows if r.a_e)
    index = math.gcd(*gamma) if gamma else None
    estimate, envelope = _fit_tail([(r.e, r.s_e) for r in rows], p)
    return SplittingReport(
        p=p,
        variables=ring.variables,
        system=sys.describe(),
        d=d,
        rows=tuple(rows),
        estimate=estimate,
        error_envelope=envelope,
        gamma=gamma,
        index=index,
        f_pure=bool(gamma),
        witness=min(gamma) if gamma else None,
        partial=partial,
        notes=tuple(notes),
    )


def is_f_pure(sys: FGradedSystem, emax: int) -> Tuple[bool, Optional[int]]:
    """Purity up to emax: a_e != 0 iff b_e escapes the variable bracket.

    b_e escapes m^[q] exactly when some generator has a term with every
    exponent below q, the same test the rank route applies to each term.
    A positive answer is sound with its witness level; a negative answer only
    covers levels up to emax.
    """
    if emax < 1:
        raise ValueError("is_f_pure needs emax >= 1")
    for e in range(1, emax + 1):
        q = sys.ring.p**e
        for g in sys.b_of(e).generators:
            if any(all(u < q for u in m) for m in g.terms):
                return True, e
    return False, None


def semigroup_data(report: SplittingReport) -> Tuple[Tuple[int, ...], Optional[int]]:
    """Observed levels with a_e != 0 and their gcd; empty set has no index."""
    if not report.rows:
        raise ValueError("semigroup_data needs at least one row")
    return report.gamma, report.index


def compatibility_check(
    sys: FGradedSystem, C: Ideal, emax: int
) -> Tuple[bool, List[str]]:
    """Verify b_e inside (C^[p^e] : C) for all 1 <= e <= emax.

    The zero ideal is accepted with a note: it corresponds to the full
    quotient domain and there is nothing to check.
    """
    if C.is_zero():
        return True, ["zero ideal: compatibility holds vacuously (full quotient)"]
    if not C.is_proper():
        raise ValueError("compatibility_check needs a proper (or zero) ideal")
    transcript: List[str] = []
    for e in range(1, emax + 1):
        K = colon(bracket_power(C, e), C)
        gb = K.groebner_basis()
        for g in sys.b_of(e).generators:
            if not normal_form(g, gb).is_zero():
                transcript.append(f"e={e}: generator {g} escapes (C^[p^{e}] : C)")
                return False, transcript
        transcript.append(f"e={e}: b_e inside (C^[p^{e}] : C)")
    return True, transcript


def splitting_prime_candidate(
    sys: FGradedSystem,
    emax: int,
    threshold_deg: Optional[int] = None,
) -> Tuple[Optional[Ideal], Dict[str, object]]:
    """Low-degree generators of I_emax, kept only if rigorously compatible.

    Persistent generators of the descending chain I_e stay at bounded degree
    while transient ones grow like p^e, so the cut defaults to degree
    p^emax / 2.  Maximality and primality are not certified; absence is a
    value, with diagnostics.
    """
    diag: Dict[str, object] = {}
    pure, witness = is_f_pure(sys, emax)
    diag["f_pure"] = pure
    if not pure:
        diag["reason"] = f"not F-pure up to emax={emax}"
        return None, diag
    diag["witness"] = witness
    I_top = _memo_splitting_ideal(sys, emax)
    gb = I_top.groebner_basis()
    p = sys.ring.p
    kept, dropped = [], []
    for g in gb:
        deg = g.total_degree()
        low = (deg < threshold_deg) if threshold_deg is not None else (2 * deg < p**emax)
        (kept if low else dropped).append(g)
    diag["kept"] = [str(g) for g in kept]
    diag["dropped"] = [str(g) for g in dropped]
    C = Ideal(sys.ring, kept)
    if not C.is_proper():
        diag["reason"] = "no proper low-degree candidate at this level"
        return None, diag
    ok, transcript = compatibility_check(sys, C, emax)
    diag["compatibility"] = transcript
    if not ok:
        diag["reason"] = "candidate failed the compatibility check"
        return None, diag
    return C, diag


def ratio_dimension(sys: FGradedSystem, C: Ideal) -> int:
    """The dimension at the origin of S/(C + J) for a quotient system, of S/C otherwise.

    With C = 0 it is the signature's d: dim of S/J at 0 for a quotient, the
    number of variables n for a pair or product family.
    """
    if isinstance(sys, QuotientSystem):
        C = ideal_sum(C, sys.J)
    return krull_dimension(tangent_cone(C))


def splitting_ratio(
    sys: FGradedSystem,
    emax: int,
    method: str = "both",
    threshold_deg: Optional[int] = None,
    on_cap: str = "raise",
) -> SplittingReport:
    """Signature report extended with ratio rows a_e / p^{e d'}.

    Requires a prime candidate; such a candidate with a_e positive forces
    every observed ratio into (0, 1], and a violation aborts the run because
    it certifies the candidate was not the right normalizing locus.
    """
    candidate, diag = splitting_prime_candidate(sys, emax, threshold_deg)
    if candidate is None:
        raise InfeasibleError(f"no splitting prime candidate: {diag.get('reason')}")
    report = signature_sequence(sys, emax, method=method, on_cap=on_cap)
    d_prime = ratio_dimension(sys, candidate)
    p = report.p
    ratio_rows = tuple(
        (row.e, Fraction(row.a_e, p ** (row.e * d_prime))) for row in report.rows
    )
    for e, r_e in ratio_rows:
        if e in report.gamma and not (0 < r_e <= 1):
            raise InfeasibleError(
                f"r_{e} = {r_e} outside (0, 1]; candidate is not the splitting prime"
            )
    ratio_estimate, ratio_envelope = _fit_tail([(e, r) for e, r in ratio_rows if e in report.gamma], p)
    report.prime_candidate = candidate
    report.ratio_rows = ratio_rows
    report.ratio_estimate = ratio_estimate
    report.ratio_envelope = ratio_envelope
    report.ratio_dimension = d_prime
    return report
