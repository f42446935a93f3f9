"""Splitting ideals and numbers, signature sequences, purity, primes, ratios.

Level counts a_e are computed by two routes that must agree.  The basis
route forms the splitting ideal I_e = (m^[q] : b_e), q = p^e, and counts
the standard monomials of S/I_e.  The rank route counts the rank over F_p of
the paper's map g -> g*b_e mod m^[q] without building it: A = S/m^[q] is
artinian and Gorenstein, I_e/m^[q] = (0 :_A b_e), and Matlis duality gives
length(A/(0 :_A b_e)) = length(b_e*A), so a_e = q^n - length(S/(m^[q] +
b_e)) for every b_e, monomial or not.  That length is one Buchberger run
and one staircase count, made in a copy of the ring whose variable order
suits the count (_counting_ring); a_e does not depend on the order, and no
printed basis comes from the copy.  So method="both" checks two independent
constructions, the colon's reduced basis (read off linear algebra on the box
rows for m^[q] : b_e) against Buchberger on the sum m^[q] + b_e, which share
only groebner.staircase_count.  The shared pieces are checked in tests
against the brute-force oracles of tests/_oracles.py, which also keep the
walk of the q^n box that the rank route once made.  Each system memoizes its
I_e, which the basis route and the prime candidate both read.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .groebner import Ideal, ideal_membership, krull_dimension, quotient_length
from .ideals import bracket_power, colon, ideal_sum, tangent_cone
from .poly import (
    FrozenRecord,
    InfeasibleError,
    InternalInvariantError,
    PolyRing,
    Polynomial,
    Record,
    ResourceLimitError,
)
from .systems import FGradedSystem, QuotientSystem


class MethodDisagreement(InternalInvariantError):
    """The two splitting-number algorithms returned different values."""


def maximal_bracket(ring: PolyRing, e: int) -> Ideal:
    """The ideal of p^e-th powers of all variables."""
    return bracket_power(Ideal(ring, [ring.variable(v) for v in ring.variables]), e)


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


def _counting_ring(sys: FGradedSystem) -> Tuple[PolyRing, Callable[[Polynomial], Polynomial]]:
    """The ring the rank route counts in, and the map of sys.ring into it.

    It has sys.ring's variables under degrevlex, reordered: those that occur
    as a pure power in a term of b_1's generators come first, by the smallest
    such exponent, and ties and the rest keep the ring's order.  A
    polynomial is mapped across by permuting its exponents.
    """
    ring = sys.ring
    terms = [m for g in sys.b_of(1).generators for m in g.terms]
    low = [min((m[i] for m in terms if 0 < m[i] == sum(m)), default=math.inf) for i in range(ring.nvars)]
    perm = sorted(range(ring.nvars), key=low.__getitem__)
    R = PolyRing(ring.field, tuple(ring.variables[i] for i in perm))

    def into(f: Polynomial) -> Polynomial:
        return Polynomial(R, {tuple(m[i] for i in perm): c for m, c in f.terms.items()}, reduce=False)

    return R, into


def _splitting_number_rank(sys: FGradedSystem, e: int) -> int:
    """Rank over F_p of g -> g*b_e mod m^[q]: q^n - length(S/(m^[q] + b_e)), by Matlis duality."""
    R, into = _counting_ring(sys)
    b = Ideal(R, map(into, sys.b_of(e).generators))
    return R.p ** (e * R.nvars) - quotient_length(ideal_sum(maximal_bracket(R, e), b))


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


def signature_sequence(sys: FGradedSystem, emax: int, method: str = "both") -> SplittingReport:
    """Rows (e, a_e, a_e/p^{ed}) for e = 1..emax with a geometric-tail estimate.

    A level that hits a resource cap or runs out of memory ends the report
    there, marked partial, with the reason in its notes.
    """
    if emax < 1:
        raise ValueError("signature_sequence needs emax >= 1")
    ring = sys.ring
    p = ring.p
    d = ratio_dimension(sys, Ideal(ring, []))
    rows: List[Row] = []
    notes: List[str] = []
    for e in range(1, emax + 1):
        try:
            a_e = splitting_number(sys, e, method=method)
        except (ResourceLimitError, MemoryError) as err:
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
        partial=bool(notes),
        notes=tuple(notes),
    )


def is_f_pure(sys: FGradedSystem, emax: int) -> Tuple[bool, Optional[int]]:
    """Purity up to emax: a_e != 0 iff b_e escapes the variable bracket.

    m^[q] is a monomial ideal, so it holds a polynomial exactly when it holds
    each term: b_e escapes m^[q] exactly when some generator has a term with
    every exponent below q.
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
        for g in sys.b_of(e).generators:
            if not ideal_membership(g, K):
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
    if not is_f_pure(sys, emax)[0]:
        diag["reason"] = f"not F-pure up to emax={emax}"
        return None, diag
    I_top = _memo_splitting_ideal(sys, emax)
    gb = I_top.groebner_basis()
    p = sys.ring.p
    kept, dropped = [], []
    for g in gb:
        deg = g.total_degree()
        low = (deg < threshold_deg) if threshold_deg is not None else (2 * deg < p**emax)
        (kept if low else dropped).append(g)
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
) -> SplittingReport:
    """Signature report extended with ratio rows a_e / p^{e d'}.

    Requires a prime candidate; such a candidate with a_e positive forces
    every observed ratio into (0, 1], and a violation aborts the run because
    it certifies the candidate was not the right normalizing locus.  A capped
    level ends the report partial, as in signature_sequence; the ratio rows
    cover the completed levels, and there is no ratio estimate if none of
    them has a_e != 0.
    """
    candidate, diag = splitting_prime_candidate(sys, emax, threshold_deg)
    if candidate is None:
        raise InfeasibleError(f"no splitting prime candidate: {diag.get('reason')}")
    report = signature_sequence(sys, emax, method=method)
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
