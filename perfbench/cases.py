"""Workloads, problem generation from a seed, and the pinned answers.

Each case is one `fsig` invocation.  Problems are kept as term lists rather
than text so the seed can change their coefficients without changing a
pinned invariant or the amount of work:

* every generator is multiplied by a unit of F_p, which fixes the ideal;
* for p != 3, every variable is rescaled x_i -> u_i * x_i by a unit (a torus
  automorphism), which fixes m and m^[q] and every term support.  For p = 3
  the rank and zero-dimensional-colon routes store F_3 vectors as two residue
  bitmasks whose big-int lengths depend on which entries are 1 and which are
  2, so the two torus classes of a problem cost different amounts (cusp p=3
  at emax 5: 75 MB against 129 MB peak RSS); p = 3 problems are therefore
  only scaled per generator.  For p = 2 the only unit is 1.

Pin provenance, per case (see `pin_sources.py` to recompute the ones with no
closed form):

* whitney p=3:  a_e = (3^e + 1)/2, r_e = a_e / 3^e (d' = 1).
* whitney p=2:  a_e = 0 (not F-pure).
* cone p=2:     a_e = q^2 / 2.
* snc p=5:      a_e = ((q + 1)/2)^2.
* twisted cubic p=3:  a_e = q^2 / 3.
* cusp p=3 and p=5: no closed form.  Values from the seed commit's CLI,
  matched by an independent dense rank over the weighted-degree blocks of
  multiplication by f^N on F_p[a,b]/(a^q, b^q), built on tests/_oracles.py.
* monomial sweeps: no closed form.  Values from the seed commit's CLI,
  matched to 1e-15 by a floating-point qhull volume of
  [0,1]^n  cap  (t*conv(A) + orthant).

`estimate` and `error_envelope` are fit diagnostics and are never pinned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

Terms = Sequence[Tuple[int, Tuple[int, ...]]]  # (coefficient, exponents)


@dataclass(frozen=True)
class Pins:
    """Expected values; None means "not pinned for this case"."""

    d: Optional[int] = None
    a_e: Optional[Tuple[int, ...]] = None  # rows e = 1, 2, ...
    ratio_dim: Optional[int] = None  # d'; r_e = a_e / p^(e d')
    exact: Optional[Tuple[Tuple[Fraction, Fraction], ...]] = None  # (t, volume)


@dataclass(frozen=True)
class Case:
    name: str
    p: int
    variables: Tuple[str, ...]
    system: tuple  # ("quotient", [terms]) | ("pair", [terms], t) | ("product", [...])
    mode: str
    args: Tuple[str, ...]
    pins: Pins
    t_sweep: Optional[str] = None


def _closed(fn, p: int, emax: int) -> Tuple[int, ...]:
    return tuple(fn(p**e) for e in range(1, emax + 1))


WHITNEY = [(1, (2, 0, 0)), (-1, (0, 2, 1))]  # x^2 - y^2*z
CONE = [(1, (1, 1, 0)), (-1, (0, 0, 2))]  # x*y - z^2
CUSP = [(1, (3, 0)), (-1, (0, 2))]  # a^3 - b^2
TWISTED_CUBIC = [
    [(1, (1, 0, 1, 0)), (-1, (0, 2, 0, 0))],  # x*z - y^2
    [(1, (1, 0, 0, 1)), (-1, (0, 1, 1, 0))],  # x*w - y*z
    [(1, (0, 1, 0, 1)), (-1, (0, 0, 2, 0))],  # y*w - z^2
]


def _monos(*exps: Tuple[int, ...]) -> List[Terms]:
    return [[(1, e)] for e in exps]


def _volumes(rows: Sequence[Tuple[str, str]]) -> Tuple[Tuple[Fraction, Fraction], ...]:
    return tuple((Fraction(t), Fraction(v)) for t, v in rows)


WORKLOADS: Dict[str, List[Case]] = {
    # The zero-dimensional colon I_e = (m^[q] : b_e) is ~90% of compute here;
    # ratio mode builds I_emax twice.
    "ratio-colon": [
        Case("whitney-p3-ratio", 3, ("x", "y", "z"), ("quotient", [WHITNEY]), "ratio",
             ("--emax", "4"),
             Pins(d=2, a_e=_closed(lambda q: (q + 1) // 2, 3, 4), ratio_dim=1)),
        Case("whitney-p2-fpure", 2, ("x", "y", "z"), ("quotient", [WHITNEY]), "fpure",
             ("--emax", "6"),
             Pins(d=2, a_e=_closed(lambda q: 0, 2, 6))),
    ],
    # The rank route alone (--method linear) on each _linalg backend: F_2
    # bitmask, F_3 mask pair, sparse dict (p = 5).  The colon is bypassed.
    "rank-box": [
        Case("cone-p2", 2, ("x", "y", "z"), ("quotient", [CONE]), "signature",
             ("--emax", "6", "--method", "linear"),
             Pins(d=2, a_e=_closed(lambda q: q * q // 2, 2, 6))),
        Case("cusp-p3", 3, ("a", "b"), ("pair", [CUSP], Fraction(1, 2)), "signature",
             ("--emax", "5", "--method", "linear"),
             Pins(d=2, a_e=(3, 18, 135, 1134, 9963))),
        Case("snc-p5", 5, ("x", "y"),
             ("product", [("pair", _monos((1, 0)), Fraction(1, 2)),
                          ("pair", _monos((0, 1)), Fraction(1, 2))]),
             "signature", ("--emax", "4", "--method", "linear"),
             Pins(d=2, a_e=_closed(lambda q: ((q + 1) // 2) ** 2, 5, 4))),
        Case("cusp-p5", 5, ("a", "b"), ("pair", [CUSP], Fraction(1, 2)), "signature",
             ("--emax", "3", "--method", "linear"),
             Pins(d=2, a_e=(7, 117, 2667))),
    ],
    # Control: nothing here walks a large q^n box, so box optimisations
    # predict no change.  Buchberger (elimination colon) and newton dominate.
    "no-box": [
        Case("twisted-cubic-p3", 3, ("x", "y", "z", "w"), ("quotient", TWISTED_CUBIC),
             "signature", ("--emax", "2"),
             Pins(d=2, a_e=_closed(lambda q: q * q // 3, 3, 2))),
        Case("monomial-4var", 3, ("x", "y", "z", "w"),
             ("pair", _monos((3, 0, 0, 0), (0, 2, 0, 0), (0, 0, 5, 0), (0, 0, 0, 4),
                             (1, 1, 1, 1)), Fraction(1)),
             "monomial", (), t_sweep="0 : 1/12 : 1",
             pins=Pins(exact=_volumes([
                 ("0", "1"), ("1/12", "20731/20736"), ("1/6", "1291/1296"),
                 ("1/4", "1961/2000"), ("1/3", "2436721/2592000"),
                 ("5/12", "2240561/2592000"), ("1/2", "3043/4050"),
                 ("7/12", "1578289/2592000"), ("2/3", "391333/864000"),
                 ("3/4", "24529/81000"), ("5/6", "457679/2592000"),
                 ("11/12", "221839/2592000"), ("1", "259/8100")]))),
        Case("monomial-3var", 3, ("x", "y", "z"),
             ("pair", _monos((3, 0, 0), (0, 2, 0), (0, 0, 5), (1, 1, 1)), Fraction(1)),
             "monomial", (), t_sweep="0 : 1/24 : 1",
             pins=Pins(exact=_volumes([
                 ("0", "1"), ("1/24", "13819/13824"), ("1/12", "1723/1728"),
                 ("1/8", "507/512"), ("1/6", "211/216"), ("5/24", "4583/4800"),
                 ("1/4", "369/400"), ("7/24", "4223/4800"), ("1/3", "62/75"),
                 ("3/8", "263861/345600"), ("5/12", "29897/43200"),
                 ("11/24", "23599/38400"), ("1/2", "2879/5400"),
                 ("13/24", "31129/69120"), ("7/12", "3193/8640"),
                 ("5/8", "2251/7680"), ("2/3", "241/1080"), ("17/24", "259/1600"),
                 ("3/4", "133/1200"), ("19/24", "337/4800"), ("5/6", "1/25"),
                 ("7/8", "6859/345600"), ("11/12", "343/43200"),
                 ("23/24", "27/12800"), ("1", "1/5400")]))),
    ],
}


# -- problem generation ---------------------------------------------------

def _poly_text(terms: Terms, variables: Sequence[str], p: int, units: Sequence[int],
               scale: int) -> str:
    out = []
    for c, exps in terms:
        c *= scale
        for u, k in zip(units, exps):
            c *= pow(u, k, p)
        c %= p
        factors = [v if k == 1 else f"{v}^{k}" for v, k in zip(variables, exps) if k]
        out.append("*".join(([str(c)] if c != 1 else []) + factors) or str(c))
    return " + ".join(out)


def _system_text(node: tuple, case: Case, units: Sequence[int], rng: random.Random) -> str:
    kind = node[0]
    if kind == "product":
        return "product [ " + ", ".join(_system_text(s, case, units, rng) for s in node[1]) + " ]"
    polys = ", ".join(_poly_text(t, case.variables, case.p, units, rng.randrange(1, case.p))
                      for t in node[1])
    if kind == "quotient":
        return f"quotient {{ J = [ {polys} ] }}"
    return f"pair {{ a = [ {polys} ], t = {node[2]} }}"


def problem_text(case: Case, rng: random.Random) -> str:
    """The case's problem file with seeded unit scalings (see the module docstring)."""
    units = [rng.randrange(1, case.p) if case.p != 3 else 1 for _ in case.variables]
    lines = [
        f"# {case.name}",
        f"p = {case.p}",
        f"vars = {', '.join(case.variables)}",
        f"system = {_system_text(case.system, case, units, rng)}",
        f"mode = {case.mode}",
    ]
    if case.t_sweep:
        lines.append(f"t_sweep = {case.t_sweep}")
    return "\n".join(lines) + "\n"


def seeded_batch(workload: str, seed: int) -> List[Tuple[Case, str]]:
    """The workload's cases in seed-shuffled order, each with its problem text."""
    rng = random.Random(seed)
    cases = list(WORKLOADS[workload])
    rng.shuffle(cases)
    return [(case, problem_text(case, rng)) for case in cases]


# -- pin check ------------------------------------------------------------

def check(case: Case, doc: dict) -> List[str]:
    """Every pinned value that the JSON report `doc` gets wrong, as messages."""
    pins = case.pins
    bad: List[str] = []
    if doc.get("partial") is not False:
        bad.append("report is partial")
    if pins.exact is not None:
        got = [(Fraction(r["t"]), Fraction(r["volume"])) for r in doc.get("exact") or []]
        if got != list(pins.exact):
            bad.append(f"volumes {got} != {list(pins.exact)}")
        return bad
    p = case.p
    if doc.get("d") != pins.d:
        bad.append(f"d = {doc.get('d')} != {pins.d}")
    rows = doc.get("rows") or []
    want_e = list(range(1, len(pins.a_e) + 1))
    if [r["e"] for r in rows] != want_e:
        bad.append(f"levels {[r['e'] for r in rows]} != {want_e}")
        return bad
    for r, a in zip(rows, pins.a_e):
        if r["a_e"] != a:
            bad.append(f"a_{r['e']} = {r['a_e']} != {a}")
        s_e = Fraction(r["s_e_num"], r["s_e_den"])
        if s_e != Fraction(a, p ** (r["e"] * pins.d)):
            bad.append(f"s_{r['e']} = {s_e} != {a}/{p}^{r['e'] * pins.d}")
    gamma = [e for e, a in zip(want_e, pins.a_e) if a]
    if doc.get("gamma") != gamma:
        bad.append(f"gamma = {doc.get('gamma')} != {gamma}")
    if doc.get("f_pure") is not bool(gamma):
        bad.append(f"f_pure = {doc.get('f_pure')} != {bool(gamma)}")
    if pins.ratio_dim is not None:
        got = [(r["e"], Fraction(r["r_e_num"], r["r_e_den"])) for r in doc.get("ratio_rows") or []]
        want = [(e, Fraction(a, p ** (e * pins.ratio_dim))) for e, a in zip(want_e, pins.a_e)]
        if got != want:
            bad.append(f"ratio rows {got} != {want} (d' = {pins.ratio_dim})")
    return bad
