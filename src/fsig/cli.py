"""Problem-file parsing, pipeline orchestration, table/JSON/CSV reports.

Problem files are line-oriented `key = value` text with `#` comments; see the
README for the grammar.  Exit codes: 0 success, 1 parse or semantic error
or bad flag, 2 infeasible mode for the input, 3 resource cap.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from itertools import accumulate
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .poly import (
    CEILING_MODES,
    DEGREVLEX,
    LEX,
    InfeasibleError,
    PolyParseError,
    PolyRing,
    Polynomial,
    Record,
    ResourceLimitError,
    is_identifier,
    is_prime,
)

if TYPE_CHECKING:
    from .systems import FGradedSystem

MODES = ("signature", "ratio", "prime", "fpure", "monomial")
ORDERS = {"degrevlex": DEGREVLEX, "lex": LEX}
_DEFAULTS = {"order": "degrevlex", "emax": "3", "ceiling": "pminusone"}  # text for the keys a file may omit


class ProblemError(ValueError):
    """Problem-file syntax or semantics violation, tagged with line/column."""

    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column


class Problem(Record):
    __slots__ = _fields = (
        "p", "variables", "ring", "system_ast", "mode", "emax", "ceiling", "t_sweep", "threshold_deg", "method",
    )
    _defaults = {"threshold_deg": None, "method": "both"}

    def system(self) -> FGradedSystem:
        from .systems import make_system

        return make_system(self.system_ast, self.ring, self.ceiling)


class RunResult(Record):
    __slots__ = _fields = ("problem", "report", "monomial_rows", "transcript", "candidate_absent_reason")
    _defaults = {"report": None, "monomial_rows": None, "transcript": (), "candidate_absent_reason": None}


# -- parsing --------------------------------------------------------------
# Every key and value, however deeply nested, is read with the column of its
# first character, so each error names the column of the text it is about.

def _strip(text: str, col: int) -> Tuple[str, int]:
    """text without its surrounding blanks, and the column where that begins (where text does, if blank)."""
    body = text.strip()
    return body, col + text.find(body[:1])


def _split_top_level(text: str, seps: str) -> List[Tuple[int, str]]:
    """Split on separators outside any bracket, keeping start offsets."""
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch in "[{":
            depth += 1
        elif ch in "]}":
            depth -= 1
        elif ch in seps and depth == 0:
            parts.append((start, text[start:i]))
            start = i + 1
    parts.append((start, text[start:]))
    return parts


def _ascii_int(text: str) -> int:
    """int(text) for an optional sign and ASCII digits only, else ValueError: no `_`, no other digits."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise ValueError(text)
    return int(text)


def _parse_rational(text: str, line: int, col: int) -> Fraction:
    body, start = _strip(text, col)
    if not body:
        raise ProblemError("expected a rational number", line, col)
    try:
        if "/" in body:
            num, den = body.split("/", 1)
            return Fraction(_ascii_int(num.strip()), _ascii_int(den.strip()))
        return Fraction(_ascii_int(body))
    except (ValueError, ZeroDivisionError):
        raise ProblemError(f"bad rational {body!r}", line, start) from None


def _parse_poly_list(text: str, line: int, col: int, ring: PolyRing) -> List[Polynomial]:
    body, col = _strip(text, col)
    if not (body.startswith("[") and body.endswith("]")):
        raise ProblemError("expected [ poly, ... ]", line, col)
    out = []
    for off, chunk in _split_top_level(body[1:-1], ","):
        if not chunk.strip():
            raise ProblemError("empty polynomial entry", line, col + 1 + off)
        try:
            out.append(ring.parse(chunk))
        except PolyParseError as err:
            raise ProblemError(err.message, line, col + 1 + off + err.position) from None
    return out


def _key_fields(inner: str, line: int, col: int) -> Dict[str, Tuple[str, int]]:
    """name -> (value text, column of the value) of the fields inside a brace."""
    fields: Dict[str, Tuple[str, int]] = {}
    for off, chunk in _split_top_level(inner, ","):
        if not chunk.strip():
            raise ProblemError("empty field", line, col + off)
        if "=" not in chunk:
            raise ProblemError(f"expected key = value in {chunk.strip()!r}", line, _strip(chunk, col + off)[1])
        key, val = chunk.split("=", 1)
        name, key_col = _strip(key, col + off)
        if name in fields:
            raise ProblemError(f"duplicate field {name!r}", line, key_col)
        fields[name] = (val, col + off + len(key) + 1)
    return fields


def _parse_system(text: str, line: int, col: int, ring: PolyRing) -> tuple:
    """Read one system node and check what make_system would reject.

    A node's own errors name the column of its first character.
    """
    body, col = _strip(text, col)
    kind = next((k for k in ("quotient", "pair", "product") if body.startswith(k)), None)
    if kind is None:
        raise ProblemError(f"unknown system kind in {body[:24]!r}", line, col)
    rest, rest_col = _strip(body[len(kind):], col + len(kind))
    opening, closing = "[]" if kind == "product" else "{}"
    if not (rest.startswith(opening) and rest.endswith(closing)):
        raise ProblemError(f"{kind} needs {opening}...{closing}", line, col)
    inner, inner_col = rest[1:-1], rest_col + 1
    if kind == "product":
        factors = []
        for off, chunk in _split_top_level(inner, ","):
            if not chunk.strip():
                raise ProblemError("empty product factor", line, inner_col + off)
            factors.append(_parse_system(chunk, line, inner_col + off, ring))
        return ("product", factors)
    fields = _key_fields(inner, line, inner_col)
    if kind == "quotient":
        if set(fields) != {"J"}:
            raise ProblemError("quotient needs exactly J = [...]", line, col)
        J_text, J_col = fields["J"]
        gens = _parse_poly_list(J_text, line, J_col, ring)
        if all(g.is_zero() for g in gens):
            raise ProblemError("quotient system needs a non-zero ideal", line, col)
        # s_e is taken at the origin, where S/J is 0 unless J lies in m
        if any(not any(m) for g in gens for m in g.terms):
            raise ProblemError("quotient system needs generators with no constant term", line, col)
        return ("quotient", gens)
    if set(fields) != {"a", "t"}:
        raise ProblemError("pair needs exactly a = [...] and t = <rat>", line, col)
    (a_text, a_col), (t_text, t_col) = fields["a"], fields["t"]
    gens = _parse_poly_list(a_text, line, a_col, ring)
    t = _parse_rational(t_text, line, t_col)
    if all(g.is_zero() for g in gens):
        raise ProblemError("pair system needs a non-zero ideal", line, col)
    if t < 0:
        raise ProblemError("t must be nonnegative", line, _strip(t_text, t_col)[1])
    return ("pair", gens, t)


def _choice(text: str, line: int, col: int, choices, what: str) -> str:
    body, start = _strip(text, col)
    if body not in choices:
        raise ProblemError(f"unknown {what} {body!r}", line, start)
    return body


def _integer(text: str, line: int, col: int) -> int:
    body, start = _strip(text, col)
    try:
        return _ascii_int(body)
    except ValueError:
        raise ProblemError(f"bad integer {body!r}", line, start) from None


def _parse_vars(text: str, line: int, col: int) -> Tuple[str, ...]:
    names: List[str] = []
    for off, chunk in _split_top_level(text, ","):
        name, start = _strip(chunk, col + off)
        if not is_identifier(name) or name in names:
            raise ProblemError("vars must be distinct non-empty identifiers", line, start)
        names.append(name)
    return tuple(names)


def _parse_sweep(text: str, line: int, col: int) -> Tuple[Fraction, Fraction, Fraction]:
    pieces = text.split(":")
    if len(pieces) != 3:
        raise ProblemError("t_sweep needs start:step:end", line, col)
    cols = accumulate((len(piece) + 1 for piece in pieces[:2]), initial=col)
    start, step, end = (_parse_rational(piece, line, c) for piece, c in zip(pieces, cols))
    if step <= 0 or end < start or start < 0:
        raise ProblemError("t_sweep needs 0 <= start <= end and step > 0", line, col)
    return start, step, end


def parse_problem_file(text: str) -> Problem:
    """Parse and semantically validate a problem file; a missing key is reported where it would go.

    One leading byte-order mark is dropped.  A line ends at a line feed, a
    carriage return or the pair of them, and at nothing else; a final line
    ending starts no line.
    """
    lines = re.split(r"\r\n?|\n", text.removeprefix("\ufeff"))
    if not lines[-1]:
        lines.pop()
    entries: Dict[str, Tuple[str, int, int]] = {}
    known = {"p", "vars", "order", "system", "mode", "emax", "t_sweep", "ceiling"}
    for lineno, raw in enumerate(lines, start=1):
        code = raw.split("#", 1)[0]
        if not code.strip():
            continue
        key, eq, val = code.partition("=")
        name, col = _strip(key, 0)
        if not eq:
            raise ProblemError("expected key = value", lineno, col)
        if name not in known:
            raise ProblemError(f"unknown key {name!r}", lineno, col)
        if name in entries:
            raise ProblemError(f"duplicate key {name!r}", lineno, col)
        value, col = _strip(val, len(key) + 1)
        entries[name] = (value, lineno, col)

    end = len(lines) + 1
    for required in ("p", "vars", "system", "mode"):
        if required not in entries:
            raise ProblemError(f"missing required key {required!r}", end, 0)
    for name, value in _DEFAULTS.items():
        entries.setdefault(name, (value, end, 0))

    p = _integer(*entries["p"])
    if not is_prime(p):
        raise ProblemError(f"p = {p} is not prime", *entries["p"][1:])
    variables = _parse_vars(*entries["vars"])
    ring = PolyRing.make(p, variables, ORDERS[_choice(*entries["order"], ORDERS, "order")])
    ceiling = _choice(*entries["ceiling"], CEILING_MODES, "ceiling convention")
    mode = _choice(*entries["mode"], MODES, "mode")
    emax = _integer(*entries["emax"])
    if emax < 1:
        raise ProblemError("emax must be >= 1", *entries["emax"][1:])

    t_sweep = None
    if "t_sweep" in entries:
        if mode != "monomial":
            raise ProblemError("t_sweep only applies to monomial mode", *entries["t_sweep"][1:])
        t_sweep = _parse_sweep(*entries["t_sweep"])

    ast = _parse_system(*entries["system"], ring)
    if mode == "monomial":
        from .newton import DIMENSION_CAP

        if ast[0] != "pair":
            raise ProblemError("monomial mode needs a single pair system", *entries["system"][1:])
        if not all(g.is_monomial() for g in ast[1]):
            raise ProblemError("monomial mode needs monomial generators", *entries["system"][1:])
        if len(variables) > DIMENSION_CAP:
            raise ProblemError(f"monomial mode supports at most {DIMENSION_CAP} variables", *entries["vars"][1:])

    return Problem(
        p=p,
        variables=variables,
        ring=ring,
        system_ast=ast,
        mode=mode,
        emax=emax,
        ceiling=ceiling,
        t_sweep=t_sweep,
    )


# -- orchestration ---------------------------------------------------------

def run(problem: Problem) -> RunResult:
    """Dispatch a validated problem to the matching pipeline.

    Each branch imports only what it runs: a monomial problem never loads the
    Groebner layer, and no other mode loads fsig.newton.
    """
    if problem.mode == "monomial":
        from .newton import clip_and_volume, newton_polyhedron

        exps = [next(iter(g.terms)) for g in problem.system_ast[1]]
        ts: List[Fraction] = []
        if problem.t_sweep is not None:
            start, step, end = problem.t_sweep
            t = start
            while t <= end:
                ts.append(t)
                t += step
        else:
            ts.append(Fraction(problem.system_ast[2]))
        P = newton_polyhedron(exps)
        rows = [(t, clip_and_volume(P, t)) for t in ts]
        return RunResult(problem, monomial_rows=rows)

    from .signature import signature_sequence, splitting_prime_candidate, splitting_ratio

    system = problem.system()
    if problem.mode == "ratio":
        report = splitting_ratio(
            system,
            problem.emax,
            method=problem.method,
            threshold_deg=problem.threshold_deg,
            on_cap="partial",
        )
        return RunResult(problem, report=report)
    if problem.mode == "prime":
        candidate, diag = splitting_prime_candidate(
            system, problem.emax, problem.threshold_deg
        )
        report = signature_sequence(
            system, problem.emax, method=problem.method, on_cap="partial"
        )
        report.prime_candidate = candidate
        transcript = tuple(diag.get("compatibility", ()))
        reason = None if candidate is not None else str(diag.get("reason"))
        return RunResult(problem, report=report, transcript=transcript,
                         candidate_absent_reason=reason)
    report = signature_sequence(
        system, problem.emax, method=problem.method, on_cap="partial"
    )
    return RunResult(problem, report=report)


# -- report emission --------------------------------------------------------

def _decimal6(value: Fraction) -> str:
    sign = "-" if value < 0 else ""
    value = abs(value)
    scaled = value.numerator * 10**6
    q, r = divmod(scaled, value.denominator)
    if 2 * r >= value.denominator:
        q += 1
    return f"{sign}{q // 10**6}.{q % 10**6:06d}"


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)


def emit_report(result: RunResult, fmt: str = "table") -> str:
    if fmt == "json":
        return _emit_json(result)
    if fmt == "table":
        return _emit_table(result)
    raise ValueError(f"unknown format {fmt!r}")


def _emit_table(result: RunResult) -> str:
    problem = result.problem
    lines = []
    if result.monomial_rows is not None:
        lines.append("t,volume,decimal")
        for t, vol in result.monomial_rows:
            lines.append(f"{_frac(t)},{_frac(vol)},{_decimal6(vol)}")
        return "\n".join(lines) + "\n"

    report = result.report
    lines.append(f"p = {report.p}")
    lines.append(f"vars = {', '.join(report.variables)}")
    lines.append(f"mode = {problem.mode}")
    lines.append(f"system = {report.system}")
    lines.append(f"d = {report.d}")
    if report.rows:
        we = max(len(str(r.e)) for r in report.rows)
        wa = max(len(str(r.a_e)) for r in report.rows)
        lines.append(f"{'e':>{we}} | {'a_e':>{wa}} | s_e")
        for r in report.rows:
            lines.append(
                f"{r.e:>{we}} | {r.a_e:>{wa}} | {_frac(r.s_e)} ≈ {_decimal6(r.s_e)}"
            )
    if report.estimate is not None:
        lines.append(f"estimate = {_frac(report.estimate)} ≈ {_decimal6(report.estimate)}")
        lines.append(f"error_envelope = {_frac(report.error_envelope)}")
    gamma = ", ".join(str(e) for e in report.gamma)
    lines.append(f"gamma = {{{gamma}}}")
    lines.append(f"index = {report.index if report.index is not None else 'undefined (gamma empty)'}")
    if report.f_pure:
        lines.append(f"f_pure = true (witness e={report.witness})")
    else:
        lines.append(f"f_pure = false (not F-pure up to emax={problem.emax})")
    if problem.mode in ("prime", "ratio"):
        if report.prime_candidate is not None:
            gens = ", ".join(str(g) for g in report.prime_candidate.groebner_basis())
            lines.append(f"prime_candidate = <{gens}>")
        else:
            lines.append(f"prime_candidate = absent ({result.candidate_absent_reason})")
        for note in result.transcript:
            lines.append(f"  {note}")
    if report.ratio_rows is not None:
        lines.append(f"d' = {report.ratio_dimension}")
        for e, r_e in report.ratio_rows:
            lines.append(f"{e} | r_e = {_frac(r_e)} ≈ {_decimal6(r_e)}")
        lines.append(
            f"ratio_estimate = {_frac(report.ratio_estimate)} ≈ {_decimal6(report.ratio_estimate)}"
        )
    for note in report.notes:
        lines.append(f"note: {note}")
    lines.append(f"partial = {'true' if report.partial else 'false'}")
    return "\n".join(lines) + "\n"


def _emit_json(result: RunResult) -> str:
    problem = result.problem
    doc: Dict[str, object] = {
        "p": problem.p,
        "vars": list(problem.variables),
        "mode": problem.mode,
    }
    if result.monomial_rows is not None:
        doc.update(
            {
                "d": None,
                "rows": [],
                "estimate_num": None,
                "estimate_den": None,
                "error_envelope": None,
                "gamma": [],
                "index": None,
                "f_pure": None,
                "exact": [
                    {"t": _frac(t), "volume": _frac(v), "decimal": _decimal6(v)}
                    for t, v in result.monomial_rows
                ],
                "partial": False,
            }
        )
        return json.dumps(doc, indent=2) + "\n"

    report = result.report
    estimate = report.estimate
    envelope = report.error_envelope
    if problem.mode == "ratio" and report.ratio_estimate is not None:
        estimate = report.ratio_estimate
        envelope = report.ratio_envelope
    doc["d"] = report.d
    doc["rows"] = [
        {
            "e": r.e,
            "a_e": r.a_e,
            "s_e_num": r.s_e.numerator,
            "s_e_den": r.s_e.denominator,
        }
        for r in report.rows
    ]
    doc["estimate_num"] = estimate.numerator if estimate is not None else None
    doc["estimate_den"] = estimate.denominator if estimate is not None else None
    doc["error_envelope"] = _frac(envelope) if envelope is not None else None
    doc["gamma"] = list(report.gamma)
    doc["index"] = report.index
    doc["f_pure"] = report.f_pure
    if problem.mode in ("prime", "ratio"):
        if report.prime_candidate is not None:
            doc["prime_candidate"] = [
                str(g) for g in report.prime_candidate.groebner_basis()
            ]
        else:
            doc["prime_candidate"] = None
    if report.ratio_rows is not None:
        doc["ratio_rows"] = [
            {"e": e, "r_e_num": r.numerator, "r_e_den": r.denominator}
            for e, r in report.ratio_rows
        ]
    doc["partial"] = report.partial
    return json.dumps(doc, indent=2) + "\n"


# -- entry point -------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fsig",
        description="Splitting numbers, signatures, ratios and exact monomial volumes over F_p.",
    )
    parser.add_argument("file", help="problem file")
    parser.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    parser.add_argument("--emax", type=int, default=None, help="override the file's emax")
    parser.add_argument(
        "--threshold-deg", type=int, default=None, help="degree cut for prime extraction"
    )
    parser.add_argument(
        "--method",
        choices=("groebner", "linear", "both"),
        default="both",
        help="splitting-number algorithm(s)",
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0; a bad flag, after the usage on stderr, is an input error
        return 1 if exc.code else 0

    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        print(f"fsig: {err}", file=sys.stderr)
        return 1
    except UnicodeDecodeError:
        print(f"fsig: {args.file}: not UTF-8 text", file=sys.stderr)
        return 1

    try:
        problem = parse_problem_file(text)
        if args.emax is not None:
            if args.emax < 1:
                print("fsig: --emax must be >= 1", file=sys.stderr)
                return 1
            problem.emax = args.emax
        problem.threshold_deg = args.threshold_deg
        problem.method = args.method
        result = run(problem)
    except (ProblemError, PolyParseError) as err:
        print(f"fsig: {err}", file=sys.stderr)
        return 1
    except InfeasibleError as err:
        print(f"fsig: infeasible: {err}", file=sys.stderr)
        return 2
    except ResourceLimitError as err:
        print(f"fsig: resource cap: {err}", file=sys.stderr)
        return 3
    except MemoryError:
        print("fsig: out of memory", file=sys.stderr)
        return 3

    sys.stdout.write(emit_report(result, "json" if args.json else "table"))
    if result.report is not None and result.report.partial:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
