import json
from fractions import Fraction
from pathlib import Path

import pytest

from fsig.cli import (
    Problem,
    ProblemError,
    emit_report,
    main,
    parse_problem_file,
    run,
)

WHITNEY = """\
# Whitney umbrella over F_3
p = 3
vars = x, y, z
system = quotient { J = [ x^2 - y^2*z ] }
mode = ratio
emax = 2
"""

SNC = """\
p = 3
vars = x, y
system = product [ pair { a = [x], t = 1/2 }, pair { a = [y], t = 1/2 } ]
mode = signature
emax = 3
"""

MONOMIAL = """\
p = 3
vars = x, y
system = pair { a = [ x^3, y^2 ], t = 1/4 }
mode = monomial
"""


def test_parse_whitney_file():
    problem = parse_problem_file(WHITNEY)
    assert problem.p == 3
    assert problem.variables == ("x", "y", "z")
    assert problem.mode == "ratio"
    assert problem.emax == 2
    assert problem.system_ast[0] == "quotient"


def test_parse_rational_exact():
    problem = parse_problem_file(MONOMIAL)
    assert problem.system_ast[2] == Fraction(1, 4)


def test_parse_rejects_non_prime():
    with pytest.raises(ProblemError) as err:
        parse_problem_file("p = 4\nvars = x\nsystem = pair { a = [x], t = 1 }\nmode = signature\n")
    assert "not prime" in str(err.value)


def test_parse_rejects_negative_t():
    with pytest.raises(ProblemError):
        parse_problem_file("p = 3\nvars = x\nsystem = pair { a = [x], t = -1/2 }\nmode = signature\n")


def test_parse_rejects_zero_ideal():
    with pytest.raises(ProblemError):
        parse_problem_file("p = 3\nvars = x\nsystem = quotient { J = [ 3*x ] }\nmode = signature\n")


def test_parse_reports_position_for_bad_poly():
    text = "p = 3\nvars = x\nsystem = pair { a = [ x + w ], t = 1 }\nmode = signature\n"
    with pytest.raises(ProblemError) as err:
        parse_problem_file(text)
    assert err.value.line == 3


def test_parse_rejects_unknown_keys_and_duplicates():
    with pytest.raises(ProblemError):
        parse_problem_file("p = 3\nbogus = 1\nvars = x\nsystem = pair { a = [x], t = 1 }\nmode = signature\n")
    with pytest.raises(ProblemError):
        parse_problem_file("p = 3\np = 5\nvars = x\nsystem = pair { a = [x], t = 1 }\nmode = signature\n")


def test_monomial_mode_requires_monomial_pair():
    with pytest.raises(ProblemError):
        parse_problem_file("p = 3\nvars = x, y\nsystem = pair { a = [ x + y ], t = 1 }\nmode = monomial\n")
    with pytest.raises(ProblemError):
        parse_problem_file("p = 3\nvars = x, y\nsystem = quotient { J = [ x ] }\nmode = monomial\n")


def test_run_whitney_ratio():
    result = run(parse_problem_file(WHITNEY))
    rep = result.report
    assert [r.a_e for r in rep.rows] == [2, 5]
    assert rep.ratio_rows == ((1, Fraction(2, 3)), (2, Fraction(5, 9)))
    assert rep.ratio_dimension == 1


def test_run_monomial_single_t():
    result = run(parse_problem_file(MONOMIAL))
    assert result.monomial_rows == [(Fraction(1, 4), Fraction(13, 16))]


def test_run_monomial_sweep():
    text = MONOMIAL + "t_sweep = 0 : 1/4 : 3/4\n"
    result = run(parse_problem_file(text))
    ts = [t for t, _ in result.monomial_rows]
    assert ts == [0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    vols = [v for _, v in result.monomial_rows]
    assert vols == [1, Fraction(13, 16), Fraction(1, 3), Fraction(1, 48)]


def test_emit_table_row_format():
    result = run(parse_problem_file(SNC))
    text = emit_report(result, "table")
    assert "1 |   4 | 4/9 ≈ 0.444444" in text
    assert text.endswith("partial = false\n")


def test_emit_monomial_csv():
    result = run(parse_problem_file(MONOMIAL))
    text = emit_report(result, "table")
    assert text.splitlines()[0] == "t,volume,decimal"
    assert "1/4,13/16,0.812500" in text


def test_emit_json_schema_keys():
    result = run(parse_problem_file(SNC))
    doc = json.loads(emit_report(result, "json"))
    for key in ("p", "vars", "mode", "d", "rows", "estimate_num", "estimate_den",
                "error_envelope", "gamma", "index", "f_pure", "partial"):
        assert key in doc
    assert doc["rows"][0] == {"e": 1, "a_e": 4, "s_e_num": 4, "s_e_den": 9}
    assert doc["estimate_num"] is not None
    assert doc["partial"] is False


def test_emit_json_monomial_has_exact():
    result = run(parse_problem_file(MONOMIAL))
    doc = json.loads(emit_report(result, "json"))
    assert doc["exact"] == [{"t": "1/4", "volume": "13/16", "decimal": "0.812500"}]
    assert doc["estimate_num"] is None
    assert "error_envelope" in doc


def test_emit_json_ratio_mode():
    result = run(parse_problem_file(WHITNEY))
    doc = json.loads(emit_report(result, "json"))
    assert doc["prime_candidate"] == ["y", "x"]
    assert doc["ratio_rows"][0] == {"e": 1, "r_e_num": 2, "r_e_den": 3}


def test_determinism_byte_identical():
    a = emit_report(run(parse_problem_file(WHITNEY)), "table")
    b = emit_report(run(parse_problem_file(WHITNEY)), "table")
    assert a == b
    ja = emit_report(run(parse_problem_file(WHITNEY)), "json")
    jb = emit_report(run(parse_problem_file(WHITNEY)), "json")
    assert ja == jb


def test_main_exit_codes(tmp_path, capsys):
    good = tmp_path / "snc.fsig"
    good.write_text(SNC)
    assert main([str(good)]) == 0
    out = capsys.readouterr().out
    assert "4/9" in out

    bad = tmp_path / "bad.fsig"
    bad.write_text("p = 4\nvars = x\nsystem = pair { a = [x], t = 1 }\nmode = signature\n")
    assert main([str(bad)]) == 1

    ratio_p2 = tmp_path / "ratio2.fsig"
    ratio_p2.write_text(
        "p = 2\nvars = x, y, z\nsystem = quotient { J = [ x^2 - y^2*z ] }\nmode = ratio\nemax = 2\n"
    )
    assert main([str(ratio_p2)]) == 2

    missing = tmp_path / "nope.fsig"
    assert main([str(missing)]) == 1


def test_main_prints_d_at_the_origin(tmp_path, capsys):
    # the plane z = 1 misses 0, where S/J is the regular line: d = 1 and every s_e = 1
    path = tmp_path / "plane_and_line.fsig"
    path.write_text("p = 3\nvars = x, y, z\nsystem = quotient { J = [ x*z - x, y*z - y ] }\nmode = signature\nemax = 3\n")
    assert main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "d = 1\n" in out
    assert out.count("| 1 ≈ 1.000000\n") == 3


def test_main_emax_override(tmp_path, capsys):
    path = tmp_path / "snc.fsig"
    path.write_text(SNC)
    assert main([str(path), "--emax", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["rows"]) == 1


def test_main_rejects_nonpositive_emax_flag(tmp_path, capsys):
    path = tmp_path / "snc.fsig"
    path.write_text(SNC)
    assert main([str(path), "--emax", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--emax must be >= 1" in captured.err
    assert "line 0" not in captured.err


@pytest.mark.parametrize("ideal", ["1", "x, 1 + x", "1 + x"])
def test_main_rejects_quotient_by_unit_ideal(tmp_path, capsys, ideal):
    text = "p = 3\nvars = x, y\nmode = signature\nemax = 2\nsystem = quotient {{ J = [ {} ] }}\n"
    with pytest.raises(ProblemError) as zero:  # where the other system errors point
        parse_problem_file(text.format("0"))
    path = tmp_path / "unit.fsig"
    path.write_text(text.format(ideal))
    assert main([str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"fsig: line {zero.value.line}, col {zero.value.column}: quotient system needs generators with no constant term\n"
    )
    assert zero.value.line == 5
    assert "Traceback" not in captured.err


def test_main_rejects_monomial_mode_above_dimension_cap(tmp_path, capsys):
    path = tmp_path / "seven.fsig"
    path.write_text(
        "p = 3\n"
        "vars = a, b, c, d, e, f, g\n"
        "system = pair { a = [ a*b*c*d*e*f*g ], t = 1/2 }\n"
        "mode = monomial\n"
    )
    assert main([str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "fsig: line 2, col 6: monomial mode supports at most 6 variables\n"
    assert "Traceback" not in captured.err
    six = "p = 3\nvars = a, b, c, d, e, f\nsystem = pair { a = [ a*b*c*d*e*f ], t = 1/2 }\nmode = monomial\n"
    assert parse_problem_file(six).variables == ("a", "b", "c", "d", "e", "f")


def test_main_rejects_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.fsig"
    path.write_bytes(SNC.encode() + b"# caf\xe9 \xff\n")
    assert main([str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"fsig: {path}: not UTF-8 text\n"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("names", ["x, 2", "x, y z", "x, 1y", "x, y-1", "x, "])
def test_main_rejects_vars_that_are_not_identifiers(tmp_path, capsys, names):
    path = tmp_path / "vars.fsig"
    path.write_text(f"p = 3\nvars = {names}\nsystem = pair {{ a = [x], t = 1/2 }}\nmode = signature\n")
    assert main([str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "fsig: line 2, col 6: vars must be distinct non-empty identifiers\n"
    assert "Traceback" not in captured.err
    six = "p = 3\nvars = a, b, c, d, e, f\nsystem = pair { a = [ a*f ], t = 1/2 }\nmode = signature\n"
    assert parse_problem_file(six).variables == ("a", "b", "c", "d", "e", "f")
    sub = "p = 3\nvars = x_1, _y, Z9\nsystem = pair { a = [ x_1*_y*Z9 ], t = 1/2 }\nmode = signature\n"
    assert parse_problem_file(sub).variables == ("x_1", "_y", "Z9")


@pytest.mark.parametrize(
    "system, col",
    [("product [ ]", 18), ("product [ pair { a = [x], t = 1/2 }, ]", 45)],
)
def test_main_rejects_an_empty_product_factor(tmp_path, capsys, system, col):
    # reported like an empty polynomial entry: at the column where the empty chunk begins
    path = tmp_path / "product.fsig"
    path.write_text(f"p = 3\nvars = x, y\nsystem = {system}\nmode = signature\n")
    assert main([str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"fsig: line 3, col {col}: empty product factor\n"


# (system expression, message, the text the message is about): the error is
# reported at that text's first column on the line
SYSTEM_ERRORS = [
    ("pair { a = [x, ], t = 1/2 }", "empty polynomial entry", " ]"),
    ("product [ ]", "empty product factor", " ]"),
    ("product [ pair { a = [x], t = 1/2 }, ]", "empty product factor", " ]"),
    ("product [ pair { a = [x], t = 1/2 }, pair { a = [ x*w ], t = 1 } ]", "unknown variable 'w'", "w"),
    ("product [ pair { a = [x], t = 1/2 }, quotient { J = [ x + 1 ] } ]",
     "quotient system needs generators with no constant term", "quotient"),
    ("pair { a = [x], t = 1/0 }", "bad rational '1/0'", "1/0"),
    ("product [ pair { a = [y], t = 1/0 } ]", "bad rational '1/0'", "1/0"),
    ("product [ pair { a = [y], t = } ]", "expected a rational number", " }"),
    ("product [ pair { a = [y], t = -1/2 } ]", "t must be nonnegative", "-1/2"),
    ("product [ pair { a = [y], t = 1 }, quotient { J = [ 0 ] } ]", "quotient system needs a non-zero ideal",
     "quotient"),
    ("product [ pair { a = [ 3*y ], t = 1 } ]", "pair system needs a non-zero ideal", "pair"),
    ("product [ pair { a = y, t = 1 } ]", "expected [ poly, ... ]", "y, t"),
    ("product [ pair { a = [y], a = [x], t = 1 } ]", "duplicate field 'a'", "a = [x]"),
    ("product [ pair { a = [y], 1 } ]", "expected key = value in '1'", "1"),
    ("product [ pair { a = [y] } ]", "pair needs exactly a = [...] and t = <rat>", "pair"),
    ("product [ quotient { a = [y] } ]", "quotient needs exactly J = [...]", "quotient"),
    ("product [ pair [ a = [y], t = 1 ] ]", "pair needs {...}", "pair"),
    ("product [ cone { } ]", "unknown system kind in 'cone { }'", "cone"),
    ("product pair { a = [y], t = 1 }", "product needs [...]", "product"),
]


@pytest.mark.parametrize("system, message, part", SYSTEM_ERRORS)
def test_system_errors_name_the_column_of_their_text(system, message, part):
    line = f"system = {system}"
    assert line.count(part) == 1
    with pytest.raises(ProblemError) as err:
        parse_problem_file(f"p = 3\nvars = x, y\n{line}\nmode = signature\n")
    assert str(err.value) == f"line 3, col {line.index(part)}: {message}"


@pytest.mark.parametrize("inner", ["quotient { J = [ 0 ] }", "quotient { J = [ x, 1 + y ] }", "pair { a = [x], t = -1 }"])
@pytest.mark.parametrize("nested", [False, True])
def test_what_make_system_rejects_is_an_input_error(tmp_path, capsys, inner, nested):
    # a zero ideal, a constant term and a negative t are found while the file is read
    system = f"product [ pair {{ a = [y], t = 1/2 }}, {inner} ]" if nested else inner
    text = f"p = 3\nvars = x, y\nsystem = {system}\nmode = signature\n"
    with pytest.raises(ProblemError) as err:
        parse_problem_file(text)
    path = tmp_path / "bad.fsig"
    path.write_text(text)
    assert main([str(path)]) == 1
    assert capsys.readouterr() == ("", f"fsig: {err.value}\n")


@pytest.mark.parametrize("sweep, piece", [("x : 1/4 : 1", "x"), ("0 : 1/x : 1", "1/x"), ("0 : 1/4 :  ", "  ")])
def test_t_sweep_errors_name_the_column_of_their_piece(sweep, piece):
    line = f"t_sweep = {sweep}"
    with pytest.raises(ProblemError) as err:
        parse_problem_file(MONOMIAL + line + "\n")
    assert (err.value.line, err.value.column) == (5, line.index(piece))


@pytest.mark.parametrize(
    "flags", [["--method", "bogus"], ["--emax", "x"], []], ids=["bad-method", "bad-emax", "no-file"]
)
def test_main_exits_1_on_a_bad_flag(tmp_path, capsys, flags):
    path = tmp_path / "snc.fsig"
    path.write_text(SNC)
    args = [str(path), *flags] if flags else []
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: fsig")
    assert "error:" in captured.err
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: fsig")


def test_main_method_flag(tmp_path, capsys):
    path = tmp_path / "snc.fsig"
    path.write_text(SNC)
    assert main([str(path), "--method", "linear", "--emax", "2"]) == 0
    assert main([str(path), "--method", "groebner", "--emax", "2"]) == 0


@pytest.mark.parametrize(
    "path",
    sorted((Path(__file__).resolve().parent.parent / "problems").glob("*.fsig")),
    ids=lambda path: path.stem,
)
def test_methods_print_identical_output(path, capsys):
    # the basis route, the rank route and their cross-check report the same bytes
    for fmt in ([], ["--json"]):
        outputs = []
        for method in ([], ["--method", "linear"], ["--method", "groebner"]):
            assert main([str(path), *method, *fmt]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0].out
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]


@pytest.mark.parametrize(
    "path",
    sorted((Path(__file__).resolve().parent.parent / "problems").glob("*.fsig")),
    ids=lambda path: path.stem,
)
def test_problem_output_matches_golden(path, capsysbinary):
    # tests/golden holds each shipped problem's stdout at default settings
    golden = Path(__file__).resolve().parent / "golden"
    for fmt, suffix in (([], ".txt"), (["--json"], ".json")):
        assert main([str(path), *fmt]) == 0
        assert capsysbinary.readouterr().out == (golden / (path.stem + suffix)).read_bytes()


def test_ceiling_convention_flag_changes_levels(tmp_path, capsys):
    base = "p = 3\nvars = x, y, z\nsystem = pair { a = [z], t = 1/2 }\nmode = signature\nemax = 1\n"
    default_file = tmp_path / "d.fsig"
    default_file.write_text(base)
    assert main([str(default_file), "--json"]) == 0
    a_default = json.loads(capsys.readouterr().out)["rows"][0]["a_e"]
    pe_file = tmp_path / "pe.fsig"
    pe_file.write_text(base + "ceiling = pe\n")
    assert main([str(pe_file), "--json"]) == 0
    a_pe = json.loads(capsys.readouterr().out)["rows"][0]["a_e"]
    # exponent 1 vs 2 at e = 1: (cube : z) vs (cube : z^2)
    assert (a_default, a_pe) == (18, 9)


def test_threshold_flag_can_break_candidate(tmp_path, capsys):
    src = "p = 3\nvars = x, y, z\nsystem = quotient { J = [ x^2 - y^2*z ] }\nmode = prime\nemax = 2\n"
    path = tmp_path / "wh.fsig"
    path.write_text(src)
    # keeping the transient z^5 generator produces an incompatible candidate
    assert main([str(path), "--threshold-deg", "6"]) == 0
    out = capsys.readouterr().out
    assert "prime_candidate = absent" in out
    assert main([str(path)]) == 0
    assert "prime_candidate = <y, x>" in capsys.readouterr().out


def test_partial_report_marked_in_json(monkeypatch):
    from fsig import signature as sig
    from fsig.groebner import ResourceLimitError

    original = sig.splitting_number

    def capped(sys_obj, e, method="both"):
        if e >= 2:
            raise ResourceLimitError("synthetic cap")
        return original(sys_obj, e, method)

    monkeypatch.setattr(sig, "splitting_number", capped)
    result = run(parse_problem_file(SNC))
    assert result.report.partial
    doc = json.loads(emit_report(result, "json"))
    assert doc["partial"] is True
    assert len(doc["rows"]) == 1
    text = emit_report(result, "table")
    assert "largest completed e=1" in text
    assert "partial = true" in text


def test_main_exits_3_when_a_level_runs_out_of_memory(tmp_path, capsys, monkeypatch):
    # a level that raises MemoryError gives the partial report and exit 3, not
    # a traceback; one raised outside the sequence exits 3 with a message
    from fsig import cli
    from fsig import signature as sig

    original = sig.splitting_number

    def starved(sys_obj, e, method="both"):
        if e >= 2:
            raise MemoryError
        return original(sys_obj, e, method)

    path = tmp_path / "snc.fsig"
    path.write_text(SNC)
    monkeypatch.setattr(sig, "splitting_number", starved)
    assert main([str(path)]) == 3
    out = capsys.readouterr().out
    assert "partial = true" in out
    assert "out of memory at e=2; largest completed e=1" in out

    def exhausted(problem):
        raise MemoryError

    monkeypatch.setattr(cli, "run", exhausted)
    assert main([str(path)]) == 3
    assert capsys.readouterr().err == "fsig: out of memory\n"


def test_rank_route_under_a_basis_cap_ends_partial(tmp_path, capsys, monkeypatch):
    # the rank route is one Buchberger run on m^[q] + b_e, whose reduced basis
    # has 4, 9 and 24 elements at e = 1, 2, 3 for the cusp pair at p = 5: a
    # basis cap of 10 stops it at e = 3, in the partial report with exit 3
    from fsig import groebner

    path = tmp_path / "cusp5.fsig"
    path.write_text("p = 5\nvars = a, b\nsystem = pair { a = [ a^3 - b^2 ], t = 1/2 }\nmode = signature\nemax = 3\n")
    assert main([str(path), "--method", "linear", "--json"]) == 0
    assert [row["a_e"] for row in json.loads(capsys.readouterr().out)["rows"]] == [7, 117, 2667]
    monkeypatch.setattr(groebner.buchberger, "__defaults__", (groebner.DEFAULT_MAX_PAIRS, 10))
    assert main([str(path), "--method", "linear", "--json"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["partial"] is True
    assert [row["a_e"] for row in doc["rows"]] == [7, 117]
    assert main([str(path), "--method", "linear"]) == 3
    assert "resource cap at e=3: basis cap 10 exceeded; largest completed e=2" in capsys.readouterr().out


def test_fpure_mode_message(tmp_path, capsys):
    path = tmp_path / "w2.fsig"
    path.write_text(
        "p = 2\nvars = x, y, z\nsystem = quotient { J = [ x^2 - y^2*z ] }\nmode = fpure\nemax = 3\n"
    )
    assert main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "not F-pure up to emax=3" in out


def test_shipped_sample_problems_parse_and_run():
    problems_dir = Path(__file__).resolve().parent.parent / "problems"
    files = sorted(problems_dir.glob("*.fsig"))
    assert len(files) >= 4
    for path in files:
        problem = parse_problem_file(path.read_text())
        problem.emax = min(problem.emax, 2)
        run(problem)


def test_prime_mode_transcript(tmp_path, capsys):
    path = tmp_path / "wh.fsig"
    path.write_text(
        "p = 3\nvars = x, y, z\nsystem = quotient { J = [ x^2 - y^2*z ] }\nmode = prime\nemax = 2\n"
    )
    assert main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "prime_candidate = <y, x>" in out
    assert "b_e inside" in out
