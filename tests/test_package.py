"""The package loads lazily: its exported names, and what each CLI mode imports.

Each CLI check runs in a fresh `python -S` interpreter, through runpy as
`python -m fsig.cli` would, and reads back which `fsig` modules that run
loaded.  Nothing here times anything.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import fsig

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"

# every name the package exported before it became lazy, by the module it was
# imported from then; the three shared errors now live in poly and are
# re-exported by their old modules
EXPORTS = {
    "groebner": (
        "GroebnerBasis", "Ideal", "InternalInvariantError", "ResourceLimitError", "buchberger",
        "ideal_membership", "krull_dimension", "normal_form", "quotient_length",
    ),
    "ideals": (
        "ExactDivisionError", "bracket_power", "colon", "exact_divide", "ideal_equals",
        "ideal_power", "ideal_product", "ideal_sum", "intersection",
    ),
    "newton": (
        "ClippedPolytope", "NewtonPolyhedron", "clip", "clip_and_volume", "closure_membership",
        "lattice_count", "monomial_signature", "newton_polyhedron",
    ),
    "poly": (
        "DEGREVLEX", "LEX", "PolyParseError", "PolyRing", "Polynomial", "PrimeField",
        "RingMismatchError", "TermOrder", "frobenius_power", "parse_polynomial", "poly_arith",
    ),
    "signature": (
        "InfeasibleError", "MethodDisagreement", "Row", "SplittingReport", "compatibility_check",
        "is_f_pure", "maximal_bracket", "semigroup_data", "signature_sequence", "splitting_ideal",
        "splitting_number", "splitting_prime_candidate", "splitting_ratio",
    ),
    "systems": (
        "FGradedSystem", "PairSystem", "ProductSystem", "QuotientSystem", "make_system",
        "power_exponent", "verify_graded",
    ),
}

GROEBNER_LAYER = {"fsig", "fsig.groebner", "fsig.ideals", "fsig.poly", "fsig.signature", "fsig.systems"}
MONOMIAL_LAYER = {"fsig", "fsig.newton", "fsig.poly"}
PARSER = {"fsig", "fsig.cli", "fsig.poly"}

WRAPPER = """\
import runpy, sys
sys.path.insert(0, {src!r})
{patch}
sys.argv = ["fsig", *{args!r}]
try:
    runpy.run_module("fsig.cli", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
print("MODULES", *sorted(m for m in sys.modules if m.split(".")[0] in ("fsig", "dataclasses", "inspect")))
sys.exit(code)
"""


def _run_cli(args, patch=""):
    """(modules loaded, stdout before the module line, stderr, exit code) of one fresh run."""
    code = WRAPPER.format(src=str(ROOT / "src"), patch=patch, args=[str(a) for a in args])
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=120)
    out, _, modules = proc.stdout.rpartition("MODULES")
    return set(modules.split()), out, proc.stderr, proc.returncode


def test_every_old_export_is_listed_and_resolves_to_its_defining_object():
    for module, names in EXPORTS.items():
        owner = importlib.import_module(f"fsig.{module}")
        for name in names:
            assert name in fsig.__all__, name
            assert name in dir(fsig), name
            exec_ns = {}
            exec(f"from fsig import {name}", exec_ns)
            assert exec_ns[name] is getattr(owner, name), name
            assert getattr(fsig, name) is getattr(owner, name), name
    assert sorted(fsig.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    assert fsig.__version__ == "0.1.0"


def test_shared_errors_are_one_class_each():
    from fsig import groebner, poly, signature

    assert groebner.ResourceLimitError is poly.ResourceLimitError
    assert groebner.InternalInvariantError is poly.InternalInvariantError
    assert signature.InfeasibleError is poly.InfeasibleError
    assert issubclass(signature.MethodDisagreement, poly.InternalInvariantError)


def test_submodules_are_reachable_and_unknown_names_raise():
    assert fsig.newton is importlib.import_module("fsig.newton")
    with pytest.raises(AttributeError, match="no_such_name"):
        fsig.no_such_name
    with pytest.raises(AttributeError, match="no_such_name"):
        fsig.__getattr__("no_such_name")
    assert {"newton", "__version__"} <= set(fsig.__dir__())
    with pytest.raises(ImportError):
        exec("from fsig import no_such_name", {})


def test_submodules_are_the_package_files():
    # the lazy table names every module file but the entry point, cli, and no other
    files = {path.stem for path in (ROOT / "src" / "fsig").glob("*.py")} - {"__init__"}
    assert {*fsig._SUBMODULES, "cli"} == files


def test_import_of_the_package_loads_no_submodule():
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import fsig; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('fsig', 'dataclasses')))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == "['fsig']", proc.stderr


@pytest.mark.parametrize(
    "problem, modules",
    [
        ("cone.fsig", GROEBNER_LAYER),  # quotient
        ("cusp.fsig", GROEBNER_LAYER),  # pair
        ("snc.fsig", GROEBNER_LAYER),  # product
        ("monomial.fsig", MONOMIAL_LAYER),
    ],
)
def test_each_mode_loads_exactly_its_modules(problem, modules):
    loaded, out, err, code = _run_cli([PROBLEMS / problem, "--emax", "1"])
    assert (code, err) == (0, ""), err
    assert out
    assert loaded == modules
    assert not loaded & {"dataclasses", "inspect"}


@pytest.mark.parametrize(
    "problem, modules",
    [
        ("cone.fsig", PARSER),  # quotient
        ("cusp.fsig", PARSER),  # pair
        ("snc.fsig", PARSER),  # product
        ("monomial.fsig", PARSER | {"fsig.newton"}),  # for its dimension cap
    ],
)
def test_reading_a_problem_file_loads_exactly_its_modules(problem, modules):
    # every check made while a file is read runs without the Groebner layer
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import fsig.cli; "
        f"fsig.cli.parse_problem_file({(PROBLEMS / problem).read_text(encoding='utf-8')!r}); "
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'fsig'))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert set(proc.stdout.split()) == modules, proc.stderr


def test_out_of_memory_in_monomial_mode_exits_3_with_its_message():
    # main's except clauses are evaluated in order, so each exception class
    # they name must be bound in fsig.cli even when the mode imported nothing
    # that defines it
    patch = (
        "import fsig.newton\n"
        "def starved(*args):\n"
        "    raise MemoryError\n"
        "fsig.newton.newton_polyhedron = starved\n"
    )
    loaded, out, err, code = _run_cli([PROBLEMS / "monomial.fsig"], patch)
    assert (code, err, out) == (3, "fsig: out of memory\n", "")
    assert loaded == MONOMIAL_LAYER


def test_resource_cap_in_quotient_mode_exits_3_with_its_message():
    patch = (
        "import fsig.signature\n"
        "from fsig.groebner import ResourceLimitError\n"
        "def capped(*args, **kwargs):\n"
        "    raise ResourceLimitError('synthetic cap')\n"
        "fsig.signature.signature_sequence = capped\n"
    )
    loaded, out, err, code = _run_cli([PROBLEMS / "cone.fsig"], patch)
    assert (code, err, out) == (3, "fsig: resource cap: synthetic cap\n", "")
    assert loaded == GROEBNER_LAYER
