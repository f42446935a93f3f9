"""Code with no caller outside itself is deleted, and so is a setting no caller sets.

Every module-level function and class in src/fsig, and every method of such
a class that is not a dunder, must be named, as a whole word, somewhere in
src/, tests/ or perfbench/ outside its own definition.  A match is textual
but skips comments and docstrings, so a name that only prose mentions
counts as having no caller; a string in code (a monkeypatched attribute,
say) still counts.

Every parameter with a default, of such a function or method (__init__
included), must be passed by at least one call inside src/fsig: by keyword,
at its position, or by a *args at or before it.  A call matches by the name
it calls (a class name for __init__), so a setting that only tests change
fails the check.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fsig"
SEARCHED = ("src", "tests", "perfbench")


def _definitions(tree):
    yield from (node for node in tree.body if isinstance(node, ast.ClassDef))
    for owner, fn in _functions(tree):
        if owner is None or not (fn.name.startswith("__") and fn.name.endswith("__")):
            yield fn


# the console script calls main() with no argument
ENTRY_POINTS = {("cli.py", "main", "argv")}


def _functions(tree):
    """(owner class or None, function) for every module-level function and every method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield None, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node, item


def _defaulted(owner, fn):
    """(called name, [(parameter, position in a call or None)]) for fn's parameters with a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
    skip = 0 if owner is None or static else 1  # self or cls is not in the call
    first = len(positional) - len(args.defaults)
    params = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
    params += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return (owner.name if fn.name == "__init__" else fn.name), params


def _passes(call, name, position):
    if any(k.arg == name for k in call.keywords):
        return True
    if position is None:
        return False
    return any(isinstance(a, ast.Starred) or i == position for i, a in enumerate(call.args[: position + 1]))


def _span(node):
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return first, node.end_lineno


def _code_lines(text):
    """(line number, code) pairs: each line's tokens, without comments and docstrings."""
    docstrings = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                docstrings.append(((first.lineno, first.col_offset), (first.end_lineno, first.end_col_offset)))
    lines = {}
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT or any(lo <= tok.start < hi for lo, hi in docstrings):
            continue
        lines.setdefault(tok.start[0], []).append(tok.string)
    return [(lineno, " ".join(words)) for lineno, words in sorted(lines.items())]


def test_every_definition_has_a_caller_outside_itself():
    this = Path(__file__).resolve()
    corpus = {
        path: _code_lines(path.read_text(encoding="utf-8"))
        for top in SEARCHED
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.resolve() != this
    }
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, "no fsig sources found"
    orphans = []
    for src in sources:
        for node in _definitions(ast.parse(src.read_text(encoding="utf-8"))):
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            first, last = _span(node)
            if not any(
                word.search(line)
                for path, lines in corpus.items()
                for lineno, line in lines
                if not (path == src and first <= lineno <= last)
            ):
                orphans.append(f"{src.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert not orphans, "defined but never referenced: " + ", ".join(orphans)


def test_every_default_is_passed_by_some_call_in_the_package():
    sources = sorted(PACKAGE.glob("*.py"))
    trees = {src: ast.parse(src.read_text(encoding="utf-8")) for src in sources}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = node.func
                name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = []
    for src, tree in trees.items():
        for owner, fn in _functions(tree):
            called, params = _defaulted(owner, fn)
            for param, position in params:
                if (src.name, fn.name, param) in ENTRY_POINTS:
                    continue
                if not any(_passes(call, param, position) for call in calls.get(called, ())):
                    unset.append(f"{src.relative_to(ROOT)}:{fn.lineno} {fn.name}({param})")
    assert not unset, "defaults no call in src/fsig passes: " + ", ".join(unset)
