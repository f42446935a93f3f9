"""Code with no caller outside itself is deleted.

Every module-level function and class in src/fsig, and every method of such
a class that is not a dunder, must be named, as a whole word, somewhere in
src/, tests/ or perfbench/ outside its own definition.  A match is textual
but skips comments and docstrings, so a name that only prose mentions
counts as having no caller; a string in code (a monkeypatched attribute,
say) still counts.
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
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item


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
