"""Every public name of the library has a reader outside the tests.

A public top-level name of `src/semiframe/*.py`, or a public method of one
of its public classes, must be read somewhere in `src/semiframe/` other
than its own definition and `__init__.py`, or in `perfbench/`. A read is a
name or an attribute loaded by that spelling (an attribute only, for a
method), or a string that spells it alone or as a part of a dotted path,
because the benchmark's tracer wraps library functions by name. Docstrings
do not count. The scan goes by spelling, not by type, so a method shares
its readers with every attribute of that name. A name that only tests read
belongs in a test module.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "semiframe").glob("*.py"))
READERS = [p for p in LIBRARY if p.name != "__init__.py"] \
    + sorted((ROOT / "perfbench").glob("*.py"))
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _public(name):
    return not name.startswith("_")


def _assigned(node):
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    for t in targets:
        for leaf in (t.elts if isinstance(t, ast.Tuple) else [t]):
            if isinstance(leaf, ast.Name):
                yield leaf.id


def _definitions(path):
    """(label, name, is a method, first line, last line) of each public
    top-level name and each public method of a public class."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            names = list(_assigned(node))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            continue
        for name in filter(_public, names):
            yield name, name, False, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef) and _public(node.name):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _public(item.name):
                    yield (f"{node.name}.{item.name}", item.name, True,
                           item.lineno, item.end_lineno)


def _reads(path):
    """(spelling, is a name, line) of every load of a name or attribute and
    every part of a dotted-path string in the file, docstrings left out."""
    tree = ast.parse(path.read_text())
    prose = {id(node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Expr)
             and isinstance(node.value, ast.Constant)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, True, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, False, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in prose and DOTTED.fullmatch(node.value)):
            for part in node.value.split("."):
                yield part, False, node.lineno


def unread_names():
    reads = {path: list(_reads(path)) for path in READERS}
    unread = []
    for path in LIBRARY:
        for label, name, method, first, last in _definitions(path):
            if not any(spelling == name and not (method and bare)
                       and not (where == path and first <= line <= last)
                       for where, found in reads.items()
                       for spelling, bare, line in found):
                unread.append(f"{path.stem}.{label}")
    return unread


def test_every_public_name_has_a_reader_outside_tests():
    assert unread_names() == []


def test_scan_sees_reads_and_skips_docstrings(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text('"""used_in_doc"""\n'
                   'def used_in_doc():\n    pass\n'
                   'def by_string():\n    pass\n'
                   'TABLE = {"mod.by_string": None}\n')
    assert [label for label, *_ in _definitions(src)] == [
        "used_in_doc", "by_string", "TABLE"]
    spellings = {s for s, *_ in _reads(src)}
    assert "by_string" in spellings and "used_in_doc" not in spellings
