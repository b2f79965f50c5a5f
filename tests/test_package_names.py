"""Every function, class, method, dataclass field and instance attribute of
the package is read.

Code whose only caller is its own unit test either gets a real caller or
is deleted; this test finds the names that have none.  Names are defined
in ``src/regprobe`` and read in it or in ``perfbench/``, whose span
recorder patches package functions and reads result fields.  A name
counts as read when:

- a function or class: an ``ast.Name`` load, an ``ast.Attribute`` load or
  an import alias of its name outside its own definition;
- a method, or an instance attribute assigned as ``self.<name> = ...`` in
  a method: an ``ast.Attribute`` load of its name outside its definition;
- a dataclass field: an ``ast.Attribute`` load, or a string constant equal
  to its name (``check_numbers(self, floats=("alpha", ...))`` and the
  keyword dicts a record is built from name fields that way).
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "regprobe"
READERS = (PACKAGE, ROOT / "perfbench")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _self_targets(method):
    """(name, statement) of every ``self.<name> = ...`` in ``method``."""
    for node in ast.walk(method):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if (isinstance(sub, ast.Attribute)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"):
                    yield sub.attr, node


def _definitions(path: Path, tree: ast.Module):
    """(kind, qualified name, bare name, file, first line, last line)."""
    methods = set()
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.add(item)
                if not _is_dunder(item.name):
                    out.append(("method", f"{node.name}.{item.name}", item.name,
                                path, item.lineno, item.end_lineno))
                for name, stmt in _self_targets(item):
                    out.append(("attribute", f"{node.name}.{name}", name,
                                path, stmt.lineno, stmt.end_lineno))
            elif (isinstance(item, ast.AnnAssign) and _is_dataclass(node)
                  and isinstance(item.target, ast.Name)):
                name = item.target.id
                out.append(("field", f"{node.name}.{name}", name,
                            path, item.lineno, item.end_lineno))
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef))
                and node not in methods and not _is_dunder(node.name)):
            out.append(("function", node.name, node.name,
                        path, node.lineno, node.end_lineno))
    return out


def _reads(path: Path, tree: ast.Module):
    """(kind, name, file, line) of every read the guard counts."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append(("name", node.id, path, node.lineno))
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            out.append(("attribute", node.attr, path, node.lineno))
        elif isinstance(node, ast.alias):
            out.append(("name", node.name.rpartition(".")[2], path,
                        node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.append(("string", node.value, path, node.lineno))
    return out


_COUNTED = {"function": {"name", "attribute"}, "method": {"attribute"},
            "attribute": {"attribute"}, "field": {"attribute", "string"}}


def unread_names() -> list:
    definitions, reads = [], []
    for folder in READERS:
        for path in sorted(folder.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            reads += _reads(path, tree)
            if folder == PACKAGE:
                definitions += _definitions(path, tree)
    by_name: dict = {}
    for kind, name, path, line in reads:
        by_name.setdefault(name, []).append((kind, path, line))
    unread = set()
    for kind, qualified, name, path, first, last in definitions:
        if not any(read in _COUNTED[kind]
                   and not (where == path and first <= line <= last)
                   for read, where, line in by_name.get(name, ())):
            unread.add(qualified)
    return sorted(unread)


def test_every_name_has_a_caller_in_the_package():
    unread = unread_names()
    assert not unread, f"defined but never read in the package: {unread}"


def test_guard_defines_instance_attributes():
    tree = ast.parse("class E:\n"
                     "    def __init__(self, a):\n"
                     "        self.history, self.count = list(a), 0\n"
                     "        self.last: float = 0.0\n")
    found = {qualified: kind for kind, qualified, *_ in
             _definitions(Path("e.py"), tree)}
    assert found == {"E": "function", "E.history": "attribute",
                     "E.count": "attribute", "E.last": "attribute"}
