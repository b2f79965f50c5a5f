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
  to its name (the keyword dicts a record is built from name fields that
  way).

The same syntax tree also yields the parameters that every call sets to
one value (``one_value_parameters``): a parameter that never varies is a
constant passed around, and goes unless ``ALLOWED`` names a reason.  And
it yields the reads of a set of names (``constant_reads``): of the
calibrated constants, which only the recurrence model and the report echo
may make, and of a problem's declared hypotheses, which only the
recurrence model computes with.  And it yields the calls of ``DiskGrid``
outside ``grid.py`` (``grid_constructions``), which must be none: the
package takes every grid from ``grid.disk_grid``.
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


# The calibrated constants are module constants of campanato, read by the
# one recurrence model; a formula anywhere else would be a second model.
# Each other reader is named with its reason.
CONSTANTS = frozenset({"C0", "C1", "C2", "ALPHA"})
CONSTANT_READERS = {
    "recurrence_model": "the one recurrence model: xi, eta and the "
                        "smallness flag",
    "_run_probe": "the report echo: a probe report records the calibration "
                  "it ran with under config.iteration",
}


def constant_reads(package: Path = PACKAGE, names=CONSTANTS) -> dict:
    """Owner -> [(name, "file:line")] of every name or attribute load of
    one of ``names`` in ``package``.  The owner is the module-level
    function or the method (``Class.method``) around the read, nested
    functions included, or ``<module>`` outside any."""
    reads: dict = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners = [(node.name, node) for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        owners += [(f"{node.name}.{item.name}", item) for node in tree.body
                   if isinstance(node, ast.ClassDef) for item in node.body
                   if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            name = (node.attr if isinstance(node, ast.Attribute) else
                    node.id if isinstance(node, ast.Name) else None)
            if name in names and isinstance(node.ctx, ast.Load):
                owner = next((owner for owner, fn in owners
                              if fn.lineno <= node.lineno <= fn.end_lineno),
                             "<module>")
                reads.setdefault(owner, []).append(
                    (name, f"{path.name}:{node.lineno}"))
    return reads


def test_only_the_recurrence_model_reads_the_calibrated_constants():
    reads = constant_reads()
    stray = {owner: where for owner, where in reads.items()
             if owner not in CONSTANT_READERS}
    assert not stray, (
        f"C0, C1, C2 or ALPHA read outside {sorted(CONSTANT_READERS)}: "
        f"{stray}")
    for owner in CONSTANT_READERS:
        assert {name for name, _ in reads.get(owner, ())} == CONSTANTS, owner


# A problem's declared hypotheses at the origin, which the one recurrence
# model turns into N, xi, eta and the smallness flag; the ladder only
# measures.  Each other reader is named with its reason.
HYPOTHESES = frozenset({"tau", "nu", "drift_bound", "omega_a", "omega_b",
                        "hessian_bound"})
HYPOTHESIS_READERS = {
    "recurrence_model": "the one recurrence model",
    "ManufacturedProblem.__post_init__": "the declaration's check that "
                                         "drift_bound is nonnegative",
}


def test_only_the_recurrence_model_reads_the_declared_hypotheses():
    reads = constant_reads(names=HYPOTHESES)
    stray = {owner: where for owner, where in reads.items()
             if owner not in HYPOTHESIS_READERS}
    assert not stray, (
        f"{sorted(HYPOTHESES)} read outside {sorted(HYPOTHESIS_READERS)}: "
        f"{stray}")
    assert {name for name, _ in reads["recurrence_model"]} == HYPOTHESES
    assert set(reads) == set(HYPOTHESIS_READERS)


def test_guard_finds_constant_reads_in_nested_functions(tmp_path):
    (tmp_path / "m.py").write_text(
        "LIMIT = CFG.ALPHA\n"
        "def model(cfg):\n    return cfg.C1\n"
        "class Config:\n    def check(self):\n"
        "        def inner():\n            return self.C2\n"
        "        self.C0 = inner()\n"
        "def echo():\n    C1 = 1.0\n    return {'C0': C0, 'C1': C1}\n")
    assert constant_reads(tmp_path) == {
        "<module>": [("ALPHA", "m.py:1")], "model": [("C1", "m.py:3")],
        "Config.check": [("C2", "m.py:7")],
        "echo": [("C0", "m.py:11"), ("C1", "m.py:11")]}


# Parameters and dataclass fields that every call sets to one value, each
# kept for a reason.  Any other such parameter carries nothing.
ALLOWED = {
    "ManufacturedProblem.nu": "ROADMAP item 4 gives it a nonzero value or "
                              "deletes it",
    "ManufacturedProblem.ellipticity": "a declared hypothesis, like nu; "
                                       "ROADMAP item 4 declares 1/2 for "
                                       "a = (1 + r^gamma) I",
    "ManufacturedProblem.omega_a": "the abstract's Dini hypothesis on a; "
                                   "ROADMAP item 4 gives it a value or "
                                   "deletes it",
    "ManufacturedProblem.omega_b": "the abstract's Dini hypothesis on b; "
                                   "ROADMAP item 4 gives it a value or "
                                   "deletes it",
}


def _field_default(value):
    """(in the constructor, default node or None) of a dataclass field
    whose right-hand side is ``value``; a ``field(...)`` call gives its
    ``default=`` and its ``init=``."""
    if not (isinstance(value, ast.Call)
            and getattr(value.func, "id", getattr(value.func, "attr", None))
            in ("field", "dc_field")):
        return True, value
    given = {kw.arg: kw.value for kw in value.keywords}
    init = given.get("init")
    return (not (isinstance(init, ast.Constant) and init.value is False),
            given.get("default"))


def _parameters(node, method: bool) -> list:
    """(name, default node or None) of a function's parameters, less the
    ``self`` of a method, or of a dataclass's constructor fields."""
    if isinstance(node, ast.ClassDef):
        fields = [(item.target.id, *_field_default(item.value))
                  for item in node.body
                  if isinstance(item, ast.AnnAssign)
                  and isinstance(item.target, ast.Name)]
        return [(name, default) for name, init, default in fields if init]
    args = node.args
    positional = args.posonlyargs + args.args
    defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
    params = [(arg.arg, default)
              for arg, default in zip(positional, defaults)]
    params += [(arg.arg, default)
               for arg, default in zip(args.kwonlyargs, args.kw_defaults)]
    static = any(getattr(deco, "id", None) == "staticmethod"
                 for deco in node.decorator_list)
    return params[1:] if method and not static else params


def _callables(tree: ast.Module):
    """(qualified name, bare name, parameters) of every function, method
    and dataclass constructor."""
    methods = set()
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if _is_dataclass(node):
            out.append((node.name, node.name, _parameters(node, False)))
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.add(item)
                if not _is_dunder(item.name):
                    out.append((f"{node.name}.{item.name}", item.name,
                                _parameters(item, True)))
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node not in methods and not _is_dunder(node.name)):
            out.append((node.name, node.name, _parameters(node, False)))
    return out


def _module_names(trees: list) -> set:
    """The names that a module-level assignment binds in ``trees``."""
    return {target.id for tree in trees for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
            if isinstance(target, ast.Name)}


def _callee(call: ast.Call):
    """The bare name a call calls, by name or attribute."""
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def _literal(node, constants=frozenset(), functions=frozenset()):
    """The repr of a constant literal's value, the name of a module
    constant in ``constants``, (callee, argument values, keyword names) of
    a call of one of ``functions`` with only such arguments, such as
    ``zero_modulus()``, or None for anything else."""
    if isinstance(node, ast.Name) and node.id in constants:
        return node.id
    if isinstance(node, ast.Call) and _callee(node) in functions:
        args = node.args + [kw.value for kw in node.keywords]
        values = tuple(_literal(arg, constants, functions) for arg in args)
        keywords = tuple(kw.arg for kw in node.keywords)
        if None in values or None in keywords:
            return None
        return _callee(node), values, keywords
    try:
        return repr(ast.literal_eval(node))
    except ValueError:
        return None


def _one_value(defining: list, calling: list) -> list:
    """Parameters of a function, method or dataclass constructor defined
    once in the ``defining`` trees that every call by its name in the
    ``calling`` trees sets to one constant literal, one module constant
    of the ``defining`` trees or one call of their module-level functions
    with such arguments, or leaves at its default.  A callable that
    some call passes ``*args`` or ``**kwargs`` is skipped, since its values
    cannot be read off the call."""
    callables = [entry for tree in defining for entry in _callables(tree)]
    constants = _module_names(defining)
    functions = {node.name for tree in defining for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    calls = {}
    for tree in calling:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(node), []).append(node)
    defined = [bare for _, bare, _ in callables]
    found = []
    for qualified, bare, params in callables:
        sites = calls.get(bare, [])
        starred = any(isinstance(arg, ast.Starred) for call in sites
                      for arg in call.args) or any(
            kw.arg is None for call in sites for kw in call.keywords)
        if defined.count(bare) > 1 or not sites or starred:
            continue
        for i, (param, default) in enumerate(params):
            values = set()
            for call in sites:
                given = {kw.arg: kw.value for kw in call.keywords}
                node = (call.args[i] if i < len(call.args)
                        else given.get(param, default))
                values.add(None if node is None
                           else _literal(node, constants, functions))
            if len(values) == 1 and None not in values:
                found.append(f"{qualified}.{param}")
    return sorted(found)


def one_value_parameters() -> list:
    """``_one_value`` of the package, with calls read in it and in
    ``perfbench/``."""
    trees = {folder: [ast.parse(path.read_text(encoding="utf-8"))
                      for path in sorted(folder.glob("*.py"))]
             for folder in READERS}
    return _one_value(trees[PACKAGE], [t for ts in trees.values() for t in ts])


def test_every_parameter_takes_more_than_one_value():
    found = set(one_value_parameters())
    unexplained = found - set(ALLOWED)
    assert not unexplained, (
        f"parameters only ever given one value: {sorted(unexplained)}")
    stale = set(ALLOWED) - found
    assert not stale, (
        f"ALLOWED names parameters that now vary or are gone: {sorted(stale)}")


def test_guard_finds_one_value_parameters():
    tree = ast.parse(
        "def f(a, b=2, *, c=None):\n    pass\n"
        "f(1, c=3)\nf(x, 2, c=3)\n"
        "def g(a):\n    pass\n"
        "g(1)\ng(*xs)\n"
        "@dataclass\nclass D:\n    x: int\n    y: int = 0\n"
        "    w: list = field(repr=False, default=None)\n"
        "    v: list = dc_field(default_factory=list)\n"
        "    u: list = field(init=False, default=None)\n"
        "    def m(self, z):\n        pass\n"
        "D(1)\nD(2, y=0)\nd.m((0.0, 0.0))\n"
        "R: float = 0.5\n"
        "def h(r, s):\n    pass\n"
        "def k():\n    K = 2\n    h(R, K)\n    M = 3\n    h(R, M)\n"
        "def zero(n=0):\n    pass\n"
        "def p(m, q, s):\n    pass\n"
        "p(zero(), zero(1), eye(2))\np(zero(), zero(n=2), eye(2))\n")
    assert _one_value([tree], [tree]) == ["D.m.z", "D.w", "D.y", "f.b", "f.c",
                                          "h.r", "p.m"]


def grid_constructions(package: Path = PACKAGE) -> list:
    """"file:line" of every call of ``DiskGrid`` by name or attribute in
    ``package`` outside ``grid.py``, whose ``disk_grid`` keeps one grid per
    ``(radius, h)`` for the process."""
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "grid.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and _callee(node) == "DiskGrid"]
    return found


def test_only_disk_grid_builds_grids_in_the_package():
    found = grid_constructions()
    assert not found, f"DiskGrid built outside grid.disk_grid: {found}"


def test_guard_finds_grid_constructions(tmp_path):
    (tmp_path / "grid.py").write_text("g = DiskGrid(1.0, 0.1)\n")
    (tmp_path / "m.py").write_text(
        "from .grid import DiskGrid, disk_grid\n"
        "def f(grid: DiskGrid):\n    return disk_grid(1.0, 0.1)\n"
        "a = DiskGrid(1.0, 0.1)\nb = grid.DiskGrid(0.5, 0.05)\n")
    assert grid_constructions(tmp_path) == ["m.py:4", "m.py:5"]
