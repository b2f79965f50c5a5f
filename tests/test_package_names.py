"""Every function, class and method of the package has a caller in it.

Code whose only caller is its own unit test either gets a real caller or
is deleted; this test finds the names that have none.
"""
from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "regprobe"

# Only tests call trace_to_csv; the benchmark's span recorder patches it,
# and it goes with ROADMAP item 1 (per-rung diagnostics on disk).
ALLOWED = {"trace_to_csv"}


def test_every_name_has_a_caller_in_the_package():
    sources = [p.read_text(encoding="utf-8")
               for p in sorted(PACKAGE.glob("*.py"))]
    defined = Counter()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not (node.name.startswith("__")
                             and node.name.endswith("__"))):
                defined[node.name] += 1
    text = "\n".join(sources)
    unused = sorted(
        name for name, count in defined.items()
        if name not in ALLOWED
        and len(re.findall(rf"\b{re.escape(name)}\b", text)) <= count)
    assert not unused, f"defined but never used in the package: {unused}"
