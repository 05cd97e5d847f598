"""``src/repro`` carries no deprecation shims.

A removed name is removed: nothing under ``src/repro`` raises a
``DeprecationWarning`` or answers for a missing name through a
module-level ``__getattr__`` (PEP 562).  The scan is static because a
blanket ``-W error::DeprecationWarning`` also trips on third-party
pytest plugins.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent


def _shims(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == "__getattr__":
            yield node.lineno, "module-level __getattr__"
    for node in ast.walk(tree):
        name = getattr(node, "id", getattr(node, "attr", ""))
        if isinstance(node, (ast.Name, ast.Attribute)) and name.endswith("DeprecationWarning"):
            yield node.lineno, name


def test_no_deprecation_warning_and_no_module_getattr():
    found = [
        f"{path.relative_to(SRC)}:{lineno}: {what}"
        for path in sorted(SRC.rglob("*.py"))
        for lineno, what in _shims(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []
