"""Every public module-level name under ``src/repro`` is reached.

A module-level ``def`` or ``class`` whose name does not start with an
underscore must be *referenced* somewhere an entry point can see it:
as an ``ast.Name`` or ``ast.Attribute`` in a file under ``src/``,
``examples/``, ``benchmarks/`` or ``perf/``, or as a word in the CI
workflow (whose heredocs are Python too).  Imports, ``__all__`` strings
and the definition itself do not count, so a name that is only
re-exported, or only used by its own tests, fails here.

``KEPT`` lists the few names kept for the test suite alone: oracles the
tests compare a surviving path against and sanitizer hooks.  Each value
is the test file that uses the name.

The scan is static (stdlib ``ast``) and imports none of the analysed
code.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
SCANNED = ("src", "examples", "benchmarks", "perf")
CI = ROOT / ".github" / "workflows" / "ci.yml"

KEPT = {
    # oracles a test compares a surviving path against
    "PyDictPosterior": "tests/baseline/test_pydict.py",
    "ExhaustiveCandidates": "tests/halving/test_candidates.py",
    "pool_count_distribution": "tests/lattice/test_ops.py",
    "condition_on_classification": "tests/lattice/test_ops.py",
    "build_restricted_prior": "tests/sbgt/test_distributed_lattice.py",
    "prune_by_mass": "tests/sbgt/test_backends.py",
    # lock-order sanitizer hooks
    "sanitizer_mode": "tests/engine/test_lockorder.py",
    "violations": "tests/engine/test_lockorder.py",
    "held_locks": "tests/engine/test_lockorder.py",
    # closure-capture report, kept until the lint bridge is decided
    "capture_report": "tests/lint/test_bridge.py",
}


def _public_defs():
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    yield path.relative_to(ROOT), node.name


def _referenced_names():
    names = set()
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    names.update(re.findall(r"\w+", CI.read_text(encoding="utf-8")))
    return names


def test_every_public_name_is_reached_or_kept():
    referenced = _referenced_names()
    unreached = [
        f"{path}: {name}"
        for path, name in _public_defs()
        if name not in referenced and name not in KEPT
    ]
    assert unreached == []


def test_kept_names_are_still_unreached_and_tested():
    referenced = _referenced_names()
    defined = {name for _, name in _public_defs()}
    for name, test_file in KEPT.items():
        assert name in defined, name
        assert name not in referenced, f"{name} is reached; drop it from KEPT"
        assert name in (ROOT / test_file).read_text(encoding="utf-8"), (name, test_file)
