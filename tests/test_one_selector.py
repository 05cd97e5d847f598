"""Each selection rule is written once, and nothing dispatches on a policy.

The halving, look-ahead and information-gain arg-mins are module-level
functions of :mod:`repro.halving` that read a belief's statistics; the
session and the stepper call ``policy.select`` and never ask what kind
of policy it is, and only the stepper runs the stage loop.  The scan is
static, like
``tests/test_no_deprecation_shims.py``.
"""

import ast
import re
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
RULES = ("select_halving_pool", "select_lookahead_pools", "select_infogain_pool")


def test_each_rule_is_defined_exactly_once():
    # Module-level functions only: the baselines' same-named *methods*
    # are the independent references the R2 speedups are taken against.
    defined = {rule: [] for rule in RULES}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and node.name in defined:
                defined[node.name].append(path.relative_to(SRC).as_posix())
    assert defined == {
        "select_halving_pool": ["halving/bha.py"],
        "select_lookahead_pools": ["halving/lookahead.py"],
        "select_infogain_pool": ["halving/infogain.py"],
    }


def test_sbgt_has_no_distributed_twin_and_no_policy_dispatch():
    found = []
    for path in sorted((SRC / "sbgt").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        if "_distributed" in text:
            found.append(f"{path.name}: a _distributed name")
        if re.search(r"isinstance\([^)]*policy", text, re.IGNORECASE):
            found.append(f"{path.name}: isinstance on a policy")
    assert found == []
    assert not (SRC / "sbgt" / "selector.py").exists()


def test_one_stage_loop():
    """``policy.select`` is called from the stepper's stage loop and from
    the hybrid policy's delegation to its halving half — nowhere else,
    so no second driver can grow its own stage order."""
    callers = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "select"
            ):
                callers.append(path.relative_to(SRC).as_posix())
    assert sorted(callers) == ["halving/hybrid.py", "sbgt/stepper.py"]


def test_one_exact_dense_backend():
    """The lattice kernels' update and mass/marginal folds run from one
    backend, whichever plane holds its blocks: no second dense backend
    can grow its own copy of the twelve protocol methods."""
    importers = []
    for path in sorted((SRC / "sbgt").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and any(
                alias.name in ("block_update", "block_mass_marginals") for alias in node.names
            ):
                importers.append(path.name)
    assert importers == ["distributed_lattice.py"]
    root = SRC.parents[1]
    named = [
        path.relative_to(root).as_posix()
        for top in ("src", "examples", "benchmarks")
        for path in sorted((root / top).rglob("*.py"))
        if "LocalLattice" in path.read_text(encoding="utf-8")
    ]
    assert named == []
