"""Determinism rules (D3xx) for the statistical core.

The paper's headline numbers are only meaningful if a screen replays
bit-identically from its seed.  These rules police the packages that
compute posteriors, choose pools and simulate fleets
(:func:`is_determinism_module`) for ambient-entropy leaks:

* D301 — unseeded random sources (``random.random()``, legacy
  ``np.random.*`` module calls, ``default_rng()`` with no seed);
* D302 — iterating a set expression (hash order feeds pool selection);
* D303 — wall-clock reads (``time.time``/``datetime.now``; durations
  for *reporting* belong in the metrics layer — ``perf_counter`` and
  ``monotonic`` are not flagged);
* D304 — ``id()`` used as a container key or sort key;
* D305 — builtin ``hash()`` (salted per process; use
  ``hashlib.blake2b``).

Everything is syntactic and deliberately narrow: a miss is acceptable,
a false positive in the hot path of ``repro lint src`` is not.  D302
only fires on *literal* set expressions (displays, comprehensions,
``set(...)``/``frozenset(...)`` calls) used directly as iteration
targets and not wrapped in ``sorted()``.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Tuple

from repro.lint.model import LintFinding, dotted_name
from repro.lint.rules import RULES

__all__ = ["analyze_determinism", "is_determinism_module"]

#: Packages whose results must replay bit-identically from a seed.
_DETERMINISM_PACKAGES = (
    "repro/sbgt/",
    "repro/surveil/",
    "repro/simulate/",
    "repro/bayes/",
    "repro/lattice/",
)


def is_determinism_module(filename: str) -> bool:
    path = filename.replace("\\", "/")
    return any(part in path for part in _DETERMINISM_PACKAGES)


#: Legacy global-state RNG leaves: ``random.X`` and ``np.random.X``.
_LEGACY_RNG_LEAVES = frozenset({
    "random", "rand", "randn", "randint", "random_integers", "random_sample",
    "choice", "shuffle", "permutation", "sample", "randrange", "uniform",
    "normal", "gauss", "standard_normal", "poisson", "binomial",
    "exponential", "beta", "gamma", "seed", "getrandbits",
})

#: Wall-clock reads (leaf of a ``time.``/``datetime.`` dotted name).
_WALL_CLOCK = frozenset({"time", "time_ns", "now", "utcnow", "today"})
_WALL_CLOCK_MODULES = ("time", "datetime", "date")


def _call_has_seed(node: ast.Call) -> bool:
    return bool(node.args) or any(kw.arg in ("seed", "entropy") for kw in node.keywords)


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return dotted_name(node.func) in ("set", "frozenset")
    return False


class _DeterminismChecker(ast.NodeVisitor):
    def __init__(self, filename: str) -> None:
        self.filename = filename
        self.findings: List[LintFinding] = []

    def emit(self, rule: str, node: ast.AST, message: str,
             chain: Tuple[str, ...] = ()) -> None:
        self.findings.append(
            LintFinding(
                rule=rule,
                file=self.filename,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                message=message,
                chain=chain,
                hint=RULES[rule].hint,
            )
        )

    # -- D301 / D303 / D305 on calls ----------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name:
            self._check_rng(name, node)
            self._check_clock(name, node)
            if name == "hash":
                self.emit(
                    "D305", node,
                    "builtin hash() is salted per process (PYTHONHASHSEED) — "
                    "derived seeds/partitions differ between interpreter runs",
                )
        self._check_id_sort_key(node)
        self.generic_visit(node)

    def _check_rng(self, name: str, node: ast.Call) -> None:
        parts = name.split(".")
        leaf = parts[-1]
        if leaf == "default_rng" and not _call_has_seed(node):
            self.emit(
                "D301", node,
                f"{name}() without a seed draws fresh OS entropy — the "
                "stream cannot be replayed",
            )
        elif leaf == "Random" and len(parts) >= 2 and parts[-2] == "random" \
                and not _call_has_seed(node):
            self.emit(
                "D301", node,
                f"{name}() without a seed cannot be replayed",
            )
        elif leaf in _LEGACY_RNG_LEAVES and len(parts) >= 2 and parts[-2] == "random":
            self.emit(
                "D301", node,
                f"{name}() uses the global {'numpy ' if len(parts) > 2 else ''}"
                "random state — shared, unseeded, and order-dependent",
            )

    def _check_clock(self, name: str, node: ast.Call) -> None:
        parts = name.split(".")
        if len(parts) < 2 or parts[-1] not in _WALL_CLOCK:
            return
        if parts[-2] not in _WALL_CLOCK_MODULES:
            return
        self.emit(
            "D303", node,
            f"{name}() reads the wall clock — results become "
            "run-time-dependent and stop replaying from the seed",
        )

    def _check_id_sort_key(self, node: ast.Call) -> None:
        for kw in node.keywords:
            if kw.arg == "key" and isinstance(kw.value, ast.Name) \
                    and kw.value.id == "id":
                self.emit(
                    "D304", node,
                    "sorting by id() orders by allocation address — "
                    "unstable across runs and processes",
                )

    # -- D302: set iteration ------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        self._check_set_iter(node.iter)
        self.generic_visit(node)

    visit_AsyncFor = visit_For

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_set_iter(node.iter)
        self.generic_visit(node)

    def _check_set_iter(self, target: ast.AST) -> None:
        if _is_set_expr(target):
            self.emit(
                "D302", target,
                "iterating a set — order depends on hash salt and insertion "
                "history, so downstream selections differ between runs",
            )

    # -- D304: id() as a container key --------------------------------
    def visit_Subscript(self, node: ast.Subscript) -> None:
        if self._is_id_call(node.slice):
            self.emit(
                "D304", node,
                "container keyed by id() — allocation addresses are "
                "unstable across runs, processes and pickling",
            )
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        for key in node.keys:
            if key is not None and self._is_id_call(key):
                self.emit(
                    "D304", key,
                    "dict literal keyed by id() — allocation addresses are "
                    "unstable across runs, processes and pickling",
                )
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        if self._is_id_call(node.key):
            self.emit(
                "D304", node.key,
                "dict comprehension keyed by id() — allocation addresses "
                "are unstable across runs, processes and pickling",
            )
        self.generic_visit(node)

    @staticmethod
    def _is_id_call(node: ast.AST) -> bool:
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "id")


def analyze_determinism(tree: ast.Module, filename: str) -> List[LintFinding]:
    """Run the D3xx family over one parsed statistical-core module."""
    checker = _DeterminismChecker(filename)
    checker.visit(tree)
    return checker.findings
