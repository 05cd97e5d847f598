"""Engine-concurrency rules (E2xx) for ``repro.engine``/``serve``/``obs``.

The engine's locks form a declared hierarchy (outer acquired first); the
normative table lives in :mod:`repro.engine.lockorder` — one registry
shared by this analyzer and the runtime sanitizer
(:class:`repro.engine.lockorder.OrderedLock`), so the linter and live
threads can never disagree about the order.

Identity is resolved syntactically: ``with self._lock:`` inside
``class BlockStore`` is the BlockStore lock, a module-level
``with _stage_lock:`` is keyed by module, and local aliases
(``lock = self._engine_lock``) are followed within a function.

E201/E202 are per-function.  When a :class:`~repro.lint.callgraph.CallGraph`
is supplied, E204/E205 extend the same checks across call boundaries
using fixed-point per-function summaries: E204 flags a call that may
*transitively* acquire a lock out of order, E205 a call that may block
while a data-plane lock is held (admission-gate locks — see
``lockorder.ADMISSION_GATE_LOCKS`` — are exempt from E205: they
serialize whole operations by design).  E206 is the completeness
meta-check: every raw ``threading.Lock()``/``RLock()`` assignment and
every ``OrderedLock("name")`` literal in an engine module must have a
declared level.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple

from repro.engine.lockorder import (
    DATA_PLANE_MAX_LEVEL as _DATA_PLANE_MAX_LEVEL,
    LOCK_LEVELS,
    MODULE_LOCK_LEVELS,
    lock_level as _declared_level,
)
from repro.lint.callgraph import (
    CallGraph,
    classify_blocking,
    format_lock as _fmt,
    is_admission_gate,
    lock_key as _lock_key,
    lock_level as _lock_level,
)
from repro.lint.model import LintFinding, dotted_name
from repro.lint.rules import RULES

__all__ = ["analyze_concurrency", "is_engine_module"]


def is_engine_module(filename: str) -> bool:
    path = filename.replace("\\", "/")
    return any(part in path for part in ("repro/engine/", "repro/serve/", "repro/obs/"))


class _FunctionChecker(ast.NodeVisitor):
    """E201/E202/E203 (+ interprocedural E204/E205) over one function body."""

    def __init__(self, analyzer: "_ConcurrencyAnalyzer", class_name: Optional[str]) -> None:
        self.analyzer = analyzer
        self.class_name = class_name
        # alias name -> lock key, from `lock = self._lock` style assigns
        self.aliases: Dict[str, Tuple[Optional[str], str]] = {}
        # stack of (lock key, level, with-statement line)
        self.held: List[Tuple[Tuple[Optional[str], str], Optional[int], int]] = []
        # event name -> post line (for E203)
        self.posted: Dict[str, int] = {}

    # -- alias tracking -----------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        targets = node.targets
        if len(targets) == 1 and isinstance(targets[0], (ast.Tuple, ast.List)) and isinstance(
            node.value, (ast.Tuple, ast.List)
        ) and len(targets[0].elts) == len(node.value.elts):
            pairs = list(zip(targets[0].elts, node.value.elts))
        else:
            pairs = [(t, node.value) for t in targets]
        for target, value in pairs:
            if isinstance(target, ast.Name):
                key = _lock_key(value, self.class_name, self.aliases)
                if key is not None:
                    self.aliases[target.id] = key
                else:
                    self.aliases.pop(target.id, None)
                # Assigning a Name clears any posted-event tracking on it.
                self.posted.pop(target.id, None)
        self.generic_visit(node)

    # -- E201 + E202 scaffolding --------------------------------------
    def visit_With(self, node: ast.With) -> None:
        acquired = 0
        for item in node.items:
            self.visit(item.context_expr)
            key = _lock_key(item.context_expr, self.class_name, self.aliases)
            if key is None:
                continue
            level = _lock_level(key)
            self._check_order(key, level, node)
            self.held.append((key, level, node.lineno))
            acquired += 1
        for stmt in node.body:
            self.visit(stmt)
        for _ in range(acquired):
            self.held.pop()

    visit_AsyncWith = visit_With

    def _check_order(self, key, level: Optional[int], node: ast.With) -> None:
        if level is None:
            return
        for held_key, held_level, held_line in self.held:
            if held_level is None:
                continue
            if level <= held_level:
                self.analyzer.emit(
                    "E201", node,
                    f"acquires {_fmt(key)} (level {level}) while holding "
                    f"{_fmt(held_key)} (level {held_level}, line {held_line}) — "
                    "declared order is outer-to-inner, strictly descending",
                    chain=(f"holding {_fmt(held_key)} since line {held_line}",
                           f"acquiring {_fmt(key)}"),
                )

    # -- E202 + E203 + interprocedural E204/E205 ----------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name:
            direct_blocking = self._check_blocking(name, node)
            self._track_post(name, node)
            if not direct_blocking and self.held and self.analyzer.callgraph is not None:
                self._check_summary(name, node)
        self.generic_visit(node)

    def _innermost_data_plane_lock(self):
        for key, level, line in reversed(self.held):
            if level is not None and level <= _DATA_PLANE_MAX_LEVEL:
                return key, level, line
        return None

    def _check_blocking(self, name: str, node: ast.Call) -> bool:
        blocking = classify_blocking(name)
        if blocking is None:
            return False
        held = self._innermost_data_plane_lock()
        if held is None:
            return True  # still a direct blocking call: E205 has nothing to add
        key, level, line = held
        self.analyzer.emit(
            "E202", node,
            f"{blocking} while holding {_fmt(key)} (acquired line {line}) — "
            "stalls every task on the data plane and risks deadlock",
            chain=(f"holding {_fmt(key)} since line {line}", f"call {name}"),
            anchor_lines=(line,),
        )
        return True

    def _check_summary(self, name: str, node: ast.Call) -> None:
        """E204/E205: consult the callee's transitive lock summary."""
        resolved = self.analyzer.callgraph.summary_for_call(
            self.analyzer.filename, self.class_name, name
        )
        if resolved is None:
            return
        display, summary = resolved

        # E204: the callee may acquire a lock at or below a held level.
        for lk, (level, path) in sorted(summary.locks.items()):
            for held_key, held_level, held_line in self.held:
                if held_level is None or _fmt(held_key) == lk:
                    continue  # unknown level / reentrant re-acquisition
                if level <= held_level:
                    hops = tuple(f"which calls {hop}" for hop in path)
                    self.analyzer.emit(
                        "E204", node,
                        f"call to {display}() may acquire {lk} (level {level}) "
                        f"while holding {_fmt(held_key)} (level {held_level}, "
                        f"line {held_line}) — transitive acquisition violates "
                        "the declared order",
                        chain=(f"holding {_fmt(held_key)} since line {held_line}",
                               f"call {display}", *hops,
                               f"acquires {lk} (level {level})"),
                        anchor_lines=(held_line,),
                    )
                    break  # one finding per (call, lock) is enough

        # E205: the callee may block while we hold a data-plane lock.
        held = self._innermost_data_plane_lock()
        if held is None:
            return
        key, _level, line = held
        if is_admission_gate(key):
            return  # gate locks serialize whole operations by design
        for why, path in sorted(summary.blocking.items()):
            hops = tuple(f"which calls {hop}" for hop in path)
            self.analyzer.emit(
                "E205", node,
                f"call to {display}() may block in {why} while holding "
                f"{_fmt(key)} (acquired line {line}) — stalls every task "
                "on the data plane and risks deadlock",
                chain=(f"holding {_fmt(key)} since line {line}",
                       f"call {display}", *hops, f"blocks in {why}"),
                anchor_lines=(line,),
            )
            break  # one finding per call site

    def _track_post(self, name: str, node: ast.Call) -> None:
        parts = name.split(".")
        if parts[-1] != "post" or len(parts) < 2:
            return
        if not any("bus" in p or p == "_post" for p in parts[:-1]):
            return
        for arg in node.args:
            if isinstance(arg, ast.Name):
                self.posted.setdefault(arg.id, node.lineno)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id in self.posted
        ):
            post_line = self.posted[node.value.id]
            self.analyzer.emit(
                "E203", node,
                f"mutates {node.value.id}.{node.attr} after posting "
                f"{node.value.id!r} to the event bus at line {post_line} — "
                "listeners hold the original object",
                chain=(f"posted {node.value.id!r} at line {post_line}",
                       f"mutated .{node.attr}"),
            )
        self.generic_visit(node)

    # nested defs get their own checker (fresh lock state)
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.analyzer.check_function(node, self.class_name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.analyzer.check_function(node, self.class_name)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass  # lambdas with lock acquisition don't exist; skip


#: Raw lock constructors E206 demands a declared level for.
_RAW_LOCK_CALLS = frozenset({"threading.Lock", "threading.RLock"})


class _ConcurrencyAnalyzer:
    def __init__(self, filename: str, callgraph: Optional[CallGraph] = None) -> None:
        self.filename = filename
        self.callgraph = callgraph
        self.findings: List[LintFinding] = []

    def emit(self, rule: str, node: ast.AST, message: str,
             chain: Tuple[str, ...] = (), anchor_lines: Tuple[int, ...] = ()) -> None:
        self.findings.append(
            LintFinding(
                rule=rule,
                file=self.filename,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                message=message,
                chain=chain,
                hint=RULES[rule].hint,
                anchor_lines=anchor_lines,
            )
        )

    def check_function(self, fn_node, class_name: Optional[str]) -> None:
        checker = _FunctionChecker(self, class_name)
        for stmt in fn_node.body:
            checker.visit(stmt)

    def run(self, tree: ast.Module) -> None:
        self._walk(tree.body, class_name=None)
        self._scan_undeclared_locks(tree)

    def _walk(self, body, class_name: Optional[str]) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                self._walk(node.body, class_name=node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.check_function(node, class_name)

    # -- E206: lock-registry completeness -----------------------------
    def _scan_undeclared_locks(self, tree: ast.Module) -> None:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for sub in ast.walk(node):
                    if isinstance(sub, (ast.Assign, ast.AnnAssign)):
                        self._check_lock_assign(sub, node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                self._check_lock_assign(node, None)

    def _check_lock_assign(self, node, class_name: Optional[str]) -> None:
        value = node.value
        if not isinstance(value, ast.Call):
            return
        ctor = dotted_name(value.func)
        if ctor is None:
            return
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        if ctor in _RAW_LOCK_CALLS:
            for target in targets:
                owner = None
                if (class_name is not None and isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    owner, declared = (class_name, target.attr), (
                        (class_name, target.attr) in LOCK_LEVELS)
                elif class_name is None and isinstance(target, ast.Name):
                    owner, declared = (None, target.id), target.id in MODULE_LOCK_LEVELS
                if owner is not None and not declared:
                    self.emit(
                        "E206", node,
                        f"{_fmt(owner)} = {ctor}() has no declared level — "
                        "every engine lock must appear in "
                        "repro.engine.lockorder and use OrderedLock",
                    )
        elif ctor.split(".")[-1] == "OrderedLock":
            args = value.args
            if (args and isinstance(args[0], ast.Constant)
                    and isinstance(args[0].value, str)
                    and _declared_level(args[0].value) is None):
                self.emit(
                    "E206", node,
                    f"OrderedLock({args[0].value!r}) is not registered in "
                    "repro.engine.lockorder — it will raise "
                    "UndeclaredLockError at construction",
                )


def analyze_concurrency(
    tree: ast.Module, filename: str, callgraph: Optional[CallGraph] = None
) -> List[LintFinding]:
    """Run the E2xx family over one parsed engine/serve/obs module.

    With *callgraph* (built over the whole file set, or at least this
    module), the interprocedural E204/E205 run too; without it only the
    per-function rules apply.
    """
    analyzer = _ConcurrencyAnalyzer(filename, callgraph)
    analyzer.run(tree)
    return analyzer.findings
