"""Whole-program call graph + per-function lock summaries for E204/E205.

The per-function E201/E202 checks in :mod:`repro.lint.concurrency_rules`
stop at call boundaries: ``with self._lock: self._flush()`` is clean even
when ``_flush`` sleeps.  This module closes that gap cheaply: it walks
every engine module once, records each function's *direct* facts —

* locks it acquires (``with self._lock:`` resolved to a declared
  ``(class, attr)`` identity), and
* blocking calls it makes (same classifier E202 uses),

then propagates them over a syntactically-resolved call graph to a fixed
point.  The result is a :class:`CallGraph` of picklable
:class:`FunctionSummary` objects: "calling ``Context.stop`` may acquire
``Context._lock`` (level 20) and may block in ``executor.stop``", plus an
example call path for the finding's ``via`` chain.

Call resolution is deliberately conservative — a miss means a missed
finding, never a false one:

* ``self.m(...)`` -> method ``m`` of the enclosing class;
* a bare ``f(...)`` -> module-level ``f`` in the *same* file, or
  ``ClassName(...)`` -> that class's ``__init__``;
* ``ClassName.m(...)`` -> method ``m`` of a known class;
* ``recv.m(...)`` / ``self.recv.m(...)`` -> method ``m`` of the class a
  conventional receiver name maps to (:data:`RECEIVER_CLASSES`).

``RECEIVER_CLASSES`` is a *subset* of the name conventions the lock
identity resolver uses: ``pool``/``_pool`` and ``manager`` are excluded
because they routinely name stdlib objects (``ProcessExecutor._pool`` is
a ``concurrent.futures`` pool, not a ThreadExecutor) and would mis-route
calls.  Nested ``def``s and lambdas are skipped — defining a closure
acquires nothing; deferred bodies are checked on their own.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.engine.lockorder import (
    ADMISSION_GATE_LOCKS,
    DATA_PLANE_MAX_LEVEL,
    LOCK_LEVELS,
    MODULE_LOCK_LEVELS,
)
from repro.lint.model import dotted_name

__all__ = [
    "CallGraph",
    "FunctionSummary",
    "build_callgraph",
    "build_callgraph_from_tree",
    "lock_key",
    "lock_level",
    "format_lock",
    "classify_blocking",
    "is_admission_gate",
    "RECEIVER_CLASSES",
    "OWNER_NAME_CLASSES",
    "BLOCKING_SIMPLE",
]

LockKey = Tuple[Optional[str], str]

# ----------------------------------------------------------------------
# lock identity + blocking classification (shared with concurrency_rules)
# ----------------------------------------------------------------------

#: Conventional owner names -> lock-owning class, for resolving
#: ``self._ctx._lock`` / ``bus._lock`` style cross-object acquisitions.
OWNER_NAME_CLASSES: Dict[str, str] = {
    "ctx": "Context", "_ctx": "Context", "context": "Context",
    "bus": "EventBus", "_bus": "EventBus", "event_bus": "EventBus",
    "store": "BlockStore", "_store": "BlockStore",
    "block_store": "BlockStore", "blockstore": "BlockStore", "_blockstore": "BlockStore",
    "server": "ReproServer", "_server": "ReproServer",
    "executor": "ThreadExecutor", "_executor": "ThreadExecutor",
    "pool": "ThreadExecutor", "_pool": "ThreadExecutor",
    "recorder": "FlightRecorder", "_recorder": "FlightRecorder",
    "scheduler": "Scheduler", "_scheduler": "Scheduler",
}

#: Receiver names trusted for *call* routing.  Narrower than
#: OWNER_NAME_CLASSES: a wrong lock identity merely changes a level
#: lookup, a wrong call target imports a whole foreign summary.
RECEIVER_CLASSES: Dict[str, str] = {
    k: v for k, v in OWNER_NAME_CLASSES.items()
    if k not in ("pool", "_pool")
}

#: Lock attributes that name their owner unambiguously (``_engine_lock``
#: only exists on ReproServer), usable without knowing the owner object.
_UNIQUE_ATTR_CLASSES: Dict[str, Optional[str]] = {}
for (_cls, _attr) in LOCK_LEVELS:
    _UNIQUE_ATTR_CLASSES[_attr] = None if _attr in _UNIQUE_ATTR_CLASSES else _cls
_UNIQUE_ATTR_CLASSES = {a: c for a, c in _UNIQUE_ATTR_CLASSES.items() if c}

#: Call names (dotted tails) that block the calling thread.
BLOCKING_SIMPLE = frozenset({"sleep", "recv", "recv_bytes", "acquire", "result",
                             "wait", "wait_for", "shutdown"})


def _owner_class(owner: ast.AST) -> Optional[str]:
    """Class owning ``<owner>._lock``, from conventional naming."""
    name = None
    if isinstance(owner, ast.Name):
        name = owner.id
    elif isinstance(owner, ast.Attribute):
        name = owner.attr
    return OWNER_NAME_CLASSES.get(name) if name else None


def lock_key(expr: ast.AST, class_name: Optional[str],
             aliases: Mapping[str, LockKey]) -> Optional[LockKey]:
    """Resolve a with-item expression to a lock identity, if it looks like one."""
    if isinstance(expr, ast.Attribute):
        if "lock" not in expr.attr:
            return None
        if isinstance(expr.value, ast.Name) and expr.value.id == "self":
            return (class_name, expr.attr)
        owner = _owner_class(expr.value) or _UNIQUE_ATTR_CLASSES.get(expr.attr)
        return (owner, expr.attr)
    if isinstance(expr, ast.Name):
        if expr.id in aliases:
            return aliases[expr.id]
        if "lock" in expr.id:
            return (_UNIQUE_ATTR_CLASSES.get(expr.id), expr.id)
    return None


def lock_level(key: LockKey) -> Optional[int]:
    cls, attr = key
    if cls is not None:
        return LOCK_LEVELS.get((cls, attr))
    return MODULE_LOCK_LEVELS.get(attr)


def format_lock(key: LockKey) -> str:
    cls, attr = key
    return f"{cls}.{attr}" if cls else attr


def is_admission_gate(key: LockKey) -> bool:
    """True for locks that serialize whole operations by design (E205 skips them)."""
    return tuple(key) in ADMISSION_GATE_LOCKS


def classify_blocking(name: str) -> Optional[str]:
    """Describe why a dotted call name blocks, or None if it doesn't."""
    parts = name.split(".")
    leaf = parts[-1]
    if leaf in BLOCKING_SIMPLE:
        return f"{name}()"
    if leaf == "post" and len(parts) >= 2 and "bus" in parts[-2]:
        return f"{name}() (event-bus publish runs arbitrary listener code)"
    if leaf == "get" and len(parts) >= 2 and any(
        h in parts[-2] for h in ("queue", "pipe", "conn")
    ):
        return f"{name}()"
    if leaf == "join" and len(parts) >= 2 and any(
        h in parts[-2] for h in ("thread", "proc", "worker", "pool")
    ):
        return f"{name}()"
    return None


# ----------------------------------------------------------------------
# summaries
# ----------------------------------------------------------------------
@dataclass
class FunctionSummary:
    """What calling one function may do, transitively."""

    #: "Class._attr" / bare module lock -> (level, example call path).
    #: An empty path means the function acquires the lock directly.
    locks: Dict[str, Tuple[int, Tuple[str, ...]]] = field(default_factory=dict)
    #: blocking call description -> example call path to the blocking site.
    blocking: Dict[str, Tuple[str, ...]] = field(default_factory=dict)


@dataclass
class CallGraph:
    """Resolved call edges + fixed-point summaries for a set of modules."""

    #: qualified id ("<file>::Class.method" / "<file>::func") -> summary
    summaries: Dict[str, FunctionSummary] = field(default_factory=dict)
    #: (class name, method name) -> qualified id
    methods: Dict[Tuple[str, str], str] = field(default_factory=dict)
    #: (filename, function name) -> qualified id
    module_funcs: Dict[Tuple[str, str], str] = field(default_factory=dict)
    #: known top-level class names
    class_names: Set[str] = field(default_factory=set)

    def display(self, qid: str) -> str:
        return qid.rsplit("::", 1)[-1]

    def lookup(self, filename: str, class_name: Optional[str],
               name: str) -> Optional[str]:
        """Qualified id a dotted call name resolves to, or None."""
        parts = name.split(".")
        leaf = parts[-1]
        if len(parts) == 1:
            qid = self.module_funcs.get((filename, leaf))
            if qid is not None:
                return qid
            if leaf in self.class_names:
                return self.methods.get((leaf, "__init__"))
            return None
        recv = parts[-2]
        if recv == "self" and len(parts) == 2:
            if class_name is not None:
                return self.methods.get((class_name, leaf))
            return None
        cls = RECEIVER_CLASSES.get(recv)
        if cls is None and recv in self.class_names:
            cls = recv
        if cls is not None:
            return self.methods.get((cls, leaf))
        return None

    def summary_for_call(self, filename: str, class_name: Optional[str],
                         name: str) -> Optional[Tuple[str, FunctionSummary]]:
        """(display name, summary) for a call site, or None if unresolved."""
        qid = self.lookup(filename, class_name, name)
        if qid is None:
            return None
        summary = self.summaries.get(qid)
        if summary is None:
            return None
        return self.display(qid), summary


class _DirectFacts(ast.NodeVisitor):
    """Direct locks/blocking/call edges of one function body."""

    def __init__(self, filename: str, class_name: Optional[str]) -> None:
        self.filename = filename
        self.class_name = class_name
        self.aliases: Dict[str, LockKey] = {}
        self.locks: Dict[str, int] = {}
        self.blocking: Set[str] = set()
        self.calls: List[str] = []  # dotted call names, resolved later

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Name):
                key = lock_key(node.value, self.class_name, self.aliases)
                if key is not None:
                    self.aliases[target.id] = key
                else:
                    self.aliases.pop(target.id, None)
        self.generic_visit(node)

    def _record_lock(self, expr: ast.AST) -> None:
        key = lock_key(expr, self.class_name, self.aliases)
        if key is None:
            return
        level = lock_level(key)
        if level is not None:
            self.locks.setdefault(format_lock(key), level)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            self._record_lock(item.context_expr)
        self.generic_visit(node)

    visit_AsyncWith = visit_With

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name:
            why = classify_blocking(name)
            if why is not None:
                self.blocking.add(why)
            else:
                self.calls.append(name)
        self.generic_visit(node)

    # Deferred bodies acquire nothing at call time.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


def build_callgraph(trees: Mapping[str, ast.Module]) -> CallGraph:
    """Build summaries for ``{filename: parsed module}`` to a fixed point."""
    graph = CallGraph()
    facts: Dict[str, _DirectFacts] = {}

    def add_function(filename: str, fn: ast.AST, class_name: Optional[str]) -> None:
        label = f"{class_name}.{fn.name}" if class_name else fn.name
        qid = f"{filename}::{label}"
        if qid in graph.summaries:
            return
        collector = _DirectFacts(filename, class_name)
        for stmt in fn.body:
            collector.visit(stmt)
        facts[qid] = collector
        graph.summaries[qid] = FunctionSummary(
            locks={k: (lvl, ()) for k, lvl in collector.locks.items()},
            blocking={b: () for b in collector.blocking},
        )
        if class_name:
            graph.methods.setdefault((class_name, fn.name), qid)
        else:
            graph.module_funcs.setdefault((filename, fn.name), qid)

    for filename in sorted(trees):
        tree = trees[filename]
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                graph.class_names.add(node.name)
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        add_function(filename, sub, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                add_function(filename, node, None)

    # Resolve call edges once, then propagate to a fixed point.
    edges: Dict[str, List[str]] = {}
    for qid, collector in facts.items():
        filename = qid.split("::", 1)[0]
        out: List[str] = []
        for name in collector.calls:
            callee = graph.lookup(filename, collector.class_name, name)
            if callee is not None and callee != qid:
                out.append(callee)
        edges[qid] = out

    changed = True
    while changed:
        changed = False
        for qid, callees in edges.items():
            summary = graph.summaries[qid]
            for callee_qid in callees:
                callee = graph.summaries[callee_qid]
                hop = graph.display(callee_qid)
                for lk, (lvl, path) in callee.locks.items():
                    if lk not in summary.locks:
                        summary.locks[lk] = (lvl, (hop, *path))
                        changed = True
                for why, path in callee.blocking.items():
                    if why not in summary.blocking:
                        summary.blocking[why] = (hop, *path)
                        changed = True
    return graph


def build_callgraph_from_tree(tree: ast.Module, filename: str) -> CallGraph:
    """Single-module convenience used by ``analyze_source``."""
    return build_callgraph({filename: tree})
