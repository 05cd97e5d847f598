"""Shared analysis scaffolding: findings, suppressions, scopes, type tags.

The analyzer is a plain ``ast`` walk — no imports of the analyzed code —
so it can lint broken or heavyweight modules safely.  Name resolution is
deliberately *syntactic*: a name's "type tag" is inferred from how it
was bound (``ctx = Context(...)``, ``with open(p) as fh``, an
annotation, a transform-chain call …), which is exactly the information
a reviewer uses when eyeballing a closure.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "LintFinding",
    "Suppressions",
    "ScopeInfo",
    "TRANSFORM_METHODS",
    "DRIVER_TAGS",
    "UNPICKLABLE_TAGS",
    "infer_type_tag",
    "infer_annotation_tag",
    "free_names",
    "dotted_name",
]


@dataclass(frozen=True)
class LintFinding:
    """One diagnostic: rule + location + explanation + fix hint."""

    rule: str
    file: str
    line: int
    col: int
    message: str
    #: Captured-name chain, outermost first, e.g.
    #: ``("map @ demo.py:12", "fn 'flag'", "capture 'bus' (EventBus, bound at line 4)")``.
    chain: Tuple[str, ...] = ()
    hint: str = ""
    #: Extra lines whose suppression comments also silence this finding
    #: (e.g. the ``with`` statement a blocking-call finding sits inside).
    anchor_lines: Tuple[int, ...] = ()

    def to_dict(self) -> dict:
        """Stable JSON shape (schema locked down by tests)."""
        return {
            "rule": self.rule,
            "file": self.file,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "chain": list(self.chain),
            "hint": self.hint,
        }


_SUPPRESS_RE = re.compile(r"#\s*repro:\s*lint-ignore(?:\[([A-Za-z0-9_,\s]*)\])?")


class Suppressions:
    """Per-line ``# repro: lint-ignore[...]`` directives for one file.

    A directive on a line suppresses findings anchored to that line; a
    directive on an otherwise-comment-only line also covers the next
    line, so flagged expressions too long to share a line stay
    suppressible.  ``lint-ignore`` with no bracket suppresses every
    rule on the line.
    """

    def __init__(self, source: str) -> None:
        # line number -> set of rule ids ("*" = all)
        self._by_line: Dict[int, Set[str]] = {}
        for lineno, text in enumerate(source.splitlines(), start=1):
            m = _SUPPRESS_RE.search(text)
            if not m:
                continue
            rules = (
                {r.strip() for r in m.group(1).split(",") if r.strip()}
                if m.group(1)
                else {"*"}
            )
            self._by_line.setdefault(lineno, set()).update(rules)
            if text.lstrip().startswith("#"):  # standalone comment covers next line
                self._by_line.setdefault(lineno + 1, set()).update(rules)

    def matches(self, rule: str, lines: Iterable[int]) -> bool:
        for line in lines:
            rules = self._by_line.get(line)
            if rules and ("*" in rules or rule in rules):
                return True
        return False


#: RDD / DistributedLattice methods that ship their callable arguments
#: into tasks.  Anything here makes its function arguments "task code".
TRANSFORM_METHODS = frozenset(
    {
        "map",
        "filter",
        "flat_map",
        "map_partitions",
        "map_partitions_with_index",
        "reduce",
        "fold",
        "aggregate",
        "tree_aggregate",
        "run_job",
    }
)

#: Inferred tags that mean "driver-side engine machinery" (rule C101).
DRIVER_TAGS = frozenset(
    {
        "Context",
        "RDD",
        "EventBus",
        "BlockStore",
        "Scheduler",
        "Executor",
        "FlightRecorder",
        "SBGTSession",
        "DistributedLattice",
        "PosteriorBackend",
        "Campaign",
        "BudgetAllocator",
        "MetricsHub",
        "MetricInstrument",
        "Sampler",
    }
)

#: Inferred tags that mean "cannot cross a process boundary" (rule C102).
UNPICKLABLE_TAGS = frozenset(
    {"Lock", "File", "Socket", "Queue", "Thread", "Process", "Pipe", "Generator"}
)

# Constructor terminal-name -> tag.  ``x = Lock()`` and
# ``x = threading.Lock()`` both end in ``Lock``.
_CONSTRUCTOR_TAGS = {
    "Context": "Context",
    "EventBus": "EventBus",
    "BlockStore": "BlockStore",
    "Scheduler": "Scheduler",
    "SerialExecutor": "Executor",
    "ThreadExecutor": "Executor",
    "ProcessExecutor": "Executor",
    "FlightRecorder": "FlightRecorder",
    "SBGTSession": "SBGTSession",
    "DistributedLattice": "DistributedLattice",
    "SparsePosterior": "PosteriorBackend",
    "ParticlePosterior": "PosteriorBackend",
    "Campaign": "Campaign",
    "ThompsonAllocator": "BudgetAllocator",
    "UniformAllocator": "BudgetAllocator",
    "GreedyAllocator": "BudgetAllocator",
    "MetricsHub": "MetricsHub",
    "Sampler": "Sampler",
    "Lock": "Lock",
    "RLock": "Lock",
    "Condition": "Lock",
    "Semaphore": "Lock",
    "BoundedSemaphore": "Lock",
    "Barrier": "Lock",
    "Queue": "Queue",
    "SimpleQueue": "Queue",
    "LifoQueue": "Queue",
    "PriorityQueue": "Queue",
    "Thread": "Thread",
    "Timer": "Thread",
    "Popen": "Process",
    "socket": "Socket",
    "create_connection": "Socket",
    "open": "File",
    "TemporaryFile": "File",
    "NamedTemporaryFile": "File",
    "Pipe": "Pipe",
}

# ``x = ctx.<attr>`` where the attribute is known driver machinery.
_ATTRIBUTE_TAGS = {
    "event_bus": "EventBus",
    "block_store": "BlockStore",
    "flight_recorder": "FlightRecorder",
    "executor": "Executor",
    "metrics_hub": "MetricsHub",
}

# Hub method-call results are labelled instruments (driver-resident,
# like the hub itself).  ``histogram`` is ambiguous — ``np.histogram(...)``
# returns plain arrays — so it only tags when the receiver is recognizably
# a hub.
_INSTRUMENT_METHODS = frozenset({"counter", "gauge", "labels"})
_HUB_RECEIVERS = frozenset({"hub", "metrics_hub", "_hub"})

# Method-call results: ``ctx.parallelize(...)`` is an RDD, and so is any
# transform-chain tail (``.map(...)``, ``.cache()`` …).
_RDD_PRODUCERS = (
    TRANSFORM_METHODS | {"parallelize", "cache", "persist", "checkpoint", "unpersist"}
) - {"run_job", "reduce", "fold", "aggregate", "tree_aggregate"}

_ANNOTATION_TAGS = {
    "Context": "Context",
    "RDD": "RDD",
    "EventBus": "EventBus",
    "BlockStore": "BlockStore",
    "Broadcast": "Broadcast",
    "SBGTSession": "SBGTSession",
    "DistributedLattice": "DistributedLattice",
    "PosteriorBackend": "PosteriorBackend",
    "SparsePosterior": "PosteriorBackend",
    "ParticlePosterior": "PosteriorBackend",
    "Campaign": "Campaign",
    "BudgetAllocator": "BudgetAllocator",
    "ThompsonAllocator": "BudgetAllocator",
    "UniformAllocator": "BudgetAllocator",
    "GreedyAllocator": "BudgetAllocator",
    "MetricsHub": "MetricsHub",
    "Sampler": "Sampler",
    "Counter": "MetricInstrument",
    "Gauge": "MetricInstrument",
    "Histogram": "MetricInstrument",
}


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _terminal_call_name(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def infer_type_tag(value: ast.AST) -> Optional[str]:
    """Best-effort tag for the value of an assignment RHS."""
    if isinstance(value, ast.Call):
        name = _terminal_call_name(value.func)
        if name in _CONSTRUCTOR_TAGS:
            return _CONSTRUCTOR_TAGS[name]
        if name == "broadcast":
            return "Broadcast"
        if isinstance(value.func, ast.Attribute):
            if name in _INSTRUMENT_METHODS:
                return "MetricInstrument"
            if name == "histogram":
                recv = dotted_name(value.func.value)
                if recv and recv.split(".")[-1] in _HUB_RECEIVERS:
                    return "MetricInstrument"
        if name in _RDD_PRODUCERS and isinstance(value.func, ast.Attribute):
            return "RDD"
        if name == "range" and isinstance(value.func, ast.Attribute):
            # ctx.range(...) is an RDD; builtins' range is a Name call.
            return "RDD"
        return None
    if isinstance(value, ast.Attribute) and value.attr in _ATTRIBUTE_TAGS:
        return _ATTRIBUTE_TAGS[value.attr]
    if isinstance(value, (ast.GeneratorExp,)):
        return "Generator"
    return None


def infer_annotation_tag(annotation: Optional[ast.AST]) -> Optional[str]:
    """Tag for ``x: Context`` style annotations (plain or quoted)."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        name = annotation.value.split("[")[0].split(".")[-1].replace("'", "").replace('"', "").strip()
        return _ANNOTATION_TAGS.get(name)
    name = dotted_name(annotation)
    if name:
        return _ANNOTATION_TAGS.get(name.split(".")[-1])
    if isinstance(annotation, ast.Subscript):  # Optional[Context], "RDD[int]"
        return infer_annotation_tag(annotation.value)
    return None


@dataclass
class ScopeInfo:
    """One lexical scope's bindings, as seen by the module walker."""

    node: ast.AST
    is_module: bool = False
    #: name -> (type tag, binding line)
    tags: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    #: every name bound in this scope (assignments, defs, imports, args)
    bound: Set[str] = field(default_factory=set)
    #: name -> FunctionDef/AsyncFunctionDef node, for resolving
    #: ``rdd.map(helper)`` back to ``def helper``
    functions: Dict[str, ast.AST] = field(default_factory=dict)


def _local_bindings(body: Sequence[ast.stmt]) -> Set[str]:
    """Names one function scope binds, *not* descending into nested scopes."""
    bound: Set[str] = set()
    escaping: Set[str] = set()  # global/nonlocal declarations
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
            for default in getattr(getattr(node, "args", None), "defaults", []) or []:
                stack.append(default)  # defaults evaluate in this scope
            continue  # nested scope: its body binds nothing here
        if isinstance(node, (ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            bound.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            escaping.update(node.names)
        elif isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return bound - escaping


class _FreeNameCollector(ast.NodeVisitor):
    """Free variables of one function, with first-use line numbers.

    Walks the function body with a fresh local-binding set per nested
    scope; loads not bound anywhere up the (intra-function) chain
    surface as free names.  Comprehension targets bind in their own
    scope, matching Python 3 semantics closely enough for lint.
    """

    def __init__(self, bound: Set[str]) -> None:
        self.bound_stack: List[Set[str]] = [set(bound)]
        self.free: Dict[str, int] = {}

    # -- binding constructs -------------------------------------------
    def _bind(self, name: str) -> None:
        self.bound_stack[-1].add(name)

    def _is_bound(self, name: str) -> bool:
        return any(name in scope for scope in self.bound_stack)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            self._bind(node.id)
        elif not self._is_bound(node.id):
            self.free.setdefault(node.id, node.lineno)

    def visit_Global(self, node: ast.Global) -> None:
        for name in node.names:  # a global is *not* local: reads are free
            self.free.setdefault(name, node.lineno)

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        for name in node.names:
            self.free.setdefault(name, node.lineno)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._bind(alias.asname or alias.name.split(".")[0])

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            self._bind(alias.asname or alias.name)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.name:
            self._bind(node.name)
        self.generic_visit(node)

    # -- nested scopes ------------------------------------------------
    def _visit_function(self, node) -> None:
        # Defaults evaluate in the *enclosing* scope.
        for default in list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]:
            self.visit(default)
        args = node.args
        names = {
            a.arg
            for a in (
                args.posonlyargs + args.args + args.kwonlyargs
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            )
        }
        self.bound_stack.append(names)
        body = node.body if isinstance(node.body, list) else [node.body]
        # Python scoping: any name stored anywhere in the function body is
        # local for the *whole* body (unless declared global/nonlocal), so
        # hoist all local bindings before walking for loads.
        self.bound_stack[-1].update(_local_bindings(body))
        for stmt in body:
            self.visit(stmt)
        self.bound_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._bind(node.name)
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._bind(node.name)
        self._visit_function(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_function(node)

    def _visit_comprehension(self, node) -> None:
        self.bound_stack.append(set())
        for gen in node.generators:
            self.visit(gen.iter)
            self.visit(gen.target)  # Store context: binds in comp scope
            for cond in gen.ifs:
                self.visit(cond)
        for elt_field in ("elt", "key", "value"):
            elt = getattr(node, elt_field, None)
            if elt is not None:
                self.visit(elt)
        self.bound_stack.pop()

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension


def free_names(fn_node: ast.AST) -> Dict[str, int]:
    """Free variables of a Lambda/FunctionDef: name -> first-use line."""
    collector = _FreeNameCollector(set())
    collector._visit_function(fn_node)
    return collector.free
