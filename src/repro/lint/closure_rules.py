"""Closure-safety rules (C1xx): static ClosureCleaner for the data plane.

The walker tracks lexical scopes and a syntactic type environment, finds
every callable argument of an RDD-transform / lattice-kernel call, and
analyzes that function as *task code*: captured names are resolved
against the enclosing scopes and checked against the driver-only and
unpicklable tag sets; the task body itself is scanned for global
writes and unseeded randomness.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.model import (
    DRIVER_TAGS,
    TRANSFORM_METHODS,
    UNPICKLABLE_TAGS,
    LintFinding,
    ScopeInfo,
    dotted_name,
    free_names,
    infer_annotation_tag,
    infer_type_tag,
)
from repro.lint.rules import RULES

__all__ = ["analyze_closures"]

#: ``random.<fn>`` calls that are deterministic and safe in task code.
_SAFE_RANDOM_ATTRS = frozenset({"Random", "SystemRandom", "seed", "getstate", "setstate"})
#: ``np.random.<fn>`` that construct seedable generators (fine if seeded).
_SAFE_NP_RANDOM_ATTRS = frozenset({"default_rng", "Generator", "SeedSequence", "PCG64",
                                   "Philox", "SFC64", "MT19937", "RandomState"})
_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns", "datetime.now", "datetime.utcnow",
    "datetime.datetime.now", "datetime.datetime.utcnow",
})
#: Method calls that mutate their receiver in place.
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "remove", "discard", "clear", "sort", "reverse",
})


def _fn_label(node: ast.AST) -> str:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return f"function {node.name!r}"
    return "lambda"


class _TaskBodyScanner(ast.NodeVisitor):
    """Scan one task function's body for C103/C104 defects.

    ``free`` is the set of names captured from enclosing scopes;
    ``tag_of`` resolves a name to its inferred type tag;
    ``module_level`` says whether a free name is bound at module scope.
    """

    def __init__(
        self,
        analyzer: "_ClosureAnalyzer",
        free: Set[str],
        tag_of,
        module_level,
    ) -> None:
        self.analyzer = analyzer
        self.free = free
        self.tag_of = tag_of
        self.module_level = module_level

    # -- C103: writes to module globals -------------------------------
    def visit_Global(self, node: ast.Global) -> None:
        for name in node.names:
            self.analyzer.emit(
                "C103",
                node,
                f"task code declares `global {name}` — each fork mutates its own "
                "copy, the driver never sees the write",
                chain=(f"global {name!r}",),
            )

    def _flag_store_target(self, target: ast.AST) -> None:
        # CACHE[k] = v / STATE.field = v where the base is a module global.
        # A bare-Name store is either a local (hoisted, not free) or already
        # covered by its `global` declaration — only flag stores *through*.
        if isinstance(target, ast.Name):
            return
        base = target
        while isinstance(base, (ast.Subscript, ast.Attribute)):
            base = base.value
        if isinstance(base, ast.Name) and base.id in self.free and self.module_level(base.id):
            if self.tag_of(base.id) == "Broadcast":
                return
            self.analyzer.emit(
                "C103",
                target,
                f"task code writes through module global {base.id!r} — "
                "invisible to the driver in process mode, racy in thread mode",
                chain=(f"capture {base.id!r} (module global)",),
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._flag_store_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._flag_store_target(node.target)
        self.generic_visit(node)

    # -- C104 / mutator-call C103 -------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name:
            self._check_call_name(name, node)
        self.generic_visit(node)

    def _check_call_name(self, name: str, node: ast.Call) -> None:
        parts = name.split(".")
        root, leaf = parts[0], parts[-1]
        # random.random(), random.shuffle(), ...
        if root == "random" and len(parts) == 2 and leaf not in _SAFE_RANDOM_ATTRS:
            self.analyzer.emit(
                "C104", node,
                f"unseeded `{name}()` in task code — output differs per run, "
                "retry and executor mode",
            )
            return
        # np.random.<legacy global RNG>
        if len(parts) >= 3 and parts[-2] == "random" and leaf not in _SAFE_NP_RANDOM_ATTRS:
            self.analyzer.emit(
                "C104", node,
                f"`{name}()` uses the process-global NumPy RNG in task code — "
                "draws depend on scheduling and fork timing",
            )
            return
        # default_rng() with no seed argument
        if leaf == "default_rng" and not node.args and not node.keywords:
            self.analyzer.emit(
                "C104", node,
                "`default_rng()` without a seed in task code — entropy differs "
                "per worker and per retry",
            )
            return
        if name in _CLOCK_CALLS:
            self.analyzer.emit(
                "C104", node,
                f"`{name}()` in task code — wall-clock reads make task output "
                "scheduling-dependent",
            )
            return
        # C103 via mutator method on a captured module global
        if (
            len(parts) == 2
            and leaf in _MUTATOR_METHODS
            and root in self.free
            and self.module_level(root)
            and self.tag_of(root) != "Broadcast"
        ):
            self.analyzer.emit(
                "C103", node,
                f"task code mutates module global {root!r} via .{leaf}() — "
                "invisible to the driver in process mode, racy in thread mode",
                chain=(f"capture {root!r} (module global)",),
            )

    # Nested defs/lambdas inside the task body are still task code: keep
    # walking (free-name analysis already crossed them).


class _ClosureAnalyzer(ast.NodeVisitor):
    """Module walker: scope/type tracking + transform-call detection."""

    def __init__(self, filename: str) -> None:
        self.filename = filename
        self.scopes: List[ScopeInfo] = []
        self.findings: List[LintFinding] = []
        self._analyzed: Set[Tuple[int, int]] = set()  # (fn lineno, col) de-dup
        self._current_transform: Optional[str] = None

    # -- finding plumbing ---------------------------------------------
    def emit(
        self,
        rule: str,
        node: ast.AST,
        message: str,
        chain: Tuple[str, ...] = (),
        anchor_lines: Tuple[int, ...] = (),
    ) -> None:
        prefix: Tuple[str, ...] = ()
        if self._current_transform:
            prefix = (self._current_transform,)
        self.findings.append(
            LintFinding(
                rule=rule,
                file=self.filename,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                message=message,
                chain=prefix + chain,
                hint=RULES[rule].hint,
                anchor_lines=anchor_lines,
            )
        )

    # -- scope bookkeeping --------------------------------------------
    def _bind(self, name: str, tag: Optional[str], line: int) -> None:
        scope = self.scopes[-1]
        scope.bound.add(name)
        if tag:
            scope.tags[name] = (tag, line)
        else:
            scope.tags.pop(name, None)

    def _lookup_tag(self, name: str) -> Optional[Tuple[str, int]]:
        for scope in reversed(self.scopes):
            if name in scope.tags:
                return scope.tags[name]
            if name in scope.bound:
                return None  # bound, but to nothing we track
        return None

    def _is_module_level(self, name: str) -> bool:
        for scope in reversed(self.scopes):
            if name in scope.bound:
                return scope.is_module
        return False

    def _lookup_function(self, name: str) -> Optional[ast.AST]:
        for scope in reversed(self.scopes):
            if name in scope.functions:
                return scope.functions[name]
            if name in scope.bound:
                return None
        return None

    # -- module / function traversal ----------------------------------
    def visit_Module(self, node: ast.Module) -> None:
        self.scopes.append(ScopeInfo(node, is_module=True))
        self.generic_visit(node)
        self.scopes.pop()

    def _enter_function(self, node) -> None:
        scope = ScopeInfo(node)
        args = node.args
        for a in (
            args.posonlyargs + args.args + args.kwonlyargs
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            scope.bound.add(a.arg)
            tag = infer_annotation_tag(a.annotation)
            if tag:
                scope.tags[a.arg] = (tag, a.lineno)
        self.scopes.append(scope)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._handle_funcdef(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._handle_funcdef(node)

    def _handle_funcdef(self, node) -> None:
        scope = self.scopes[-1]
        scope.bound.add(node.name)
        scope.functions[node.name] = node
        ret_tag = infer_annotation_tag(node.returns)
        if ret_tag:
            scope.tags.setdefault(node.name, (f"callable->{ret_tag}", node.lineno))
        self._enter_function(node)
        for stmt in node.body:
            self.visit(stmt)
        self.scopes.pop()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.scopes[-1].bound.add(node.name)
        self.scopes.append(ScopeInfo(node))
        self.generic_visit(node)
        self.scopes.pop()

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._enter_function(node)
        self.visit(node.body)
        self.scopes.pop()

    # -- binding forms ------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        tag = infer_type_tag(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if isinstance(node.value, ast.Lambda):
                    self.scopes[-1].functions[target.id] = node.value
                self._bind(target.id, tag, target.lineno)
            elif isinstance(target, (ast.Tuple, ast.List)):
                elt_values: List[Optional[ast.AST]] = [None] * len(target.elts)
                if isinstance(node.value, (ast.Tuple, ast.List)) and len(
                    node.value.elts
                ) == len(target.elts):
                    elt_values = list(node.value.elts)
                for elt, value in zip(target.elts, elt_values):
                    if isinstance(elt, ast.Name):
                        self._bind(
                            elt.id,
                            infer_type_tag(value) if value is not None else None,
                            elt.lineno,
                        )

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)
        if isinstance(node.target, ast.Name):
            tag = infer_type_tag(node.value) if node.value is not None else None
            tag = tag or infer_annotation_tag(node.annotation)
            self._bind(node.target.id, tag, node.target.lineno)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            self.visit(item.context_expr)
            if isinstance(item.optional_vars, ast.Name):
                self._bind(
                    item.optional_vars.id,
                    infer_type_tag(item.context_expr),
                    item.optional_vars.lineno,
                )
        for stmt in node.body:
            self.visit(stmt)

    visit_AsyncWith = visit_With

    def visit_For(self, node: ast.For) -> None:
        self.visit(node.iter)
        for name_node in ast.walk(node.target):
            if isinstance(name_node, ast.Name):
                self.scopes[-1].bound.add(name_node.id)
        for stmt in node.body + node.orelse:
            self.visit(stmt)

    visit_AsyncFor = visit_For

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.scopes[-1].bound.add(alias.asname or alias.name.split(".")[0])

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            self.scopes[-1].bound.add(alias.asname or alias.name)

    # -- the heart: transform calls -----------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        self.generic_visit(node)
        if not isinstance(node.func, ast.Attribute):
            return
        if node.func.attr not in TRANSFORM_METHODS:
            return
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            fn_node = self._resolve_callable(arg)
            if fn_node is not None:
                self._analyze_task_function(fn_node, node)

    def _resolve_callable(self, arg: ast.AST) -> Optional[ast.AST]:
        if isinstance(arg, ast.Lambda):
            return arg
        if isinstance(arg, ast.Name):
            return self._lookup_function(arg.id)
        return None

    def _analyze_task_function(self, fn_node: ast.AST, call: ast.Call) -> None:
        key = (getattr(fn_node, "lineno", 0), getattr(fn_node, "col_offset", 0))
        transform = (
            f"{call.func.attr} @ line {call.lineno}"  # type: ignore[union-attr]
        )
        first_analysis = key not in self._analyzed
        self._analyzed.add(key)
        self._current_transform = f"{transform} -> {_fn_label(fn_node)}"
        try:
            free = free_names(fn_node)
            if first_analysis:
                default_names = self._default_name_ids(fn_node)
                # Let a lint-ignore on the def line (or any decorator line,
                # so decorated task functions stay suppressible) cover
                # capture findings anchored deep in the body.
                fn_anchor = [ln for ln in (getattr(fn_node, "lineno", 0),) if ln]
                fn_anchor.extend(
                    d.lineno for d in getattr(fn_node, "decorator_list", ())
                )
                self._check_captures(
                    fn_node, free, skip=default_names,
                    anchor_lines=tuple(fn_anchor),
                )
                scanner = _TaskBodyScanner(
                    self,
                    set(free),
                    lambda n: (self._lookup_tag(n) or (None, 0))[0],
                    self._is_module_level,
                )
                body = fn_node.body if isinstance(fn_node.body, list) else [fn_node.body]
                for stmt in body:
                    scanner.visit(stmt)
                self._check_defaults(fn_node)
        finally:
            self._current_transform = None

    @staticmethod
    def _default_name_ids(fn_node: ast.AST) -> Set[str]:
        """Names used as default values (reported by _check_defaults instead)."""
        args = getattr(fn_node, "args", None)
        if args is None:
            return set()
        defaults = list(args.defaults) + [d for d in args.kw_defaults if d is not None]
        return {d.id for d in defaults if isinstance(d, ast.Name)}

    def _check_captures(
        self,
        fn_node: ast.AST,
        free: Dict[str, int],
        skip: Optional[Set[str]] = None,
        anchor_lines: Tuple[int, ...] = (),
    ) -> None:
        for name, use_line in sorted(free.items(), key=lambda kv: kv[1]):
            if skip and name in skip:
                continue
            resolved = self._lookup_tag(name)
            if resolved is None:
                continue
            tag, bind_line = resolved
            where = "module global" if self._is_module_level(name) else "enclosing scope"
            chain = (f"capture {name!r} ({tag}, bound at line {bind_line}, {where})",)
            node = _Loc(use_line, 0)
            if tag in DRIVER_TAGS:
                self.emit(
                    "C101", node,
                    f"captures {name!r}, a driver-only {tag} — workers get a "
                    "stopped/inert stub, so any use fails mid-job",
                    chain=chain,
                    anchor_lines=anchor_lines,
                )
            elif tag in UNPICKLABLE_TAGS:
                self.emit(
                    "C102", node,
                    f"captures {name!r} ({tag}) — unpicklable, the job dies in "
                    "closure.serialize under the processes executor",
                    chain=chain,
                    anchor_lines=anchor_lines,
                )

    def _check_defaults(self, fn_node: ast.AST) -> None:
        """Driver objects smuggled through default argument values."""
        args = getattr(fn_node, "args", None)
        if args is None:
            return
        pos_params = args.posonlyargs + args.args
        defaults = args.defaults
        pairs = list(zip(pos_params[len(pos_params) - len(defaults):], defaults))
        pairs += [
            (p, d) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
        ]
        for param, default in pairs:
            if not isinstance(default, ast.Name):
                continue
            resolved = self._lookup_tag(default.id)
            if resolved is None:
                continue
            tag, bind_line = resolved
            chain = (
                f"default of parameter {param.arg!r}",
                f"capture {default.id!r} ({tag}, bound at line {bind_line})",
            )
            if tag in DRIVER_TAGS:
                self.emit(
                    "C101", default,
                    f"default argument {param.arg}={default.id} smuggles a "
                    f"driver-only {tag} into task code",
                    chain=chain,
                )
            elif tag in UNPICKLABLE_TAGS:
                self.emit(
                    "C102", default,
                    f"default argument {param.arg}={default.id} captures an "
                    f"unpicklable {tag}",
                    chain=chain,
                )


class _Loc:
    """Minimal lineno/col carrier for synthesized finding locations."""

    __slots__ = ("lineno", "col_offset")

    def __init__(self, lineno: int, col_offset: int) -> None:
        self.lineno = lineno
        self.col_offset = col_offset


def analyze_closures(tree: ast.Module, filename: str) -> List[LintFinding]:
    """Run the C1xx family over one parsed module."""
    analyzer = _ClosureAnalyzer(filename)
    analyzer.visit(tree)
    return analyzer.findings
