"""Driver for :mod:`repro.lint`: file walking, filtering, formatting.

``lint_paths`` is the single entry the CLI and CI use; ``analyze_source``
is the test-friendly core (string in, findings out).  Concurrency rules
(E2xx) only apply to ``repro/engine``, ``repro/serve`` and ``repro/obs``
modules — user code is free to lock however it likes — unless
``force_engine`` says otherwise (fixtures use it).  Determinism rules
(D3xx) likewise gate on the statistical-core packages
(:func:`repro.lint.determinism_rules.is_determinism_module`) or
``force_determinism``.

``lint_paths`` makes a whole-program prepass first: every engine module
in the file set is parsed into one :class:`~repro.lint.callgraph.CallGraph`
so the interprocedural E204/E205 see across file boundaries.  Per-file
analysis then runs serially (~1 s on this tree, of which 0.4 s is
interpreter start and import).

A file that cannot be read or parsed no longer aborts the run: it
becomes an ``X001`` finding and analysis continues (the CLI maps X001
to exit code 2).
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.lint.callgraph import CallGraph, build_callgraph, build_callgraph_from_tree
from repro.lint.closure_rules import analyze_closures
from repro.lint.concurrency_rules import analyze_concurrency, is_engine_module
from repro.lint.determinism_rules import analyze_determinism, is_determinism_module
from repro.lint.model import LintFinding, Suppressions
from repro.lint.rules import RULES

__all__ = [
    "LintError",
    "analyze_source",
    "analyze_file",
    "iter_python_files",
    "lint_paths",
    "format_text",
    "format_json",
    "JSON_SCHEMA_VERSION",
]

#: Bumped only on breaking changes to the JSON output shape.
JSON_SCHEMA_VERSION = 1


class LintError(Exception):
    """Usage/IO error: unknown rule id, unreadable path (CLI exit code 2)."""

    def __init__(self, message: str, line: int = 1) -> None:
        super().__init__(message)
        self.line = line


def _validate_rule_ids(ids: Optional[Iterable[str]], flag: str) -> Optional[frozenset]:
    if ids is None:
        return None
    normalized = frozenset(r.strip().upper() for r in ids if r.strip())
    unknown = sorted(normalized - set(RULES))
    if unknown:
        raise LintError(
            f"{flag}: unknown rule id(s) {', '.join(unknown)} "
            f"(known: {', '.join(sorted(RULES))})"
        )
    return normalized


def analyze_source(
    source: str,
    filename: str = "<string>",
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    force_engine: bool = False,
    force_determinism: bool = False,
    callgraph: Optional[CallGraph] = None,
) -> List[LintFinding]:
    """Lint one module's source text; returns surviving findings sorted.

    Without an explicit *callgraph*, engine modules get a single-module
    graph — E204/E205 still work within the file; ``lint_paths`` passes
    the whole-program one.
    """
    selected = _validate_rule_ids(select, "--select")
    ignored = _validate_rule_ids(ignore, "--ignore")
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        raise LintError(
            f"{filename}: cannot parse: {exc.msg} (line {exc.lineno})",
            line=exc.lineno or 1,
        ) from exc

    findings = analyze_closures(tree, filename)
    if force_engine or is_engine_module(filename):
        if callgraph is None:
            callgraph = build_callgraph_from_tree(tree, filename)
        findings.extend(analyze_concurrency(tree, filename, callgraph))
    if force_determinism or is_determinism_module(filename):
        findings.extend(analyze_determinism(tree, filename))

    suppressions = Suppressions(source)
    kept = []
    for f in findings:
        if selected is not None and f.rule not in selected:
            continue
        if ignored is not None and f.rule in ignored:
            continue
        if suppressions.matches(f.rule, (f.line, *f.anchor_lines)):
            continue
        kept.append(f)
    kept.sort(key=lambda f: (f.file, f.line, f.col, f.rule))
    return kept


def analyze_file(
    path: Path,
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    force_engine: bool = False,
    callgraph: Optional[CallGraph] = None,
) -> List[LintFinding]:
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LintError(f"cannot read {path}: {exc}") from exc
    return analyze_source(
        source,
        filename=str(path),
        select=select,
        ignore=ignore,
        force_engine=force_engine,
        callgraph=callgraph,
    )


def iter_python_files(paths: Sequence[str]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated .py list."""
    out: List[Path] = []
    seen = set()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            candidates = sorted(p.rglob("*.py"))
        elif p.is_file():
            candidates = [p]
        else:
            raise LintError(f"no such file or directory: {raw}")
        for c in candidates:
            if c not in seen:
                seen.add(c)
                out.append(c)
    return out


# ----------------------------------------------------------------------
# per-file analysis
# ----------------------------------------------------------------------
def _skip_finding(path_str: str, message: str, line: int) -> LintFinding:
    prefix = f"{path_str}: "
    if message.startswith(prefix):
        message = message[len(prefix):]
    return LintFinding(
        rule="X001",
        file=path_str,
        line=line,
        col=0,
        message=message,
        hint=RULES["X001"].hint,
    )


def lint_paths(
    paths: Sequence[str],
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    force_engine: bool = False,
) -> Tuple[List[LintFinding], int]:
    """Lint every .py under ``paths``; returns (findings, files_checked).

    Unknown rule ids and missing paths still raise :class:`LintError`
    (usage errors); unreadable/unparsable *files* become X001 findings.
    """
    selected = _validate_rule_ids(select, "--select")
    ignored = _validate_rule_ids(ignore, "--ignore")
    files = iter_python_files(paths)

    # Read everything up front; collect engine sources for the callgraph.
    sources: Dict[str, str] = {}
    engine_trees: Dict[str, ast.Module] = {}
    findings: List[LintFinding] = []
    for path in files:
        path_str = str(path)
        try:
            sources[path_str] = path.read_text(encoding="utf-8")
        except OSError as exc:
            findings.append(_skip_finding(path_str, f"cannot read: {exc}", 1))
            continue
        if force_engine or is_engine_module(path_str):
            try:
                engine_trees[path_str] = ast.parse(sources[path_str], filename=path_str)
            except SyntaxError:
                pass  # becomes X001 in the per-file pass
    callgraph = build_callgraph(engine_trees) if engine_trees else None

    for path_str, source in sources.items():
        try:
            findings.extend(analyze_source(
                source,
                filename=path_str,
                select=selected,
                ignore=ignored,
                force_engine=force_engine,
                callgraph=callgraph,
            ))
        except LintError as exc:
            findings.append(_skip_finding(path_str, str(exc), exc.line))
        except Exception as exc:  # noqa: BLE001 - one bad file must not kill the run
            findings.append(_skip_finding(
                path_str, f"internal analyzer error: {type(exc).__name__}: {exc}", 1
            ))
    findings.sort(key=lambda f: (f.file, f.line, f.col, f.rule))
    return findings, len(files)


def format_text(findings: Sequence[LintFinding], files_checked: int) -> str:
    """Human-readable report: one block per finding, then a summary line."""
    lines: List[str] = []
    for f in findings:
        lines.append(f"{f.file}:{f.line}:{f.col}: {f.rule} [{RULES[f.rule].name}] {f.message}")
        for hop in f.chain:
            lines.append(f"    via {hop}")
        if f.hint:
            lines.append(f"    fix: {f.hint}")
    noun = "file" if files_checked == 1 else "files"
    if findings:
        lines.append("")
        lines.append(f"{len(findings)} finding(s) in {files_checked} {noun}.")
    else:
        lines.append(f"clean: 0 findings in {files_checked} {noun}.")
    return "\n".join(lines)


def format_json(findings: Sequence[LintFinding], files_checked: int) -> str:
    """Machine-readable report (schema locked by tests/lint)."""
    by_rule: dict = {}
    for f in findings:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    payload = {
        "version": JSON_SCHEMA_VERSION,
        "findings": [f.to_dict() for f in findings],
        "summary": {
            "files_checked": files_checked,
            "total": len(findings),
            "by_rule": dict(sorted(by_rule.items())),
        },
    }
    return json.dumps(payload, indent=2)
