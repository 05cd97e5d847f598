"""repro.lint: static closure-safety and engine-concurrency analysis.

Two rule families over plain ``ast`` (no imports of analyzed code):

* ``C1xx`` closure safety — every function handed to an RDD transform or
  lattice kernel is checked for captures that cannot (or must not) cross
  the data plane: driver machinery, unpicklable handles, module-global
  writes, unseeded randomness.
* ``E2xx`` engine concurrency — ``repro.engine`` / ``repro.serve`` /
  ``repro.obs`` internals are checked against the declared lock order
  (shared with the runtime sanitizer in :mod:`repro.engine.lockorder`),
  for blocking calls under data-plane locks, and for events mutated
  after posting.  E204/E205 extend both checks across call boundaries
  via whole-program summaries (:mod:`repro.lint.callgraph`).
* ``D3xx`` determinism — the statistical core must replay bit-identically
  from its seed: no ambient RNG, wall clocks, set-order or id()/hash()
  dependence.

CLI: ``python -m repro lint [paths] [--format text|json|sarif]
[--select ..] [--ignore ..] [--explain RULE]``.  Suppress a finding in
place with ``# repro: lint-ignore[RULE]``.
"""

from repro.lint.analyzer import (
    JSON_SCHEMA_VERSION,
    LintError,
    analyze_file,
    analyze_source,
    format_json,
    format_text,
    iter_python_files,
    lint_paths,
)
from repro.lint.bridge import CaptureIssue, capture_report, find_unpicklable
from repro.lint.callgraph import CallGraph, build_callgraph
from repro.lint.model import LintFinding, Suppressions
from repro.lint.rules import (
    CLOSURE_RULES,
    CONCURRENCY_RULES,
    DETERMINISM_RULES,
    RULES,
    Rule,
    format_explain,
)
from repro.lint.sarif import format_sarif

__all__ = [
    "JSON_SCHEMA_VERSION",
    "LintError",
    "LintFinding",
    "Suppressions",
    "Rule",
    "RULES",
    "CLOSURE_RULES",
    "CONCURRENCY_RULES",
    "DETERMINISM_RULES",
    "CallGraph",
    "CaptureIssue",
    "analyze_file",
    "analyze_source",
    "build_callgraph",
    "capture_report",
    "find_unpicklable",
    "format_explain",
    "format_json",
    "format_sarif",
    "format_text",
    "iter_python_files",
    "lint_paths",
]
