"""The public surface matches ``docs/api.md``.

Walks every table in the curated API reference and resolves each
backticked name from the first column against the section's module (or
against objects already resolved in the same row, for method-style
entries like ``optimal_for``).  A doc row naming something that no
longer imports fails here; so does deleting this page's anchor modules.
"""

import importlib
import re
import types
from pathlib import Path

import pytest

import repro

API_MD = Path(__file__).resolve().parent.parent / "docs" / "api.md"

_SECTION_RE = re.compile(r"^##\s+.*?`(repro[\w.]*)`")
_BACKTICK_RE = re.compile(r"`([^`]+)`")


def _clean(token):
    """Doc token -> dotted name, or None for non-name tokens."""
    name = token.split("(")[0].strip()
    if not name or not all(p.isidentifier() for p in name.split(".")):
        return None
    return name


def _rows():
    """Yield (section_module_name, row_tokens) per doc-table row."""
    section = "repro"
    for line in API_MD.read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            m = _SECTION_RE.match(line)
            section = m.group(1) if m else "repro"
            continue
        if not line.startswith("|"):
            continue
        first_cell = line.split("|")[1]
        if "---" in first_cell or first_cell.strip() in ("Object",):
            continue
        tokens = [_clean(t) for t in _BACKTICK_RE.findall(first_cell)]
        tokens = [t for t in tokens if t]
        if tokens:
            yield section, tokens


def _resolve_from(base, parts):
    obj = base
    for part in parts:
        if hasattr(obj, part):
            obj = getattr(obj, part)
        elif isinstance(obj, types.ModuleType):
            try:
                obj = importlib.import_module(f"{obj.__name__}.{part}")
            except ImportError:
                return None
        else:
            return None
    return obj


def _resolve(name, section_mod, row_objects):
    parts = name.split(".")
    for base in [section_mod, repro, *row_objects]:
        obj = _resolve_from(base, parts)
        if obj is not None:
            return obj
    return None


def _collect_cases():
    cases = []
    for section, tokens in _rows():
        cases.append(pytest.param(section, tokens, id=f"{section}:{tokens[0]}"))
    return cases


@pytest.mark.parametrize("section, tokens", _collect_cases())
def test_documented_names_resolve(section, tokens):
    section_mod = importlib.import_module(section)
    resolved = []
    for name in tokens:
        obj = _resolve(name, section_mod, resolved)
        assert obj is not None, (
            f"docs/api.md names {name!r} under {section} but it does not resolve"
        )
        resolved.append(obj)


def test_doc_walker_found_tables():
    sections = {s for s, _ in _rows()}
    # The walker must actually be parsing the page, not silently matching
    # nothing; these anchor sections all carry tables.
    for expected in ("repro.engine", "repro.obs", "repro.sbgt", "repro.halving"):
        assert expected in sections


def test_top_level_all_imports_clean():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, f"repro.{name} missing"


def test_new_surface_reexported_at_top_level():
    for name in ("EngineListener", "EventBus", "RecordingListener",
                 "Tracer", "trace_phase"):
        assert name in repro.__all__
        assert getattr(repro, name) is not None
