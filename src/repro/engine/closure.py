"""Closure serialization helpers.

Process-mode executors ship task closures to workers with ``pickle``.
Plain ``pickle`` refuses lambdas and locally-defined functions, which are
the dominant idiom in dataflow code, so we fall back to a tiny
code-object pickler (marshal for the code, explicit capture of defaults
and closure cells).  Globals referenced by the function are resolved by
module name on the worker — standard fork semantics make this safe here
because workers are forked from the driver process.
"""

from __future__ import annotations

import importlib
import io
import marshal
import pickle
import types
from typing import Any, List, Sequence, Tuple

from repro.engine.errors import ClosureSerializationError, SerializationError

__all__ = [
    "serialize_oob",
    "deserialize_oob",
]

#: Out-of-band buffers need pickle protocol 5 (Python >= 3.8, always true
#: here); pinned explicitly rather than via HIGHEST_PROTOCOL so the
#: buffer_callback contract is visible at the call sites.
OOB_PROTOCOL = 5


def _referenced_names(code: types.CodeType) -> set:
    """Global names referenced by *code*, including nested code objects."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _referenced_names(const)
    return names


def _picklable(value: Any) -> bool:
    try:
        buf = io.BytesIO()
        _ClosurePickler(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(value)
        return True
    except Exception:
        return False


def _reduce_function(fn: types.FunctionType) -> Tuple:
    code = marshal.dumps(fn.__code__)
    closure = None
    if fn.__closure__:
        closure = tuple(cell.cell_contents for cell in fn.__closure__)
    # Capture referenced globals *by value* so a worker forked before the
    # driver defined them (or a spawn-started worker) still resolves them.
    # Names whose values cannot be pickled fall back to module-dict lookup.
    captured = {}
    for name in _referenced_names(fn.__code__):
        if name in fn.__globals__:
            value = fn.__globals__[name]
            if isinstance(value, types.ModuleType) or _picklable(value):
                captured[name] = value
    return (
        code,
        fn.__name__,
        fn.__defaults__,
        closure,
        fn.__module__,
        fn.__qualname__,
        fn.__kwdefaults__,
        captured,
    )


def _rebuild_function(payload: Tuple) -> types.FunctionType:
    code_bytes, name, defaults, closure_vals, module, qualname, kwdefaults, captured = payload
    code = marshal.loads(code_bytes)
    try:
        mod = importlib.import_module(module)
        glb = dict(mod.__dict__)
    except Exception:
        glb = {}
    glb.setdefault("__builtins__", __builtins__)
    glb.update(captured)
    cells = None
    if closure_vals is not None:
        cells = tuple(types.CellType(v) for v in closure_vals)
    fn = types.FunctionType(code, glb, name, defaults, cells)
    fn.__qualname__ = qualname
    fn.__kwdefaults__ = kwdefaults
    return fn


class _ClosurePickler(pickle.Pickler):
    """Pickler that marshals otherwise-unpicklable plain functions."""

    def reducer_override(self, obj: Any):
        if isinstance(obj, types.ModuleType):
            return (importlib.import_module, (obj.__name__,))
        if isinstance(obj, types.FunctionType):
            # Importable top-level functions pickle fine by reference;
            # only intercept lambdas / nested functions.
            if "<locals>" in obj.__qualname__ or obj.__name__ == "<lambda>":
                return (_rebuild_function, (_reduce_function(obj),))
        return NotImplemented


def _raise_serialization_error(obj: Any, exc: Exception) -> None:
    """Localize the failure via the lint bridge before giving up.

    A bare pickle error names a type three frames deep; the bridge walks
    the payload the way the pickler did and names the exact closure cell
    or default that cannot ship, plus the lint rule that catches it
    statically.
    """
    from repro.lint.bridge import find_unpicklable

    issue = None
    try:
        issue = find_unpicklable(obj, _picklable)
    except Exception:  # diagnosis must never mask the original failure
        pass
    if issue is not None:
        raise ClosureSerializationError(
            f"cannot serialize {type(obj).__name__}: {exc} — "
            f"unpicklable capture at {issue.describe()}; "
            "run `python -m repro lint` to catch this before runtime",
            capture_path=issue.path,
            rule=issue.rule,
        ) from exc
    raise SerializationError(f"cannot serialize {type(obj).__name__}: {exc}") from exc


def serialize_oob(obj: Any) -> Tuple[bytes, List[bytearray]]:
    """Pickle *obj* with protocol-5 out-of-band buffers.

    Returns ``(payload, buffers)``.  Contiguous NumPy arrays (lattice
    masks and log-probs above all) surface as :class:`pickle.PickleBuffer`
    views instead of being copied into the pickle stream; each view is
    snapshotted into a ``bytearray`` so the pair can cross a process
    boundary.  On the receiving side :func:`deserialize_oob` rebuilds the
    arrays as views over those buffers — no load-side copy — which is why
    the snapshots are ``bytearray`` (mutable) rather than ``bytes``: the
    reconstructed arrays stay writable, preserving in-band semantics.
    """
    buffers: List[pickle.PickleBuffer] = []
    buf = io.BytesIO()
    try:
        _ClosurePickler(buf, protocol=OOB_PROTOCOL, buffer_callback=buffers.append).dump(obj)
    except Exception as exc:
        _raise_serialization_error(obj, exc)
    return buf.getvalue(), [bytearray(pb) for pb in buffers]


def deserialize_oob(data: bytes, buffers: Sequence[Any]) -> Any:
    """Inverse of :func:`serialize_oob` (buffers resolve by position)."""
    return pickle.loads(data, buffers=buffers)

