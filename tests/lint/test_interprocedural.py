"""Interprocedural E204/E205, the call graph behind them, and E206."""

from __future__ import annotations

import ast

import pytest

from repro.lint import analyze_source, build_callgraph
from repro.lint.callgraph import build_callgraph_from_tree
from repro.lint.concurrency_rules import analyze_concurrency

ENGINE = "src/repro/engine/demo.py"


def lint(src: str, filename: str = ENGINE):
    return analyze_source(src, filename=filename)


class TestCallGraph:
    def test_direct_lock_summary(self):
        src = """
class BlockStore:
    def put(self, key):
        with self._lock:
            return key
"""
        graph = build_callgraph_from_tree(ast.parse(src), ENGINE)
        _, summary = graph.summary_for_call(ENGINE, "BlockStore", "self.put")
        assert summary.locks == {"BlockStore._lock": (50, ())}

    def test_transitive_propagation_with_call_path(self):
        src = """
class BlockStore:
    def _inner(self):
        with self._lock:
            return 1

    def _mid(self):
        return self._inner()

    def outer(self):
        return self._mid()
"""
        graph = build_callgraph_from_tree(ast.parse(src), ENGINE)
        _, summary = graph.summary_for_call(ENGINE, "BlockStore", "self.outer")
        level, path = summary.locks["BlockStore._lock"]
        assert level == 50
        assert path == ("BlockStore._mid", "BlockStore._inner")

    def test_blocking_propagates(self):
        src = """
import time

def helper():
    time.sleep(1)

def caller():
    helper()
"""
        graph = build_callgraph_from_tree(ast.parse(src), ENGINE)
        _, summary = graph.summary_for_call(ENGINE, None, "caller")
        assert "time.sleep()" in summary.blocking

    def test_bare_classname_resolves_to_init(self):
        src = """
class BlockStore:
    def __init__(self):
        with self._lock:
            self.ready = True

def make():
    return BlockStore()
"""
        graph = build_callgraph_from_tree(ast.parse(src), ENGINE)
        _, summary = graph.summary_for_call(ENGINE, None, "make")
        assert "BlockStore._lock" in summary.locks

    def test_nested_defs_do_not_leak_into_summary(self):
        src = """
class BlockStore:
    def deferred(self):
        def thunk():
            with self._lock:
                return 1
        return thunk
"""
        graph = build_callgraph_from_tree(ast.parse(src), ENGINE)
        _, summary = graph.summary_for_call(ENGINE, "BlockStore", "self.deferred")
        assert summary.locks == {}

    def test_cross_module_resolution_via_receiver_convention(self):
        store_src = """
class BlockStore:
    def put(self, key):
        with self._lock:
            return key
"""
        caller_src = """
class Scheduler:
    def run(self, store):
        store.put(1)
"""
        graph = build_callgraph({
            "src/repro/engine/blockstore.py": ast.parse(store_src),
            "src/repro/engine/scheduler.py": ast.parse(caller_src),
        })
        _, summary = graph.summary_for_call(
            "src/repro/engine/scheduler.py", "Scheduler", "self.run"
        )
        assert "BlockStore._lock" in summary.locks

    def test_untrusted_receiver_names_do_not_resolve(self):
        # "pool" conventionally names stdlib executors; routing calls
        # through it would import foreign summaries.
        src = """
class ThreadExecutor:
    def stop(self):
        with self._lock:
            return 1

class Driver:
    def go(self, pool):
        pool.stop()
"""
        graph = build_callgraph_from_tree(ast.parse(src), ENGINE)
        _, summary = graph.summary_for_call(ENGINE, "Driver", "self.go")
        assert summary.locks == {}


class TestE204:
    def test_transitive_inversion_flagged(self):
        src = """
class Context:
    def helper(self):
        with self._server._engine_lock:
            return 1

    def stop(self):
        with self._lock:
            self.helper()
"""
        rules = [f.rule for f in lint(src)]
        assert rules == ["E204"]

    def test_finding_carries_call_path(self):
        src = """
class Context:
    def _deep(self):
        with self._server._engine_lock:
            return 1

    def _mid(self):
        return self._deep()

    def stop(self):
        with self._lock:
            self._mid()
"""
        (finding,) = lint(src)
        assert finding.rule == "E204"
        assert "ReproServer._engine_lock" in finding.message
        assert any("Context._deep" in hop for hop in finding.chain)

    def test_inner_acquisition_in_order_is_clean(self):
        src = """
class Context:
    def helper(self):
        with self._store._lock:
            return 1

    def run(self):
        with self._lock:
            self.helper()
"""
        assert lint(src) == []

    def test_reentrant_same_lock_not_flagged(self):
        src = """
class EventBus:
    def _deliver(self):
        with self._lock:
            return 1

    def post(self, event):
        with self._lock:
            self._deliver()
"""
        rules = [f.rule for f in lint(src)]
        assert "E204" not in rules

    def test_cross_module_inversion(self):
        caller = """
class BlockStore:
    def evict(self, ctx):
        with self._lock:
            ctx.refresh()
"""
        callee = """
class Context:
    def refresh(self):
        with self._lock:
            return 1
"""
        trees = {
            "src/repro/engine/a.py": ast.parse(caller),
            "src/repro/engine/b.py": ast.parse(callee),
        }
        graph = build_callgraph(trees)
        findings = analyze_concurrency(
            trees["src/repro/engine/a.py"], "src/repro/engine/a.py", graph
        )
        assert [f.rule for f in findings] == ["E204"]

    def test_suppressible_on_the_with_line(self):
        src = """
class Context:
    def helper(self):
        with self._server._engine_lock:
            return 1

    def stop(self):
        with self._lock:  # repro: lint-ignore[E204]
            self.helper()
"""
        assert lint(src) == []


class TestE205:
    def test_reachable_blocking_flagged(self):
        src = """
import time

class BlockStore:
    def _flush(self):
        time.sleep(1.0)

    def put(self, key):
        with self._lock:
            self._flush()
"""
        (finding,) = lint(src)
        assert finding.rule == "E205"
        assert "time.sleep()" in finding.message

    def test_direct_blocking_stays_e202(self):
        src = """
import time

class BlockStore:
    def put(self, key):
        with self._lock:
            time.sleep(1.0)
"""
        rules = [f.rule for f in lint(src)]
        assert rules == ["E202"]

    def test_admission_gate_locks_exempt(self):
        src = """
import time

class ProcessExecutor:
    def _drain(self):
        time.sleep(1.0)

    def run_wave(self):
        with self._lock:
            self._drain()
"""
        assert lint(src) == []

    def test_non_data_plane_lock_not_flagged(self):
        src = """
import time

class EventBus:
    def _spin(self):
        time.sleep(0.01)

    def post(self, event):
        with self._lock:
            self._spin()
"""
        rules = [f.rule for f in lint(src)]
        assert "E205" not in rules

    def test_suppression_anchor_spans_the_with_block(self):
        src = """
import time

class BlockStore:
    def _flush(self):
        time.sleep(1.0)

    def put(self, key):
        with self._lock:  # repro: lint-ignore[E205]
            x = 1
            y = 2
            self._flush()
"""
        assert lint(src) == []

    def test_call_line_suppression_also_works(self):
        src = """
import time

class BlockStore:
    def _flush(self):
        time.sleep(1.0)

    def put(self, key):
        with self._lock:
            self._flush()  # repro: lint-ignore[E205]
"""
        assert lint(src) == []


class TestE206:
    def test_raw_instance_lock_flagged(self):
        src = """
import threading

class NewCache:
    def __init__(self):
        self._lock = threading.Lock()
"""
        (finding,) = lint(src)
        assert finding.rule == "E206"
        assert "NewCache._lock" in finding.message

    def test_raw_module_lock_flagged(self):
        src = """
import threading

_fresh_lock = threading.RLock()
"""
        (finding,) = lint(src)
        assert finding.rule == "E206"

    def test_declared_module_lock_requires_ordered_wrapper(self):
        # Even a *declared* name must go through OrderedLock: a raw
        # threading lock is invisible to the runtime sanitizer.
        src = """
import threading

_ids_lock = threading.Lock()
"""
        assert lint(src) == []  # declared in MODULE_LOCK_LEVELS

    def test_unregistered_orderedlock_name_flagged(self):
        src = """
from repro.engine.lockorder import OrderedLock

class NewCache:
    def __init__(self):
        self._lock = OrderedLock("NewCache._lock")
"""
        (finding,) = lint(src)
        assert finding.rule == "E206"
        assert "UndeclaredLockError" in finding.message

    def test_registered_orderedlock_clean(self):
        src = """
from repro.engine.lockorder import OrderedLock

class BlockStore:
    def __init__(self):
        self._lock = OrderedLock("BlockStore._lock")
"""
        assert lint(src) == []

    def test_non_engine_modules_exempt(self):
        src = """
import threading

class UserThing:
    def __init__(self):
        self._lock = threading.Lock()
"""
        assert analyze_source(src, filename="examples/demo.py") == []


class TestObsGating:
    def test_obs_modules_are_engine_scoped(self):
        src = """
import threading

class Widget:
    def __init__(self):
        self._lock = threading.Lock()
"""
        findings = analyze_source(src, filename="src/repro/obs/widget.py")
        assert [f.rule for f in findings] == ["E206"]
