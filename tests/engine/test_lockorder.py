"""Runtime lock-order sanitizer: registry, OrderedLock, modes, hooks.

The directory-wide autouse fixture (conftest.py) puts every test here in
``raise`` mode; tests that need ``record``/``off`` switch explicitly and
rely on the fixture's teardown to restore the previous mode.
"""

from __future__ import annotations

import ast
import pathlib
import threading

import pytest

from repro.engine import lockorder
from repro.engine.context import Context
from repro.engine.lockorder import (
    ADMISSION_GATE_LOCKS,
    DATA_PLANE_MAX_LEVEL,
    LOCK_LEVELS,
    MODULE_LOCK_LEVELS,
    LockOrderError,
    OrderedLock,
    UndeclaredLockError,
    lock_level,
)
from repro.engine.listener import LockOrderViolation, RecordingListener


class TestRegistry:
    def test_lock_level_resolves_class_and_module_names(self):
        assert lock_level("Context._lock") == LOCK_LEVELS[("Context", "_lock")]
        assert lock_level("_ids_lock") == MODULE_LOCK_LEVELS["_ids_lock"]
        assert lock_level("NoSuch._lock") is None

    def test_hierarchy_is_outer_to_inner(self):
        order = [
            ("ReproServer", "_engine_lock"),
            ("Context", "_lock"),
            ("BlockStore", "_lock"),
            ("EventBus", "_lock"),
            ("MetricsHub", "_lock"),
            ("RecordingListener", "_lock"),
        ]
        levels = [LOCK_LEVELS[key] for key in order]
        assert levels == sorted(levels)
        assert len(set(levels)) == len(levels)

    def test_table_matches_the_locks_the_code_constructs(self):
        """Every declared lock is constructed somewhere under src/repro,
        and nothing constructs an ``OrderedLock`` the table lacks."""
        src = pathlib.Path(lockorder.__file__).resolve().parents[1]
        constructed = set()
        for path in src.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", "")) == "OrderedLock"
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                ):
                    constructed.add(node.args[0].value)
        declared = {f"{cls}.{attr}" for cls, attr in LOCK_LEVELS} | set(MODULE_LOCK_LEVELS)
        assert constructed == declared

    def test_admission_gates_are_declared_data_plane_locks(self):
        for key in ADMISSION_GATE_LOCKS:
            assert key in LOCK_LEVELS
            assert LOCK_LEVELS[key] <= DATA_PLANE_MAX_LEVEL

    def test_undeclared_name_refused_at_construction(self):
        with pytest.raises(UndeclaredLockError):
            OrderedLock("Mystery._lock")
        with pytest.raises(UndeclaredLockError):
            OrderedLock("_mystery_lock")

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            lockorder.set_sanitizer_mode("loud")


class TestRaiseMode:
    def test_ordered_acquisition_is_clean(self):
        outer = OrderedLock("Context._lock")
        inner = OrderedLock("BlockStore._lock")
        with outer:
            with inner:
                held = dict(lockorder.held_locks())
        assert held == {"Context._lock": 20, "BlockStore._lock": 50}
        assert lockorder.held_locks() == ()

    def test_inversion_raises_before_acquiring(self):
        outer = OrderedLock("Context._lock")
        inner = OrderedLock("BlockStore._lock")
        with inner:
            with pytest.raises(LockOrderError, match="Context._lock"):
                outer.acquire()
        # raise happened *before* acquisition: the lock is free afterwards
        assert outer.acquire(blocking=False)
        outer.release()

    def test_same_level_nesting_is_a_violation(self):
        a = OrderedLock("RecordingListener._lock")
        b = OrderedLock("ResultCache._lock")
        with a:
            with pytest.raises(LockOrderError):
                b.acquire()

    def test_reentrant_reacquire_is_allowed(self):
        bus = OrderedLock("EventBus._lock", reentrant=True)
        with bus:
            with bus:
                assert dict(lockorder.held_locks())["EventBus._lock"] == 80

    def test_non_reentrant_self_reacquire_still_flagged(self):
        lock = OrderedLock("BlockStore._lock")
        with lock:
            with pytest.raises(LockOrderError):
                lock.acquire(blocking=False)

    def test_per_thread_isolation(self):
        outer = OrderedLock("Context._lock")
        inner = OrderedLock("BlockStore._lock")
        errors = []

        def other_thread():
            try:
                with outer:  # this thread holds nothing: no violation
                    pass
            except LockOrderError as exc:  # pragma: no cover - failure path
                errors.append(exc)

        with inner:
            t = threading.Thread(target=other_thread)
            t.start()
            t.join()
        assert errors == []


class TestRecordMode:
    def test_violation_recorded_and_execution_continues(self):
        lockorder.set_sanitizer_mode("record")
        lockorder.clear_violations()
        outer = OrderedLock("Context._lock")
        inner = OrderedLock("BlockStore._lock")
        with inner:
            with outer:  # inverted, but must not raise
                pass
        (record,) = lockorder.violations()
        assert record.acquired == "Context._lock"
        assert record.acquired_level == 20
        assert record.held == "BlockStore._lock"
        assert record.held_level == 50
        assert "strictly descending" in record.describe()

    def test_hooks_fire_once_per_violation(self):
        lockorder.set_sanitizer_mode("record")
        lockorder.clear_violations()
        seen = []
        hook = lockorder.add_violation_hook(seen.append)
        try:
            inner = OrderedLock("BlockStore._lock")
            outer = OrderedLock("Context._lock")
            with inner:
                with outer:
                    pass
            assert len(seen) == 1
            assert seen[0].acquired == "Context._lock"
        finally:
            lockorder.remove_violation_hook(hook)

    def test_hook_acquiring_locks_does_not_cascade(self):
        lockorder.set_sanitizer_mode("record")
        lockorder.clear_violations()
        leaf = OrderedLock("ResultCache._lock")

        def nosy_hook(record):
            with leaf:  # would itself be out of order; must not re-enter
                pass

        hook = lockorder.add_violation_hook(nosy_hook)
        try:
            inner = OrderedLock("BlockStore._lock")
            outer = OrderedLock("Context._lock")
            with inner:
                with outer:
                    pass
            assert len(lockorder.violations()) == 1
        finally:
            lockorder.remove_violation_hook(hook)

    def test_off_mode_skips_all_tracking(self):
        lockorder.set_sanitizer_mode("off")
        lockorder.clear_violations()
        inner = OrderedLock("BlockStore._lock")
        outer = OrderedLock("Context._lock")
        with inner:
            with outer:
                assert lockorder.held_locks() == ()
        assert lockorder.violations() == []


class TestEngineIntegration:
    def test_context_posts_bus_event_and_counts_violations(self):
        lockorder.set_sanitizer_mode("record")
        lockorder.clear_violations()
        with Context(mode="serial") as ctx:
            recorder = RecordingListener()
            ctx.event_bus.register(recorder)
            inner = OrderedLock("BlockStore._lock")
            outer = OrderedLock("Context._lock")
            with inner:
                with outer:
                    pass
            events = recorder.of_type(LockOrderViolation)
            assert len(events) == 1
            assert events[0].acquired == "Context._lock"
            assert events[0].held == "BlockStore._lock"
            snap = ctx.metrics_hub.snapshot()
        family = snap["repro_lock_order_violations_total"]
        assert family["series"][0]["value"] == 1.0

    def test_engine_config_switches_mode(self):
        from repro.engine.config import EngineConfig

        lockorder.set_sanitizer_mode("off")
        cfg = EngineConfig(mode="serial", lock_sanitizer="record")
        with Context(config=cfg):
            assert lockorder.sanitizer_mode() == "record"

    def test_engine_config_rejects_bad_mode(self):
        from repro.engine.config import EngineConfig

        with pytest.raises(ValueError):
            EngineConfig(lock_sanitizer="shout")

    def test_env_mode_parsing(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOCK_SANITIZER", "RECORD")
        assert lockorder._env_mode() == "record"
        monkeypatch.setenv("REPRO_LOCK_SANITIZER", "banana")
        assert lockorder._env_mode() == "off"
        monkeypatch.delenv("REPRO_LOCK_SANITIZER")
        assert lockorder._env_mode() == "off"
