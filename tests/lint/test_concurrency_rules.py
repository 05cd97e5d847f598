"""E2xx engine-concurrency rules: lock order, blocking under locks,
post-then-mutate — plus the engine-path gating and with-line anchors."""

from __future__ import annotations

from repro.engine.lockorder import LOCK_LEVELS
from repro.lint import analyze_source
from repro.lint.concurrency_rules import is_engine_module


def rules_of(findings):
    return [f.rule for f in findings]


class TestE201LockOrder:
    def test_bad_fixture_flags_both_inversions(self, lint_fixture):
        findings = lint_fixture("engine_e201_bad.py")
        assert rules_of(findings) == ["E201", "E201"]
        direct, aliased = findings
        assert "Context._lock" in direct.message
        assert "BlockStore._lock" in direct.message
        assert "Context._lock" in aliased.message  # resolved through the alias

    def test_good_fixture_is_clean(self, lint_fixture):
        assert lint_fixture("engine_e201_good.py") == []

    def test_same_level_reentrancy_flagged(self):
        src = (
            "class BlockStore:\n"
            "    def f(self):\n"
            "        with self._lock:\n"
            "            with self._lock:\n"
            "                pass\n"
        )
        (finding,) = analyze_source(src, force_engine=True)
        assert finding.rule == "E201"

    def test_declared_order_is_strictly_layered(self):
        # The table itself must keep the documented shape: server outermost,
        # context above executors, stores above registries, bus near leaves.
        assert LOCK_LEVELS[("ReproServer", "_engine_lock")] < LOCK_LEVELS[("Context", "_lock")]
        assert LOCK_LEVELS[("Context", "_lock")] < LOCK_LEVELS[("BlockStore", "_lock")]
        assert LOCK_LEVELS[("BlockStore", "_lock")] < LOCK_LEVELS[("EventBus", "_lock")]


class TestE202BlockingUnderLock:
    def test_bad_fixture_flags_post_and_sleep(self, lint_fixture):
        findings = lint_fixture("engine_e202_bad.py")
        assert rules_of(findings) == ["E202", "E202"]
        post_f, sleep_f = findings
        assert "bus.post" in post_f.message
        assert "time.sleep" in sleep_f.message
        # Both findings anchor to the enclosing `with` so one directive
        # on that line silences the whole block.
        assert post_f.anchor_lines == sleep_f.anchor_lines
        assert len(post_f.anchor_lines) == 1

    def test_good_fixture_is_clean(self, lint_fixture):
        assert lint_fixture("engine_e202_good.py") == []

    def test_with_line_suppression_covers_block(self, lint_fixture):
        src = (
            "import time\n"
            "class BlockStore:\n"
            "    def f(self, bus, key):\n"
            "        with self._lock:  # repro: lint-ignore[E202]\n"
            "            bus.post(key)\n"
            "            time.sleep(0.01)\n"
        )
        assert analyze_source(src, force_engine=True) == []

    def test_leaf_locks_do_not_trigger(self):
        src = (
            "import time\n"
            "class RecordingListener:\n"
            "    def f(self, bus, key):\n"
            "        with self._lock:\n"
            "            time.sleep(0.01)\n"
        )
        assert analyze_source(src, force_engine=True) == []


class TestE203EventMutation:
    def test_bad_fixture_flags_mutation(self, lint_fixture):
        (finding,) = lint_fixture("engine_e203_bad.py")
        assert finding.rule == "E203"
        assert "event.wall_s" in finding.message

    def test_good_fixture_is_clean(self, lint_fixture):
        assert lint_fixture("engine_e203_good.py") == []

    def test_rebinding_clears_tracking(self):
        src = (
            "class Scheduler:\n"
            "    def f(self, bus):\n"
            "        event = self._make()\n"
            "        bus.post(event)\n"
            "        event = self._make()\n"
            "        event.wall_s = 1.0\n"
        )
        assert analyze_source(src, force_engine=True) == []


class TestEngineGating:
    def test_engine_and_serve_paths_gated_in(self):
        assert is_engine_module("src/repro/engine/blockstore.py")
        assert is_engine_module("src/repro/serve/app.py")
        assert not is_engine_module("examples/engine_tour.py")
        assert not is_engine_module("src/repro/sbgt/session.py")

    def test_user_code_not_checked_for_concurrency(self):
        src = (
            "import time\n"
            "class BlockStore:\n"
            "    def f(self):\n"
            "        with self._lock:\n"
            "            time.sleep(0.01)\n"
        )
        assert analyze_source(src, filename="examples/demo.py") == []
        assert len(analyze_source(src, filename="src/repro/engine/demo.py")) == 1
