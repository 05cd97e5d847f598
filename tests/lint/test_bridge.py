"""Runtime bridge: pickling failures name the capture, and each seeded
closure defect that the analyzer flags statically is shown to fail (or
silently corrupt results) under the processes executor."""

from __future__ import annotations

import threading

import pytest

from repro.engine import ClosureSerializationError, Context, EngineError
from repro.engine.closure import serialize
from repro.lint import analyze_source, find_unpicklable
from repro.lint.bridge import capture_report


def _can_pickle(value):
    try:
        serialize(value)
        return True
    except Exception:
        return False


class TestFindUnpicklable:
    def test_closure_cell_named(self):
        lock = threading.Lock()

        def guarded(x):
            with lock:
                return x

        issue = find_unpicklable(guarded, _can_pickle)
        assert issue is not None
        assert issue.rule == "C102"
        assert "closure cell 'lock'" in issue.path[-1]
        assert "function 'guarded'" in issue.path[-1]

    def test_default_named(self):
        def f(x, q=threading.Lock()):  # noqa: B008 - deliberate defect
            return x

        issue = find_unpicklable(f, _can_pickle)
        assert issue is not None
        assert "default" in issue.path[-1]

    def test_container_path(self):
        issue = find_unpicklable({"outer": [1, threading.Lock()]}, _can_pickle)
        assert issue is not None
        assert issue.path == ("['outer']", "[1]")
        assert issue.rule == "C102"

    def test_picklable_payload_yields_none(self):
        assert find_unpicklable({"a": [1, 2, (3,)]}, _can_pickle) is None
        assert capture_report(lambda x: x + 1, _can_pickle) is None


class TestClosureSerializationError:
    def test_serialize_names_capture_and_lint(self):
        lock = threading.Lock()

        def guarded(x):
            with lock:
                return x

        with pytest.raises(ClosureSerializationError) as exc_info:
            serialize(guarded)
        err = exc_info.value
        assert "closure cell 'lock'" in str(err)
        assert "python -m repro lint" in str(err)
        assert err.rule == "C102"
        assert any("guarded" in hop for hop in err.capture_path)

    def test_generator_capture(self):
        gen = (i for i in range(3))
        with pytest.raises(ClosureSerializationError) as exc_info:
            serialize(lambda x: next(gen) + x)
        assert "closure cell 'gen'" in str(exc_info.value)


@pytest.fixture(scope="module")
def proc_ctx():
    with Context(mode="processes", parallelism=2) as c:
        yield c


class TestSeededDefectsUnderProcesses:
    """Each C-rule's seeded defect, proven against the real executor."""

    def test_c102_lock_capture_dies_at_serialize(self, proc_ctx):
        lock = threading.Lock()

        def guarded(x):
            with lock:
                return x + 1

        src = (
            "import threading\n"
            "lock = threading.Lock()\n"
            "def guarded(x):\n"
            "    with lock:\n"
            "        return x + 1\n"
            "rdd.map(guarded).collect()\n"
        )
        assert [f.rule for f in analyze_source(src)] == ["C102"]
        with pytest.raises(ClosureSerializationError, match="closure cell 'lock'"):
            proc_ctx.parallelize(range(4), 2).map(guarded).collect()

    def test_c101_context_capture_fails_mid_job(self, proc_ctx):
        src = (
            "from repro.engine import Context\n"
            "ctx = Context(mode='processes')\n"
            "rdd = ctx.parallelize(range(4), 2)\n"
            "rdd.map(lambda x: ctx.parallelize([x]).count()).collect()\n"
        )
        assert [f.rule for f in analyze_source(src)] == ["C101"]
        # At runtime the worker receives a stopped stub and the task dies
        # mid-job — the analyzer catches it before any fork happens.
        with pytest.raises(EngineError):
            proc_ctx.parallelize(range(4), 2).map(
                lambda x: proc_ctx.parallelize([x]).count()
            ).collect()

    def test_c103_global_write_is_silently_lost(self, proc_ctx):
        import tests.lint.mutable_state as state

        src = (
            "SEEN = 0\n"
            "def tally(x):\n"
            "    global SEEN\n"
            "    SEEN += 1\n"
            "    return x\n"
            "rdd.map(tally).collect()\n"
        )
        assert [f.rule for f in analyze_source(src)] == ["C103"]
        state.SEEN = 0
        out = proc_ctx.parallelize(range(8), 2).map(state.tally).collect()
        assert sorted(out) == list(range(8))
        # The defect the rule exists for: every task incremented a forked
        # copy; the driver's module global never moved.
        assert state.SEEN == 0
