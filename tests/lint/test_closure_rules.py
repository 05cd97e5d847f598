"""C1xx closure-safety rules: each fixture pair proves one rule fires on
the seeded defect and stays silent on the idiomatic rewrite."""

from __future__ import annotations

from repro.engine import RDD, Context
from repro.lint import analyze_source
from repro.lint.model import _RDD_PRODUCERS, TRANSFORM_METHODS


def rules_of(findings):
    return [f.rule for f in findings]


def test_vocabulary_names_exist_on_the_engine():
    """The linter's idea of the RDD API cannot drift from the engine's."""
    for name in TRANSFORM_METHODS | _RDD_PRODUCERS:
        assert hasattr(RDD, name) or hasattr(Context, name), name


class TestC101DriverCaptures:
    def test_bad_fixture_flags_every_capture(self, lint_fixture):
        findings = lint_fixture("closure_c101_bad.py")
        assert rules_of(findings) == ["C101", "C101", "C101"]
        ctx_capture, rdd_capture, default_capture = findings
        assert "'ctx'" in ctx_capture.message and "Context" in ctx_capture.message
        assert ctx_capture.line == 7
        assert any("capture 'ctx'" in hop for hop in ctx_capture.chain)
        assert any("map @ line" in hop for hop in ctx_capture.chain)
        assert "'other'" in rdd_capture.message and "RDD" in rdd_capture.message
        assert "default argument c=ctx" in default_capture.message

    def test_good_fixture_is_clean(self, lint_fixture):
        assert lint_fixture("closure_c101_good.py") == []


class TestC102UnpicklableCaptures:
    def test_bad_fixture_flags_lock_and_file(self, lint_fixture):
        findings = lint_fixture("closure_c102_bad.py")
        assert rules_of(findings) == ["C102", "C102"]
        lock_f, file_f = findings
        assert "'lock' (Lock)" in lock_f.message
        assert any("bound at line 4" in hop for hop in lock_f.chain)
        assert "'fh' (File)" in file_f.message

    def test_good_fixture_is_clean(self, lint_fixture):
        assert lint_fixture("closure_c102_good.py") == []


class TestC103GlobalWrites:
    def test_bad_fixture_flags_global_and_mutator(self, lint_fixture):
        findings = lint_fixture("closure_c103_bad.py")
        assert rules_of(findings) == ["C103", "C103"]
        decl, store = findings
        assert "global SEEN" in decl.message
        assert "'CACHE'" in store.message

    def test_good_fixture_is_clean(self, lint_fixture):
        assert lint_fixture("closure_c103_good.py") == []


class TestC104Nondeterminism:
    def test_bad_fixture_flags_all_four_sources(self, lint_fixture):
        findings = lint_fixture("closure_c104_bad.py")
        assert rules_of(findings) == ["C104"] * 4
        messages = "\n".join(f.message for f in findings)
        assert "random.random" in messages
        assert "np.random.random" in messages
        assert "default_rng()` without a seed" in messages
        assert "time.time" in messages

    def test_good_fixture_is_clean(self, lint_fixture):
        assert lint_fixture("closure_c104_good.py") == []


class TestResolutionDetails:
    def test_named_function_argument_resolved(self):
        src = (
            "import threading\n"
            "lk = threading.RLock()\n"
            "def f(x):\n"
            "    with lk:\n"
            "        return x\n"
            "rdd.map(f).collect()\n"
        )
        (finding,) = analyze_source(src)
        assert finding.rule == "C102"
        assert any("function 'f'" in hop for hop in finding.chain)

    def test_function_reused_across_transforms_reported_once(self):
        src = (
            "import threading\n"
            "lk = threading.Lock()\n"
            "def f(x):\n"
            "    with lk:\n"
            "        return x\n"
            "rdd.map(f).collect()\n"
            "rdd.filter(f).collect()\n"
        )
        assert len(analyze_source(src)) == 1

    def test_local_rebinding_shadows_capture(self):
        src = (
            "import threading\n"
            "lock = threading.Lock()\n"
            "def f(x):\n"
            "    lock = x  # local, hoisted: not a capture\n"
            "    return lock\n"
            "rdd.map(f).collect()\n"
        )
        assert analyze_source(src) == []

    def test_broadcast_reads_are_fine(self):
        src = (
            "bc = ctx.broadcast([1, 2])\n"
            "def f(x):\n"
            "    return bc.value[0] + x\n"
            "rdd.map(f).collect()\n"
        )
        assert analyze_source(src) == []

    def test_non_transform_methods_not_analyzed(self):
        src = (
            "import random\n"
            "helper(lambda x: random.random())\n"
            "obj.register(lambda x: random.random())\n"
        )
        assert analyze_source(src) == []

    def test_with_as_binding_infers_tag(self):
        src = (
            "from repro.engine import Context\n"
            "with Context() as ctx:\n"
            "    rdd = ctx.parallelize([1])\n"
            "    rdd.map(lambda x: ctx).collect()\n"
        )
        (finding,) = analyze_source(src)
        assert finding.rule == "C101"


class TestC101ObservabilityCaptures:
    """The PR 8 driver-resident machinery: hub, instruments, sampler."""

    def test_hub_and_instrument_captures_flagged(self):
        src = (
            "from repro.obs.metrics import MetricsHub\n"
            "hub = MetricsHub()\n"
            "c = hub.counter('repro_x_total')\n"
            "rdd.map(lambda x: c.inc() or x).collect()\n"
            "rdd.map(lambda x: hub).collect()\n"
        )
        findings = analyze_source(src)
        assert rules_of(findings) == ["C101", "C101"]
        messages = "\n".join(f.message for f in findings)
        assert "MetricInstrument" in messages
        assert "MetricsHub" in messages

    def test_context_hub_attribute_flagged(self):
        src = "hub = ctx.metrics_hub\nrdd.map(lambda x: hub).collect()\n"
        (finding,) = analyze_source(src)
        assert finding.rule == "C101"
        assert "MetricsHub" in finding.message

    def test_sampler_capture_flagged(self):
        src = (
            "from repro.obs.sampler import Sampler\n"
            "s = Sampler(hz=100)\n"
            "rdd.map(lambda x: s).collect()\n"
        )
        (finding,) = analyze_source(src)
        assert finding.rule == "C101"
        assert "Sampler" in finding.message

    def test_hub_histogram_receiver_gated(self):
        # hub.histogram(...) yields a driver-only instrument...
        src = (
            "h = hub.histogram('repro_h_seconds')\n"
            "rdd.map(lambda x: h.observe(x) or x).collect()\n"
        )
        (finding,) = analyze_source(src)
        assert finding.rule == "C101"
        assert "MetricInstrument" in finding.message

    def test_rdd_histogram_action_not_tagged(self):
        # ...but RDD.histogram() is an action returning plain data, and
        # capturing its result must stay clean.
        src = (
            "counts = rdd.histogram(4)\n"
            "rdd.map(lambda x: counts[0] + x).collect()\n"
        )
        assert analyze_source(src) == []
