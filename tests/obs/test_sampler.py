"""Sampling profiler contract: capture, folding, relay, export.

The sampler's collapsed-stack output feeds the flamegraph renderer and
``flamegraph.pl``-style tooling, so the folding format (root-first,
``file:func`` frames, ``;`` separators) and the worker relay primitives
(:func:`drain` / :func:`merge_folded` / :func:`worker_sync`) are pinned
here.
"""

import time

import pytest

from repro.obs.flamegraph import flamegraph_html
from repro.obs.sampler import (
    MAX_FRAMES,
    Sampler,
    _fold_stack,
    current_profile_hz,
    merge_into_installed,
    worker_sync,
)


def _spin(seconds: float) -> None:
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        pass


class TestSampling:
    def test_rejects_non_positive_hz(self):
        with pytest.raises(ValueError):
            Sampler(hz=0)
        with pytest.raises(ValueError):
            Sampler(hz=-5)

    def test_captures_busy_frame(self):
        sampler = Sampler(hz=400).start()
        try:
            _spin(0.1)
        finally:
            sampler.stop()
        folded = sampler.folded()
        assert sampler.sample_count > 0
        assert any("_spin" in stack for stack in folded)

    def test_stacks_are_root_first(self):
        sampler = Sampler(hz=400).start()
        try:
            _spin(0.1)
        finally:
            sampler.stop()
        stack = next(s for s in sampler.folded() if "_spin" in s)
        frames = stack.split(";")
        # The busy leaf sits at the end, the interpreter root at the start.
        assert "_spin" in frames[-1]
        assert frames.index(next(f for f in frames if "_spin" in f)) > 0

    def test_start_is_idempotent(self):
        sampler = Sampler(hz=100).start()
        try:
            assert sampler.start() is sampler
            assert sampler.running
        finally:
            sampler.stop()
        assert not sampler.running

    def test_snapshot_shape(self):
        sampler = Sampler(hz=50)
        snap = sampler.snapshot()
        assert set(snap) == {"hz", "running", "ticks", "samples", "stacks"}
        assert snap["hz"] == 50.0
        assert snap["running"] is False

    def test_deep_recursion_is_truncated(self):
        class Frame:
            def __init__(self, back, name):
                self.f_back = back
                self.f_code = type(
                    "Code", (), {"co_filename": "deep.py", "co_name": name}
                )()

        frame = None
        for i in range(MAX_FRAMES * 2):
            frame = Frame(frame, f"f{i}")
        folded = _fold_stack(frame)
        frames = folded.split(";")
        assert frames[0] == "<truncated>"
        assert len(frames) == MAX_FRAMES + 1
        # Leaf-most frames survive truncation.
        assert frames[-1] == f"deep.py:f{MAX_FRAMES * 2 - 1}"


class TestRelay:
    def test_drain_pops_and_merge_restores(self):
        sampler = Sampler(hz=100)
        sampler.merge_folded([("a;b", 3), ("a;c", 1)])
        items = sampler.drain()
        assert dict(items) == {"a;b": 3, "a;c": 1}
        assert sampler.folded() == {}
        sampler.merge_folded(items)
        sampler.merge_folded([("a;b", 2)])
        assert sampler.folded() == {"a;b": 5, "a;c": 1}

    def test_install_registry(self):
        assert current_profile_hz() == 0.0
        sampler = Sampler(hz=100).start().install()
        try:
            assert current_profile_hz() == 100.0
            merge_into_installed([("x;y", 4)])
            assert sampler.folded()["x;y"] == 4
        finally:
            sampler.stop()
            sampler.uninstall()
        # merging with nothing installed is a no-op, not an error
        merge_into_installed([("x;y", 1)])
        assert sampler.folded()["x;y"] == 4

    def test_stopped_sampler_reports_zero_hz(self):
        sampler = Sampler(hz=100).install()
        try:
            assert current_profile_hz() == 0.0  # installed but not running
        finally:
            sampler.uninstall()

    def test_worker_sync_lifecycle(self):
        # Positive rate: a worker-local sampler spins up and drains.
        assert worker_sync(200.0) == []  # fresh sampler has nothing yet
        _spin(0.05)
        drained = worker_sync(200.0)
        assert sum(c for _, c in drained) > 0
        # Zero rate: sampler stops, residue drains exactly once.
        worker_sync(0.0)
        assert worker_sync(0.0) == []


class TestExport:
    def test_dump_collapsed(self, tmp_path):
        sampler = Sampler(hz=100)
        sampler.merge_folded([("main;work", 7), ("main;idle", 2)])
        path = tmp_path / "profile.collapsed"
        assert sampler.dump_collapsed(path) == 2
        lines = path.read_text().splitlines()
        assert lines == ["main;idle 2", "main;work 7"]  # sorted, "stack count"

    def test_flamegraph_html_self_contained(self):
        folded = {"main;select_pool": 5, "main;update_posterior": 3, "main": 1}
        html = flamegraph_html(folded, title="test profile")
        assert html.startswith("<!DOCTYPE html>")
        assert "test profile" in html
        assert "select_pool" in html and "update_posterior" in html
        # Self-contained: no external scripts or stylesheets.
        assert "src=" not in html and "href=" not in html

    def test_dump_flamegraph(self, tmp_path):
        sampler = Sampler(hz=100)
        sampler.merge_folded([("main;work", 7)])
        path = tmp_path / "profile.html"
        sampler.dump_flamegraph(path, title="t")
        assert "main" in path.read_text()
