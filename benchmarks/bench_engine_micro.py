"""Engine micro-benchmarks (not tied to a paper experiment).

Throughput of the engine primitives SBGT leans on, so regressions in
the substrate are visible independently of the group-testing workloads:
narrow pipelining, tree aggregation, caching, and broadcast fan-out.
"""

from __future__ import annotations

import statistics
import time
import timeit

import numpy as np
import pytest

from repro.engine import Context, EngineConfig

N_RECORDS = 50_000
N_PARTS = 8


@pytest.fixture(scope="module")
def ectx():
    with Context(mode="serial") as c:
        yield c


def test_engine_narrow_pipeline(benchmark, ectx):
    rdd = ectx.range(N_RECORDS, num_partitions=N_PARTS)

    def run():
        return rdd.map(lambda x: x + 1).filter(lambda x: x % 3 == 0).map(
            lambda x: x * 2
        ).sum()

    assert benchmark(run) > 0


def test_engine_tree_aggregate_numpy_blocks(benchmark, ectx):
    blocks = ectx.parallelize([np.arange(10_000, dtype=np.float64)] * 32, N_PARTS).cache()
    blocks.count()

    def run():
        return blocks.tree_aggregate(
            0.0, lambda acc, a: acc + float(a.sum()), lambda x, y: x + y
        )

    assert benchmark(run) > 0


def test_engine_cached_rescan(benchmark, ectx):
    cached = ectx.range(N_RECORDS, num_partitions=N_PARTS).map(lambda x: x * x).cache()
    cached.count()  # materialize

    def run():
        return cached.sum()

    assert benchmark(run) > 0


def test_engine_broadcast_lookup(benchmark, ectx):
    table = ectx.broadcast({i: i * 2 for i in range(1000)})
    rdd = ectx.range(N_RECORDS // 5, num_partitions=N_PARTS)

    def run():
        return rdd.map(lambda x: table.value[x % 1000]).sum()

    assert benchmark(run) > 0


# ---------------------------------------------------------------------------
# Telemetry overhead gates.  Every gate times the one job shape the
# product runs: a Bayes update as ``DistributedLattice.update()`` submits
# it — cached NumPy blocks -> ``map(kernel).cache()`` -> ``tree_aggregate``
# -> ``unpersist`` of the superseded blocks.  The asserted size is the
# ``dense_large`` workload's (2 blocks x 2^17 states, a 1-2 ms serial
# job); the same ratios at the cohort-12 size (2 blocks x 2^11 states,
# the ``dense_small`` workload, where fixed per-job cost dominates) are
# printed for the record, not asserted.
#
# The baseline is ``enable_events=False``: no listener exists and a job
# pays for no telemetry at all.  The bus is falsy while no listeners are
# registered, so emitters skip event construction entirely; an enabled
# bus with zero listeners should cost the same as events disabled.
# Production contexts carry two listeners — the flight recorder and the
# fold into the metrics hub — so the overhead of each is benchmarked and
# bounded too.

LARGE_BITS = 18  # dense_large
SMALL_BITS = 12  # dense_small / dense_procs / serve_mixed
N_BLOCKS = 2
_LOG_LIK = np.log(1.0 - 0.98 * 0.7 ** np.arange(8))  # log P(+ | k of a 7-pool infected)


def _lattice_blocks(ctx: Context, bits: int):
    """Cached ``(pool counts, log-probs)`` blocks of a 2^bits-state lattice."""
    states = np.arange(1 << bits, dtype=np.int64)
    counts = np.zeros(states.size, dtype=np.uint8)
    for bit in range(7):  # the pooled individuals
        counts += ((states >> bit) & 1).astype(np.uint8)
    log_probs = np.full(states.size, -bits * np.log(2.0))
    records = list(zip(np.array_split(counts, N_BLOCKS), np.array_split(log_probs, N_BLOCKS)))
    blocks = ctx.parallelize(records, N_BLOCKS).cache()
    blocks.count()  # materialize, as a session start does
    return blocks


def _block_log_mass(acc: float, block) -> float:
    log_probs = block[1]
    top = float(log_probs.max())
    return float(np.logaddexp(acc, top + np.log(np.exp(log_probs - top).sum())))


def _update_job(blocks) -> float:
    """One Bayes update's worth of engine work; returns the new log-mass."""
    table = blocks.ctx.broadcast(_LOG_LIK)
    updated = blocks.map(lambda b: (b[0], b[1] + table.value[b[0]])).cache()
    log_mass = updated.tree_aggregate(-np.inf, _block_log_mass, np.logaddexp)
    updated.unpersist()
    return log_mass


def _config(enable_events: bool, flight_recorder: bool = False) -> EngineConfig:
    return EngineConfig(
        mode="serial", enable_events=enable_events, flight_recorder=flight_recorder
    )


def _events_off() -> Context:
    return Context(config=_config(enable_events=False))


def _bare_bus(*listeners) -> Context:
    """Events on with only *listeners* subscribed (none: the empty bus);
    the context's own hub fold is dropped."""
    c = Context(config=_config(enable_events=True))
    c.event_bus.clear()
    for listener in listeners:
        c.add_listener(listener)
    return c


def test_engine_events_enabled_empty_bus(benchmark):
    with _bare_bus() as c:
        assert benchmark(_update_job, _lattice_blocks(c, LARGE_BITS)) < 0.0


def test_engine_events_disabled(benchmark):
    with _events_off() as c:
        assert benchmark(_update_job, _lattice_blocks(c, LARGE_BITS)) < 0.0


def test_engine_flight_recorder_on(benchmark):
    """The default production configuration: recorder subscribed."""
    with Context(config=_config(enable_events=True, flight_recorder=True)) as c:
        assert benchmark(_update_job, _lattice_blocks(c, LARGE_BITS)) < 0.0


def _round_median(blocks, reps: int = 7) -> float:
    walls = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _update_job(blocks)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def _interleaved_best_medians(make_a, make_b, bits: int, rounds: int = 5) -> tuple:
    """Best-of-rounds median walls of the update job in two contexts.

    Rounds alternate between the two contexts so clock drift and host
    noise hit both sides equally, and taking the minimum of the round
    medians discards scheduler spikes a single median cannot.
    """
    with make_a() as ca, make_b() as cb:
        blocks_a, blocks_b = _lattice_blocks(ca, bits), _lattice_blocks(cb, bits)
        _update_job(blocks_a)  # warm up both
        _update_job(blocks_b)
        medians_a, medians_b = [], []
        for _ in range(rounds):
            medians_a.append(_round_median(blocks_a))
            medians_b.append(_round_median(blocks_b))
    return min(medians_a), min(medians_b)


def test_engine_empty_bus_overhead_small():
    """Empty-bus wall stays within a few percent of events-off (the <2%
    target; the assert leaves slack for timer noise on shared hosts)."""
    for bits in (LARGE_BITS, SMALL_BITS):
        off, on = _interleaved_best_medians(_events_off, _bare_bus, bits)
        overhead = (on - off) / off
        print(f"\nempty-bus overhead, 2^{bits} states: {overhead:+.2%} "
              f"(off={off * 1e3:.3f}ms on={on * 1e3:.3f}ms)")
        if bits == LARGE_BITS:
            assert overhead < 0.10


def _flight_recorder_overhead(bits: int) -> tuple:
    """(end-to-end ratio, event-budget ratio, description) at one size."""
    from repro.engine.listener import EventBus, TaskEnd
    from repro.obs.flight import FlightRecorder

    off, on = _interleaved_best_medians(
        _events_off, lambda: _bare_bus(FlightRecorder()), bits, rounds=7
    )
    end_to_end = (on - off) / off

    recorder = FlightRecorder()
    with _bare_bus(recorder) as c:
        blocks = _lattice_blocks(c, bits)
        before = recorder.snapshot()["total_seen"]
        _update_job(blocks)
        events_per_job = recorder.snapshot()["total_seen"] - before

    bus = EventBus()
    bus.register(FlightRecorder())
    reps = 20_000
    per_event = min(
        timeit.repeat(lambda: bus.post(TaskEnd(1, 2, 0.5, 1)), number=reps, repeat=5)
    ) / reps
    budget = events_per_job * per_event / off
    return end_to_end, budget, (
        f"2^{bits} states: end-to-end {end_to_end:+.2%}, budget {budget:.2%} "
        f"({events_per_job} events x {per_event * 1e9:.0f}ns on a {off * 1e3:.3f}ms job)"
    )


def test_engine_flight_recorder_overhead_small():
    """The always-on flight recorder costs <2% on a dense_large update job.

    This is the CI acceptance bound for leaving the recorder on by
    default.  Two measurements, either may satisfy the bound:

    * end-to-end — recorder-only vs events-off job walls (interleaved
      best-of-rounds medians).  Truthful but noisy: the ~14 events of
      this job cost ~1 us each, well inside host jitter.
    * event budget — (events/job) x (measured per-event construct+post
      cost) / (events-off job wall).  Deterministic, and it is the
      quantity the recorder actually controls.

    A real regression (recorder growing locks, events growing work)
    moves both above 2%; host noise only moves the first.
    """
    end_to_end, budget, text = _flight_recorder_overhead(LARGE_BITS)
    print(f"\nflight-recorder overhead, {text}")
    print(f"flight-recorder overhead, {_flight_recorder_overhead(SMALL_BITS)[2]}")
    assert end_to_end < 0.02 or budget < 0.02


def _hub_and_sampler_overhead(bits: int) -> tuple:
    """(end-to-end ratio, budget ratio, description) at one size."""
    import collections

    from repro.engine.listener import (
        CacheEvict,
        CacheHit,
        CacheMiss,
        EventBus,
        JobEnd,
        RecordingListener,
        StageEnd,
        TaskEnd,
        TaskRetry,
        TaskStart,
    )
    from repro.obs.metrics import HubMetricsListener, MetricsHub
    from repro.obs.sampler import Sampler

    sampler = Sampler(hz=100.0)
    # The instrumented side is what every context carries: its own fold
    # of the event stream into its hub.
    with _events_off() as base, Context(config=_config(enable_events=True)) as inst:
        base_blocks, inst_blocks = _lattice_blocks(base, bits), _lattice_blocks(inst, bits)
        _update_job(base_blocks)  # warm up both
        _update_job(inst_blocks)
        base_medians, inst_medians = [], []
        for _ in range(7):
            base_medians.append(_round_median(base_blocks))
            sampler.start().install()
            try:
                inst_medians.append(_round_median(inst_blocks))
            finally:
                sampler.stop()
                sampler.uninstall()
    off, on = min(base_medians), min(inst_medians)
    end_to_end = (on - off) / off

    with Context(config=_config(enable_events=True)) as c:
        blocks = _lattice_blocks(c, bits)
        rec = c.add_listener(RecordingListener())
        _update_job(blocks)
    by_type = collections.Counter(type(event) for event in rec.events)

    bus = EventBus()
    bus.register(HubMetricsListener(MetricsHub()))
    reps = 20_000

    def timed(make_event) -> float:
        return min(
            timeit.repeat(lambda: bus.post(make_event()), number=reps, repeat=5)
        ) / reps

    # Bus post + hub fold per folded kind; every other kind costs the
    # dispatch alone (no handler).
    per_cache = timed(lambda: CacheHit(3, 0))
    per_fold = {
        TaskEnd: timed(lambda: TaskEnd(1, 2, 0.5, 1)),
        StageEnd: timed(lambda: StageEnd(1, "result", 0.5, 1)),
        JobEnd: timed(lambda: JobEnd(1, 0.5)),
        CacheHit: per_cache,
        CacheMiss: per_cache,
        CacheEvict: per_cache,
        TaskRetry: per_cache,
    }
    per_dispatch = timed(lambda: TaskStart(1, 2))
    ticks = 2_000
    per_tick = min(
        timeit.repeat(lambda: sampler._sample_once(), number=ticks, repeat=5)
    ) / ticks
    total = sum(by_type.values())
    folded = sum(n for kind, n in by_type.items() if kind in per_fold)
    event_cost = sum(n * per_fold.get(kind, per_dispatch) for kind, n in by_type.items())
    budget = event_cost / off + per_tick * sampler.hz
    return end_to_end, budget, (
        f"2^{bits} states: end-to-end {end_to_end:+.2%}, budget {budget:.2%} "
        f"({folded}/{total} folded events, {event_cost * 1e6:.1f}us "
        f"(task_end {per_fold[TaskEnd] * 1e9:.0f}ns, job_end {per_fold[JobEnd] * 1e9:.0f}ns, "
        f"cache {per_cache * 1e9:.0f}ns, dispatch {per_dispatch * 1e9:.0f}ns) "
        f"+ {per_tick * 1e6:.1f}us ticks at {sampler.hz:.0f}Hz on a {off * 1e3:.3f}ms job)"
    )


def test_engine_hub_and_sampler_overhead_small():
    """Metrics hub folding plus a 100 Hz sampler cost <3% on a dense_large
    update job.

    This is the CI acceptance bound for the observability stack (PR 8):
    a context folding its event stream into its hub (the
    :class:`HubMetricsListener` every context registers) while a 100 Hz
    :class:`Sampler` is installed must stay within 3% of an events-off
    context, which runs no telemetry at all.  Same dual measurement as
    the flight-recorder gate — either may satisfy the bound:

    * end-to-end — interleaved best-of-rounds medians, with the sampler
      running only during the instrumented rounds.
    * budget — folded events (job_end / stage_end / task_end and
      cache / retry, which the listener handles) each priced at its
      measured bus-post + hub-fold cost, the rest at the dispatch-only
      cost, divided by the baseline job wall; plus the sampler's duty
      cycle (per-tick frame-walk cost x hz), the CPU fraction the
      sampling thread can consume.
    """
    end_to_end, budget, text = _hub_and_sampler_overhead(LARGE_BITS)
    print(f"\nhub+sampler overhead, {text}")
    print(f"hub+sampler overhead, {_hub_and_sampler_overhead(SMALL_BITS)[2]}")
    assert end_to_end < 0.03 or budget < 0.03


def _lock_sanitizer_overhead(bits: int) -> tuple:
    """(end-to-end ratio, budget ratio, description) at one size."""
    from repro.engine import lockorder
    from repro.engine.lockorder import OrderedLock

    previous = lockorder.set_sanitizer_mode("off")
    try:
        with Context(config=_config(enable_events=False)) as c:
            blocks = _lattice_blocks(c, bits)
            _update_job(blocks)  # warm up
            off_medians, on_medians = [], []
            for _ in range(7):
                lockorder.set_sanitizer_mode("off")
                off_medians.append(_round_median(blocks))
                lockorder.set_sanitizer_mode("record")
                try:
                    on_medians.append(_round_median(blocks))
                finally:
                    lockorder.set_sanitizer_mode("off")
                    lockorder.clear_violations()
        off, on = min(off_medians), min(on_medians)
        end_to_end = (on - off) / off

        # Count lock acquisitions in one job by wrapping the class method.
        acquires = 0
        orig_acquire = OrderedLock.acquire

        def counting_acquire(self, *args, **kwargs):
            nonlocal acquires
            acquires += 1
            return orig_acquire(self, *args, **kwargs)

        with Context(config=_config(enable_events=False)) as c:
            blocks = _lattice_blocks(c, bits)
            OrderedLock.acquire = counting_acquire
            try:
                _update_job(blocks)
            finally:
                OrderedLock.acquire = orig_acquire

        # Price one acquire/release pair in each mode on an uncontended lock.
        probe = OrderedLock("ResultCache._lock")
        reps = 20_000

        def pair():
            probe.acquire()
            probe.release()

        def timed_pair() -> float:
            return min(timeit.repeat(pair, number=reps, repeat=5)) / reps

        lockorder.set_sanitizer_mode("off")
        per_off = timed_pair()
        lockorder.set_sanitizer_mode("record")
        try:
            per_record = timed_pair()
        finally:
            lockorder.set_sanitizer_mode("off")
            lockorder.clear_violations()
        budget = acquires * max(per_record - per_off, 0.0) / off
    finally:
        lockorder.set_sanitizer_mode(previous)
        lockorder.clear_violations()
    return end_to_end, budget, (
        f"2^{bits} states: end-to-end {end_to_end:+.2%}, budget {budget:.2%} "
        f"({acquires} acquires x {(per_record - per_off) * 1e9:+.0f}ns "
        f"(off {per_off * 1e9:.0f}ns, record {per_record * 1e9:.0f}ns) "
        f"on a {off * 1e3:.3f}ms job)"
    )


def test_engine_lock_sanitizer_overhead_small():
    """The lock-order sanitizer in ``record`` mode costs <5% on a
    dense_large update job.

    This is the CI acceptance bound for running the sanitizer in test
    and canary environments.  Same dual measurement as the other
    observability gates — either may satisfy the bound:

    * end-to-end — sanitizer-record vs sanitizer-off job walls
      (interleaved best-of-rounds medians).
    * budget — (lock acquisitions/job) x (measured per-acquire cost
      delta between record and off mode) / (sanitizer-off job wall).
      Deterministic, and it is the quantity the sanitizer controls:
      its entire footprint is the per-acquire level check.
    """
    end_to_end, budget, text = _lock_sanitizer_overhead(LARGE_BITS)
    print(f"\nlock-sanitizer overhead, {text}")
    print(f"lock-sanitizer overhead, {_lock_sanitizer_overhead(SMALL_BITS)[2]}")
    assert end_to_end < 0.05 or budget < 0.05


# ---------------------------------------------------------------------------
# Process-mode data plane guards.  These pin the two structural wins of
# the data-plane work: the worker-resident block cache (repeated actions
# on a cached RDD stop re-running its lineage in forked workers) and the
# single-pass Bayes update (one scheduler job per update, not two).


def test_process_mode_worker_cache_speedup():
    """Repeated actions on a cached RDD are >=5x faster than uncached.

    parallelism=1 so one forked worker serves every task and its
    resident store sees every repeated partition.  The build is made
    deliberately compute-heavy (10 ms per record); before the worker
    store existed, process mode re-ran it on every action.
    """
    import time

    def slow_square(x):
        time.sleep(0.01)
        return x * x

    n_actions = 6
    with Context(mode="processes", parallelism=1) as c:
        uncached = c.parallelize(list(range(5)), 1).map(slow_square)
        cached = c.parallelize(list(range(5)), 1).map(slow_square).cache()
        expected = cached.sum()  # materialize in the worker store (untimed)

        t0 = time.perf_counter()
        for _ in range(n_actions):
            assert uncached.sum() == expected
        wall_uncached = time.perf_counter() - t0

        t0 = time.perf_counter()
        for _ in range(n_actions):
            assert cached.sum() == expected
        wall_cached = time.perf_counter() - t0

    ratio = wall_uncached / wall_cached
    print(
        f"\nworker-cache speedup: {ratio:.1f}x "
        f"(uncached={wall_uncached:.3f}s cached={wall_cached:.3f}s "
        f"over {n_actions} actions)"
    )
    assert ratio >= 5.0


def test_update_is_single_pass():
    """One Bayes update schedules exactly one engine job.

    The two-pass formulation ran a likelihood-apply pass and then a
    mass/rescale pass; deferred normalisation (``log_offset``) fuses
    them, so a single ``JobStart`` per update is the structural
    invariant.  Posterior parity with the serial reference is pinned by
    the sbgt integration tests.
    """
    from repro.bayes.dilution import DilutionErrorModel
    from repro.bayes.priors import PriorSpec
    from repro.engine.listener import JobStart, RecordingListener
    from repro.sbgt.distributed_lattice import DistributedLattice

    prior = PriorSpec(np.array([0.05, 0.2, 0.1, 0.3, 0.15, 0.08]))
    model = DilutionErrorModel(0.97, 0.99, 0.35)
    with Context(mode="serial") as c:
        dl = DistributedLattice.from_prior(c, prior, 4)
        rec = c.add_listener(RecordingListener())
        for pool, outcome in [(0b000111, True), (0b111000, False)]:
            rec.clear()
            ll = model.log_likelihood_by_count(outcome, bin(pool).count("1"))
            dl.update(pool, ll)
            jobs = rec.of_type(JobStart)
            assert len(jobs) == 1, [j.description for j in jobs]
        dl.unpersist()


def test_screen_job_counts():
    """A dense screen costs one job to start and two per halving stage.

    Start: build + normalise + marginals in one aggregation (the first
    ``classify()`` reads what it left at the driver).  Stage: the
    candidates' down-set masses, then update + normalise + marginals in
    one aggregation, which the classification reads.  Counted on a real
    ``ScreenStepper`` loop at the serving cohort size.
    """
    from repro.engine.listener import JobStart, RecordingListener
    from repro.serve.protocol import ScreenRequest
    from repro.sbgt.session import SBGTSession
    from repro.sbgt.stepper import ScreenStepper
    from repro.simulate.population import make_cohort
    from repro.simulate.testing import TestLab
    from repro.util.rng import as_rng

    prior, model, policy, config = ScreenRequest.from_payload(
        {"cohort": 12, "prevalence": 0.05, "seed": 5}
    ).build()
    rng = as_rng(5)
    lab = TestLab(model, make_cohort(prior, rng).truth_mask, rng)
    with Context(mode="threads", parallelism=2) as c:
        rec = c.add_listener(RecordingListener())
        session = SBGTSession(c, prior, model, config)
        stepper = ScreenStepper(session, policy)
        jobs = rec.of_type(JobStart)
        assert len(jobs) == 1, [j.description for j in jobs]
        stages = 0
        # The 16th update also checkpoints the lineage (collect + re-parallelize).
        while not stepper.done and stages < session.lattice.checkpoint_interval - 1:
            rec.clear()
            pools = stepper.next_pools()
            stepper.submit_outcomes([lab.run(pool) for pool in pools])
            jobs = rec.of_type(JobStart)
            assert len(jobs) == 2, [j.description for j in jobs]
            stages += 1
        assert stages >= 3
        session.close()


def test_small_jobs_run_on_the_submitting_thread():
    """A cohort-12 screen on ``threads x 2`` runs its stages inline.

    The scheduler places a job whose tasks read only small cached blocks
    on the submitting thread; session start reads no cached block (it
    builds the lattice), so it runs on the pool.  Read off
    ``TaskEnd.worker`` on a real ``ScreenStepper`` loop, short of the
    lineage checkpoint (whose re-parallelized blocks are built on the
    pool too).
    """
    import os
    import threading

    from repro.engine.listener import RecordingListener, TaskEnd
    from repro.serve.protocol import ScreenRequest
    from repro.sbgt.session import SBGTSession
    from repro.sbgt.stepper import ScreenStepper
    from repro.simulate.population import make_cohort
    from repro.simulate.testing import TestLab
    from repro.util.rng import as_rng

    here = f"{os.getpid()}/{threading.current_thread().name}"
    prior, model, policy, config = ScreenRequest.from_payload(
        {"cohort": 12, "prevalence": 0.05, "seed": 5}
    ).build()
    rng = as_rng(5)
    lab = TestLab(model, make_cohort(prior, rng).truth_mask, rng)
    with Context(mode="threads", parallelism=2) as c:
        rec = c.add_listener(RecordingListener())
        session = SBGTSession(c, prior, model, config)
        stepper = ScreenStepper(session, policy)
        start = [e.worker for e in rec.of_type(TaskEnd)]
        assert start and all("/engine-worker" in w for w in start), start
        stages = 0
        while not stepper.done and stages < session.lattice.checkpoint_interval - 1:
            rec.clear()
            pools = stepper.next_pools()
            stepper.submit_outcomes([lab.run(pool) for pool in pools])
            workers = [e.worker for e in rec.of_type(TaskEnd)]
            assert workers and set(workers) == {here}, workers
            stages += 1
        assert stages >= 3
        session.close()
    print(f"\n{stages} stages inline on {here}; session start on the pool")


def test_cube_kernel_speedup():
    """Cube kernels are >=4x the generic ones.

    One whole-lattice block at n=16, against the same states in reverse
    order (not an aligned run, so held as explicit masks and swept by
    the generic mask-testing kernels): the
    fold marginals and the sub-tensor down-set sweep over a stage's real
    prefix candidates must each win by 4x (measured ~15x and ~10x).
    """
    import statistics
    import time

    from repro.bayes.priors import PriorSpec
    from repro.halving.candidates import PrefixCandidates
    from repro.lattice.builder import dense_prior_log
    from repro.lattice.partition import (
        LatticeBlock,
        block_down_set_partial,
        block_marginal_partial,
    )

    n = 16
    prior = PriorSpec.uniform(n, 0.02)
    cube = LatticeBlock.cube(n, 0, n, dense_prior_log(prior.risks, n))
    generic = LatticeBlock(n, cube.masks[::-1], cube.log_probs[::-1])
    assert cube.bits == n and generic.bits is None
    candidates = PrefixCandidates().generate(prior.risks, (1 << n) - 1)

    def median_s(fn, repeats=15):
        fn()
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
        return statistics.median(samples)

    for name, kernel in [
        ("marginals", lambda b: block_marginal_partial(b, 0.25)),
        ("down-set", lambda b: block_down_set_partial(b, candidates, 0.25)),
    ]:
        np.testing.assert_allclose(kernel(cube), kernel(generic), rtol=1e-12, atol=1e-15)
        fast = median_s(lambda kernel=kernel: kernel(cube))
        slow = median_s(lambda kernel=kernel: kernel(generic))
        print(f"\ncube {name}: {slow / fast:.1f}x (generic={slow * 1e3:.2f}ms cube={fast * 1e3:.2f}ms)")
        assert slow / fast >= 4.0


# ---------------------------------------------------------------------------
# Posterior-backend guard.  The dense lattice walls at 2^N; the sparse
# backend must take a cohort far past that wall through a complete
# screen inside a hard wall-clock budget.


def test_sparse_backend_large_n_screen_smoke():
    """A full N=120 screen on the sparse backend finishes in < 30 s.

    2^120 dense states is ~1e36 — the dense backend cannot represent
    this cohort at all, so completing end-to-end (pools proposed, tests
    run, everyone classified) is the acceptance bar for the
    representation-bounded backend, and the wall bound keeps it an
    interactive-scale operation rather than a batch job.
    """
    import time

    from repro.bayes.dilution import DilutionErrorModel
    from repro.bayes.priors import PriorSpec
    from repro.halving.policy import BHAPolicy
    from repro.sbgt.config import SBGTConfig
    from repro.sbgt.session import SBGTSession

    n = 120
    prior = PriorSpec.uniform(n, 0.04)
    model = DilutionErrorModel(0.98, 0.995, 0.3)
    config = SBGTConfig(backend="sparse", max_stages=200)

    t0 = time.perf_counter()
    session = SBGTSession(None, prior, model, config)
    try:
        result = session.run_screen(BHAPolicy(), rng=7)
    finally:
        session.close()
    wall = time.perf_counter() - t0

    print(
        f"\nsparse N={n} screen: {wall:.2f}s, {result.efficiency.num_tests} tests, "
        f"{result.stages_used} stages, accuracy {result.accuracy:.1%}"
    )
    assert not result.exhausted_budget
    assert len(result.report.undetermined()) == 0
    assert result.efficiency.num_tests > 0
    assert wall < 30.0
