"""Rule catalogue for :mod:`repro.lint`.

Every diagnostic the analyzer can emit is declared here, with a stable
id, a one-line summary, the rationale behind the rule, and a minimal
bad/good example pair (``python -m repro lint --explain RULE`` prints
them).  Rule ids are stable API: suppression comments
(``# repro: lint-ignore[C101]``), ``--select``/``--ignore`` and the JSON
output schema all key on them.

Families
--------
``C1xx`` — closure safety: functions shipped across the data plane
(RDD transforms, :class:`~repro.sbgt.distributed_lattice.DistributedLattice`
kernels) must not capture driver-only machinery, unpicklable handles,
or nondeterminism.

``E2xx`` — engine concurrency: ``repro.engine`` / ``repro.serve`` /
``repro.obs`` internals must respect the declared lock order
(:mod:`repro.engine.lockorder`) and never block or publish while
holding a data-plane lock.  E204/E205 extend the checks across call
boundaries via :mod:`repro.lint.callgraph`; E206 keeps the lock
registry complete.

``D3xx`` — determinism: the statistical core (``repro.sbgt``,
``repro.surveil``, ``repro.simulate``, ``repro.bayes``,
``repro.lattice``) must produce bit-identical results for a given
seed — no ambient entropy, wall clocks, or interpreter-dependent
ordering/identity.

``X0xx`` — analyzer self-diagnostics: files the linter could not
analyze are reported instead of silently skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = [
    "Rule",
    "RULES",
    "CLOSURE_RULES",
    "CONCURRENCY_RULES",
    "DETERMINISM_RULES",
    "format_explain",
]


@dataclass(frozen=True)
class Rule:
    """One diagnostic the analyzer can produce."""

    id: str
    name: str
    summary: str
    rationale: str
    bad: str
    good: str
    hint: str


_RULES: Tuple[Rule, ...] = (
    Rule(
        id="C101",
        name="closure-captures-driver-object",
        summary="Task closure captures a driver-only engine object",
        rationale=(
            "Functions passed to RDD transforms run inside worker tasks. "
            "Driver machinery (Context, RDD handles, EventBus, BlockStore, "
            "executors) either refuses to pickle or ships as "
            "an inert stub: a worker Context is stopped, its bus is disabled "
            "and its stores are None, so any use fails mid-job with a "
            "confusing cross-process traceback instead of at submission."
        ),
        bad=(
            "with Context(mode='processes') as ctx:\n"
            "    data = ctx.parallelize(range(8), 4)\n"
            "    # the closure drags the whole driver context into the task\n"
            "    data.map(lambda x: ctx.parallelize([x]).count()).collect()"
        ),
        good=(
            "with Context(mode='processes') as ctx:\n"
            "    data = ctx.parallelize(range(8), 4)\n"
            "    # pure closure; nested jobs are driver-side compositions\n"
            "    counts = data.map(lambda x: 1).collect()"
        ),
        hint=(
            "close over plain data (or a Broadcast) instead; submit follow-up "
            "jobs from the driver"
        ),
    ),
    Rule(
        id="C102",
        name="closure-captures-unpicklable",
        summary="Task closure captures a value that cannot cross a process boundary",
        rationale=(
            "Process-mode tasks ship as protocol-5 pickles. Locks, open "
            "files, sockets, queues, threads and generators are unpicklable: "
            "the job dies in closure.serialize long after the defect was "
            "written, and thread mode silently *shares* the handle instead — "
            "the same code behaves differently per executor mode."
        ),
        bad=(
            "lock = threading.Lock()\n"
            "def guarded(x):\n"
            "    with lock:          # unpicklable capture\n"
            "        return x + 1\n"
            "rdd.map(guarded).collect()"
        ),
        good=(
            "def pure(x):\n"
            "    return x + 1        # tasks own their partition: no lock needed\n"
            "rdd.map(pure).collect()"
        ),
        hint=(
            "tasks own their partition exclusively — drop the handle, or open "
            "resources inside the task body"
        ),
    ),
    Rule(
        id="C103",
        name="task-writes-module-global",
        summary="Task code writes a module-level global",
        rationale=(
            "A task mutating module globals only updates the interpreter it "
            "runs in: forked workers each mutate their private copy and the "
            "driver sees nothing (silent divergence), while thread mode races "
            "on the shared one. Results then depend on executor mode and "
            "scheduling — exactly the nondeterminism that threatens "
            "reproducible accuracy numbers."
        ),
        bad=(
            "SEEN = 0\n"
            "def tally(x):\n"
            "    global SEEN\n"
            "    SEEN += 1           # lost on fork, racy on threads\n"
            "    return x\n"
            "rdd.map(tally).collect()"
        ),
        good=(
            "# count in the reduction: one partial per task, merged at the driver\n"
            "seen = rdd.aggregate(0, lambda n, x: n + 1, lambda a, b: a + b)"
        ),
        hint="return the data and combine it with aggregate / tree_aggregate",
    ),
    Rule(
        id="C104",
        name="task-nondeterminism",
        summary="Task code draws unseeded randomness or reads the clock",
        rationale=(
            "Unseeded random module calls and wall-clock reads make task "
            "output depend on scheduling, retries and executor mode: a "
            "retried task re-draws different numbers, and the same screen "
            "stops reproducing bit-identically across runs — silently "
            "undermining any reported accuracy figure."
        ),
        bad=(
            "rdd.map(lambda x: x + random.random()).collect()  # differs per run/retry"
        ),
        good=(
            "def jitter(i, it):\n"
            "    rng = np.random.default_rng(seed * 1000 + i)  # per-partition stream\n"
            "    return (x + rng.random() for x in it)\n"
            "rdd.map_partitions_with_index(jitter).collect()"
        ),
        hint=(
            "derive a per-partition seed from a driver-chosen seed "
            "(map_partitions_with_index), or pass a seeded Generator"
        ),
    ),
    Rule(
        id="E201",
        name="lock-order-violation",
        summary="Engine locks acquired against the declared order",
        rationale=(
            "repro.engine / repro.serve locks form a declared hierarchy "
            "(see docs/architecture.md). Acquiring an outer lock while "
            "holding an inner one inverts the order some other thread uses "
            "and deadlocks under load — precisely the failure mode that only "
            "reproduces on a saturated server."
        ),
        bad=(
            "with self._lock:                 # BlockStore lock (inner)\n"
            "    with self._ctx._lock:        # Context lock (outer) — inversion\n"
            "        ..."
        ),
        good=(
            "with self._ctx._lock:            # outer first\n"
            "    with self._lock:             # then inner\n"
            "        ..."
        ),
        hint="acquire locks outer-to-inner per the declared order, or split the critical section",
    ),
    Rule(
        id="E202",
        name="blocking-call-under-lock",
        summary="Blocking call while holding a data-plane lock",
        rationale=(
            "The BlockStore/scheduler-side locks sit on every "
            "task's hot path. Sleeping, waiting on futures/queues/pipes, or "
            "posting to the event bus while holding one stalls every worker "
            "and can deadlock if the blocked-on party needs the same lock "
            "(the bus delivers to arbitrary listener code)."
        ),
        bad=(
            "with self._lock:\n"
            "    block = self._blocks[key]\n"
            "    bus.post(CacheHit(*key))     # listener code runs under the lock"
        ),
        good=(
            "with self._lock:\n"
            "    block = self._blocks[key]\n"
            "bus.post(CacheHit(*key))         # publish after releasing"
        ),
        hint="collect under the lock, then block/publish after releasing it",
    ),
    Rule(
        id="E203",
        name="event-mutated-after-post",
        summary="Event object mutated after being posted to the bus",
        rationale=(
            "Engine events are plain (unfrozen) dataclasses for construction "
            "speed; listeners such as the flight recorder keep references "
            "instead of copying. Mutating an event after bus.post() "
            "retroactively rewrites recorded history and races with "
            "concurrent listener reads."
        ),
        bad=(
            "event = TaskEnd(stage, part, wall_s=0.0)\n"
            "bus.post(event)\n"
            "event.wall_s = elapsed          # recorder already holds it"
        ),
        good=(
            "event = TaskEnd(stage, part, wall_s=elapsed)  # finish it first\n"
            "bus.post(event)"
        ),
        hint="fully populate the event before posting; post a fresh event for new facts",
    ),
    Rule(
        id="E204",
        name="transitive-lock-order-violation",
        summary="Call may transitively acquire a lock against the declared order",
        rationale=(
            "E201 stops at function boundaries, but lock inversions rarely "
            "live in one function: stop() holds the Context lock and calls "
            "into an executor whose helper re-enters the server lock three "
            "frames down. The call-graph summaries (repro.lint.callgraph) "
            "propagate every function's acquired-locks set to a fixed point, "
            "so holding level L while calling anything that may acquire "
            "level <= L is flagged with the offending call path."
        ),
        bad=(
            "class Context:\n"
            "    def stop(self):\n"
            "        with self._lock:          # Context._lock (level 20)\n"
            "            self._server.refresh()  # -> acquires ReproServer._engine_lock (10)"
        ),
        good=(
            "class Context:\n"
            "    def stop(self):\n"
            "        with self._lock:\n"
            "            server = self._server\n"
            "        server.refresh()          # outer lock acquired lock-free"
        ),
        hint=(
            "hoist the call out of the critical section, or re-level the "
            "locks in repro.engine.lockorder so the callee's locks are inner"
        ),
    ),
    Rule(
        id="E205",
        name="transitive-blocking-under-lock",
        summary="Call may block while a data-plane lock is held",
        rationale=(
            "Same closure as E204 for E202: a call that looks innocent at "
            "the call site may sleep, join a pool, or publish to the event "
            "bus somewhere down its call chain — stalling every task that "
            "needs the held data-plane lock. Admission-gate locks "
            "(lockorder.ADMISSION_GATE_LOCKS) are exempt: they serialize "
            "whole operations by design."
        ),
        bad=(
            "with self._lock:                  # BlockStore._lock (level 50)\n"
            "    self._flush()                 # -> executor.stop() -> pool.shutdown(wait=True)"
        ),
        good=(
            "with self._lock:\n"
            "    dirty = self._take_dirty()\n"
            "self._flush(dirty)                # blocking work after release"
        ),
        hint=(
            "capture state under the lock and do the blocking call after "
            "releasing it"
        ),
    ),
    Rule(
        id="E206",
        name="undeclared-engine-lock",
        summary="Engine lock created without a declared level",
        rationale=(
            "The lock-order rules are only as good as the registry in "
            "repro.engine.lockorder: a raw threading.Lock() in an engine "
            "module is invisible to both the static checks and the runtime "
            "sanitizer, so the hierarchy silently erodes. Every engine/serve/"
            "obs lock must be an OrderedLock with a registered level."
        ),
        bad=(
            "class NewCache:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()   # no declared level"
        ),
        good=(
            "# in repro.engine.lockorder:  (\"NewCache\", \"_lock\"): 90\n"
            "class NewCache:\n"
            "    def __init__(self):\n"
            "        self._lock = OrderedLock(\"NewCache._lock\")"
        ),
        hint=(
            "register the lock in repro.engine.lockorder.LOCK_LEVELS (or "
            "MODULE_LOCK_LEVELS) and construct it as an OrderedLock"
        ),
    ),
    Rule(
        id="D301",
        name="unseeded-rng",
        summary="Unseeded random source in deterministic statistical code",
        rationale=(
            "The SBGT pipeline's accuracy claims rest on bit-identical "
            "replays: every posterior update, pool selection and simulated "
            "fleet must derive from an explicit seed. random.random(), "
            "legacy np.random.* module calls and default_rng() without a "
            "seed read global interpreter entropy, so two runs of the same "
            "screen silently diverge."
        ),
        bad=(
            "def draw_fleet(n):\n"
            "    gen = np.random.default_rng()     # fresh entropy every call\n"
            "    return gen.poisson(2.0, size=n)"
        ),
        good=(
            "def draw_fleet(n, seed):\n"
            "    gen = np.random.default_rng(seed)  # replayable stream\n"
            "    return gen.poisson(2.0, size=n)"
        ),
        hint=(
            "thread an explicit seed (or a seeded np.random.Generator / "
            "SeedSequence spawn) through the call"
        ),
    ),
    Rule(
        id="D302",
        name="set-iteration-order",
        summary="Iteration over a set in deterministic statistical code",
        rationale=(
            "Set iteration order depends on insertion history and per-process "
            "hash randomization of str keys. Feeding it into pool selection "
            "or candidate enumeration makes the chosen pools differ between "
            "interpreters even with identical seeds — the kind of "
            "irreproducibility that survives seeding and only shows up when "
            "someone else re-runs the experiment."
        ),
        bad=(
            "for member in {p for pool in pools for p in pool}:  # hash order\n"
            "    consider(member)"
        ),
        good=(
            "for member in sorted({p for pool in pools for p in pool}):\n"
            "    consider(member)"
        ),
        hint="wrap the set in sorted(...) (or keep a list/dict, which preserve order)",
    ),
    Rule(
        id="D303",
        name="wall-clock-read",
        summary="Wall-clock read in deterministic statistical code",
        rationale=(
            "time.time() / datetime.now() inside the statistical core leaks "
            "the clock into results: timestamp-derived tie-breaks, "
            "time-bucketed keys and elapsed-time stopping rules all change "
            "between runs. Durations for *reporting* belong in the metrics "
            "layer (perf_counter is fine there); decision logic must depend "
            "only on seeds and inputs."
        ),
        bad=(
            "def pick(candidates):\n"
            "    tie_break = time.time_ns() % len(candidates)  # clock leaks in"
        ),
        good=(
            "def pick(candidates, rng):\n"
            "    tie_break = int(rng.integers(len(candidates)))  # seeded"
        ),
        hint=(
            "take the timestamp/round index as a parameter, or use the "
            "seeded rng; keep perf timing in the metrics layer"
        ),
    ),
    Rule(
        id="D304",
        name="identity-keyed-container",
        summary="id() used as a dict/set key in deterministic statistical code",
        rationale=(
            "id() is an allocation address: unstable across runs, processes "
            "and GC cycles. Containers keyed by it iterate in address order "
            "and cannot round-trip through pickling (workers re-key "
            "everything), so id()-keyed caches and groupings quietly break "
            "determinism and distributed equivalence."
        ),
        bad=(
            "scores[id(pool)] = evaluate(pool)   # address-ordered, unpicklable key"
        ),
        good=(
            "scores[pool.key] = evaluate(pool)   # stable domain key"
        ),
        hint="key by a stable domain identifier (name, index, tuple of members)",
    ),
    Rule(
        id="D305",
        name="builtin-hash",
        summary="Builtin hash() in deterministic statistical code",
        rationale=(
            "hash() of str/bytes is salted per process (PYTHONHASHSEED), so "
            "hash-derived partition choices, seeds or tie-breaks differ "
            "between interpreter invocations. A keyed-free digest such as "
            "hashlib.blake2b gives the same input the same value in every "
            "process."
        ),
        bad=(
            "seed = hash(site_name) % 2**32      # differs per interpreter"
        ),
        good=(
            "digest = hashlib.blake2b(site_name.encode(), digest_size=8).digest()\n"
            "seed = int.from_bytes(digest, 'big') % 2**32"
        ),
        hint="use hashlib.blake2b(...) (SipHash-free, process-stable)",
    ),
    Rule(
        id="X001",
        name="file-not-analyzed",
        summary="File could not be analyzed and was skipped",
        rationale=(
            "A lint run that aborts (or silently skips) on one unparsable "
            "file hides every finding in the rest of the tree. Analyzer "
            "errors are reported per-file as findings so the run completes, "
            "and the CLI exits 2 (internal error) instead of 1 (findings) "
            "when any file was skipped."
        ),
        bad=(
            "$ repro lint src/        # traceback on src/broken.py, no report"
        ),
        good=(
            "src/broken.py:3:0: X001 [file-not-analyzed] cannot parse: invalid syntax\n"
            "...findings for every other file still reported..."
        ),
        hint="fix the syntax/read error; X001 cannot be suppressed with lint-ignore",
    ),
)

#: All rules, keyed by id.
RULES: Dict[str, Rule] = {r.id: r for r in _RULES}

CLOSURE_RULES = tuple(r.id for r in _RULES if r.id.startswith("C"))
CONCURRENCY_RULES = tuple(r.id for r in _RULES if r.id.startswith("E"))
DETERMINISM_RULES = tuple(r.id for r in _RULES if r.id.startswith("D"))


def format_explain(rule: Rule) -> str:
    """Render one rule's self-documentation (``--explain`` output)."""
    bar = "-" * max(len(rule.id) + len(rule.name) + 3, 24)
    bad = "\n".join("    " + line for line in rule.bad.splitlines())
    good = "\n".join("    " + line for line in rule.good.splitlines())
    return (
        f"{rule.id} — {rule.name}\n{bar}\n"
        f"{rule.summary}.\n\n"
        f"Why: {rule.rationale}\n\n"
        f"Bad:\n{bad}\n\n"
        f"Good:\n{good}\n\n"
        f"Fix hint: {rule.hint}\n"
        f"Suppress with: # repro: lint-ignore[{rule.id}]\n"
    )
