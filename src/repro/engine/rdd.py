"""The RDD: a lazy, partitioned, immutable dataset with lineage.

This mirrors the subset of Spark's core abstraction that SBGT is written
against: transformations build lineage lazily; actions submit one job —
one stage of one task per partition — through the context's scheduler.
Every transformation is narrow (``map``/``filter``/``map_partitions``),
so an RDD has at most one parent, partition *i* of a child reads
partition *i* of its parent, and a whole chain pipelines inside one task.

Only the driver constructs RDDs; tasks see them as read-only recipe
objects (``compute`` is pure given the task context).
"""

from __future__ import annotations

import copy
import itertools
from typing import Any, Callable, Generic, Iterable, Iterator, List, Optional, Sequence, TypeVar

from repro.engine.errors import EngineError

T = TypeVar("T")
U = TypeVar("U")

__all__ = [
    "RDD",
    "TaskContext",
    "ParallelCollectionRDD",
    "RangeRDD",
    "MapPartitionsRDD",
]


class TaskContext:
    """Per-task handle: which partition is running, plus the runtime env.

    ``env`` provides ``blockstore`` (the driver store in serial/threads
    mode, the forked worker's resident store in process mode) and the
    driver-held source partition the scheduler shipped with the task.
    """

    __slots__ = ("env", "stage_id", "partition")

    def __init__(self, env, stage_id: int, partition: int) -> None:
        self.env = env
        self.stage_id = stage_id
        self.partition = partition


class RDD(Generic[T]):
    """Base resilient distributed dataset."""

    def __init__(self, ctx, parent: Optional["RDD"], num_partitions: int) -> None:
        if num_partitions <= 0:
            raise ValueError("an RDD must have at least one partition")
        self.ctx = ctx
        self.id = ctx._next_rdd_id()
        self.parent = parent
        self.num_partitions = int(num_partitions)
        self._cached = False
        # Cache epoch, bumped by unpersist().  It travels with the RDD:
        # serial/thread tasks read the live object, process-mode tasks
        # the copy pickled into their body, so a worker-resident store
        # recognises entries cached before the last unpersist as stale.
        self._generation = 0

    # ------------------------------------------------------------------
    # subclass contract
    # ------------------------------------------------------------------
    def compute(self, split: int, tc: TaskContext) -> Iterable[T]:
        """Produce the records of partition *split* (pure recipe)."""
        raise NotImplementedError

    def source_records(self, split: int) -> Optional[List[T]]:
        """Driver-held records of partition *split*, if this is a source RDD.

        Source RDDs holding real data (parallelized collections,
        checkpoints) return the partition's record list so the scheduler
        can ship *only that partition* with a process-mode task instead
        of pickling the whole dataset into every closure.  Recipe-only
        RDDs return ``None``.
        """
        return None

    # ------------------------------------------------------------------
    # runtime plumbing
    # ------------------------------------------------------------------
    def iterator(self, split: int, tc: TaskContext) -> Iterable[T]:
        """Cache-aware access to partition *split*."""
        store = tc.env.blockstore
        if self._cached and store is not None:
            key = (self.id, split)
            gen = self._generation  # read once: an unpersist may race the compute
            block = store.get(key, gen)
            if block is None:
                block = list(self.compute(split, tc))
                store.put(key, block, gen)
            return block
        return self.compute(split, tc)

    def lineage(self) -> Iterator["RDD"]:
        """This RDD, its parent, its parent's parent, … up to the source."""
        rdd: Optional[RDD] = self
        while rdd is not None:
            yield rdd
            rdd = rdd.parent

    # ------------------------------------------------------------------
    # caching
    # ------------------------------------------------------------------
    def cache(self) -> "RDD[T]":
        """Mark this RDD's partitions for reuse across jobs."""
        self._cached = True
        return self

    persist = cache

    def checkpoint(self) -> "RDD[T]":
        """Materialize now and return a lineage-free source RDD.

        Unlike :meth:`cache` (which keeps the recipe and may recompute
        after eviction), the returned RDD's partitions are driver-held
        data with no parents — recomputation can never reach past this
        point.  This is what bounds lineage depth in iterative
        algorithms (the distributed lattice checkpoints through the same
        mechanism).
        """
        parts = self.ctx.run_job(self, list)
        return _CheckpointedRDD(self.ctx, parts)

    def unpersist(self) -> "RDD[T]":
        self._cached = False
        self.ctx.block_store.drop_rdd(self.id)
        # Worker-resident stores can't be reached from here; the new
        # epoch makes their entries stale on next access.
        self._generation += 1
        return self

    # ------------------------------------------------------------------
    # narrow transformations
    # ------------------------------------------------------------------
    def map_partitions_with_index(
        self, f: Callable[[int, Iterable[T]], Iterable[U]]
    ) -> "RDD[U]":
        """The root transformation every other narrow op reduces to."""
        return MapPartitionsRDD(self, f)

    def map_partitions(self, f: Callable[[Iterable[T]], Iterable[U]]) -> "RDD[U]":
        return self.map_partitions_with_index(lambda _i, it: f(it))

    def map(self, f: Callable[[T], U]) -> "RDD[U]":
        return self.map_partitions_with_index(lambda _i, it: (f(x) for x in it))

    def filter(self, pred: Callable[[T], bool]) -> "RDD[T]":
        return self.map_partitions_with_index(lambda _i, it: (x for x in it if pred(x)))

    # ------------------------------------------------------------------
    # actions
    # ------------------------------------------------------------------
    def collect(self) -> List[T]:
        """Materialize every record at the driver, in partition order."""
        parts = self.ctx.run_job(self, list)
        return [x for p in parts for x in p]

    def count(self) -> int:
        return sum(self.ctx.run_job(self, lambda it: sum(1 for _ in it)))

    def reduce(self, op: Callable[[T, T], T]) -> T:
        """Combine all records with *op* (associative & commutative)."""
        sentinel = object()

        def part_reduce(it: Iterable[T]):
            acc = sentinel
            for x in it:
                acc = x if acc is sentinel else op(acc, x)
            return acc

        partials = [p for p in self.ctx.run_job(self, part_reduce) if p is not sentinel]
        if not partials:
            raise EngineError("reduce() of empty RDD")
        acc = partials[0]
        for p in partials[1:]:
            acc = op(acc, p)
        return acc

    def fold(self, zero: T, op: Callable[[T, T], T]) -> T:
        # Each partition folds into its *own* copy of the zero (Spark
        # ships a serialized zero per task); in-place ops stay safe.
        partials = self.ctx.run_job(self, lambda it: _fold_iter(it, copy.deepcopy(zero), op))
        acc = copy.deepcopy(zero)
        for p in partials:
            acc = op(acc, p)
        return acc

    def aggregate(self, zero: U, seq_op: Callable[[U, T], U], comb_op: Callable[[U, U], U]) -> U:
        partials = self.ctx.run_job(
            self, lambda it: _fold_iter(it, copy.deepcopy(zero), seq_op)
        )
        acc = copy.deepcopy(zero)
        for p in partials:
            acc = comb_op(acc, p)
        return acc

    def tree_aggregate(
        self,
        zero: U,
        seq_op: Callable[[U, T], U],
        comb_op: Callable[[U, U], U],
        depth: int = 2,
        scale: int = 8,
    ) -> U:
        """Aggregate with intermediate combine rounds on the engine.

        Avoids funnelling every partition's partial through the driver at
        once: while more than ``scale`` partials remain and *depth*
        allows, partials are re-parallelized and pair-combined as a job.
        """
        if depth < 1:
            raise ValueError("depth must be >= 1")
        partials = self.ctx.run_job(
            self, lambda it: _fold_iter(it, copy.deepcopy(zero), seq_op)
        )
        rounds = depth - 1
        while rounds > 0 and len(partials) > scale:
            n_groups = max(scale, (len(partials) + 1) // 2)
            grouped = self.ctx.parallelize(partials, min(n_groups, len(partials)))
            partials = grouped.ctx.run_job(
                grouped,
                lambda it: _fold_iter(it, copy.deepcopy(zero), comb_op),
            )
            rounds -= 1
        acc = copy.deepcopy(zero)
        for p in partials:
            acc = comb_op(acc, p)
        return acc

    def take(self, n: int) -> List[T]:
        """First *n* records, scanning as few partitions as possible."""
        if n <= 0:
            return []
        out: List[T] = []
        for p in range(self.num_partitions):
            got = self.ctx.run_job(self, lambda it: list(itertools.islice(it, n - len(out))), [p])
            out.extend(got[0])
            if len(out) >= n:
                break
        return out[:n]

    def sum(self) -> Any:
        return self.fold(0, lambda a, b: a + b)

    def max(self, key: Optional[Callable] = None) -> T:
        if key is None:
            return self.reduce(lambda a, b: a if a >= b else b)
        return self.reduce(lambda a, b: a if key(a) >= key(b) else b)

    def min(self, key: Optional[Callable] = None) -> T:
        if key is None:
            return self.reduce(lambda a, b: a if a <= b else b)
        return self.reduce(lambda a, b: a if key(a) <= key(b) else b)

    def mean(self) -> float:
        total, count = self.aggregate(
            (0.0, 0),
            lambda acc, x: (acc[0] + x, acc[1] + 1),
            lambda a, b: (a[0] + b[0], a[1] + b[1]),
        )
        if count == 0:
            raise EngineError("mean() of empty RDD")
        return total / count

    def debug_string(self) -> str:
        """Lineage chain, Spark's ``toDebugString`` analogue."""
        return "\n".join(
            f"{'  ' * depth}({rdd.num_partitions}) {type(rdd).__name__}[{rdd.id}]"
            for depth, rdd in enumerate(self.lineage())
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(id={self.id}, partitions={self.num_partitions})"


def _fold_iter(it: Iterable, zero: Any, op: Callable) -> Any:
    acc = zero
    for x in it:
        acc = op(acc, x)
    return acc


# ----------------------------------------------------------------------
# concrete source / narrow RDDs
# ----------------------------------------------------------------------
class ParallelCollectionRDD(RDD[T]):
    """Driver-local sequence sliced into roughly equal partitions.

    Pickling drops the data (``_slices`` becomes ``None``): a task
    closure must not drag the entire collection across the process
    boundary for every partition.  The scheduler ships the one needed
    partition in the task's source payload instead, and ``compute``
    falls back to it when the slices are absent.
    """

    def __init__(self, ctx, data: Sequence[T], num_partitions: int) -> None:
        data = list(data)
        n_parts = max(1, min(num_partitions, max(1, len(data))))
        super().__init__(ctx, None, n_parts)
        bounds = [round(i * len(data) / n_parts) for i in range(n_parts + 1)]
        self._slices = [data[bounds[i] : bounds[i + 1]] for i in range(n_parts)]

    def source_records(self, split: int) -> Optional[List[T]]:
        if self._slices is None:  # pragma: no cover - driver always holds data
            return None
        return self._slices[split]

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_slices"] = None
        return state

    def compute(self, split: int, tc: TaskContext) -> Iterable[T]:
        if self._slices is None:
            return iter(tc.env.source_records(self.id, split))
        return iter(self._slices[split])


class _CheckpointedRDD(RDD[T]):
    """Materialized partitions with no lineage (see ``RDD.checkpoint``).

    Ships like :class:`ParallelCollectionRDD`: data stays at the driver,
    tasks receive only their own partition.
    """

    def __init__(self, ctx, partitions: List[List[T]]) -> None:
        super().__init__(ctx, None, max(1, len(partitions)))
        self._partitions = partitions if partitions else [[]]

    def source_records(self, split: int) -> Optional[List[T]]:
        if self._partitions is None:  # pragma: no cover - driver always holds data
            return None
        return self._partitions[split]

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_partitions"] = None
        return state

    def compute(self, split: int, tc: TaskContext) -> Iterable[T]:
        if self._partitions is None:
            return iter(tc.env.source_records(self.id, split))
        return iter(self._partitions[split])


class RangeRDD(RDD[int]):
    """Lazy integer range, never materialized at the driver."""

    def __init__(self, ctx, start: int, stop: int, step: int, num_partitions: int) -> None:
        if step == 0:
            raise ValueError("step must be non-zero")
        total = max(0, -(-(stop - start) // step))
        n_parts = max(1, min(num_partitions, max(1, total)))
        super().__init__(ctx, None, n_parts)
        self._start, self._stop, self._step, self._total = start, stop, step, total

    def compute(self, split: int, tc: TaskContext) -> Iterable[int]:
        lo = round(split * self._total / self.num_partitions)
        hi = round((split + 1) * self._total / self.num_partitions)
        return range(self._start + lo * self._step, self._start + hi * self._step, self._step)


class MapPartitionsRDD(RDD[U]):
    """Applies ``f(split_index, parent_iterator)`` — the pipelining node."""

    def __init__(self, parent: RDD, f: Callable) -> None:
        super().__init__(parent.ctx, parent, parent.num_partitions)
        self._f = f

    def compute(self, split: int, tc: TaskContext) -> Iterable[U]:
        return self._f(split, self.parent.iterator(split, tc))
