#!/usr/bin/env python3
"""A tour of the dataflow engine SBGT runs on.

SBGT's substrate is a from-scratch implementation of the narrow-map +
tree-reduce subset of Spark; this example drives it directly, in the
shape of one Bayesian lattice update: blocks of log-probabilities are
parallelized, a broadcast likelihood table is applied by a cached
``map``, ``tree_aggregate`` sums the mass, a second action is served
from the cache, and ``unpersist`` releases it.  Useful when porting
SBGT to a different backend or debugging a screen's execution profile.

    python examples/engine_tour.py
"""

import numpy as np

from repro.engine import Context, RecordingListener
from repro.engine.listener import CacheHit, CacheMiss, JobEnd, StageEnd, TaskEnd

N_ITEMS = 12  # 2^12 lattice states, split into 4 blocks
POOL = 0b0000_0011_0110  # the individuals pooled into the test


def main() -> None:
    with Context(mode="threads", parallelism=4) as ctx:
        events = ctx.add_listener(RecordingListener())

        # --- parallelize: a uniform prior over the states, as blocks ---
        states = np.arange(1 << N_ITEMS, dtype=np.int64)
        prior = np.full(states.size, -N_ITEMS * np.log(2.0))
        blocks = ctx.parallelize(
            list(zip(np.array_split(states, 4), np.array_split(prior, 4))), 4
        )

        # --- broadcast: log P(positive | k infected in the pool) -------
        table = ctx.broadcast(np.log(1.0 - 0.98 * 0.7 ** np.arange(N_ITEMS + 1)))

        def update(block):
            masks, log_probs = block
            infected = np.array([bin(m & POOL).count("1") for m in masks])
            return masks, log_probs + table.value[infected]

        # --- map → cache → tree_aggregate: one Bayesian update ---------
        updated = blocks.map(update).cache()
        print("lineage   :", updated.debug_string().replace("\n", " <-"))
        mass = updated.tree_aggregate(
            0.0, lambda acc, block: acc + float(np.exp(block[1]).sum()), lambda a, b: a + b
        )
        print(f"P(positive): {mass:.4f}")

        # --- a second action is served from the cache ------------------
        best = updated.map(lambda block: float(block[1].max())).max()
        misses, hits = len(events.of_type(CacheMiss)), len(events.of_type(CacheHit))
        print(f"cache     : {misses} misses (first action), {hits} hits (second); "
              f"MAP state log-posterior {best - np.log(mass):.3f}")

        # --- job → stage → task telemetry of the last job: its events --
        job, stage = events.of_type(JobEnd)[-1], events.of_type(StageEnd)[-1]
        tasks = [t for t in events.of_type(TaskEnd) if t.stage_id == stage.stage_id]
        print(f"last job  : 1 {stage.stage_kind} stage, {len(tasks)} tasks, "
              f"{job.wall_s * 1e3:.1f} ms wall, "
              f"{(job.wall_s - stage.wall_s) * 1e3:.2f} ms scheduling overhead")
        for task in sorted(tasks, key=lambda t: t.partition):
            print(f"  task p{task.partition}: {task.wall_s * 1e6:.0f} us wall, "
                  f"{task.cpu_s * 1e6:.0f} us cpu, attempt {task.attempts}")

        # --- unpersist: the blocks leave the store ---------------------
        updated.unpersist()
        print("unpersist :", len(ctx.block_store), "partitions still cached")


if __name__ == "__main__":
    main()
