"""The exact dense lattice: :class:`LatticeBlock` records on a block plane.

Every method is written once as a map or a fold over blocks, on one of
two planes: the **engine plane**, a cached RDD on an engine
:class:`~repro.engine.context.Context` (one job per fold), or the
**driver plane**, a :class:`DriverPlane` holding the blocks at the
driver and answering the same calls directly — no job, task or event.

Which plane a lattice lives on is decided once, when it is built
(:func:`_plane`): without a context it is one driver-plane block, which
is what ``SBGTSession(None, …)``, site screens and the calculator run
on; in ``threads`` mode a lattice of at most :data:`DRIVER_PLANE_STATES`
states is held as the context's K blocks on a driver plane, where a
0.1 ms kernel would otherwise sit inside a ~1.4 ms job; any other
lattice is an RDD.  A driver plane built for a context makes the
engine's three choices — the same cube blocks built by doubling
(:meth:`DistributedLattice.from_prior`), the ``RDD.aggregate`` fold
order (:class:`DriverPlane`) and the same checkpoint re-cut
(:meth:`DistributedLattice.rebalance`) — so it prints the engine's
bytes.  Without a context the prior is ``prior.build_dense()`` and the
lattice never rebalances.

Invariants maintained by every public method:

* blocks are **normalised up to a driver-held scalar**: stored log-probs
  jointly sum (in linear space) to ``exp(log_offset)``, so the true
  log-probability of a state is ``stored − log_offset``.  Block kernels
  take the offset as a parameter and fold the rescale into their
  existing exponentiation — calibrated statistics without a rescale
  pass;
* the plane is **cached and already materialised** — callers never pay a
  rebuild of lineage twice;
* blocks are **immutable once cached** — update paths copy before
  mutating, exactly Spark's contract.

Deferred normalisation makes :meth:`DistributedLattice.update` one
full-lattice pass and one fold: apply the likelihood while caching,
aggregate the new stored mass, and fold the normalisation into
``log_offset``; the mass delta *is* the predictive probability of the
outcome.  Every normalising fold also reads the marginals off the array
it exponentiates for the mass: the update's
(:func:`~repro.lattice.partition.block_summed_mass_marginals`) unless
the caller said it will not read them
(:meth:`DistributedLattice.defer_marginals`), the constructors' and the
mutators' (``prune`` / ``project_out_bit``,
:func:`~repro.lattice.partition.block_mass_marginals`) on cube blocks.
The driver holds them next to the offset until the lattice changes, so
a BHA stage on the engine plane is two jobs (down-set masses, then the
update) and the ``marginals()`` its classification reads costs none; a
multi-pool stage folds the marginals in its last update only.
"""

from __future__ import annotations

import copy
import heapq
import math
import operator
from types import SimpleNamespace
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.bayes.priors import PriorSpec
from repro.engine.context import Context
from repro.engine.rdd import RDD
from repro.lattice.builder import (
    dense_prior_log,
    enumerate_restricted_masks,
    product_prior_log,
)
from repro.lattice.partition import (
    LatticeBlock,
    MassMarginals,
    block_count_hists_partial,
    block_down_set_partial,
    block_entropy_partial,
    block_histogram_partial,
    block_mass_marginals,
    block_project_out_bit,
    block_refined_cell_partial,
    block_summed_mass_marginals,
    block_top_states,
    block_update,
    merge_blocks,
    merge_mass_marginals,
    partition_state_space,
)
from repro.lattice.prune import PruneStats
from repro.lattice.states import StateSpace
from repro.obs.tracer import PHASE_ANALYSIS, PHASE_LATTICE, PHASE_SELECTION, traced
from repro.sbgt.backend import PosteriorBackend
from repro.util.bits import popcount64
from repro.util.numerics import log1mexp

__all__ = ["DistributedLattice", "DriverPlane", "PruneStats"]


#: Largest lattice (states) a ``threads`` context holds on a driver
#: plane instead of an RDD.  Measured (docs/performance.md, "Where a
#: lattice runs"; threads x 2, 2 CPUs): whole screens ran 1.1-4.0x faster
#: on the driver plane at cohorts 12-18 (``benchmarks/bench_placement.py``),
#: but with 2^18 states on it the cohort-18 dense_large benchmark read
#: 0.93x throughput and +25 % median latency (its mostly one-test screens
#: are the prior build, which the engine splits over two threads), so
#: 2^18 states stay on the engine.
DRIVER_PLANE_STATES = 1 << 17

#: Partials ``RDD.tree_aggregate`` combines at the driver without an
#: extra round; a driver plane holds no more blocks than this.
_MAX_DRIVER_BLOCKS = 8


class DriverPlane:
    """A lattice's blocks held at the driver: a plane that runs no job.

    Answers the RDD calls :class:`DistributedLattice` makes — ``map``,
    ``cache``, ``aggregate`` / ``tree_aggregate``, ``collect``,
    ``unpersist``, ``num_partitions`` — by calling the function on each
    block in partition order.  A fold is ``RDD.aggregate``'s: each block
    folds from its own deep copy of the zero, and the partials combine
    in partition order onto another copy, so K blocks here sum what K
    partitions sum on the engine, in the same order.
    """

    __slots__ = ("_blocks",)

    def __init__(self, blocks: List[Any]) -> None:
        self._blocks = blocks

    @property
    def num_partitions(self) -> int:
        return len(self._blocks)

    def map(self, fn: Callable[[Any], LatticeBlock]) -> "DriverPlane":
        return DriverPlane([fn(b) for b in self._blocks])

    def cache(self) -> "DriverPlane":
        return self

    def aggregate(self, zero: Any, seq_op: Callable, comb_op: Callable) -> Any:
        acc = copy.deepcopy(zero)
        for block in self._blocks:
            acc = comb_op(acc, seq_op(copy.deepcopy(zero), block))
        return acc

    tree_aggregate = aggregate

    def collect(self) -> List[LatticeBlock]:
        return list(self._blocks)

    def unpersist(self) -> None:
        """Nothing is held outside the blocks."""


def _num_blocks(ctx: Optional[Context], num_blocks: int) -> int:
    """Blocks to cut a lattice into: always one without a context."""
    return 1 if ctx is None else num_blocks or ctx.default_parallelism


def _plane(ctx: Optional[Context], states: int, items: list) -> RDD | DriverPlane:
    """*items* one per partition, on the plane a lattice of *states* states lives on.

    The driver plane without a context, and in ``threads`` mode for a
    lattice of at most :data:`DRIVER_PLANE_STATES` states in at most
    :data:`_MAX_DRIVER_BLOCKS` blocks (a stopped context still refuses
    it); an RDD otherwise.
    """
    if ctx is None:
        return DriverPlane(items)
    if (
        ctx.config.mode == "threads"
        and states <= DRIVER_PLANE_STATES
        and len(items) <= _MAX_DRIVER_BLOCKS
    ):
        ctx.ensure_running()
        return DriverPlane(items)
    return ctx.parallelize(items, len(items))


def _broadcast(ctx: Optional[Context], plane: RDD | DriverPlane, value: Any) -> Any:
    """*value* for *plane*'s closures: the plain holder on a driver plane."""
    if isinstance(plane, DriverPlane):
        return SimpleNamespace(value=value)
    return ctx.broadcast(value)


def _add_log_mass(a: float, b: float) -> float:
    """``log(e^a + e^b)``, with −inf as an exact identity (no ufunc call)."""
    if a == -np.inf:
        return b
    if b == -np.inf:
        return a
    return float(np.logaddexp(a, b))


def _merge_summed(
    a: Tuple[float, MassMarginals], b: Tuple[float, MassMarginals]
) -> Tuple[float, MassMarginals]:
    """Combine two :func:`block_summed_mass_marginals` partials (associative)."""
    return _add_log_mass(a[0], b[0]), merge_mass_marginals(a[1], b[1])


def _capped(marginals: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """Aggregated marginals clipped to 1, in place.

    A certain positive's mass and the total are the same weights summed
    in two orders; their ratio can round past 1.
    """
    if marginals is not None:
        np.minimum(marginals, 1.0, out=marginals)
    return marginals


def _even_block_size(size: int, num_blocks: int) -> int:
    """States per block when *size* states go into about *num_blocks* blocks.

    A power-of-two state count (every dense lattice) is cut into a
    power-of-two number of blocks — *num_blocks* rounded down — so each
    block is an aligned run of masks, i.e. a cube.
    """
    nb = max(1, min(num_blocks, size))
    if size & (size - 1) == 0:
        nb = 1 << (nb.bit_length() - 1)
    return -(-size // nb)


class DistributedLattice(PosteriorBackend):
    """A normalised lattice model on the engine plane or the driver plane."""

    exact = True
    #: Log prior mass outside a rank-restricted support (−inf = dense).
    log_discarded_prior: float = -np.inf

    #: Updates between automatic lineage checkpoints of a lattice built
    #: for a context.  Each Bayes update appends one map node to the
    #: lineage; without truncation a long screen would recompute
    #: ever-deeper chains on cache misses.  Checkpointing collects and
    #: re-parallelizes the blocks — the engine analogue of
    #: ``RDD.checkpoint()`` — and absorbs the normalisation offset back
    #: into the stored log-probs while it is at it; a driver plane built
    #: for a context re-cuts its blocks the same way.
    checkpoint_interval: int = 16

    def __init__(self, ctx: Optional[Context], rdd: RDD | DriverPlane, n_items: int) -> None:
        self.ctx = ctx
        #: The plane: a cached RDD on *ctx*, or a :class:`DriverPlane`.
        self.rdd = rdd
        self.n_items = int(n_items)
        self._updates_since_checkpoint = 0
        # Deferred-normalisation scalar: true log-prob = stored − offset.
        self._log_offset = 0.0
        # Marginals of the current posterior when the last normalising
        # aggregation yielded them, else None until someone asks.
        self._marginals: Optional[np.ndarray] = None
        # Set by defer_marginals(): the next update aggregates its mass alone.
        self._defer_marginals = False

    @property
    def log_offset(self) -> float:
        """Current deferred-normalisation scalar (0.0 right after a rebalance)."""
        return self._log_offset

    # ------------------------------------------------------------------
    # construction (operation class R1: lattice manipulation)
    # ------------------------------------------------------------------
    @classmethod
    @traced(PHASE_LATTICE, "from_prior")
    def from_prior(
        cls, ctx: Optional[Context], prior: PriorSpec, num_blocks: int = 0
    ) -> "DistributedLattice":
        """Build the dense product-prior lattice.

        With a context each block is the prior on one aligned
        power-of-two run of masks (a cube block; *num_blocks* rounds
        down to a power of two), evaluated by doubling without building
        the masks — on the engine plane in a task, so the driver never
        holds the full lattice.  Without a context the lattice adopts
        ``prior.build_dense()``, normalised by log-sum-exp, whose last
        bits the doubling does not always reproduce.
        """
        n = prior.n_items
        if n > 30:
            raise ValueError("dense lattice limited to 30 individuals; use from_restricted_prior")
        if ctx is None:
            return cls.from_state_space(None, prior.build_dense())
        block_size = _even_block_size(1 << n, _num_blocks(ctx, num_blocks))
        bits = block_size.bit_length() - 1
        bases = _plane(ctx, 1 << n, list(range(0, 1 << n, block_size)))
        risks_bc = _broadcast(ctx, bases, prior.risks)

        def build(base: int) -> LatticeBlock:
            return LatticeBlock.cube(n, base, bits, dense_prior_log(risks_bc.value, bits, base))

        rdd = bases.map(build).cache()
        lattice = cls(ctx, rdd, n)
        # The dense product prior is normalised analytically; the
        # renormalise absorbs float drift into the offset and its
        # aggregation materialises the cache.
        lattice._renormalize(rdd)
        return lattice

    @classmethod
    @traced(PHASE_LATTICE, "from_restricted_prior")
    def from_restricted_prior(
        cls,
        ctx: Optional[Context],
        prior: PriorSpec,
        max_positives: int,
        num_blocks: int = 0,
    ) -> "DistributedLattice":
        """Rank-restricted lattice (cohorts beyond dense reach).

        Masks are enumerated at the driver (cheap relative to the prior
        evaluation), sliced, and weighted per block.  The log prior mass
        the restriction discards is kept as ``log_discarded_prior``.
        """
        n = prior.n_items
        masks = enumerate_restricted_masks(n, max_positives)
        nb = max(1, min(_num_blocks(ctx, num_blocks), masks.size))
        chunks = _plane(ctx, masks.size, np.array_split(masks, nb))
        risks_bc = _broadcast(ctx, chunks, prior.risks)

        def build(chunk: np.ndarray) -> LatticeBlock:
            return LatticeBlock(n, chunk, product_prior_log(chunk, risks_bc.value))

        rdd = chunks.map(build).cache()
        lattice = cls(ctx, rdd, n)
        log_kept = lattice._renormalize(rdd)
        lattice.log_discarded_prior = log1mexp(log_kept) if log_kept < 0 else -np.inf
        return lattice

    @classmethod
    @traced(PHASE_LATTICE, "from_state_space")
    def from_state_space(
        cls, ctx: Optional[Context], space: StateSpace, num_blocks: int = 0
    ) -> "DistributedLattice":
        """Adopt an existing (driver-resident) state space; *space* is never written."""
        block_size = _even_block_size(space.size, _num_blocks(ctx, num_blocks))
        rdd = _plane(ctx, space.size, partition_state_space(space, block_size)).cache()
        lattice = cls(ctx, rdd, space.n_items)
        lattice._renormalize(rdd)
        return lattice

    # ------------------------------------------------------------------
    # internal plumbing
    # ------------------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        return self.rdd.num_partitions

    @staticmethod
    def _mass_marginals(rdd: RDD | DriverPlane, need_marginals: bool = False) -> MassMarginals:
        """*Stored-space* log-mass of *rdd* and its marginals (one tree aggregation).

        The marginals are ``None`` when some block did not report them
        (generic blocks, unless *need_marginals*).  The aggregation
        walks every block, so running it on a freshly cached RDD doubles
        as the materialisation step.
        """
        log_mass, marginals = rdd.tree_aggregate(
            (-np.inf, None),
            lambda acc, b: merge_mass_marginals(acc, block_mass_marginals(b, need_marginals)),
            merge_mass_marginals,
        )
        return log_mass, _capped(marginals)

    @staticmethod
    def _summed_mass_marginals(
        rdd: RDD | DriverPlane, need_marginals: bool = True
    ) -> MassMarginals:
        """*Stored-space* summed log-mass of *rdd* and its marginals (one tree aggregation).

        The update's fold.  The mass sums each block's weights in memory
        order and merges the block masses by :func:`_add_log_mass`; the
        marginals (``None`` without *need_marginals*) are
        :meth:`_mass_marginals`' with *need_marginals*, merged along the
        same tree.  Both are bit for bit what the two separate
        aggregations would return.
        """
        log_mass, (_, marginals) = rdd.tree_aggregate(
            (-np.inf, (-np.inf, None)),
            lambda acc, b: _merge_summed(acc, block_summed_mass_marginals(b, need_marginals)),
            _merge_summed,
        )
        return log_mass, _capped(marginals)

    def _replace_rdd(self, new_rdd: RDD | DriverPlane) -> None:
        old = self.rdd
        self.rdd = new_rdd
        old.unpersist()

    def _renormalize(
        self,
        rdd: RDD | DriverPlane,
        zero_mass: str = "lattice has zero total mass (contradictory evidence?)",
        fold: Optional[Callable[[RDD | DriverPlane], MassMarginals]] = None,
    ) -> float:
        """Make the freshly cached *rdd* the lattice, normalised; returns its old log-mass.

        With deferred normalisation this is one aggregation (*fold*, by
        default :meth:`_mass_marginals`) and an O(1) driver-side offset
        update: the stored log-probs are untouched, the new offset is
        simply the aggregated stored mass, and the marginals the
        aggregation yields are kept for :meth:`marginals`.  The
        aggregation runs on *rdd* before it replaces the current one (so
        it reads the parent's cache and materialises the new one); an
        *rdd* without mass raises ``ValueError(zero_mass)`` and leaves
        the lattice as it was.  The returned value is the log-mass
        *relative to the previous normalisation*: kept mass after a
        restriction, survived mass after a prune, the predictive
        probability after an update.
        """
        log_mass, found = (fold or self._mass_marginals)(rdd)
        if not math.isfinite(log_mass):
            rdd.unpersist()
            raise ValueError(zero_mass)
        if rdd is not self.rdd:
            self._replace_rdd(rdd)
        relative = log_mass - self._log_offset
        self._log_offset = log_mass
        self._marginals = found
        return relative

    # ------------------------------------------------------------------
    # lattice manipulation (R1)
    # ------------------------------------------------------------------
    @traced(PHASE_LATTICE, "update")
    def update(self, pool_mask: int, log_lik_by_count: np.ndarray) -> float:
        """Bayes-update on a pooled outcome; returns log-predictive.

        One full-lattice pass, one fold: the per-count log-likelihood is
        applied while the result is cached, and the same tree
        aggregation that materialises the cache yields the new stored
        mass and the marginals, from one exponentiation per block
        (:meth:`_summed_mass_marginals`).  The change in stored mass is
        the predictive log-probability of the outcome, and the
        normalisation folds into :attr:`log_offset` — no rescale pass
        over the blocks; :meth:`marginals` then runs no job.  The update
        that checkpoints a lattice built for a context drops the
        marginals: the rebalanced blocks are what the next read
        aggregates.  After
        :meth:`defer_marginals` the aggregation sums the mass alone.
        """
        need_marginals, self._defer_marginals = not self._defer_marginals, False
        pool_mask = int(pool_mask)
        ll_bc = _broadcast(self.ctx, self.rdd, np.asarray(log_lik_by_count, dtype=np.float64))

        def apply(b: LatticeBlock) -> LatticeBlock:
            # Shallow copy: block_update rebinds log_probs, never writes
            # into the cached block's array.
            return block_update(copy.copy(b), pool_mask, ll_bc.value)

        log_pred = self._renormalize(
            self.rdd.map(apply).cache(),
            "observed outcome has zero probability under the model",
            lambda rdd: self._summed_mass_marginals(rdd, need_marginals),
        )
        self._updates_since_checkpoint += 1
        if self._updates_since_checkpoint >= self.checkpoint_interval:
            self.rebalance(self.num_blocks)
            if self.ctx is not None:
                self._marginals = None
        return log_pred

    def defer_marginals(self) -> None:
        """Let the next :meth:`update` leave the marginals unread.

        For a caller that changes the lattice again before it reads the
        marginals (the screen stepper, on every update of a stage but
        the last, and on the last too when a prune follows): that update
        saves the marginal folds, and a :meth:`marginals` call before
        the next mutation pays the job that reads them.
        """
        self._defer_marginals = True

    @traced(PHASE_LATTICE, "prune")
    def prune(self, epsilon: float, bins: int = 512) -> PruneStats:
        """Histogram-guided distributed pruning.

        Instead of globally sorting states, aggregate a fixed-bin
        histogram of log-probabilities weighted by linear mass, pick the
        lowest bin edge whose upper tail holds at least ``1-ε`` mass,
        and filter below it.  Keeps at least the requested mass (may
        keep slightly more — bin-resolution conservative).  The same
        aggregation counts the states per bin, so the kept count is the
        tail's, read without a job.
        """
        if not 0.0 <= epsilon < 1.0:
            raise ValueError("epsilon must be in [0, 1)")
        if epsilon == 0.0:
            return PruneStats(self.num_states(), 0, 0.0)
        lo, hi, before = self.rdd.aggregate(
            (np.inf, -np.inf, 0),
            lambda acc, b: (
                min(acc[0], float(b.log_probs.min(initial=np.inf))),
                max(acc[1], float(b.log_probs.max(initial=-np.inf))),
                acc[2] + b.size,
            ),
            lambda a, b: (min(a[0], b[0]), max(a[1], b[1]), a[2] + b[2]),
        )
        if not np.isfinite(lo) or not np.isfinite(hi) or lo == hi:
            return PruneStats(before, 0, 0.0)
        # Edges live in stored log-prob space; the offset normalises the
        # *masses* so the tail comparison against 1-ε stays calibrated.
        edges = np.linspace(lo, np.nextafter(hi, np.inf), bins + 1)
        off = self._log_offset
        hist, counts = self.rdd.tree_aggregate(
            np.zeros((2, bins)),
            lambda acc, b: acc + block_histogram_partial(b, edges, off),
            lambda a, b: a + b,
        )
        # Upper-tail cumulative mass; keep every bin needed for 1-ε.
        tail = np.cumsum(hist[::-1])[::-1]
        keep_bins = np.flatnonzero(tail >= 1.0 - epsilon)
        cut_bin = int(keep_bins[-1]) if keep_bins.size else 0
        threshold = edges[cut_bin]

        filtered = self.rdd.map(
            lambda b: LatticeBlock(
                b.n_items,
                b.masks[b.log_probs >= threshold],
                b.log_probs[b.log_probs >= threshold],
            )
        ).cache()
        dropped_log_mass = self._renormalize(filtered)  # pre-prune mass was 1
        kept = int(counts[cut_bin:].sum())  # the bins the filter keeps, whole
        dropped_mass = float(max(0.0, 1.0 - np.exp(min(dropped_log_mass, 0.0))))
        return PruneStats(kept, before - kept, dropped_mass)

    @traced(PHASE_LATTICE, "project_out_bit")
    def project_out_bit(self, bit: int, keep_positive: bool) -> None:
        """Condition on a settled individual and squeeze their bit out.

        The distributed form of lattice contraction: every surviving
        state drops the settled bit and individuals above it shift down
        one position (callers track the remapping).  Halves the
        representable index space per settled diagnosis, which is what
        keeps long screens tractable.
        """
        if not 0 <= bit < self.n_items:
            raise ValueError(f"bit {bit} outside [0, {self.n_items})")
        if self.n_items == 1:
            raise ValueError("cannot project the last remaining individual out")
        projected = self.rdd.map(lambda b: block_project_out_bit(b, bit, keep_positive)).cache()
        self._renormalize(projected)
        self.n_items -= 1

    @traced(PHASE_LATTICE, "rebalance")
    def rebalance(self, num_blocks: int = 0) -> None:
        """Collect and redistribute the lattice into even, lineage-free blocks.

        Doubles as the checkpoint operation: the new RDD is a source
        collection, so recomputation never reaches past this point.  The
        normalisation offset is absorbed into the stored log-probs, so
        the rebuilt blocks carry true log-probabilities and the offset
        resets to zero; the posterior, and with it the held marginals,
        is unchanged.  Cube blocks that tile the whole lattice are re-cut
        by slicing their concatenated log-probs — no masks are built;
        any other lattice goes through :meth:`collect`.  The blocks stay
        on the lattice's plane: a driver plane built for a context is
        re-cut exactly as its engine twin, so the two keep printing the
        same bytes.  A lattice without a context has no lineage and one
        block: it never rebalances, and its stored log-probs keep their
        offset.
        """
        self._updates_since_checkpoint = 0
        if self.ctx is None:
            return
        old = [b for b in self.rdd.collect() if b.size > 0]
        nb = _num_blocks(self.ctx, num_blocks)
        if all(b.bits is not None for b in old) and sum(b.size for b in old) == 1 << self.n_items:
            old.sort(key=lambda b: b.base)
            log_probs = np.concatenate([b.log_probs for b in old])
            if self._log_offset != 0.0:
                log_probs -= self._log_offset
            size = _even_block_size(log_probs.size, nb)
            bits = size.bit_length() - 1
            blocks = [
                LatticeBlock.cube(self.n_items, lo, bits, log_probs[lo : lo + size])
                for lo in range(0, log_probs.size, size)
            ]
        else:
            space = self._merged(old)
            blocks = partition_state_space(space, _even_block_size(space.size, nb))
        if isinstance(self.rdd, DriverPlane):
            rdd = DriverPlane(blocks)
        else:
            rdd = self.ctx.parallelize(blocks, len(blocks)).cache()
            rdd.count()
        self._replace_rdd(rdd)
        self._log_offset = 0.0

    # ------------------------------------------------------------------
    # test selection statistics (R2) — consumed by the rules of repro.halving
    # ------------------------------------------------------------------
    @traced(PHASE_SELECTION, "down_set_masses")
    def down_set_masses(self, pool_masks: np.ndarray) -> np.ndarray:
        """Normalised down-set mass per candidate pool (one aggregation)."""
        pools = np.asarray(pool_masks, dtype=np.uint64)
        pools_bc = _broadcast(self.ctx, self.rdd, pools)
        off = self._log_offset
        return self.rdd.tree_aggregate(
            np.zeros(pools.size),
            lambda acc, b: acc + block_down_set_partial(b, pools_bc.value, off),
            lambda a, b: a + b,
        )

    @traced(PHASE_SELECTION, "pool_count_hists")
    def pool_count_hists(self, candidate_masks: np.ndarray) -> np.ndarray:
        """Positives-in-pool distribution per candidate (one aggregation)."""
        candidates = np.asarray(candidate_masks, dtype=np.uint64)
        max_size = int(popcount64(candidates).max()) if candidates.size else 0
        cand_bc = _broadcast(self.ctx, self.rdd, candidates)
        off = self._log_offset
        return self.rdd.tree_aggregate(
            np.zeros((candidates.size, max_size + 1)),
            lambda acc, b: acc + block_count_hists_partial(b, cand_bc.value, max_size, off),
            lambda a, b: a + b,
        )

    @traced(PHASE_SELECTION, "refined_cell_masses")
    def refined_cell_masses(
        self, chosen: Sequence[int], candidate_masks: np.ndarray, n_cells: int
    ) -> np.ndarray:
        """Greedy look-ahead refined-cell masses (one aggregation)."""
        candidates = np.asarray(candidate_masks, dtype=np.uint64)
        chosen_t = tuple(int(c) for c in chosen)
        cand_bc = _broadcast(self.ctx, self.rdd, candidates)
        off = self._log_offset
        return self.rdd.tree_aggregate(
            np.zeros((candidates.size, n_cells)),
            # Defaults pin loop-varying values (B023: callers re-invoke
            # this per greedy step, each shipping a fresh closure).
            lambda acc, b, chosen_t=chosen_t, bc=cand_bc, k=n_cells, off=off: acc
            + block_refined_cell_partial(b, chosen_t, bc.value, k, off),
            lambda a, b: a + b,
        )

    # ------------------------------------------------------------------
    # statistical analysis (R3)
    # ------------------------------------------------------------------
    @traced(PHASE_ANALYSIS, "marginals")
    def marginals(self) -> np.ndarray:
        """Per-individual posterior infection probabilities.

        A copy of what the last normalising aggregation left at the
        driver.  The first call after a mutation that left generic
        blocks (whose aggregation reports mass alone), or after an
        update that checkpointed the lineage, pays one job here.
        """
        if self._marginals is None:
            _, self._marginals = self._mass_marginals(self.rdd, need_marginals=True)
        return self._marginals.copy()

    @traced(PHASE_ANALYSIS, "entropy")
    def entropy(self) -> float:
        """Shannon entropy of the posterior (nats)."""
        off = self._log_offset
        return self.rdd.tree_aggregate(
            0.0,
            lambda acc, b: acc + block_entropy_partial(b, off),
            lambda a, b: a + b,
        )

    @traced(PHASE_ANALYSIS, "top_states")
    def top_states(self, k: int) -> List[Tuple[int, float]]:
        """Global top-k (mask, probability) pairs."""
        if k <= 0:
            return []
        partials = self.rdd.aggregate(
            [],
            lambda acc, b: heapq.nlargest(k, acc + block_top_states(b, k), key=lambda t: t[1]),
            lambda a, b: heapq.nlargest(k, a + b, key=lambda t: t[1]),
        )
        off = self._log_offset
        return [(mask, float(np.exp(lp - off))) for mask, lp in partials]

    def num_states(self) -> int:
        return self.rdd.aggregate(0, lambda acc, b: acc + b.size, operator.add)

    def collect(self) -> StateSpace:
        """Materialise the full lattice at the driver (checkpoints / rebalance).

        Absorbs the normalisation offset: the returned space carries
        true log-probabilities regardless of the lattice's current
        ``log_offset``.
        """
        return self._merged([b for b in self.rdd.collect() if b.size > 0])

    def _merged(self, blocks: List[LatticeBlock]) -> StateSpace:
        space = merge_blocks(blocks)
        if self._log_offset != 0.0:
            space = StateSpace(
                space.n_items, space.masks, space.log_probs - self._log_offset
            )
        return space

    def unpersist(self) -> None:
        self.rdd.unpersist()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DistributedLattice(n_items={self.n_items}, blocks={self.num_blocks})"
