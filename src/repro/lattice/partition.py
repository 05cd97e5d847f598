"""Blocked lattice representation — the unit SBGT distributes.

A :class:`LatticeBlock` is a contiguous chunk of (masks, log_probs).
SBGT's RDDs carry one block per record so partition tasks run whole-block
NumPy kernels; the same blocks also back the serial NumPy baseline, which
keeps the distributed and serial code paths numerically identical.

A block whose masks are an aligned run ``base + [0, 2^bits)`` — every
block of a dense lattice — is a Boolean **sub-cube**: state ``i`` *is*
mask ``base | i``, so the block stores ``(base, bits)`` and the log-probs
only, and its kernels work on the cube structure (halving folds, strided
sub-tensors) instead of testing every mask.  Cube-ness is read off the
masks at construction; blocks with any other support (restricted priors,
conditioned or pruned lattices) keep explicit masks and the generic
kernels.  Both forms answer every kernel identically up to rounding.

Block kernels return *partial* statistics (unnormalised log masses,
weighted marginal sums) that compose associatively, which is what lets
SBGT compute them with ``tree_aggregate`` instead of collecting states.

Kernels that need *normalised* probabilities accept a ``log_offset``:
the deferred-normalisation scalar :class:`~repro.sbgt.distributed_lattice.
DistributedLattice` maintains instead of rescaling every block after each
update.  A stored log-prob ``s`` denotes true log-probability
``s - log_offset``; passing the offset into the kernel folds the rescale
into the existing exponentiation, so no extra pass over the data ever
happens.  The default ``0.0`` preserves the original semantics (stored
values are the true log-probs) and skips the subtraction entirely.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.lattice.states import StateSpace
from repro.util.bits import bit_column, intersect_count

__all__ = [
    "LatticeBlock",
    "partition_state_space",
    "merge_blocks",
    "block_log_mass",
    "block_mass_marginals",
    "merge_mass_marginals",
    "block_update",
    "block_marginal_partial",
    "block_down_set_partial",
    "block_entropy_partial",
    "block_histogram_partial",
    "block_count_hists_partial",
    "block_refined_cell_partial",
    "block_top_states",
    "block_filter_consistent",
    "block_project_out_bit",
]

DEFAULT_BLOCK_SIZE = 1 << 16

#: The ``arange`` that cube detection compares against and cube ``masks`` derive from.
_cube_index_cache = np.arange(0, dtype=np.uint64)


def _cube_index(size: int) -> np.ndarray:
    """Read-only ``arange(size, dtype=uint64)``, shared by all cube blocks."""
    global _cube_index_cache
    if _cube_index_cache.size < size:
        grown = np.arange(size, dtype=np.uint64)
        grown.flags.writeable = False
        _cube_index_cache = grown
    return _cube_index_cache[:size]


def _cube_bits(masks: np.ndarray) -> Optional[int]:
    """``bits`` when *masks* is the aligned run ``masks[0] + [0, 2^bits)``."""
    size = masks.size
    if size == 0 or size & (size - 1):
        return None
    base = int(masks[0])
    if base & (size - 1) or int(masks[-1]) != base + size - 1:
        return None
    if not np.array_equal(masks ^ np.uint64(base), _cube_index(size)):
        return None
    return size.bit_length() - 1


class LatticeBlock:
    """One chunk of a partitioned state space.

    ``LatticeBlock(n_items, masks, log_probs)`` inspects *masks* once:
    an aligned run ``base + [0, 2^bits)`` becomes a **cube** block that
    keeps only ``base``, ``bits`` and the log-probs (in mask order);
    anything else is a **generic** block (``bits is None``) that keeps
    the explicit ``uint64`` masks.  :attr:`masks` reads the same either
    way — on a cube it is derived on first use from one shared index
    array (read-only, never pickled).
    """

    __slots__ = ("n_items", "log_probs", "base", "bits", "_masks")

    def __init__(self, n_items: int, masks: np.ndarray, log_probs: np.ndarray) -> None:
        masks = np.ascontiguousarray(masks, dtype=np.uint64)
        self.n_items = n_items
        self.log_probs = np.ascontiguousarray(log_probs, dtype=np.float64)
        if masks.shape != self.log_probs.shape:
            raise ValueError("masks and log_probs must have equal shape")
        self.bits = _cube_bits(masks)
        if self.bits is None:
            self.base, self._masks = 0, masks
        else:
            self.base, self._masks = int(masks[0]), None

    @classmethod
    def cube(cls, n_items: int, base: int, bits: int, log_probs: np.ndarray) -> "LatticeBlock":
        """The cube block ``base + [0, 2^bits)`` without building its masks."""
        block = cls.__new__(cls)
        block.n_items = n_items
        block.log_probs = np.ascontiguousarray(log_probs, dtype=np.float64)
        block.base, block.bits, block._masks = int(base), int(bits), None
        size = 1 << block.bits
        if block.log_probs.shape != (size,) or block.base & (size - 1):
            raise ValueError("a cube block needs 2^bits log-probs and a base aligned to 2^bits")
        return block

    @property
    def masks(self) -> np.ndarray:
        if self._masks is None:
            index = _cube_index(self.size)
            if self.base:
                index = index | np.uint64(self.base)
                index.flags.writeable = False
            self._masks = index
        return self._masks

    @property
    def size(self) -> int:
        return int(self.log_probs.size)

    def copy(self) -> "LatticeBlock":
        if self.bits is None:
            return LatticeBlock(self.n_items, self._masks.copy(), self.log_probs.copy())
        return LatticeBlock.cube(self.n_items, self.base, self.bits, self.log_probs.copy())

    def __reduce__(self):
        # A cube ships its shape and log-probs; the masks are rebuilt (or
        # never needed) on the other side.  Also what makes copy.copy a
        # shallow copy that shares both arrays.
        if self.bits is None:
            return (LatticeBlock, (self.n_items, self._masks, self.log_probs))
        return (LatticeBlock.cube, (self.n_items, self.base, self.bits, self.log_probs))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        form = "generic" if self.bits is None else f"cube base={self.base:#x}"
        return f"LatticeBlock(n_items={self.n_items}, size={self.size}, {form})"


def partition_state_space(
    space: StateSpace, block_size: int = DEFAULT_BLOCK_SIZE
) -> List[LatticeBlock]:
    """Split a state space into contiguous blocks of ≤ *block_size* states."""
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    blocks = []
    for lo in range(0, space.size, block_size):
        hi = min(lo + block_size, space.size)
        blocks.append(
            LatticeBlock(space.n_items, space.masks[lo:hi].copy(), space.log_probs[lo:hi].copy())
        )
    return blocks


def merge_blocks(blocks: Sequence[LatticeBlock]) -> StateSpace:
    """Reassemble blocks into a single (unnormalised) state space."""
    if not blocks:
        raise ValueError("cannot merge zero blocks")
    n_items = blocks[0].n_items
    if any(b.n_items != n_items for b in blocks):
        raise ValueError("blocks disagree on n_items")
    masks = np.concatenate([b.masks for b in blocks])
    log_probs = np.concatenate([b.log_probs for b in blocks])
    return StateSpace(n_items, masks, log_probs)


# ----------------------------------------------------------------------
# associative block kernels (partial statistics)
# ----------------------------------------------------------------------
def block_log_mass(block: LatticeBlock, log_offset: float = 0.0) -> float:
    """log Σ exp(log_probs − log_offset) of the block (−inf when empty)."""
    top = float(block.log_probs.max(initial=-np.inf))
    if top == -np.inf:  # empty, or no state has mass
        return -np.inf
    return top + float(np.log(_exp_shifted(block.log_probs, top).sum())) - log_offset


def _cube_counts(bits: int, pool_mask: int) -> np.ndarray:
    """Positives each of ``[0, 2^bits)`` places in the pool, by doubling.

    The states with bit ``j`` set repeat the states below them, plus one
    when the pool holds ``j`` — ``2·2^bits`` byte additions, no mask read.
    """
    counts = np.zeros(1 << bits, dtype=np.uint8)
    for j in range(bits):
        np.add(counts[: 1 << j], (pool_mask >> j) & 1, out=counts[1 << j : 2 << j])
    return counts


def _pool_counts(block: LatticeBlock, pool_mask: int) -> Tuple[np.ndarray, int]:
    """``(counts, shift)``: state ``i`` places ``counts[i] + shift`` positives in the pool.

    A cube counts over its free bits; ``shift`` is what ``base`` adds.
    """
    if block.bits is None:
        return intersect_count(block.masks, pool_mask), 0
    return _cube_counts(block.bits, pool_mask), (block.base & pool_mask).bit_count()


#: Free bits of a cube whose counts index the likelihood table directly.
_TABLE_BITS = 9


def _pool_log_lik(block: LatticeBlock, pool_mask: int, ll: np.ndarray) -> np.ndarray:
    """Per-state ``ll[positives in pool]`` as a fresh array.

    A cube splits its index into low and high bits: the count is the sum
    of the two parts' counts, so a small table ``ll[high count + low
    counts]`` — one row per high count — gathered by *row* yields the
    whole vector at copy speed, where a per-state gather is ~3.5× slower
    at 2^17 states.
    """
    if block.bits is None:
        return ll[intersect_count(block.masks, pool_mask)]
    low_bits = min(block.bits, _TABLE_BITS)
    low = _cube_counts(low_bits, pool_mask).astype(np.intp)
    high = _cube_counts(block.bits - low_bits, pool_mask >> low_bits)
    shift = (block.base & pool_mask).bit_count()
    table = ll[np.add.outer(np.arange(shift, shift + int(high.max()) + 1), low)]
    return table[high].reshape(-1)


def block_update(block: LatticeBlock, pool_mask: int, log_lik_by_count: np.ndarray) -> LatticeBlock:
    """Bayes-update one block in place (no normalisation — that is global).

    The block's ``log_probs`` is *rebound* to the per-state
    log-likelihoods with the old values added in; the old array is left
    untouched, so a shallow copy of a cached block can be updated
    without first copying its log-probs.
    """
    ll = np.asarray(log_lik_by_count, dtype=np.float64)
    updated = _pool_log_lik(block, int(pool_mask), ll)
    updated += block.log_probs
    block.log_probs = updated
    return block


def _exp_shifted(log_probs: np.ndarray, shift: float) -> np.ndarray:
    """``exp(log_probs − shift)`` through one temporary, not two.

    Exponentiating the difference in place matters beyond the saved
    allocation: with two block-sized temporaries live, glibc trims and
    regrows the heap on every call, measured 5× slower at 2^17 states.
    """
    out = log_probs - shift
    return np.exp(out, out=out)


def _block_probs(block: LatticeBlock, log_offset: float) -> np.ndarray:
    """Linear probabilities of a block under a deferred normalisation."""
    if log_offset == 0.0:
        return np.exp(block.log_probs)
    return _exp_shifted(block.log_probs, log_offset)


def _positive_masses(block: LatticeBlock, p: np.ndarray) -> Tuple[np.ndarray, float]:
    """Per-individual positive mass of the linear weights *p*, and their total.

    Generic blocks gather once per individual.  A cube folds *p* in
    place: the upper half of the weights is the top free bit's positive
    mass, and adding it onto the lower half leaves a cube one bit smaller
    — ``2·2^bits`` additions in all; the single weight left after the
    last fold is the block's mass, which is also the positive mass of
    every bit set in ``base``.
    """
    out = np.zeros(block.n_items, dtype=np.float64)
    if block.bits is None:
        for i in range(block.n_items):
            out[i] = p[bit_column(block.masks, i)].sum()
        return out, float(p.sum())
    for j in range(block.bits - 1, -1, -1):
        upper = p[1 << j : 2 << j]
        out[j] = upper.sum()
        p[: 1 << j] += upper
    for i in range(block.bits, block.n_items):
        if (block.base >> i) & 1:
            out[i] = p[0]
    return out, float(p[0])


def block_marginal_partial(block: LatticeBlock, log_offset: float = 0.0) -> np.ndarray:
    """Per-individual positive mass within the block."""
    return _positive_masses(block, _block_probs(block, log_offset))[0]


#: ``(stored log-mass, marginals given the block)``; the marginals are
#: ``None`` where they were not computed, and a mass of −inf is "nothing".
MassMarginals = Tuple[float, Optional[np.ndarray]]


def block_mass_marginals(block: LatticeBlock, need_marginals: bool = False) -> MassMarginals:
    """The block's stored log-mass and its marginals from one exponentiation.

    The normalising aggregation and the marginals read-out exponentiate
    the same array, so they are one kernel: ``exp(log_probs − max)`` in
    place, the positive masses of :func:`block_marginal_partial`, and the
    total those leave behind.  A cube's folds cost what summing the
    weights would, so a cube always reports marginals; a generic block
    gathers once per individual and reports its mass alone unless
    *need_marginals*.  Needs no ``log_offset``: the marginals are
    relative to the block's own mass, and
    :func:`merge_mass_marginals` weights them by it.
    """
    if block.bits is None and not need_marginals:
        return block_log_mass(block), None
    top = float(block.log_probs.max(initial=-np.inf))
    if top == -np.inf:  # empty, or no state has mass
        return -np.inf, None
    positive, total = _positive_masses(block, _exp_shifted(block.log_probs, top))
    return top + float(np.log(total)), positive / total


def merge_mass_marginals(a: MassMarginals, b: MassMarginals) -> MassMarginals:
    """Combine two :func:`block_mass_marginals` partials (associative).

    Masses add in log space and marginals average weighted by mass; a
    −inf mass is the identity, and marginals one side did not compute
    are not computed for the union.
    """
    if a[0] == -np.inf:
        return b
    if b[0] == -np.inf:
        return a
    log_mass = float(np.logaddexp(a[0], b[0]))
    if a[1] is None or b[1] is None:
        return log_mass, None
    return log_mass, a[1] * np.exp(a[0] - log_mass) + b[1] * np.exp(b[0] - log_mass)


def block_down_set_partial(
    block: LatticeBlock, pool_masks: np.ndarray, log_offset: float = 0.0
) -> np.ndarray:
    """Down-set mass of each candidate pool within the block.

    The inner loop of distributed test selection.  On a cube, the states
    with no positive in a pool are the sub-tensor at index 0 along the
    pool's axes of the probabilities viewed as ``(2,)*bits`` — empty if
    the pool meets ``base`` — so each candidate costs one strided sum
    over ``2^(bits − |pool|)`` weights.  Generic blocks mask and sum per
    candidate rather than contracting the full (candidates × states)
    boolean, whose float64 materialisation measured ~6× slower at 2^20
    states.
    """
    p = _block_probs(block, log_offset)
    pools = np.asarray(pool_masks, dtype=np.uint64)
    out = np.zeros(pools.size, dtype=np.float64)
    if block.bits is None:
        zero = np.uint64(0)
        for c, pool in enumerate(pools):
            out[c] = p[(block.masks & pool) == zero].sum()
        return out
    tensor = p.reshape((2,) * block.bits)  # axis a is bit (bits − 1 − a)
    axis_bits = range(block.bits - 1, -1, -1)
    keep_or_clean = (slice(None), 0)
    for c, pool in enumerate(pools.tolist()):
        if pool & block.base == 0:
            out[c] = tensor[tuple([keep_or_clean[(pool >> j) & 1] for j in axis_bits])].sum()
    return out


def block_entropy_partial(block: LatticeBlock, log_offset: float = 0.0) -> float:
    """−Σ p log p over the block, in the offset-normalised measure."""
    if block.size == 0:
        return 0.0
    p = _block_probs(block, log_offset)
    nz = p > 0.0
    if log_offset == 0.0:
        return float(-np.sum(p[nz] * block.log_probs[nz]))
    return float(-np.sum(p[nz] * (block.log_probs[nz] - log_offset)))


def block_histogram_partial(
    block: LatticeBlock, edges: np.ndarray, log_offset: float = 0.0
) -> np.ndarray:
    """Linear-mass histogram of the block's log-probs over fixed bin edges.

    Used by distributed pruning to locate a log-prob cutoff without
    sorting the global state set.  Values outside the edges clamp into
    the end bins.  ``edges`` stay in *stored* log-prob space; only the
    masses are offset-normalised.
    """
    if block.size == 0:
        return np.zeros(len(edges) - 1, dtype=np.float64)
    idx = np.clip(np.searchsorted(edges, block.log_probs, side="right") - 1, 0, len(edges) - 2)
    return np.bincount(
        idx, weights=_block_probs(block, log_offset), minlength=len(edges) - 1
    )


def block_count_hists_partial(
    block: LatticeBlock, candidates: np.ndarray, max_size: int, log_offset: float = 0.0
) -> np.ndarray:
    """Per-candidate histograms of positives-in-pool for one block.

    Row ``c`` holds the linear mass of states placing ``k`` positives in
    candidate pool ``c`` (k = 0..max_size; columns beyond a pool's size
    stay zero).  The inner kernel of distributed information-gain
    selection.
    """
    out = np.zeros((candidates.size, max_size + 1))
    if block.size == 0:
        return out
    p = _block_probs(block, log_offset)
    for c, cand in enumerate(candidates):
        counts, shift = _pool_counts(block, int(cand))
        hist = np.bincount(counts, weights=p)
        out[c, shift : shift + hist.size] = hist
    return out


def block_refined_cell_partial(
    block: LatticeBlock,
    chosen: Tuple[int, ...],
    candidates: np.ndarray,
    n_cells: int,
    log_offset: float = 0.0,
) -> np.ndarray:
    """Per-candidate refined-cell masses for one block.

    Returns an (n_candidates, n_cells) array: row ``c`` holds the linear
    mass of every cell of the partition induced by ``chosen + [cand_c]``.
    The chosen-pool cell index is recomputed per block (cheap: the batch
    is at most a handful of pools) so no per-state state needs shuffling.
    The inner kernel of distributed look-ahead batch selection.
    """
    if block.size == 0:
        return np.zeros((candidates.size, n_cells))
    p = _block_probs(block, log_offset)
    cell_idx = np.zeros(block.size, dtype=np.int64)
    for j, pool in enumerate(chosen):
        dirty = (block.masks & np.uint64(pool)) != np.uint64(0)
        cell_idx |= dirty.astype(np.int64) << j
    out = np.empty((candidates.size, n_cells))
    shift = len(chosen)
    for c, cand in enumerate(candidates):
        dirty = (block.masks & cand) != np.uint64(0)
        refined = cell_idx | (dirty.astype(np.int64) << shift)
        out[c] = np.bincount(refined, weights=p, minlength=n_cells)
    return out


def block_top_states(block: LatticeBlock, k: int) -> List[Tuple[int, float]]:
    """Block-local top-k states by unnormalised log-probability."""
    if k <= 0 or block.size == 0:
        return []
    k = min(k, block.size)
    idx = np.argpartition(-block.log_probs, k - 1)[:k]
    idx = idx[np.argsort(-block.log_probs[idx], kind="stable")]
    return [(int(block.masks[i]), float(block.log_probs[i])) for i in idx]


def block_filter_consistent(
    block: LatticeBlock, positive_mask: int = 0, negative_mask: int = 0
) -> LatticeBlock:
    """Keep only states consistent with settled classifications."""
    pos = np.uint64(positive_mask)
    neg = np.uint64(negative_mask)
    keep = ((block.masks & pos) == pos) & ((block.masks & neg) == np.uint64(0))
    return LatticeBlock(block.n_items, block.masks[keep], block.log_probs[keep])


def block_project_out_bit(block: LatticeBlock, bit: int, keep_positive: bool) -> LatticeBlock:
    """Condition on a settled individual and squeeze their bit out.

    Block-local half of :func:`repro.lattice.ops.project_out_bit`;
    renormalisation stays global (absorbed into the caller's deferred
    ``log_offset``).  May return an empty block.  A cube stays a cube:
    settling one of its free bits keeps that half of the ``(…, 2, …)``
    view; settling a bit of ``base`` keeps all of the block or none.
    """
    n = block.n_items - 1
    if block.bits is None:
        bit_u = np.uint64(bit)
        one = np.uint64(1)
        has_bit = (block.masks >> bit_u) & one == one
        keep = has_bit if keep_positive else ~has_bit
        masks = block.masks[keep]
        low = masks & ((one << bit_u) - one)
        high = (masks >> (bit_u + one)) << bit_u
        return LatticeBlock(n, low | high, block.log_probs[keep])
    if bit < block.bits:
        half = block.log_probs.reshape(-1, 2, 1 << bit)[:, int(keep_positive), :]
        return LatticeBlock.cube(n, block.base >> 1, block.bits - 1, half.reshape(-1))
    if bool((block.base >> bit) & 1) != keep_positive:
        return LatticeBlock(n, np.empty(0, dtype=np.uint64), np.empty(0))
    base = (block.base & ((1 << bit) - 1)) | ((block.base >> (bit + 1)) << bit)
    return LatticeBlock.cube(n, base, block.bits, block.log_probs)
