"""Cube blocks ≡ generic blocks.

A dense lattice block stores ``(base, bits)`` instead of masks and runs
structure-exploiting kernels (folds, strided sub-tensors, doubling).
Every one of them must agree with the generic mask-testing kernel on the
same states held explicitly.
"""

import copy

import numpy as np
import pytest

from repro.engine.closure import deserialize_oob, serialize_oob
from repro.lattice.builder import dense_prior_log, product_prior_log
from repro.lattice.partition import (
    LatticeBlock,
    block_count_hists_partial,
    block_down_set_partial,
    block_entropy_partial,
    block_log_mass,
    block_marginal_partial,
    block_mass_marginals,
    block_project_out_bit,
    block_refined_cell_partial,
    block_top_states,
    block_update,
    merge_mass_marginals,
)

TOL = dict(rtol=1e-12, atol=1e-12)


def explicit_twin(block: LatticeBlock) -> LatticeBlock:
    """The same states as *block*, forced onto the generic kernels."""
    twin = copy.copy(block)
    twin.base, twin.bits, twin._masks = 0, None, np.array(block.masks)
    return twin


def random_cube(rng: np.random.Generator, n: int, kind: str = "finite") -> LatticeBlock:
    """A random aligned sub-cube of the n-lattice with random log-probs."""
    bits = int(rng.integers(0, n + 1))
    base = int(rng.integers(0, 1 << (n - bits))) << bits
    log_probs = rng.normal(-5.0, 3.0, 1 << bits)
    if kind == "some-inf":
        log_probs[rng.random(log_probs.size) < 0.3] = -np.inf
    elif kind == "all-inf":
        log_probs[:] = -np.inf
    return LatticeBlock.cube(n, base, bits, log_probs)


def random_pools(rng: np.random.Generator, n: int, count: int = 12) -> np.ndarray:
    return rng.integers(1, 1 << n, size=count, dtype=np.uint64)


CASES = [(seed, kind) for seed in range(12) for kind in ("finite", "some-inf")] + [
    (seed, "all-inf") for seed in range(3)
]


@pytest.fixture(params=CASES, ids=lambda c: f"{c[1]}-{c[0]}")
def pair(request):
    seed, kind = request.param
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 13))
    cube = random_cube(rng, n, kind)
    return rng, cube, explicit_twin(cube)


class TestDetection:
    @pytest.mark.parametrize("base,bits", [(0, 0), (5, 0), (0, 3), (8, 3), (48, 4), (0, 10)])
    def test_aligned_runs_become_cubes(self, base, bits):
        masks = np.arange(base, base + (1 << bits), dtype=np.uint64)
        block = LatticeBlock(12, masks, np.zeros(masks.size))
        assert (block.base, block.bits) == (base, bits)
        assert np.array_equal(block.masks, masks)
        assert block.masks.dtype == np.uint64
        assert block.size == masks.size

    @pytest.mark.parametrize(
        "masks",
        [
            [],  # empty
            [1, 0, 2, 3],  # permuted
            [0, 1, 3, 2],  # permuted, right ends
            [0, 2, 1, 3],  # permuted, right ends
            [1, 2, 3, 4],  # offset run: base not aligned to its size
            [4, 5, 6, 7, 8, 9],  # not a power of two
            [0, 1, 2],  # not a power of two
            [0, 2, 4, 6],  # strided
            [0, 1, 2, 7],  # right start, wrong end
        ],
    )
    def test_everything_else_stays_generic(self, masks):
        block = LatticeBlock(4, np.array(masks, dtype=np.uint64), np.zeros(len(masks)))
        assert block.bits is None
        assert np.array_equal(block.masks, np.array(masks, dtype=np.uint64))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LatticeBlock(3, np.arange(4, dtype=np.uint64), np.zeros(3))

    def test_cube_constructor_validates(self):
        with pytest.raises(ValueError):
            LatticeBlock.cube(4, 0, 2, np.zeros(3))  # not 2^bits log-probs
        with pytest.raises(ValueError):
            LatticeBlock.cube(4, 2, 2, np.zeros(4))  # base not aligned

    def test_cube_masks_are_read_only(self):
        block = LatticeBlock.cube(4, 8, 3, np.zeros(8))
        with pytest.raises(ValueError):
            block.masks[0] = 1

    def test_copy_is_independent_and_stays_a_cube(self):
        block = LatticeBlock.cube(4, 8, 3, np.zeros(8))
        dup = block.copy()
        dup.log_probs[0] = -1.0
        assert block.log_probs[0] == 0.0
        assert (dup.base, dup.bits) == (8, 3)


class TestKernelsAgree:
    def test_masks(self, pair):
        _, cube, twin = pair
        assert cube.bits is not None and twin.bits is None
        assert np.array_equal(cube.masks, cube.base + np.arange(cube.size, dtype=np.uint64))

    def test_log_mass(self, pair):
        _, cube, twin = pair
        for off in (0.0, 1.25):
            np.testing.assert_allclose(block_log_mass(cube, off), block_log_mass(twin, off), **TOL)

    def test_marginals(self, pair):
        _, cube, twin = pair
        for off in (0.0, -2.5):
            np.testing.assert_allclose(
                block_marginal_partial(cube, off), block_marginal_partial(twin, off), **TOL
            )

    def test_down_set(self, pair):
        rng, cube, twin = pair
        pools = random_pools(rng, cube.n_items)
        for off in (0.0, 0.75):
            np.testing.assert_allclose(
                block_down_set_partial(cube, pools, off),
                block_down_set_partial(twin, pools, off),
                **TOL,
            )

    def test_update(self, pair):
        rng, cube, twin = pair
        for pool in random_pools(rng, cube.n_items, 6).tolist():
            ll = rng.normal(-1.0, 1.0, bin(pool).count("1") + 1)
            before = cube.log_probs
            kept = before.copy()
            block_update(cube, pool, ll)
            block_update(twin, pool, ll)
            np.testing.assert_allclose(cube.log_probs, twin.log_probs, **TOL)
            assert cube.bits is not None
            assert np.array_equal(before, kept)  # old array untouched (rebinding contract)

    def test_count_distribution(self, pair):
        rng, cube, twin = pair
        """One-pool tables, empty blocks included (``test_count_hists``
        has the many-pool table)."""
        for pool in random_pools(rng, cube.n_items, 6):
            table, size = pool[None], int(pool).bit_count()
            np.testing.assert_allclose(
                block_count_hists_partial(cube, table, size, 0.5),
                block_count_hists_partial(twin, table, size, 0.5),
                **TOL,
            )

    def test_count_hists(self, pair):
        rng, cube, twin = pair
        if cube.size == 0:
            return
        pools = random_pools(rng, cube.n_items)
        max_size = max(bin(p).count("1") for p in pools.tolist())
        np.testing.assert_allclose(
            block_count_hists_partial(cube, pools, max_size, 0.5),
            block_count_hists_partial(twin, pools, max_size, 0.5),
            **TOL,
        )

    def test_refined_cells_entropy_top_states(self, pair):
        rng, cube, twin = pair
        pools = random_pools(rng, cube.n_items, 5)
        chosen = (int(pools[0]), int(pools[1]))
        np.testing.assert_allclose(
            block_refined_cell_partial(cube, chosen, pools[2:], 8, 0.5),
            block_refined_cell_partial(twin, chosen, pools[2:], 8, 0.5),
            **TOL,
        )
        np.testing.assert_allclose(
            block_entropy_partial(cube, 0.5), block_entropy_partial(twin, 0.5), **TOL
        )
        assert block_top_states(cube, 5) == block_top_states(twin, 5)

    def test_project_out_bit(self, pair):
        _, cube, twin = pair
        if cube.n_items < 2:
            return
        for bit in range(cube.n_items):
            for keep_positive in (False, True):
                got = block_project_out_bit(cube, bit, keep_positive)
                want = block_project_out_bit(twin, bit, keep_positive)
                assert got.n_items == want.n_items == cube.n_items - 1
                assert np.array_equal(got.masks, want.masks)
                assert np.array_equal(got.log_probs, want.log_probs)
                assert got.size == 0 or got.bits is not None  # a cube stays a cube

class TestFusedMassMarginals:
    """One exponentiation ≡ the log-mass kernel plus the marginals kernel."""

    def test_kernel_equals_the_two_reductions(self, pair):
        _, cube, twin = pair
        log_mass = block_log_mass(cube)
        got_mass, got_marginals = block_mass_marginals(cube)
        twin_mass, twin_marginals = block_mass_marginals(twin, need_marginals=True)
        if log_mass == -np.inf:  # no state has mass: the merge identity
            assert (got_mass, got_marginals) == (-np.inf, None) == (twin_mass, twin_marginals)
            return
        want = block_marginal_partial(cube, log_mass)  # given the block: normalised by its mass
        np.testing.assert_allclose([got_mass, twin_mass], log_mass, **TOL)
        np.testing.assert_allclose(got_marginals, want, **TOL)
        np.testing.assert_allclose(twin_marginals, want, **TOL)
        in_base = [i for i in range(cube.bits, cube.n_items) if (cube.base >> i) & 1]
        assert np.all(got_marginals[in_base] == 1.0)

    def test_generic_block_reports_mass_alone_unless_asked(self, pair):
        _, _, twin = pair
        assert block_mass_marginals(twin) == (block_log_mass(twin), None)

    def test_kernel_leaves_the_block_untouched(self, pair):
        _, cube, _ = pair
        kept = cube.log_probs.copy()
        block_mass_marginals(cube)
        assert np.array_equal(cube.log_probs, kept)

    def test_empty_block_is_the_identity(self):
        empty = LatticeBlock(5, np.empty(0, dtype=np.uint64), np.empty(0))
        assert block_mass_marginals(empty) == (-np.inf, None)
        assert block_mass_marginals(empty, need_marginals=True) == (-np.inf, None)

    @staticmethod
    def partial(rng, n=6):
        return float(rng.normal(-3.0, 4.0)), rng.random(n)

    @staticmethod
    def assert_same(a, b):
        np.testing.assert_allclose(a[0], b[0], **TOL)
        np.testing.assert_allclose(a[1], b[1], **TOL)

    @pytest.mark.parametrize("seed", range(8))
    def test_merge_is_associative_and_weights_by_mass(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (self.partial(rng) for _ in range(3))
        merge = merge_mass_marginals
        self.assert_same(merge(merge(a, b), c), merge(a, merge(b, c)))
        self.assert_same(merge(a, b), merge(b, a))
        weights = np.exp(np.array([a[0], b[0], c[0]]))
        want = (weights[:, None] * np.array([a[1], b[1], c[1]])).sum(axis=0) / weights.sum()
        self.assert_same(merge(merge(a, b), c), (np.log(weights.sum()), want))

    def test_merge_identity_and_uncomputed_marginals(self):
        rng = np.random.default_rng(0)
        a, b = self.partial(rng), self.partial(rng)
        nothing = (-np.inf, None)
        assert merge_mass_marginals(nothing, a) is a
        assert merge_mass_marginals(a, nothing) is a
        assert merge_mass_marginals(nothing, nothing) == nothing
        mass_only = merge_mass_marginals(a, (b[0], None))
        assert mass_only[1] is None
        np.testing.assert_allclose(mass_only[0], np.logaddexp(a[0], b[0]), **TOL)

    @pytest.mark.parametrize("seed", range(6))
    def test_blocks_merge_to_the_whole_lattice(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 11))
        log_probs = rng.normal(-5.0, 3.0, 1 << n)
        log_probs[rng.random(log_probs.size) < 0.2] = -np.inf
        log_probs[: 1 << (n - 2)] = -np.inf  # one block without mass
        whole = block_mass_marginals(LatticeBlock.cube(n, 0, n, log_probs))
        size = 1 << (n - 2)
        merged = (-np.inf, None)
        for lo in range(0, 1 << n, size):
            part = LatticeBlock.cube(n, lo, n - 2, log_probs[lo : lo + size])
            merged = merge_mass_marginals(merged, block_mass_marginals(part))
        self.assert_same(merged, whole)


class TestDensePrior:
    @pytest.mark.parametrize("seed", range(6))
    def test_doubling_is_bit_identical_to_masked_passes(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 13))
        risks = rng.uniform(0.01, 0.6, n)
        bits = int(rng.integers(0, n + 1))
        base = int(rng.integers(0, 1 << (n - bits))) << bits
        masks = np.arange(base, base + (1 << bits), dtype=np.uint64)
        assert np.array_equal(dense_prior_log(risks, bits, base), product_prior_log(masks, risks))


class TestSerde:
    def test_cube_ships_no_masks_buffer(self):
        block = LatticeBlock(16, np.arange(1 << 16, 1 << 17, dtype=np.uint64), np.zeros(1 << 16))
        assert block.bits == 16
        block.masks  # materialise the derived view; it must still not ship
        data, buffers = serialize_oob(block)
        assert sum(len(b) for b in buffers) == block.log_probs.nbytes
        out = deserialize_oob(data, buffers)
        assert (out.n_items, out.base, out.bits) == (16, 1 << 16, 16)
        assert np.array_equal(out.log_probs, block.log_probs)
        assert np.array_equal(out.masks, block.masks)
        out.log_probs[0] = -1.0  # round-tripped log-probs stay writable

    def test_generic_round_trip_keeps_masks(self):
        masks = np.array([0, 1, 3, 7, 9], dtype=np.uint64)
        out = deserialize_oob(*serialize_oob(LatticeBlock(4, masks, np.arange(5.0))))
        assert out.bits is None
        assert np.array_equal(out.masks, masks)

    def test_shallow_copy_shares_arrays(self):
        block = LatticeBlock.cube(4, 0, 4, np.zeros(16))
        assert copy.copy(block).log_probs is block.log_probs
        generic = LatticeBlock(4, np.array([1, 5], dtype=np.uint64), np.zeros(2))
        dup = copy.copy(generic)
        assert dup.log_probs is generic.log_probs and dup.masks is generic.masks


class TestConditionedBlocksAreGeneric:
    def test_filter_and_threshold_results(self):
        rng = np.random.default_rng(3)
        cube = LatticeBlock.cube(6, 0, 6, rng.normal(-3.0, 1.0, 64))
        twin = explicit_twin(cube)
        threshold = np.median(cube.log_probs)

        def prune(block):  # the filter a prune maps over the blocks
            keep = block.log_probs >= threshold
            return LatticeBlock(6, block.masks[keep], block.log_probs[keep])

        kept = prune(cube)
        assert kept.bits is None and kept.size == 32
        pools = random_pools(rng, 6)
        np.testing.assert_allclose(
            block_down_set_partial(kept, pools), block_down_set_partial(prune(twin), pools), **TOL
        )
        has_bit = (kept.masks[:, None] >> np.arange(6, dtype=np.uint64)) & np.uint64(1)
        np.testing.assert_allclose(
            block_marginal_partial(kept), np.exp(kept.log_probs) @ has_bit, **TOL
        )
