"""DistributedLattice parity with the ``lattice.ops`` reference on a StateSpace."""

import numpy as np
import pytest

from repro.bayes.dilution import DilutionErrorModel
from repro.bayes.priors import PriorSpec
from repro.lattice.builder import build_restricted_prior
from repro.lattice.ops import (
    conditioned_log_probs,
    entropy,
    map_state,
    marginals,
    posterior_update,
    top_states,
)
from repro.lattice.partition import partition_state_space
from repro.sbgt.distributed_lattice import DistributedLattice


@pytest.fixture
def prior():
    return PriorSpec(np.array([0.05, 0.2, 0.1, 0.3, 0.15, 0.08]))


@pytest.fixture
def model():
    return DilutionErrorModel(0.97, 0.99, 0.35)


class TestConstruction:
    def test_from_prior_matches_serial(self, ctx, prior):
        dl = DistributedLattice.from_prior(ctx, prior, 4)
        space = prior.build_dense()
        collected = dl.collect()
        assert np.array_equal(np.sort(collected.masks), np.sort(space.masks))
        assert np.allclose(dl.marginals(), marginals(space), atol=1e-10)
        dl.unpersist()

    def test_num_states(self, ctx, prior):
        dl = DistributedLattice.from_prior(ctx, prior, 4)
        assert dl.num_states() == 64
        dl.unpersist()

    def test_block_count_capped(self, ctx):
        small = PriorSpec.uniform(2, 0.1)
        dl = DistributedLattice.from_prior(ctx, small, 100)
        assert dl.num_blocks <= 4
        dl.unpersist()

    def test_too_many_items_rejected(self, ctx):
        with pytest.raises(ValueError):
            DistributedLattice.from_prior(ctx, PriorSpec.uniform(31, 0.01))

    def test_from_restricted_prior(self, ctx):
        prior = PriorSpec.uniform(12, 0.03)
        dl = DistributedLattice.from_restricted_prior(ctx, prior, 3, 4)
        log_disc = dl.log_discarded_prior
        space, log_disc_serial = build_restricted_prior(prior.risks, 3)
        assert dl.num_states() == space.size
        assert np.allclose(dl.marginals(), marginals(space), atol=1e-10)
        assert log_disc == pytest.approx(log_disc_serial, abs=1e-6)
        dl.unpersist()

    def test_from_state_space(self, ctx, prior):
        space = prior.build_dense()
        dl = DistributedLattice.from_state_space(ctx, space, 3)
        assert np.allclose(dl.marginals(), marginals(space), atol=1e-10)
        dl.unpersist()


class TestUpdate:
    def test_update_matches_serial(self, ctx, prior, model):
        dl = DistributedLattice.from_prior(ctx, prior, 4)
        ref = prior.build_dense()
        for pool, outcome in [(0b000111, True), (0b111000, False), (0b000011, True)]:
            size = bin(pool).count("1")
            ll = model.log_likelihood_by_count(outcome, size)
            dl.update(pool, ll)
            posterior_update(ref, pool, ll)
            assert np.allclose(dl.marginals(), marginals(ref), atol=1e-10)
        dl.unpersist()

    def test_log_predictive_matches_serial(self, ctx, prior, model):
        dl = DistributedLattice.from_prior(ctx, prior, 4)
        ll = model.log_likelihood_by_count(True, 3)
        log_pred = dl.update(0b000111, ll)
        _, expected = conditioned_log_probs(prior.build_dense(), 0b000111, ll)
        assert log_pred == pytest.approx(expected, abs=1e-10)
        dl.unpersist()

    def test_entropy_matches(self, ctx, prior, model):
        dl = DistributedLattice.from_prior(ctx, prior, 4)
        assert dl.entropy() == pytest.approx(entropy(prior.build_dense()), abs=1e-9)
        dl.unpersist()

    def test_impossible_outcome_raises(self, ctx):
        from repro.bayes.dilution import PerfectTest

        prior = PriorSpec.uniform(3, 0.1)
        model = PerfectTest()
        dl = DistributedLattice.from_prior(ctx, prior, 2)
        ll_neg = model.log_likelihood_by_count(False, 2)
        ll_pos = model.log_likelihood_by_count(True, 2)
        dl.update(0b011, ll_neg)
        # Same pool now testing positive is (numerically) impossible but
        # the clamped log-zero keeps it finite; mass collapses instead.
        dl.update(0b011, ll_pos)
        assert np.isfinite(dl.entropy())
        dl.unpersist()


class TestAnalyses:
    def test_top_states_match(self, ctx, prior, model):
        dl = DistributedLattice.from_prior(ctx, prior, 4)
        space = prior.build_dense()
        d_top = dl.top_states(5)
        s_top = top_states(space, 5)
        assert [m for m, _ in d_top] == [m for m, _ in s_top]
        assert np.allclose([p for _, p in d_top], [p for _, p in s_top], atol=1e-10)
        dl.unpersist()

    def test_map_state_matches(self, ctx, prior):
        dl = DistributedLattice.from_prior(ctx, prior, 4)
        assert dl.map_state() == map_state(prior.build_dense())
        dl.unpersist()

    def test_down_set_masses_match(self, ctx, prior):
        from repro.lattice.ops import down_set_mass

        dl = DistributedLattice.from_prior(ctx, prior, 4)
        space = prior.build_dense()
        pools = np.array([0b000001, 0b000111, 0b111111], dtype=np.uint64)
        expected = [down_set_mass(space, int(p)) for p in pools]
        assert np.allclose(dl.down_set_masses(pools), expected, atol=1e-10)
        dl.unpersist()

    def test_count_distribution_matches(self, ctx, prior):
        from repro.lattice.ops import pool_count_distribution

        dl = DistributedLattice.from_prior(ctx, prior, 4)
        space = prior.build_dense()
        pools = np.array([0b001011, 0b110000], dtype=np.uint64)
        hists = dl.pool_count_hists(pools)
        assert hists.shape == (2, 4)
        for row, pool in zip(hists, pools.tolist()):
            dist = pool_count_distribution(space, pool)
            assert np.allclose(row[: dist.size], dist, atol=1e-10)
            assert not row[dist.size :].any()  # columns past the pool's size stay zero
        dl.unpersist()


class TestManipulation:
    def test_condition_matches_serial(self, ctx, prior):
        from repro.lattice.ops import condition_on_classification

        dl = DistributedLattice.from_prior(ctx, prior, 4)
        space = prior.build_dense()
        dl.condition(positive_mask=0b000001, negative_mask=0b000010)
        expected = condition_on_classification(space, 0b000001, 0b000010)
        assert dl.num_states() == expected.size
        assert np.allclose(dl.marginals(), marginals(expected), atol=1e-10)
        dl.unpersist()

    def test_condition_conflict_raises(self, ctx, prior):
        dl = DistributedLattice.from_prior(ctx, prior, 2)
        with pytest.raises(ValueError):
            dl.condition(positive_mask=0b1, negative_mask=0b1)
        dl.unpersist()

    def test_prune_respects_epsilon(self, ctx):
        prior = PriorSpec.uniform(10, 0.02)
        dl = DistributedLattice.from_prior(ctx, prior, 4)
        stats = dl.prune(1e-4)
        assert stats.dropped_mass <= 1e-4 + 1e-9
        assert stats.kept_states + stats.dropped_states == 1024
        assert dl.num_states() == stats.kept_states
        dl.unpersist()

    @pytest.mark.parametrize("epsilon", [1e-9, 1e-4, 0.05, 0.5])
    @pytest.mark.parametrize("num_blocks", [1, 3, 4])
    def test_prune_kept_count_is_num_states(self, ctx, prior, model, epsilon, num_blocks):
        """The histogram's tail count is the filter's survivor count."""
        dl = DistributedLattice.from_prior(ctx, prior, num_blocks)
        for pool, outcome in [(0b000111, True), (0b011000, False), (0b100001, True)]:
            dl.update(pool, model.log_likelihood_by_count(outcome, bin(pool).count("1")))
        stats = dl.prune(epsilon)
        assert stats.kept_states == dl.num_states()
        assert stats.kept_states + stats.dropped_states == 64
        dl.unpersist()

    def test_prune_zero_epsilon_noop(self, ctx, prior):
        dl = DistributedLattice.from_prior(ctx, prior, 4)
        stats = dl.prune(0.0)
        assert stats.dropped_states == 0
        dl.unpersist()

    def test_prune_keeps_marginals_close(self, ctx):
        prior = PriorSpec.uniform(10, 0.02)
        dl = DistributedLattice.from_prior(ctx, prior, 4)
        before = dl.marginals()
        dl.prune(1e-6)
        assert np.allclose(dl.marginals(), before, atol=1e-4)
        dl.unpersist()

    def test_rebalance_preserves_distribution(self, ctx):
        prior = PriorSpec.uniform(9, 0.05)
        dl = DistributedLattice.from_prior(ctx, prior, 4)
        dl.prune(1e-5)
        before = dl.marginals()
        dl.rebalance(3)
        assert np.allclose(dl.marginals(), before, atol=1e-10)
        dl.unpersist()


class TestCheckpointing:
    def test_lineage_bounded_by_checkpoint_interval(self, serial_ctx, prior, model):
        # An engine-plane lattice: a small one on a threads context has
        # no lineage to bound.
        dl = DistributedLattice.from_prior(serial_ctx, prior, 4)
        dl.checkpoint_interval = 4
        ll = model.log_likelihood_by_count(False, 2)
        for _ in range(9):  # crosses two checkpoints
            dl.update(0b000011, ll)
        # Just after a checkpoint cycle the lineage is shallow: the rdd
        # chain cannot be deeper than 2 map nodes per un-checkpointed
        # update plus the source.
        depth = dl.rdd.debug_string().count("\n") + 1
        assert depth <= 2 * 4 + 1
        dl.unpersist()

    def test_checkpoint_preserves_distribution(self, ctx, prior, model):
        dl = DistributedLattice.from_prior(ctx, prior, 4)
        dl.checkpoint_interval = 3
        ref = prior.build_dense()
        ll = model.log_likelihood_by_count(True, 3)
        for _ in range(7):
            dl.update(0b000111, ll)
            posterior_update(ref, 0b000111, ll)
        assert np.allclose(dl.marginals(), marginals(ref), atol=1e-9)
        dl.unpersist()


class TestAcrossModes:
    def test_serial_mode_parity(self, serial_ctx, prior, model):
        dl = DistributedLattice.from_prior(serial_ctx, prior, 3)
        ll = model.log_likelihood_by_count(True, 2)
        dl.update(0b000011, ll)
        ref = posterior_update(prior.build_dense(), 0b000011, ll)
        assert np.allclose(dl.marginals(), marginals(ref), atol=1e-10)
        dl.unpersist()

    def test_process_mode_parity(self, process_ctx, prior, model):
        dl = DistributedLattice.from_prior(process_ctx, prior, 2)
        ll = model.log_likelihood_by_count(False, 3)
        dl.update(0b000111, ll)
        ref = posterior_update(prior.build_dense(), 0b000111, ll)
        assert np.allclose(dl.marginals(), marginals(ref), atol=1e-10)
        dl.unpersist()


class TestCubeBlocks:
    """Dense lattices are stored as aligned power-of-two cube blocks."""

    @pytest.mark.parametrize("asked,blocks", [(1, 1), (2, 2), (3, 2), (4, 4), (7, 4), (100, 64)])
    def test_from_prior_splits_into_power_of_two_cubes(self, ctx, prior, asked, blocks):
        dl = DistributedLattice.from_prior(ctx, prior, asked)
        parts = dl.rdd.collect()
        assert len(parts) == dl.num_blocks == blocks
        assert all(b.bits == 6 - (blocks.bit_length() - 1) for b in parts)
        assert sorted(b.base for b in parts) == list(range(0, 64, 64 // blocks))
        dl.unpersist()

    def test_from_state_space_and_rebalance_detect_cubes(self, ctx, prior, model):
        dl = DistributedLattice.from_state_space(ctx, prior.build_dense(), 3)
        assert [b.bits for b in dl.rdd.collect()] == [5, 5]
        dl.update(0b000111, model.log_likelihood_by_count(True, 3))
        dl.rebalance(4)
        assert [b.bits for b in dl.rdd.collect()] == [4, 4, 4, 4]
        dl.unpersist()

    def test_conditioned_and_pruned_blocks_are_generic(self, ctx, prior):
        dl = DistributedLattice.from_prior(ctx, prior, 2)
        dl.condition(positive_mask=0b000001)
        assert all(b.bits is None for b in dl.rdd.collect())
        dl.unpersist()
        dl = DistributedLattice.from_prior(ctx, PriorSpec.uniform(10, 0.02), 2)
        assert dl.prune(1e-4).dropped_states > 0
        assert all(b.bits is None for b in dl.rdd.collect())
        dl.unpersist()

    def test_restricted_prior_blocks_are_generic(self, ctx):
        dl = DistributedLattice.from_restricted_prior(ctx, PriorSpec.uniform(12, 0.03), 3, 4)
        assert all(b.bits is None for b in dl.rdd.collect() if b.size > 1)
        dl.unpersist()

    def test_project_out_bit_keeps_cubes(self, ctx, prior):
        from repro.lattice.ops import project_out_bit

        dl = DistributedLattice.from_prior(ctx, prior, 4)
        space = prior.build_dense()
        for bit, keep_positive in [(1, False), (4, True), (0, False)]:
            dl.project_out_bit(bit, keep_positive)
            space = project_out_bit(space, bit, keep_positive)
            assert all(b.bits is not None for b in dl.rdd.collect() if b.size)
            assert np.allclose(dl.marginals(), marginals(space), atol=1e-10)
        dl.unpersist()


class TestMarginalsAfterMutations:
    """Marginals follow every mutation, cube blocks or not."""

    def test_condition_project_prune_rebalance(self, ctx, prior):
        from repro.lattice.ops import condition_on_classification, project_out_bit

        space = prior.build_dense()
        dl = DistributedLattice.from_prior(ctx, prior, 4)
        stale = dl.marginals()

        dl.condition(negative_mask=0b000100)
        space = condition_on_classification(space, 0, 0b000100)
        assert not np.allclose(dl.marginals(), stale)
        assert np.allclose(dl.marginals(), marginals(space), atol=1e-10)

        dl.project_out_bit(0, True)
        space = project_out_bit(space, 0, True)
        assert dl.marginals().shape == (5,)
        assert np.allclose(dl.marginals(), marginals(space), atol=1e-10)

        before = dl.marginals()
        assert dl.prune(0.05).dropped_states > 0
        after = dl.marginals()
        assert not np.array_equal(after, before)
        assert np.allclose(after, marginals(dl.collect()), atol=1e-10)

        dl.rebalance(2)  # same distribution
        assert np.allclose(dl.marginals(), after, atol=1e-12)
        dl.unpersist()

    def test_failed_update_keeps_state(self, ctx, prior):
        dl = DistributedLattice.from_prior(ctx, prior, 2)
        before = dl.marginals()
        with pytest.raises(ValueError):
            dl.update(0b000011, np.full(3, -np.inf))
        assert np.array_equal(dl.marginals(), before)
        dl.unpersist()


class TestServedMarginals:
    """The normalising aggregation leaves the marginals at the driver."""

    def test_dense_lattice_serves_marginals_without_a_job(self, serial_ctx, jobs, prior, model):
        dl = DistributedLattice.from_prior(serial_ctx, prior, 4)
        assert jobs() == 1  # build + normalise + marginals
        assert np.allclose(dl.marginals(), prior.risks, atol=1e-12)
        assert jobs() == 0
        dl.unpersist()

    def test_update_serves_the_next_reads(self, serial_ctx, jobs, prior, model):
        dl = DistributedLattice.from_prior(serial_ctx, prior, 4)
        jobs()
        for pool, outcome in [(0b000111, True), (0b111000, False)]:
            dl.update(pool, model.log_likelihood_by_count(outcome, 3))
            assert jobs() == 1  # update + normalise + marginals
            first = dl.marginals()
            assert np.array_equal(dl.marginals(), first)
            assert jobs() == 0
            assert np.allclose(first, marginals(dl.collect()), atol=1e-12)
            jobs()
        dl.unpersist()

    def test_returned_array_is_a_copy(self, serial_ctx, prior):
        dl = DistributedLattice.from_prior(serial_ctx, prior, 2)
        first = dl.marginals()
        first[:] = 7.0
        assert np.allclose(dl.marginals(), prior.risks, atol=1e-12)
        dl.unpersist()

    def test_mutators_run_one_job_and_refresh_the_marginals(self, serial_ctx, jobs, prior):
        from repro.lattice.ops import condition_on_classification, project_out_bit

        space = prior.build_dense()
        dl = DistributedLattice.from_prior(serial_ctx, prior, 4)
        jobs()
        dl.project_out_bit(4, True)  # blocks stay cubes: marginals come with the job
        space = project_out_bit(space, 4, True)
        assert jobs() == 1
        assert np.allclose(dl.marginals(), marginals(space), atol=1e-12)
        assert jobs() == 0

        dl.condition(negative_mask=0b00010)  # generic blocks: mass now, marginals when asked
        space = condition_on_classification(space, 0, 0b00010)
        assert jobs() == 1
        assert np.allclose(dl.marginals(), marginals(space), atol=1e-12)
        assert jobs() == 1
        dl.marginals()
        assert jobs() == 0
        dl.unpersist()

    def test_prune_invalidates(self, serial_ctx, jobs):
        dl = DistributedLattice.from_prior(serial_ctx, PriorSpec.uniform(10, 0.02), 2)
        before = dl.marginals()
        assert dl.prune(0.05).dropped_states > 0
        jobs()
        after = dl.marginals()
        assert jobs() == 1
        assert not np.array_equal(after, before)
        assert np.allclose(after, marginals(dl.collect()), atol=1e-12)
        dl.unpersist()

    def test_contradiction_leaves_the_lattice_as_it_was(self, serial_ctx, prior):
        dl = DistributedLattice.from_prior(serial_ctx, prior, 2)
        dl.update(0b000011, np.array([0.0, -np.inf, -np.inf]))  # both certainly negative
        before, rdd = dl.marginals(), dl.rdd
        with pytest.raises(ValueError):
            dl.condition(positive_mask=0b000001)
        assert dl.rdd is rdd
        assert np.array_equal(dl.marginals(), before)
        assert dl.num_states() == 64
        dl.unpersist()

    def test_certain_positive_never_exceeds_one(self, serial_ctx):
        # Upper-half mass and total mass are the same weights summed in
        # two orders; the served ratio must not round past 1.
        rng = np.random.default_rng(0)
        from repro.lattice.states import StateSpace

        for _ in range(40):
            n = int(rng.integers(3, 10))
            bit = int(rng.integers(0, n - 1))  # a free bit of both blocks
            log_probs = rng.normal(-5.0, 3.0, 1 << n)
            masks = np.arange(1 << n, dtype=np.uint64)
            log_probs[(masks >> np.uint64(bit)) & np.uint64(1) == 0] = -np.inf
            dl = DistributedLattice.from_state_space(serial_ctx, StateSpace(n, masks, log_probs), 2)
            served = dl.marginals()
            assert served.max() <= 1.0 and served[bit] == pytest.approx(1.0, abs=1e-14)
            dl.unpersist()

    def test_rebalance_keeps_the_served_marginals(self, serial_ctx, jobs, prior, model):
        dl = DistributedLattice.from_prior(serial_ctx, prior, 4)
        dl.update(0b000111, model.log_likelihood_by_count(True, 3))
        before = dl.marginals()
        dl.rebalance(2)
        jobs()
        assert np.array_equal(dl.marginals(), before)
        assert jobs() == 0
        assert np.allclose(before, marginals(dl.collect()), atol=1e-12)
        dl.unpersist()


class TestRebalanceBySlicing:
    @pytest.mark.parametrize("num_blocks", [1, 2, 4])
    def test_cube_lattice_recut_equals_the_collect_path(self, ctx, prior, model, num_blocks):
        dl = DistributedLattice.from_prior(ctx, prior, 4)
        dl.update(0b000111, model.log_likelihood_by_count(True, 3))
        dl.project_out_bit(5, False)  # leaves empty blocks behind and a non-zero offset
        want = partition_state_space(dl.collect(), (1 << 5) // num_blocks)
        dl.rebalance(num_blocks)
        got = dl.rdd.collect()
        assert dl.log_offset == 0.0
        assert len(got) == len(want) == num_blocks
        for g, w in zip(got, want):
            assert (g.n_items, g.base, g.bits) == (w.n_items, w.base, w.bits) and g.bits is not None
            assert np.array_equal(g.log_probs, w.log_probs)
            assert g._masks is None  # cut by slicing: no mask array was ever built
        dl.unpersist()

    def test_cubes_that_do_not_tile_the_lattice_take_the_collect_path(self, ctx, prior):
        dl = DistributedLattice.from_prior(ctx, prior, 4)
        dl.condition(positive_mask=0b100000)  # survivors: two whole blocks, still cubes
        assert [b.bits for b in dl.rdd.collect() if b.size] == [4, 4]
        want = dl.collect()
        dl.rebalance(2)
        got = dl.collect()
        assert np.array_equal(got.masks, want.masks)
        assert np.allclose(got.log_probs, want.log_probs, atol=1e-12)
        dl.unpersist()


class TestScreenPayloadParity:
    """Cohort-12 screens decide identically however the lattice is executed
    or split."""

    BODIES = [{"cohort": 12, "prevalence": 0.05, "seed": seed} for seed in (1, 5, 16, 60)]

    @staticmethod
    def run(context, body, num_blocks=0):
        from repro.sbgt.session import SBGTSession
        from repro.serve.protocol import ScreenRequest
        from repro.workflows.payloads import dump_payload, screen_payload

        req = ScreenRequest.from_payload(body)
        prior, model, policy, config = req.build()
        session = SBGTSession(context, prior, model, config.with_(num_blocks=num_blocks))
        try:
            result = session.run_screen(policy, rng=req.seed)
        finally:
            session.close()
        return dump_payload(screen_payload(result, request=req.canonical()))

    @pytest.mark.parametrize("num_blocks", [1, 2, 4])
    @pytest.mark.parametrize("body", BODIES, ids=lambda b: f"seed{b['seed']}")
    def test_byte_identical_across_executor_modes(
        self, ctx, serial_ctx, process_ctx, body, num_blocks
    ):
        texts = {self.run(c, body, num_blocks) for c in (ctx, serial_ctx, process_ctx)}
        assert len(texts) == 1

    @pytest.mark.parametrize("body", BODIES, ids=lambda b: f"seed{b['seed']}")
    def test_same_decisions_across_block_counts(self, serial_ctx, body):
        import json

        payloads = [json.loads(self.run(serial_ctx, body, nb)) for nb in (1, 2, 4)]
        marginals_ = [p["classification"].pop("marginals") for p in payloads]
        assert payloads[0] == payloads[1] == payloads[2]  # statuses, tests, stages, summary
        assert payloads[0]["summary"]["tests"] >= 1
        # Summation order differs with the split, so marginals agree to
        # rounding, not to the bit.
        for other in marginals_[1:]:
            assert np.allclose(other, marginals_[0], rtol=0.0, atol=1e-12)
