"""The exact belief state: sequential updates, classification, the dict oracle.

The belief state is a context-free :class:`SBGTSession`, whose dense
lattice is one driver-resident block (:class:`DistributedLattice` on
its driver plane).
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baseline.pydict import PyDictPosterior
from repro.bayes.dilution import (
    BinaryErrorModel,
    DilutionErrorModel,
    PerfectTest,
    ResponseModel,
)
from repro.bayes.posterior import Classification, Posterior, classify_marginals
from repro.bayes.priors import PriorSpec
from repro.lattice import ops as lops
from repro.sbgt import distributed_lattice
from repro.sbgt.config import SBGTConfig
from repro.sbgt.session import SBGTSession


def session(prior, model, **config):
    return SBGTSession(None, prior, model, SBGTConfig(**config))


def test_from_prior_builds_a_context_free_dense_session():
    post = Posterior.from_prior(PriorSpec.uniform(5, 0.1), PerfectTest())
    assert isinstance(post, SBGTSession) and post.ctx is None
    assert isinstance(post.lattice, distributed_lattice.DistributedLattice) and post.lattice.exact
    np.testing.assert_allclose(post.marginals(), [0.1] * 5, rtol=0, atol=1e-12)


class TestUpdates:
    def test_negative_pool_clears_members(self):
        post = SBGTSession(None, PriorSpec.uniform(6, 0.1), PerfectTest())
        post.update([0, 1, 2], False)
        m = post.marginals()
        assert np.allclose(m[:3], 0.0, atol=1e-12)
        assert np.allclose(m[3:], 0.1, atol=1e-10)

    def test_positive_pool_raises_members(self):
        post = SBGTSession(None, PriorSpec.uniform(6, 0.1), PerfectTest())
        before = post.marginals()[0]
        post.update([0, 1], True)
        assert post.marginals()[0] > before

    def test_individual_positive_test_settles(self):
        post = SBGTSession(None, PriorSpec.uniform(4, 0.1), PerfectTest())
        post.update([2], True)
        assert post.marginals()[2] == pytest.approx(1.0)

    def test_pool_accepts_mask_or_indices(self):
        p1 = SBGTSession(None, PriorSpec.uniform(4, 0.2), PerfectTest())
        p2 = SBGTSession(None, PriorSpec.uniform(4, 0.2), PerfectTest())
        p1.update([0, 2], False)
        p2.update(0b0101, False)
        assert np.allclose(p1.marginals(), p2.marginals())

    def test_empty_pool_raises(self):
        post = SBGTSession(None, PriorSpec.uniform(3, 0.1), PerfectTest())
        with pytest.raises(ValueError):
            post.update(0, False)

    def test_num_tests_counted(self):
        post = SBGTSession(None, PriorSpec.uniform(3, 0.1), BinaryErrorModel())
        post.update([0], False)
        post.update([1], False)
        assert post.num_tests == 2

    def test_repeated_noisy_tests_converge(self):
        model = BinaryErrorModel(0.9, 0.9)
        post = SBGTSession(None, PriorSpec.uniform(3, 0.3), model)
        for _ in range(10):
            post.update([0], True)
        assert post.marginals()[0] > 0.99


class TestAgainstPyDictOracle:
    """The vectorised posterior must agree with the per-state dict oracle."""

    @pytest.mark.parametrize(
        "model",
        [
            PerfectTest(),
            BinaryErrorModel(0.95, 0.98),
            DilutionErrorModel(0.97, 0.99, 0.5),
        ],
        ids=["perfect", "binary", "dilution"],
    )
    def test_marginals_match_after_test_sequence(self, model):
        risks = [0.05, 0.15, 0.3, 0.08, 0.2]
        fast = SBGTSession(None, PriorSpec(np.array(risks)), model)
        oracle = PyDictPosterior(risks, model)
        sequence = [([0, 1, 2], True), ([0], False), ([3, 4], False), ([1, 2], True), ([1], True)]
        for pool, outcome in sequence:
            fast.update(pool, outcome)
            oracle.update(pool, outcome)
            assert np.allclose(fast.marginals(), oracle.marginals(), atol=1e-9)

    def test_entropy_matches(self):
        risks = [0.1, 0.25, 0.4]
        model = BinaryErrorModel(0.9, 0.95)
        fast = SBGTSession(None, PriorSpec(np.array(risks)), model)
        oracle = PyDictPosterior(risks, model)
        fast.update([0, 1], True)
        oracle.update([0, 1], True)
        assert fast.entropy() == pytest.approx(oracle.lattice.entropy(), abs=1e-9)

    def test_map_state_matches(self):
        risks = [0.05, 0.4, 0.2, 0.1]
        model = DilutionErrorModel(0.95, 0.99, 0.3)
        fast = SBGTSession(None, PriorSpec(np.array(risks)), model)
        oracle = PyDictPosterior(risks, model)
        for pool, outcome in [([1, 2], True), ([0, 3], False)]:
            fast.update(pool, outcome)
            oracle.update(pool, outcome)
        assert fast.map_state() == oracle.lattice.map_state()


class TestClassification:
    def test_thresholds(self):
        post = SBGTSession(None, PriorSpec.uniform(4, 0.1), PerfectTest())
        post.update([0], True)
        post.update([1], False)
        report = post.classify()
        assert report.statuses[0] is Classification.POSITIVE
        assert report.statuses[1] is Classification.NEGATIVE
        assert report.statuses[2] is Classification.UNDETERMINED

    def test_report_index_lists(self):
        post = SBGTSession(None, PriorSpec.uniform(3, 0.1), PerfectTest())
        post.update([0], True)
        post.update([1], False)
        post.update([2], False)
        report = post.classify()
        assert report.positives() == [0]
        assert report.negatives() == [1, 2]
        assert report.all_classified

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            SBGTSession(
                None, PriorSpec.uniform(2, 0.1), PerfectTest(),
                SBGTConfig(positive_threshold=0.5, negative_threshold=0.6),
            )

    def test_n_classified(self):
        post = SBGTSession(None, PriorSpec.uniform(4, 0.3), PerfectTest())
        report = post.classify()
        assert report.n_classified == 0
        assert not report.all_classified


class TestThresholdEdge:
    """A marginal mathematically *at* a threshold is UNDETERMINED however
    its last bit was rounded — the one rule every surface shares."""

    @pytest.mark.parametrize("neg", [0.01, 0.05, 0.3])
    def test_negative_threshold_plus_minus_one_ulp(self, neg):
        edge = [np.nextafter(neg, 0.0), neg, np.nextafter(neg, 1.0)]
        assert classify_marginals(edge, 0.99, neg) == (Classification.UNDETERMINED,) * 3
        assert classify_marginals([neg * (1 - 1e-6)], 0.99, neg) == (Classification.NEGATIVE,)

    @pytest.mark.parametrize("pos", [0.99, 0.95, 0.7])
    def test_positive_threshold_plus_minus_one_ulp(self, pos):
        edge = [np.nextafter(pos, 0.0), pos, np.nextafter(pos, 1.0)]
        assert classify_marginals(edge, pos, 0.01) == (Classification.UNDETERMINED,) * 3
        assert classify_marginals([1 - (1 - pos) * (1 - 1e-6)], pos, 0.01) == (
            Classification.POSITIVE,
        )

    def test_thresholds_of_exactly_zero_and_one(self):
        statuses = classify_marginals([0.0, 5e-324, 0.5, np.nextafter(1.0, 0.0), 1.0], 1.0, 0.0)
        assert statuses == (
            Classification.NEGATIVE,
            Classification.UNDETERMINED,
            Classification.UNDETERMINED,
            Classification.UNDETERMINED,
            Classification.POSITIVE,
        )

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            classify_marginals([0.5], 0.4, 0.6)

    def test_uniform_prior_at_the_threshold_is_tested_not_cleared(self):
        """Prevalence 0.01 against the default negative threshold 0.01:
        serial, dict-oracle and summation-order variants all agree."""
        prior = PriorSpec.uniform(10, 0.01)
        post = SBGTSession(None, prior, PerfectTest())
        assert post.classify().n_classified == 0
        assert PyDictPosterior([0.01] * 6, PerfectTest()).classify() == ["undetermined"] * 6
        for m in (0.010000000000000002, 0.009999999999999992):
            assert classify_marginals([m], 0.99, 0.01) == (Classification.UNDETERMINED,)


class TestEvidence:
    def test_log_predictive_of_certain_outcome(self):
        # Pool of all with perfect test: P(negative) = prod(1 - risk)
        post = SBGTSession(None, PriorSpec.uniform(4, 0.1), PerfectTest())
        rec = post.update([0, 1, 2, 3], False)
        assert rec.log_predictive == pytest.approx(4 * math.log(0.9), abs=1e-9)

    def test_log_evidence_accumulates(self):
        post = SBGTSession(None, PriorSpec.uniform(3, 0.2), BinaryErrorModel())
        post.update([0], False)
        post.update([1], False)
        assert post.log.log_evidence == pytest.approx(
            sum(r.log_predictive for r in post.log.records)
        )

    def test_entropy_tracking(self):
        post = session(PriorSpec.uniform(3, 0.2), PerfectTest(), track_entropy=True)
        rec = post.update([0, 1, 2], False)
        assert rec.entropy_before is not None
        assert rec.entropy_after is not None
        assert rec.information_gain > 0

    def test_entropy_not_tracked_by_default(self):
        post = SBGTSession(None, PriorSpec.uniform(3, 0.2), PerfectTest())
        rec = post.update([0], False)
        assert rec.entropy_before is None
        assert rec.information_gain is None

    def test_prune_keeps_marginals_close(self):
        post = session(PriorSpec.uniform(8, 0.05), BinaryErrorModel(), prune_epsilon=1e-6)
        post.update([0, 1, 2, 3], False)
        before = post.marginals()
        assert post.prune().dropped_states > 0
        assert np.allclose(post.marginals(), before, atol=1e-4)

    def test_stage_counter(self):
        post = SBGTSession(None, PriorSpec.uniform(2, 0.1), PerfectTest())
        assert post.begin_stage() == 1
        post.update([0], False)
        assert post.log.records[-1].stage == 1


class _Noiseless(ResponseModel):
    """Positive iff the pool holds a positive, with a true −inf for the
    impossible outcome (the built-in models floor it at −700)."""

    def log_likelihood_by_count(self, outcome, pool_size):
        hit = np.arange(pool_size + 1) > 0
        return np.where(hit == bool(outcome), 0.0, -np.inf)


class _ShortTable(PerfectTest):
    """A model whose table stops one short of ``k = pool_size``."""

    def log_likelihood_by_count(self, outcome, pool_size):
        return super().log_likelihood_by_count(outcome, pool_size)[:-1]


class TestUpdateIsAtomic:
    def test_zero_probability_outcome_leaves_posterior_intact(self):
        post = SBGTSession(None, PriorSpec.uniform(4, 0.1), _Noiseless())
        post.update([0, 1], False)
        space = post.lattice.collect()
        marginals, evidence = post.marginals(), post.log.log_evidence
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="zero probability under the model"):
                post.update([0], True)  # individual 0 was just cleared
            assert np.array_equal(post.marginals(), marginals)
        after = post.lattice.collect()
        assert np.array_equal(after.masks, space.masks)
        assert np.array_equal(after.log_probs, space.log_probs)
        assert post.num_tests == 1 and post.log.log_evidence == evidence
        post.update([2], True)
        assert post.num_tests == 2
        assert post.marginals() == pytest.approx([0.0, 0.0, 1.0, 0.1], abs=1e-12)

    def test_short_likelihood_table_raises_value_error(self):
        post = SBGTSession(None, PriorSpec.uniform(3, 0.2), _ShortTable())
        before = post.marginals()
        with pytest.raises(ValueError, match="log_lik_by_count has 2 entries"):
            post.update([0, 1], True)
        assert post.num_tests == 0
        assert np.array_equal(post.marginals(), before)


@pytest.fixture
def sweeps(monkeypatch):
    """Marginal kernel calls since the last read of the counter.

    Both kernels that fold marginals count: the constructors' and
    mutators' ``block_mass_marginals`` and the update's
    ``block_summed_mass_marginals`` (unless it sums the mass alone).
    """
    calls = []
    kernel = distributed_lattice.block_mass_marginals
    update_kernel = distributed_lattice.block_summed_mass_marginals

    def counting(block, need_marginals=False):
        mass, marginals = kernel(block, need_marginals)
        if marginals is not None:  # a generic block may report its mass alone
            calls.append(block)
        return mass, marginals

    def counting_update(block, need_marginals=True):
        if need_marginals:
            calls.append(block)
        return update_kernel(block, need_marginals)

    monkeypatch.setattr(distributed_lattice, "block_mass_marginals", counting)
    monkeypatch.setattr(distributed_lattice, "block_summed_mass_marginals", counting_update)

    def taken():
        n = len(calls)
        calls.clear()
        return n

    return taken


def reference_marginals(post):
    """The per-bit ``lattice.ops`` sweep over the collected lattice."""
    return lops.marginals(post.lattice.collect())


class TestServedMarginals:
    """One marginal kernel per lattice state, however many readers ask."""

    @staticmethod
    def posterior(n=5, **config):
        return session(PriorSpec.uniform(n, 0.2), BinaryErrorModel(0.95, 0.98), **config)

    def test_reads_between_mutations_cost_one_sweep(self, sweeps):
        post = self.posterior()
        first = post.marginals()
        report = post.classify()
        again = post.marginals()
        assert sweeps() == 1
        assert np.array_equal(first, again) and np.array_equal(first, report.marginals)

    def test_each_read_returns_its_own_array(self, sweeps):
        post = self.posterior()
        first, report = post.marginals(), post.classify()
        expected = first.copy()
        first[:] = -1.0
        assert np.array_equal(report.marginals, expected)
        report.marginals[:] = -2.0
        assert np.array_equal(post.marginals(), expected)
        assert sweeps() == 1
        post.settle(1, True)  # the expanded (original-index) read too
        full = post.marginals()
        full[:] = -3.0
        assert post.marginals()[1] == 1.0 and post.marginals()[0] == pytest.approx(0.2)

    def test_update_invalidates(self, sweeps):
        post = self.posterior()
        before = post.marginals()
        assert sweeps() == 1  # the prior's
        post.update([0, 1], True)
        assert sweeps() == 1  # the update's own aggregate
        after = post.marginals()
        assert sweeps() == 0
        assert after[0] > before[0]

    def test_prune_invalidates(self, sweeps):
        post = self.posterior(prune_epsilon=0.01)
        post.update([0, 1, 2], False)
        assert sweeps() == 2  # the prior's and the update's
        before = post.marginals()
        assert sweeps() == 0
        assert post.prune().dropped_states > 0
        after = post.marginals()
        assert sweeps() == 1
        assert not np.array_equal(after, before)
        np.testing.assert_allclose(after, reference_marginals(post), rtol=0, atol=1e-12)

    def test_settle_invalidates_and_reads_stay_exact(self, sweeps):
        post = self.posterior(3)
        post.marginals()
        post.settle(1, True)
        m = post.marginals()
        assert sweeps() == 2
        assert m[1] == 1.0 and m[0] == pytest.approx(0.2) and m[2] == pytest.approx(0.2)
        post.settle(0, False)
        assert post.marginals().tolist() == [0.0, 1.0, pytest.approx(0.2)]
        assert sweeps() == 1
        # The last live bit is not projected out: the lattice is as it
        # was, and the read still reports the committed call exactly.
        post.settle(2, False)
        assert post.marginals().tolist() == [0.0, 1.0, 0.0]
        assert post.classify().all_classified
        assert sweeps() == 0

    @settings(max_examples=25, deadline=None)
    @given(
        seq=st.lists(
            st.tuples(st.integers(1, 31), st.booleans()), min_size=1, max_size=6
        )
    )
    def test_served_marginals_are_the_kernels(self, seq):
        post = self.posterior()
        for pool, outcome in seq:
            post.update(pool, outcome)
            served = post.marginals()
            assert np.array_equal(post.classify().marginals, served)
            np.testing.assert_allclose(served, reference_marginals(post), rtol=0, atol=1e-12)
