"""Site beliefs and the learned Beta hyperprior."""

import pytest

from repro.surveil.beliefs import BetaHyperprior, SiteBelief, learn_hyperprior


class TestBetaHyperprior:
    def test_mean_and_pseudo_count(self):
        h = BetaHyperprior(alpha=2.0, beta=18.0)
        assert h.mean == pytest.approx(0.1)
        assert h.alpha + h.beta == pytest.approx(20.0)

    def test_default_is_low_prevalence(self):
        h = BetaHyperprior()
        assert 0.0 < h.mean < 0.1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            BetaHyperprior(alpha=0.0)
        with pytest.raises(ValueError):
            BetaHyperprior(beta=-1.0)


class TestSiteBelief:
    def test_posterior_is_conjugate_update(self):
        b = SiteBelief()
        b.observe(cases=3, screened=10)
        hyper = BetaHyperprior(alpha=1.0, beta=30.0)
        alpha, beta = b.posterior(hyper)
        assert alpha == pytest.approx(1.0 + 3)
        assert beta == pytest.approx(30.0 + 7)

    def test_observations_accumulate(self):
        b = SiteBelief()
        b.observe(1, 10)
        b.observe(2, 10)
        assert (b.cases, b.screened) == (3, 20)

    def test_mean_moves_toward_evidence(self):
        hyper = BetaHyperprior()
        hot, cold = SiteBelief(), SiteBelief()
        hot.observe(8, 20)
        cold.observe(0, 20)
        assert hot.mean(hyper) > hyper.mean > cold.mean(hyper)

    def test_rejects_invalid_outcomes(self):
        b = SiteBelief()
        with pytest.raises(ValueError):
            b.observe(cases=5, screened=3)
        with pytest.raises(ValueError):
            b.observe(cases=1, screened=-1)


class TestLearnHyperprior:
    def test_fewer_than_two_observed_sites_keeps_default(self):
        default = BetaHyperprior(alpha=2.0, beta=40.0)
        one = SiteBelief()
        one.observe(1, 10)
        assert learn_hyperprior([one, SiteBelief()], default) is default
        assert learn_hyperprior([], default) is default

    def test_fit_tracks_fleet_mean(self):
        beliefs = []
        for cases in (0, 1, 2, 4, 6):
            b = SiteBelief()
            b.observe(cases, 40)
            beliefs.append(b)
        fitted = learn_hyperprior(beliefs)
        rates = [(b.cases + 0.5) / (b.screened + 1.0) for b in beliefs]
        assert fitted.mean == pytest.approx(sum(rates) / len(rates), rel=1e-6)

    def test_heterogeneous_fleet_learns_diffuse_prior(self):
        homogeneous, heterogeneous = [], []
        for cases in (2, 2, 3, 2, 3):
            b = SiteBelief()
            b.observe(cases, 50)
            homogeneous.append(b)
        for cases in (0, 0, 1, 6, 14):
            b = SiteBelief()
            b.observe(cases, 50)
            heterogeneous.append(b)
        tight = learn_hyperprior(homogeneous)
        loose = learn_hyperprior(heterogeneous)
        assert tight.alpha + tight.beta > loose.alpha + loose.beta

    def test_pseudo_count_clamped(self):
        near_identical = []
        for cases in (3, 3, 3, 3, 4):
            b = SiteBelief()
            b.observe(cases, 1000)
            near_identical.append(b)
        fitted = learn_hyperprior(near_identical, max_pseudo=200.0)
        assert fitted.alpha + fitted.beta == pytest.approx(200.0)

    def test_degenerate_variance_keeps_default(self):
        default = BetaHyperprior()
        same = []
        for _ in range(4):
            b = SiteBelief()
            b.observe(2, 40)
            same.append(b)
        assert learn_hyperprior(same, default) is default
