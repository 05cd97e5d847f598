"""The campaign round loop: determinism, events, engine parity, backends."""

import hashlib
from contextlib import nullcontext

import numpy as np
import pytest

from repro.engine import Context
from repro.engine.listener import EventBus
from repro.obs.flight import FlightRecorder
from repro.serve.protocol import SurveilRequest
from repro.surveil import (
    Campaign,
    CampaignConfig,
    SiteScreenJob,
    heterogeneous_fleet,
    make_fleet,
    run_site_screen,
    site_screen_seed,
)
from repro.workflows.payloads import dump_payload


def small_campaign(allocator="thompson", backend="dense", rounds=3, bus=None, ctx=None):
    fleet = heterogeneous_fleet(4, cohort_size=6, seed=2)
    config = CampaignConfig(rounds=rounds, budget=3, allocator=allocator,
                            backend=backend, max_stages=30, seed=5)
    return Campaign(fleet, config, ctx=ctx, bus=bus)


class TestSeeding:
    def test_seed_helper_is_deterministic_and_distinct(self):
        seeds = {
            site_screen_seed(0, r, k, j)
            for r in range(4) for k in range(4) for j in range(3)
        }
        assert len(seeds) == 48  # no collisions across rounds/sites/draws
        assert site_screen_seed(0, 1, 2, 0) == site_screen_seed(0, 1, 2, 0)
        assert site_screen_seed(0, 1, 2, 0) != site_screen_seed(1, 1, 2, 0)

    def test_run_site_screen_replays_from_job(self):
        spec = heterogeneous_fleet(3, cohort_size=6, seed=0)[1]
        job = SiteScreenJob(spec=spec, round_index=2, site_index=1, draw=0,
                            seed=site_screen_seed(9, 2, 1, 0), max_stages=30)
        a, b = run_site_screen(job), run_site_screen(job)
        assert a == b
        assert a.n_screened == 6
        assert 0 <= a.cases_found <= a.true_positives <= 6


class TestRoundLoop:
    def test_rounds_accumulate_and_finish(self):
        campaign = small_campaign(rounds=2)
        assert not campaign.finished and campaign.round_index == 0
        first = campaign.run_round()
        assert first.index == 0 and sum(first.allocations) == 3
        campaign.run_round()
        assert campaign.finished
        with pytest.raises(RuntimeError):
            campaign.run_round()

    def test_run_is_deterministic(self):
        a = small_campaign().run()
        b = small_campaign().run()
        assert a.summary() == b.summary()
        assert a.round_rows() == b.round_rows()
        assert a.sites == b.sites

    @pytest.mark.parametrize("allocator", ["uniform", "greedy"])
    def test_baseline_allocators_run(self, allocator):
        result = small_campaign(allocator=allocator).run()
        assert result.total_screens == 9

    def test_beliefs_fold_into_sites(self):
        campaign = small_campaign()
        result = campaign.run()
        assert sum(s["screens"] for s in result.sites) == result.total_screens
        assert sum(s["cases"] for s in result.sites) == result.total_cases
        screened = sum(st.belief.screened for st in campaign.states)
        assert screened == 6 * result.total_screens

    def test_hyperprior_learns_once_enough_sites_observed(self):
        campaign = small_campaign(rounds=4)
        default = campaign.hyperprior
        campaign.run()
        assert campaign.hyperprior != default

    def test_learn_hyperprior_can_be_disabled(self):
        fleet = heterogeneous_fleet(4, cohort_size=6, seed=2)
        config = CampaignConfig(rounds=3, budget=3, seed=5, max_stages=30,
                                learn_hyperprior=False)
        campaign = Campaign(fleet, config)
        default = campaign.hyperprior
        campaign.run()
        assert campaign.hyperprior == default

    def test_snapshot_shape(self):
        campaign = small_campaign()
        campaign.run_round()
        doc = campaign.snapshot()
        assert doc["next_round"] == 1 and not doc["finished"]
        assert len(doc["rounds"]) == 1
        assert "wall_s" not in doc["rounds"][0]
        assert {s["name"] for s in doc["sites"]} == {f"site-{k:02d}" for k in range(4)}

    def test_household_fleet_requires_dense(self):
        fleet = make_fleet("household", 2, cohort_size=6)
        with pytest.raises(ValueError):
            Campaign(fleet, CampaignConfig(backend="sparse"))
        Campaign(fleet, CampaignConfig())  # dense is fine


class TestEngineParity:
    def test_parallel_matches_serial(self):
        serial = small_campaign().run()
        with Context(mode="threads", parallelism=3) as ctx:
            parallel = small_campaign(ctx=ctx).run()
        assert parallel.summary() == serial.summary()
        assert parallel.round_rows() == serial.round_rows()
        assert parallel.sites == serial.sites


#: sha256 of the full campaign payload, taken before the serial
#: posterior left scipy's ``logsumexp`` and began serving one marginal
#: sweep per stage (PR 21) and unchanged by it: the site screens' pools,
#: outcomes and calls are the same to the byte.
_BENCH = {"sites": 12, "cohort": 10, "rounds": 12, "budget": 6, "allocator": "thompson"}
PINNED_PAYLOADS = [
    ({**_BENCH, "seed": 0}, "61c8fdb470a5d1c5d952b52792a03e3d8f90b76719880eac0ee1db0854bb54c2"),
    ({**_BENCH, "seed": 1}, "000c52c8a56f54ceae714dd881ba772c3b7e10d0ed8c2f43f627836804052048"),
    ({**_BENCH, "seed": 2}, "cb7a9acfd6adafb5d1003177dcea0e88bb22f6c55ad6e96ce0b6aff405260347"),
    # correlated prior: HouseholdPrior.build_dense -> run_screen_from_space
    (
        {"sites": 4, "cohort": 9, "rounds": 4, "budget": 3, "allocator": "thompson",
         "fleet": "household", "seed": 0},
        "23f91955087ec6590b4a52138701c1974dd077ecd5473584f4ebe64697638dc9",
    ),
]


@pytest.mark.parametrize("mode", [None, "threads", "processes"])
def test_campaign_payload_is_pinned(mode):
    with Context(mode=mode, parallelism=2) if mode else nullcontext() as ctx:
        found = [
            hashlib.sha256(
                dump_payload(SurveilRequest.from_payload(body).execute(ctx)).encode()
            ).hexdigest()
            for body, _ in PINNED_PAYLOADS
        ]
    assert found == [pinned for _, pinned in PINNED_PAYLOADS]


class TestBackends:
    @pytest.mark.parametrize("backend", ["sparse", "particle"])
    def test_approximate_backends_run(self, backend):
        result = small_campaign(backend=backend, rounds=2).run()
        assert result.total_screens == 6
        assert result.summary()["backend"] == backend

    def test_household_campaign_runs_dense(self):
        fleet = make_fleet("household", 2, cohort_size=6)
        config = CampaignConfig(rounds=2, budget=2, seed=1, max_stages=30)
        result = Campaign(fleet, config).run()
        assert result.total_screens == 4


class TestEvents:
    def test_round_posts_full_event_sequence(self):
        bus = EventBus()
        recorder = bus.register(FlightRecorder())
        campaign = small_campaign(bus=bus)
        campaign.run_round()
        kinds = [e["kind"] for e in recorder.events()]
        assert kinds[0] == "surveil_round_start"
        assert kinds[1] == "surveil_budget_allocated"
        assert kinds[-1] == "surveil_round_end"
        assert kinds.count("surveil_site_screened") == 3

    def test_events_carry_trace_and_phase(self):
        bus = EventBus()
        recorder = bus.register(FlightRecorder())
        small_campaign(bus=bus, rounds=2).run()
        events = recorder.events()
        assert events
        assert all(e["trace_id"] for e in events)
        assert all(e["span_id"] for e in events)
        assert all(e["phase"] == "surveil" for e in events)
        # run() wraps every round in one campaign-wide trace scope
        assert len({e["trace_id"] for e in events}) == 1
        starts = [e for e in events if e["kind"] == "surveil_round_start"]
        assert [e["round_index"] for e in starts] == [0, 1]

    def test_engine_context_bus_receives_campaign_events(self):
        with Context(mode="serial", parallelism=2) as ctx:
            small_campaign(ctx=ctx, rounds=2).run()
            recorder = ctx.flight_recorder
            kinds = {e["kind"] for e in recorder.events(limit=recorder.capacity)}
        assert "surveil_round_start" in kinds
        assert "job_start" in kinds  # screens really ran through the engine

    def test_chrome_export_renders_surveil_events(self):
        from repro.obs import chrome_trace, validate_chrome_trace

        bus = EventBus()
        recorder = bus.register(FlightRecorder())
        small_campaign(bus=bus).run()
        doc = chrome_trace(recorder.events(limit=recorder.capacity))
        validate_chrome_trace(doc)
        names = [e["name"] for e in doc["traceEvents"]]
        assert any(name.startswith("surveil round") for name in names)
        assert any(name.startswith("allocate[thompson]") for name in names)
        slices = [e for e in doc["traceEvents"]
                  if e["ph"] == "X" and e["name"].startswith("surveil round")]
        assert len(slices) == 3


class TestBanditLearning:
    def test_thompson_shifts_budget_toward_hot_sites(self):
        # Two extreme sites: after several rounds the hot one should hold
        # most of the cumulative budget.
        fleet = (
            heterogeneous_fleet(1, cohort_size=8, seed=0, low=0.18, high=0.18)
            + heterogeneous_fleet(1, cohort_size=8, seed=0, low=0.001, high=0.001)
        )
        config = CampaignConfig(rounds=8, budget=4, seed=3, max_stages=30)
        campaign = Campaign(fleet, config)
        campaign.run()
        hot, cold = campaign.states[0], campaign.states[1]
        assert hot.screens > cold.screens
        assert hot.belief.mean(campaign.hyperprior) > cold.belief.mean(campaign.hyperprior)
