"""EvidenceLog bookkeeping."""

import dataclasses

import pytest

from repro.bayes.evidence import EvidenceLog, TestRecord


def make_record(stage=1, log_pred=-0.5, ent_before=None, ent_after=None):
    return TestRecord(
        stage=stage,
        pool_mask=0b11,
        pool_size=2,
        outcome=True,
        log_predictive=log_pred,
        entropy_before=ent_before,
        entropy_after=ent_after,
    )


class TestTestRecord:
    def test_information_gain(self):
        rec = make_record(ent_before=2.0, ent_after=1.2)
        assert rec.information_gain == pytest.approx(0.8)

    def test_information_gain_untracked(self):
        assert make_record().information_gain is None

    def test_frozen(self):
        rec = make_record()
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.stage = 5


class TestEvidenceLog:
    def test_counts(self):
        log = EvidenceLog()
        log.append(make_record(stage=1))
        log.append(make_record(stage=1))
        log.append(make_record(stage=2))
        assert log.num_tests == 3
        assert log.num_stages == 2

    def test_log_evidence_sum(self):
        log = EvidenceLog()
        log.append(make_record(log_pred=-1.0))
        log.append(make_record(log_pred=-0.25))
        assert log.log_evidence == pytest.approx(-1.25)

    def test_empty_log(self):
        log = EvidenceLog()
        assert log.num_tests == 0
        assert log.num_stages == 0
        assert log.log_evidence == 0.0
