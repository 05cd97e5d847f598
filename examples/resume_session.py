#!/usr/bin/env python3
"""Interruptible screening: checkpoint a session, restore it, finish.

Lab reality: stage 1 results come back in the evening, stage 2 the next
morning, and the analysis process does not stay up in between.  The
session checkpoints to a single ``.npz`` (belief state + full evidence
trail) and resumes bit-identically — including the JSON audit log.

    python examples/resume_session.py
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from repro import (
    BHAPolicy,
    Context,
    DilutionErrorModel,
    PriorSpec,
    SBGTSession,
)
from repro.simulate import TestLab, make_cohort


def main() -> None:
    prior = PriorSpec.sampled(12, 0.06, rng=8)
    model = DilutionErrorModel(0.98, 0.995, 0.25)
    cohort = make_cohort(prior, rng=9)
    lab = TestLab(model, cohort.truth_mask, rng=10)
    ckpt = Path(tempfile.gettempdir()) / "sbgt_session.npz"

    # ---- evening: run two stages, then the process goes away ---------
    with Context(mode="threads", parallelism=4) as ctx:
        session = SBGTSession(ctx, prior, model)
        policy = BHAPolicy()
        for _ in range(2):
            report = session.classify()
            pools = policy.select(session, report.undetermined_mask())
            session.begin_stage()
            for pool in pools:
                session.update(pool, lab.run(pool))
        session.save(ckpt)
        before = session.marginals().copy()
        print(f"evening : {session.num_tests} tests across "
              f"{session.log.num_stages} stages, checkpointed to {ckpt.name}")
        session.close()

    # ---- next morning: new process, new context, same belief ---------
    with Context(mode="threads", parallelism=4) as ctx:
        session = SBGTSession.load(ctx, ckpt, prior, model)
        assert np.allclose(session.marginals(), before, atol=1e-10)
        print(f"morning : restored {session.num_tests} tests, "
              f"log evidence {session.log.log_evidence:+.3f}")

        policy = BHAPolicy()
        report = session.classify()
        while not report.all_classified and session.log.num_stages < 40:
            pools = policy.select(session, report.undetermined_mask())
            session.begin_stage()
            for pool in pools:
                session.update(pool, lab.run(pool))
            report = session.classify()

        print(f"finished: {session.num_tests} tests total; "
              f"positives {report.positives()} "
              f"(truth {cohort.positives()})")

        audit = json.loads(session.log.to_json())
        print(f"audit log: {audit['num_tests']} entries, "
              f"stages {audit['num_stages']}, spans the checkpoint boundary")
        session.close()
    ckpt.unlink(missing_ok=True)


if __name__ == "__main__":
    main()
