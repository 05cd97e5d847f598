"""A screen's decisions do not depend on the deployment.

The same request takes the same tests in the same stages, proposes the
same pools and calls the same statuses without a context and on
contexts that cut the lattice into 1, 2 or 4 blocks.  Blocks cut
differently sum the same masses in a different order, so only
tie-quantised comparisons (``halving.bha.ordering_key``) keep a
mathematical tie from breaking one way on one block count and the
other way on another.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.engine import Context
from repro.sbgt.session import SBGTSession
from repro.serve.protocol import ScreenRequest
from repro.workflows.payloads import POLICY_HELP

FAMILIES = POLICY_HELP.split(", ")
#: (cohort, prevalence, seed); cohort 12 at prevalence 0.1, seed 6 took
#: 14 tests on one block and 21 on two under an absolute 1e-15 margin.
BODIES = [(12, 0.1, 6), (12, 0.1, 7), (14, 0.06, 3)]


def _decisions(ctx, body: dict, num_blocks: int) -> tuple:
    prior, model, policy, config = ScreenRequest.from_payload(body).build()
    config = dataclasses.replace(config, num_blocks=num_blocks)
    session = SBGTSession(ctx, prior, model, config)
    try:
        result = session.run_screen(policy, rng=body["seed"])
        pools = tuple(record.pool_mask for record in session.log.records)
    finally:
        session.close()
    return len(pools), result.stages_used, tuple(result.report.statuses), pools


@pytest.fixture(scope="module")
def ctx():
    with Context(mode="serial", parallelism=4) as c:
        yield c


@pytest.mark.parametrize("body", BODIES, ids=lambda b: "n{}-p{}-s{}".format(*b))
@pytest.mark.parametrize("policy", FAMILIES)
def test_decisions_are_equal_on_every_block_count(ctx, policy, body):
    cohort, prevalence, seed = body
    request = {"cohort": cohort, "prevalence": prevalence, "seed": seed, "policy": policy}
    reference = _decisions(None, request, 0)
    for num_blocks in (1, 2, 4):
        assert _decisions(ctx, request, num_blocks) == reference, num_blocks
