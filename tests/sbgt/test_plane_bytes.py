"""A payload's bytes are a function of the request and the block count.

Each executor mode prints the same bytes for a request whose lattice is
cut into the same number of blocks: ``serial`` and ``processes`` fold
the blocks as engine jobs; ``threads`` holds a lattice of at most
``DRIVER_PLANE_STATES`` states on the driver plane, which makes the
engine's choices (cube blocks built by doubling, ``RDD.aggregate``'s
fold order, the checkpoint's re-cut), and a larger one on the engine.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.bayes.priors import PriorSpec
from repro.engine import Context
from repro.engine.errors import ContextStoppedError
from repro.sbgt.distributed_lattice import DRIVER_PLANE_STATES, DistributedLattice, DriverPlane
from repro.sbgt.session import SBGTSession
from repro.serve.protocol import ScreenRequest
from repro.workflows.payloads import dump_payload, screen_payload

MODES = ("serial", "threads", "processes")


@pytest.fixture(scope="module")
def contexts():
    opened = {mode: Context(mode=mode, parallelism=2) for mode in MODES}
    yield opened
    for ctx in opened.values():
        ctx.stop()


def _screen(ctx, body: dict, num_blocks: int):
    """``(payload text, tests)`` of the screen *body* on *num_blocks* blocks."""
    request = ScreenRequest.from_payload(body)
    prior, model, policy, config = request.build()
    config = dataclasses.replace(config, num_blocks=num_blocks)
    session = SBGTSession(ctx, prior, model, config)
    try:
        result = session.run_screen(policy, rng=request.seed)
        tests = session.num_tests
    finally:
        session.close()
    return dump_payload(screen_payload(result, request=request.canonical())), tests


#: (body, fewest tests it must take): one crosses the 16-update
#: checkpoint, one crosses it with contraction on, one picks two pools a stage.
BODIES = [
    ({"cohort": 10, "prevalence": 0.2, "seed": 2}, 17),
    ({"cohort": 10, "prevalence": 0.2, "seed": 1, "policy": "dorfman-4", "compact": True}, 16),
    ({"cohort": 8, "prevalence": 0.1, "seed": 0, "policy": "lookahead-2"}, 2),
]


@pytest.mark.parametrize("num_blocks", [1, 2, 4])
@pytest.mark.parametrize("body,min_tests", BODIES, ids=["checkpoint", "compact", "lookahead"])
def test_every_mode_prints_the_same_bytes(contexts, body, min_tests, num_blocks):
    assert 1 << body["cohort"] <= DRIVER_PLANE_STATES  # threads runs the driver plane
    texts = {}
    for mode in MODES:
        texts[mode], tests = _screen(contexts[mode], body, num_blocks)
        assert tests >= min_tests, (mode, tests)
    assert texts["threads"] == texts["serial"]
    assert texts["processes"] == texts["serial"]


@pytest.mark.parametrize("num_blocks", [1, 2, 4])
@pytest.mark.parametrize("cohort", [12, 18])
def test_payloads_are_equal_on_serial_and_threads(contexts, cohort, num_blocks):
    """Driver plane (cohort 12) and engine plane (cohort 18) alike."""
    seed = cohort + num_blocks
    body = {"cohort": cohort, "prevalence": 0.05, "seed": seed}
    assert _screen(contexts["threads"], body, num_blocks) == _screen(
        contexts["serial"], body, num_blocks
    )


def test_the_plane_rule(contexts):
    """Threads holds a small lattice at the driver, in at most 8 blocks
    (``tree_aggregate`` adds a combine round above 8 partitions); the
    other modes and bigger block counts stay on the engine."""
    prior = PriorSpec(np.full(8, 0.05))
    planes = {}
    for mode, num_blocks in [("threads", 8), ("threads", 16), ("serial", 2), ("processes", 2)]:
        lattice = DistributedLattice.from_prior(contexts[mode], prior, num_blocks)
        planes[mode, num_blocks] = (isinstance(lattice.rdd, DriverPlane), lattice.num_blocks)
        lattice.unpersist()
    assert planes == {
        ("threads", 8): (True, 8),
        ("threads", 16): (False, 16),
        ("serial", 2): (False, 2),
        ("processes", 2): (False, 2),
    }


def test_a_stopped_context_refuses_a_driver_plane():
    ctx = Context(mode="threads", parallelism=2)
    ctx.stop()
    with pytest.raises(ContextStoppedError):
        DistributedLattice.from_prior(ctx, PriorSpec(np.full(6, 0.05)))
