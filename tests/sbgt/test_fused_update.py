"""The update's one aggregate against the two separate folds it replaces.

``DistributedLattice.update`` ends in a single tree aggregation that
yields the new stored mass and the marginals.  Its offset must be the
blocks' *summed* mass (``block_log_mass`` merged by ``logaddexp``, not
the marginal folds' total, which rounds differently) and the marginals
it holds must be a fresh marginals aggregation's, bit for bit, so no
payload depends on which of the two computed them.  The update that
checkpoints an engine-plane lattice leaves no marginals held: the next
read aggregates the rebalanced blocks.  An update after
``defer_marginals()`` sums the mass alone, to the same bits.
"""

import numpy as np
import pytest

from repro.bayes.dilution import DilutionErrorModel
from repro.bayes.priors import PriorSpec
from repro.lattice.partition import (
    LatticeBlock,
    block_log_mass,
    block_mass_marginals,
    block_summed_mass_marginals,
)
from repro.sbgt.distributed_lattice import DistributedLattice, _add_log_mass

RISKS = np.array([0.05, 0.2, 0.1, 0.3, 0.15, 0.08, 0.25, 0.12])
UPDATES = DistributedLattice.checkpoint_interval + 1


def summed_log_mass(rdd) -> float:
    """The separate mass fold: each block's weights summed in memory order."""
    return rdd.tree_aggregate(
        -np.inf, lambda acc, b: _add_log_mass(acc, block_log_mass(b)), _add_log_mass
    )


def held_and_folds(dl: DistributedLattice) -> dict:
    """What the lattice holds, beside what separate folds over its blocks give."""
    return {
        "offset": dl.log_offset,
        "summed": summed_log_mass(dl.rdd),
        "held": dl._marginals,
        "fresh": DistributedLattice._mass_marginals(dl.rdd, need_marginals=True)[1],
    }


@pytest.fixture(params=["driver", "serial-1", "serial-2", "serial-4", "threads-4"])
def plane(request, serial_ctx, ctx):
    """``(context or None, num_blocks)`` for each plane and block count."""
    if request.param == "driver":
        return None, 1
    mode, blocks = request.param.split("-")
    return (serial_ctx if mode == "serial" else ctx), int(blocks)


@pytest.mark.parametrize("restricted", [False, True], ids=["cube", "restricted"])
def test_update_holds_what_the_separate_folds_give(plane, restricted):
    context, num_blocks = plane
    prior = PriorSpec(RISKS)
    if restricted:  # generic blocks: explicit masks, marginals by gather
        dl = DistributedLattice.from_restricted_prior(context, prior, 3, num_blocks)
    else:
        dl = DistributedLattice.from_prior(context, prior, num_blocks)
    assert dl.num_blocks == num_blocks
    model = DilutionErrorModel(0.97, 0.99, 0.35)
    rng = np.random.default_rng(7)

    before_checkpoint = []
    rebalance = dl.rebalance

    def spy(num_blocks=0):
        before_checkpoint.append(held_and_folds(dl))
        rebalance(num_blocks)

    dl.rebalance = spy
    for update in range(1, UPDATES + 1):
        pool = int(rng.integers(1, 1 << prior.n_items))
        ll = model.log_likelihood_by_count(bool(rng.random() < 0.3), pool.bit_count())
        offset = dl.log_offset
        log_pred = dl.update(pool, ll)
        checkpointed = bool(before_checkpoint)
        assert checkpointed == (update == dl.checkpoint_interval)
        # The blocks the update left, before any checkpoint re-cut them.
        left = before_checkpoint.pop() if checkpointed else held_and_folds(dl)
        assert left["offset"] == left["summed"]
        assert log_pred == left["summed"] - offset
        assert np.array_equal(left["held"], left["fresh"])

        now = held_and_folds(dl)
        if checkpointed and context is not None:
            assert now["offset"] == 0.0 and now["held"] is None
            assert np.array_equal(dl.marginals(), now["fresh"])
        else:
            assert np.array_equal(now["held"], now["fresh"])
    dl.unpersist()


def _blocks():
    rng = np.random.default_rng(3)
    log_probs = rng.normal(-6.0, 2.5, 1 << 7)
    cube = LatticeBlock.cube(9, 0b110000000, 7, log_probs)
    generic = LatticeBlock(9, cube.masks[::-1].copy(), log_probs[::-1].copy())
    empty = LatticeBlock(9, np.empty(0, dtype=np.uint64), np.empty(0))
    return [cube, generic, empty]


@pytest.mark.parametrize("block", _blocks(), ids=["cube", "generic", "empty"])
def test_kernel_is_the_two_kernels_bit_for_bit(block):
    log_mass, (fold_mass, marginals) = block_summed_mass_marginals(block)
    want_fold_mass, want_marginals = block_mass_marginals(block, need_marginals=True)
    assert log_mass == block_log_mass(block)
    assert fold_mass == want_fold_mass
    if want_marginals is None:
        assert marginals is None
    else:
        assert np.array_equal(marginals, want_marginals)
    assert block_summed_mass_marginals(block, need_marginals=False) == (
        block_log_mass(block),
        (-np.inf, None),
    )


@pytest.mark.parametrize("restricted", [False, True], ids=["cube", "restricted"])
def test_a_deferred_update_sums_the_mass_alone(plane, restricted):
    """After ``defer_marginals()`` the update holds no marginals and its bits do not move.

    Its offset and predictive are the served update's, bit for bit, and
    the hint lasts one update.
    """
    context, num_blocks = plane
    prior = PriorSpec(RISKS)
    build = (
        (lambda: DistributedLattice.from_restricted_prior(context, prior, 3, num_blocks))
        if restricted
        else (lambda: DistributedLattice.from_prior(context, prior, num_blocks))
    )
    served, deferred = build(), build()
    model = DilutionErrorModel(0.97, 0.99, 0.35)
    rng = np.random.default_rng(11)
    for update in range(4):
        pool = int(rng.integers(1, 1 << prior.n_items))
        ll = model.log_likelihood_by_count(bool(rng.random() < 0.3), pool.bit_count())
        if update % 2 == 0:
            deferred.defer_marginals()
        assert deferred.update(pool, ll) == served.update(pool, ll)
        assert deferred.log_offset == served.log_offset
        if update % 2 == 0:
            assert deferred._marginals is None
            assert np.array_equal(deferred.marginals(), served._marginals)
        else:
            assert np.array_equal(deferred._marginals, served._marginals)
    served.unpersist()
    deferred.unpersist()
