"""The nonzero-index kernels equal the state-matrix formulas, bit for bit.

The sparse and particle backends answer every selection statistic and
update count from the ``(rows, cols)`` of their state matrix's set bits
instead of gathering ``states[:, pool]`` per pool.  The state-matrix
formulas survive here only, as the oracle: on random boolean matrices
(an all-zero row included, cohorts past 64 bits) every kernel must
return the same array under exact ``==``, and every mutator of
:class:`SparsePosterior` must leave its index equal to
``np.nonzero(states)``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sbgt.sparse import (
    SparsePosterior,
    index_down_set_masses,
    index_pool_count_hists,
    index_refined_cell_masses,
    pool_counts,
    pool_hits,
    state_index,
)
from repro.util.bits import as_mask_array, indices_from_mask


# ---------------------------------------------------------------------------
# the state-matrix oracle
# ---------------------------------------------------------------------------
def _cols(mask: int) -> np.ndarray:
    return np.asarray(indices_from_mask(mask), dtype=np.intp)


def oracle_down_set_masses(states, p, pools):
    return np.array([p[~states[:, _cols(int(m))].any(axis=1)].sum() for m in pools])


def oracle_pool_count_hists(states, p, pools):
    col_sets = [_cols(int(m)) for m in pools]
    out = np.zeros((len(col_sets), max((c.size for c in col_sets), default=0) + 1))
    for c, cols in enumerate(col_sets):
        counts = states[:, cols].sum(axis=1)
        out[c, : counts.max(initial=0) + 1] = np.bincount(counts, weights=p)
    return out


def oracle_refined_cell_masses(states, p, chosen, pools, n_cells):
    cell_idx = np.zeros(states.shape[0], dtype=np.int64)
    for j, pool in enumerate(chosen):
        cell_idx |= states[:, _cols(int(pool))].any(axis=1).astype(np.int64) << j
    out = np.empty((len(pools), n_cells))
    for c, cand in enumerate(pools):
        dirty = states[:, _cols(int(cand))].any(axis=1)
        refined = cell_idx | (dirty.astype(np.int64) << len(chosen))
        out[c] = np.bincount(refined, weights=p, minlength=n_cells)
    return out


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and bool(np.all(a == b))


def _index_is_nonzero(post: SparsePosterior) -> bool:
    rows, cols = post.index
    want_rows, want_cols = np.nonzero(post.states)
    return _same(rows, want_rows) and _same(cols, want_cols)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
@st.composite
def state_tables(draw, min_rows: int = 1):
    """A boolean state matrix whose row 0 is all zero, its weights and pools."""
    n = draw(st.sampled_from([1, 3, 9, 40, 64, 65, 70, 130]))
    s = draw(st.integers(min_value=min_rows, max_value=24))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    density = draw(st.sampled_from([0.02, 0.2, 0.6]))
    states = rng.random((s, n)) < density
    states[0] = False
    p = rng.dirichlet(np.ones(s))
    bits = st.lists(st.integers(min_value=0, max_value=n - 1), max_size=n, unique=True)
    pools = draw(st.lists(bits.map(lambda b: sum(1 << i for i in b)), min_size=1, max_size=6))
    return states, p, pools


# ---------------------------------------------------------------------------
# kernels == oracle
# ---------------------------------------------------------------------------
@given(state_tables())
def test_state_index_is_nonzero(table):
    states, _, _ = table
    rows, cols = state_index(states)
    want_rows, want_cols = np.nonzero(states)
    assert _same(rows, want_rows) and _same(cols, want_cols)


@given(state_tables())
def test_counts_and_hits_match_the_matrix(table):
    states, p, pools = table
    index, n = state_index(states), states.shape[1]
    for mask in pools:
        cols = _cols(mask)
        assert _same(pool_counts(index, p.size, cols, n), states[:, cols].sum(axis=1))
        assert _same(pool_hits(index, p.size, cols, n), states[:, cols].any(axis=1))


@given(state_tables())
def test_selection_kernels_match_the_matrix(table):
    states, p, pools = table
    index, n = state_index(states), states.shape[1]
    masks = as_mask_array(pools)
    assert _same(index_down_set_masses(index, p, masks, n),
                 oracle_down_set_masses(states, p, pools))
    assert _same(index_pool_count_hists(index, p, masks, n),
                 oracle_pool_count_hists(states, p, pools))
    chosen = pools[:2]
    n_cells = 1 << (len(chosen) + 1)
    assert _same(index_refined_cell_masses(index, p, chosen, masks, n_cells, n),
                 oracle_refined_cell_masses(states, p, chosen, pools, n_cells))


def test_empty_pool_is_the_whole_mass():
    states = np.array([[0, 0, 0], [1, 0, 1], [0, 1, 0]], dtype=bool)
    p = np.array([0.5, 0.3, 0.2])
    index = state_index(states)
    assert _same(index_down_set_masses(index, p, np.array([0], dtype=np.uint64), 3),
                 np.array([p.sum()]))
    assert _same(index_pool_count_hists(index, p, np.array([0], dtype=np.uint64), 3),
                 oracle_pool_count_hists(states, p, [0]))


@pytest.mark.parametrize("n", [3, 70])
def test_out_of_range_pool_raises(n):
    states = np.zeros((2, n), dtype=bool)
    states[1, n - 1] = True
    p = np.array([0.5, 0.5])
    index = state_index(states)
    outside = as_mask_array([1 << n])
    with pytest.raises(ValueError, match="outside cohort"):
        index_down_set_masses(index, p, outside, n)
    with pytest.raises(ValueError, match="outside cohort"):
        index_pool_count_hists(index, p, outside, n)
    with pytest.raises(ValueError, match="outside cohort"):
        index_refined_cell_masses(index, p, [], outside, 2, n)
    post = SparsePosterior(states, np.log(p))
    with pytest.raises(ValueError, match="outside cohort"):
        post.update(1 << n, np.zeros(2))


# ---------------------------------------------------------------------------
# every mutator keeps the index equal to np.nonzero(states)
# ---------------------------------------------------------------------------
@given(state_tables(min_rows=4), st.integers(min_value=0, max_value=2**32 - 1))
def test_mutators_keep_the_index(table, seed):
    states, p, pools = table
    states = np.unique(states, axis=0)
    n = states.shape[1]
    rng = np.random.default_rng(seed)
    post = SparsePosterior(states, np.log(rng.dirichlet(np.ones(states.shape[0]))), floor=0.02)
    assert _index_is_nonzero(post)

    for mask in pools:
        k = len(indices_from_mask(mask))
        post.update(mask, np.log(rng.uniform(0.05, 1.0, k + 1)))  # floor > 0 drops rows
        assert _index_is_nonzero(post)

    post.prune(0.05)
    assert _index_is_nonzero(post)

    if n > 1:
        bit = int(rng.integers(n))
        column = post.states[:, bit]
        keep_positive = bool(column.all() or (column.any() and rng.random() < 0.5))
        post.project_out_bit(bit, keep_positive=keep_positive)
        assert post.n_items == n - 1
        assert _index_is_nonzero(post)
