import copy
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flashmod.core import (
    ERASE_REQUIRED,
    NOOP,
    WRITTEN,
    CellState,
    CodeKind,
    CodeParams,
    WriteKind,
    cell_increment,
)

level_lists = st.integers(2, 12).flatmap(
    lambda q: st.tuples(st.just(q), st.lists(st.integers(0, q - 1), min_size=1, max_size=24))
)


def test_l1_norm_examples():
    assert CellState([0, 0, 0, 0], 4).level_sum == 0
    assert CellState([1, 2, 0], 4).level_sum == 3
    assert CellState([1, 1], 4).level_sum == 2


def test_weighted_sum_examples():
    assert CellState([2, 0, 0, 0], 4).weighted_level_sum % 4 == 0
    assert CellState([0, 1, 0, 1], 4).weighted_level_sum % 4 == 0
    assert CellState([0, 0, 1, 0], 4).weighted_level_sum % 4 == 2


def test_cell_increment_examples():
    st_ = CellState([0, 0, 0], 4)
    assert cell_increment(st_, 1) is WRITTEN
    assert st_.levels == [0, 1, 0]
    assert cell_increment(st_, 1) is WRITTEN
    assert st_.levels == [0, 2, 0]

    full = CellState([3, 0], 4)
    assert cell_increment(full, 0) is ERASE_REQUIRED
    assert full.levels == [3, 0]

    one_shot = CellState([1, 1], 2)
    assert cell_increment(one_shot, 1) is ERASE_REQUIRED


def test_cell_increment_bad_index_is_a_bug():
    for idx in (-1, 2):
        state = CellState([1, 2], 4)
        with pytest.raises(IndexError):
            cell_increment(state, idx)
        assert (state.levels, state.level_sum, state.weighted_level_sum) == ([1, 2], 3, 2)


@given(level_lists)
def test_aggregates_match_brute_force(case):
    "Cached sums equal a fresh scan of the levels."
    q, levels = case
    state = CellState(levels, q)
    assert state.level_sum == sum(levels)
    for modulus in (1, 2, 7, len(levels) + 3):
        assert state.weighted_level_sum % modulus == sum(i * v for i, v in enumerate(levels)) % modulus


@given(level_lists, st.lists(st.integers(0, 1000), max_size=40))
def test_increment_walk_keeps_invariants(case, picks):
    "Any increment sequence moves l1 by one per write and shifts the weighted sum by the cell index."
    q, levels = case
    state = CellState(levels, q)
    n = state.n
    for pick in picks:
        idx = pick % n
        before_l1 = state.level_sum
        before_ws = state.weighted_level_sum % n
        out = cell_increment(state, idx)
        if out is WRITTEN:
            assert state.level_sum == before_l1 + 1
            assert state.weighted_level_sum % n == (before_ws + idx) % n
        else:
            assert out is ERASE_REQUIRED
            assert state.level_sum == before_l1
        assert all(0 <= v <= q - 1 for v in state.levels)


def test_state_validation():
    with pytest.raises(ValueError):
        CellState([0, 4], 4)
    with pytest.raises(ValueError):
        CellState([-1], 4)
    with pytest.raises(ValueError, match="q must be >= 2, got 1"):
        CellState([0], 1)
    with pytest.raises(ValueError, match="n must be in"):
        CellState.zeros(0, 4)
    # levels are integers: no silent truncation of floats, no parsing of strings
    with pytest.raises(TypeError):
        CellState([1.7, 0.2], 4)
    with pytest.raises(TypeError):
        CellState(["1", "2"], 4)


@given(st.integers(1, 64), st.integers(2, 40))
def test_zeros_equals_the_checked_constructor(n, q):
    fresh, checked = CellState.zeros(n, q), CellState([0] * n, q)
    for name in CellState.__slots__:
        assert getattr(fresh, name) == getattr(checked, name), name
    fresh.levels[0] = 1  # no list is shared between states
    assert CellState.zeros(n, q).levels == [0] * n


def test_zeros_validates_n_and_q():
    for n, q, name in ((0, 4, "n"), (-3, 4, "n"), (4, 1, "q"), (4, -2, "q")):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            CellState.zeros(n, q)
    for n, q in ((4.0, 4), (4, 4.0)):  # a float count is refused, not truncated
        with pytest.raises(TypeError):
            CellState.zeros(n, q)


def test_zeros_refuses_more_cells_than_the_cap():
    "One cell past 2^MAX_LOG2_N is refused before the level list is built, as CodeParams refuses it."
    with pytest.raises(ValueError, match="2\\^24"):
        CellState.zeros(2**24 + 1, 2)


def test_params_derive_and_validate_n(monkeypatch):
    def no_cells(*args):
        raise AssertionError("cells were allocated")

    monkeypatch.setattr(CellState, "zeros", no_cells)
    sr = CodeParams(k=3, l=2, q=8, kind=CodeKind.SELF_RANDOMIZED)
    assert sr.n == 8 and sr.value_count == 8 and sr.total_levels == 56
    lb = CodeParams(k=3, l=2, q=8, kind=CodeKind.LOAD_BALANCING)
    assert lb.n == 16
    with pytest.raises(TypeError):  # n is derived, not a constructor argument
        CodeParams(k=2, l=2, q=4, kind=CodeKind.SELF_RANDOMIZED, n=4)
    with pytest.raises(TypeError):
        CodeParams(2, 2, 4, CodeKind.SELF_RANDOMIZED, 4)
    # a frozen value, equal, hashed and shown by its fields, n included
    same = CodeParams(3, 2, 8, CodeKind.LOAD_BALANCING)
    assert lb == same and hash(lb) == hash(same) and len({sr, lb, same}) == 2
    assert lb != CodeParams(k=3, l=2, q=4, kind=CodeKind.LOAD_BALANCING)
    assert lb != (3, 2, 8, CodeKind.LOAD_BALANCING, 16)
    assert repr(lb) == "CodeParams(k=3, l=2, q=8, kind=<CodeKind.LOAD_BALANCING: 'load-balancing'>, n=16)"
    assert_frozen(lb, "k", "n", "other")
    with pytest.raises(ValueError, match="k must be >= 1, got 0"):
        CodeParams(k=0, l=2, q=4, kind=CodeKind.SELF_RANDOMIZED)
    with pytest.raises(ValueError):
        CodeParams(k=2, l=3, q=4, kind=CodeKind.SELF_RANDOMIZED)
    with pytest.raises(ValueError, match="q must be >= 2, got 1"):
        CodeParams(k=2, l=2, q=1, kind=CodeKind.SELF_RANDOMIZED)
    # n is capped at 2^24, the largest field the load-balancing code can use
    assert CodeParams(k=24, l=2, q=2, kind=CodeKind.SELF_RANDOMIZED).n == 1 << 24
    assert CodeParams(k=23, l=2, q=2, kind=CodeKind.LOAD_BALANCING).n == 1 << 24
    for k, kind in ((25, CodeKind.SELF_RANDOMIZED), (24, CodeKind.LOAD_BALANCING), (10**9, CodeKind.SELF_RANDOMIZED)):
        with pytest.raises(ValueError, match="2\\^24"):
            CodeParams(k=k, l=2, q=4, kind=kind)


def test_non_integral_parameters_are_refused_at_construction():
    "A float q would never reach the top level q - 1, so a cycle on it would never end."
    sr = CodeKind.SELF_RANDOMIZED
    for k, l, q in ((3, 2, 16.5), (3, 2, 16.0), (3.0, 2, 16), (3, 2.0, 16)):
        with pytest.raises(TypeError):
            CodeParams(k=k, l=l, q=q, kind=sr)
    for q in (16.5, 16.0):
        with pytest.raises(TypeError):
            CellState([0, 0], q)
        with pytest.raises(TypeError):
            CellState.zeros(2, q)
    # integer types other than int still pass, and are stored as int
    params = CodeParams(k=np.int64(3), l=np.int32(2), q=np.uint8(16), kind=sr)
    assert (params.k, params.l, params.q, params.n) == (3, 2, 16, 8)
    assert all(type(v) is int for v in (params.k, params.l, params.q))
    assert CellState.zeros(2, np.int64(4)).q == 4 == CellState([0, 3], np.int64(4)).q


def assert_frozen(record, *names):
    "Assigning or deleting any attribute raises AttributeError; copies and pickles are equal."
    for name in names:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 4)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert copy.copy(record) == copy.deepcopy(record) == pickle.loads(pickle.dumps(record)) == record


def test_outcome_shapes():
    "Each outcome is its WriteKind member, and copies and pickles of it are that member."
    outcomes = (NOOP, WRITTEN, ERASE_REQUIRED)
    for outcome, member in zip(outcomes, (WriteKind.NOOP, WriteKind.WRITTEN, WriteKind.ERASE_REQUIRED)):
        assert outcome is member and outcome.kind is outcome
        for again in (copy.copy(outcome), copy.deepcopy(outcome), pickle.loads(pickle.dumps(outcome))):
            assert again is outcome
    assert len(set(outcomes)) == 3


def test_writes_keep_no_per_cell_objects():
    "Raising every cell once returns the one WRITTEN and allocates nothing that stays."
    state = CellState.zeros(1 << 16, 2)
    tracemalloc.start()
    try:
        assert all(cell_increment(state, i) is WRITTEN for i in range(state.n))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.level_sum == state.n
    assert peak < 64 * 1024, (held, peak)  # a per-cell object would cost MBs
