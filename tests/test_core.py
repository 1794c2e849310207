import pytest
from hypothesis import given
from hypothesis import strategies as st

from flashmod.core import (
    ERASE_REQUIRED,
    NOOP,
    CellState,
    CodeKind,
    CodeParams,
    WriteKind,
    cell_increment,
    written,
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
    out = cell_increment(st_, 1)
    assert out == written(1) and out.is_written
    assert st_.levels == [0, 1, 0]

    full = CellState([3, 0], 4)
    assert cell_increment(full, 0) is ERASE_REQUIRED
    assert full.levels == [3, 0]

    one_shot = CellState([1, 1], 2)
    assert cell_increment(one_shot, 1) is ERASE_REQUIRED


def test_cell_increment_bad_index_is_a_bug():
    with pytest.raises(IndexError):
        cell_increment(CellState([0, 0], 4), 2)
    with pytest.raises(IndexError):
        cell_increment(CellState([0, 0], 4), -1)


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
        if out.is_written:
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
    with pytest.raises(ValueError):
        CellState([0], 1)
    with pytest.raises(ValueError):
        CellState.zeros(0, 4)


def test_params_derive_and_validate_n():
    sr = CodeParams(k=3, l=2, q=8, kind=CodeKind.SELF_RANDOMIZED)
    assert sr.n == 8 and sr.value_count == 8 and sr.total_levels == 56
    lb = CodeParams(k=3, l=2, q=8, kind=CodeKind.LOAD_BALANCING)
    assert lb.n == 16
    assert CodeParams(k=2, l=2, q=4, kind=CodeKind.SELF_RANDOMIZED, n=4).n == 4
    with pytest.raises(ValueError):
        CodeParams(k=2, l=2, q=4, kind=CodeKind.SELF_RANDOMIZED, n=8)
    with pytest.raises(ValueError):
        CodeParams(k=0, l=2, q=4, kind=CodeKind.SELF_RANDOMIZED)
    with pytest.raises(ValueError):
        CodeParams(k=2, l=3, q=4, kind=CodeKind.SELF_RANDOMIZED)
    with pytest.raises(ValueError):
        CodeParams(k=2, l=2, q=1, kind=CodeKind.SELF_RANDOMIZED)


def test_outcome_shapes():
    assert written(3).cell == 3
    assert NOOP.kind is WriteKind.NOOP and NOOP.cell is None
    assert ERASE_REQUIRED.kind is WriteKind.ERASE_REQUIRED
    with pytest.raises(ValueError):
        from flashmod.core import WriteOutcome

        WriteOutcome(WriteKind.NOOP, cell=1)
