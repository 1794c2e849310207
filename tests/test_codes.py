import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flashmod.codes import LoadBalancingCode, SelfRandomizedCode, make_code
from flashmod.core import (
    ERASE_REQUIRED,
    NOOP,
    WRITTEN,
    CellState,
    CodeKind,
    CodeParams,
    cell_increment,
)
from flashmod.field import FieldSpec, gf_inv, gf_mul


def sr_params(k, q):
    return CodeParams(k=k, l=2, q=q, kind=CodeKind.SELF_RANDOMIZED)


def lb_params(k, q):
    return CodeParams(k=k, l=2, q=q, kind=CodeKind.LOAD_BALANCING)


def test_make_code_dispatch():
    assert isinstance(make_code(sr_params(2, 4)), SelfRandomizedCode)
    assert isinstance(make_code(lb_params(2, 4)), LoadBalancingCode)
    with pytest.raises(ValueError):
        SelfRandomizedCode(lb_params(2, 4))
    with pytest.raises(ValueError):
        LoadBalancingCode(sr_params(2, 4))


class TestSelfRandomized:
    def test_decode_examples(self):
        code = make_code(sr_params(2, 8))
        assert code.decode(CellState.zeros(4, 8)) == 0
        assert code.decode(CellState([1, 0, 0, 0], 8)) == 3
        assert code.decode(CellState([2, 0, 0, 0], 8)) == 1

    def test_encode_examples(self):
        code = make_code(sr_params(2, 8))
        state = CellState.zeros(4, 8)
        assert code.encode(state, 3) is WRITTEN
        assert state.levels == [1, 0, 0, 0]
        assert code.encode(state, 1) is WRITTEN
        assert state.levels == [2, 0, 0, 0]
        # writing the decoded value again changes nothing
        assert code.encode(state, 1) is NOOP
        assert state.levels == [2, 0, 0, 0]

    def test_full_cell_signals_erase(self):
        code = make_code(sr_params(1, 2))
        state = CellState.zeros(2, 2)
        assert code.encode(state, 1) is WRITTEN and state.levels == [1, 0]
        assert code.encode(state, 0) is WRITTEN and state.levels == [1, 1]
        # n(q-1) = 2 increments used up; next change hits a full cell
        out = code.encode(state, 1)
        assert out is ERASE_REQUIRED
        assert state.levels == [1, 1]

    def test_write_indices_sweep_uniformly(self):
        # with uniform inputs the written cell index is uniform; check
        # each frequency within 3 sigma of multinomial noise.  A write
        # raises one cell by one, so it shifts the weighted sum by its index
        code = make_code(sr_params(2, 2**14))
        state = CellState.zeros(4, 2**14)
        rng = np.random.default_rng(42)
        counts = np.zeros(4, dtype=int)
        writes = 10_000
        done = 0
        while done < writes:
            before = state.weighted_level_sum
            if code.encode(state, int(rng.integers(0, 4))) is WRITTEN:
                counts[state.weighted_level_sum - before] += 1
                done += 1
        expected = writes / 4
        sigma = (writes * 0.25 * 0.75) ** 0.5
        assert np.all(np.abs(counts - expected) <= 3 * sigma), counts


class TestLoadBalancing:
    def test_decode_examples(self):
        code = make_code(lb_params(1, 8))
        assert code.decode(CellState.zeros(4, 8)) == 0
        assert code.decode(CellState([1, 0, 0, 0], 8)) == 1
        assert code.decode(CellState([0, 0, 1, 0], 8)) == 1

    def test_encode_tie_breaks_to_first_candidate(self):
        code = make_code(lb_params(1, 8))
        state = CellState.zeros(4, 8)
        assert code.candidate_cells(state, 1) == [0, 2]
        assert code.encode(state, 1) is WRITTEN
        assert state.levels == [1, 0, 0, 0]
        assert code.decode(state) == 1

    def test_encode_prefers_less_charged_candidate(self):
        # candidates for value 1 on this state are cells 0 and 2 with
        # levels (4, 0), so the write lands on cell 2
        code = make_code(lb_params(1, 8))
        state = CellState([4, 0, 0, 0], 8)
        assert code.decode(state) == 0
        assert code.candidate_cells(state, 1) == [0, 2]
        assert code.encode(state, 1) is WRITTEN
        assert state.levels == [4, 0, 1, 0]
        assert code.decode(state) == 1

    def test_both_candidates_full_signals_erase(self):
        code = make_code(lb_params(1, 2))
        state = CellState([1, 0, 1, 0], 2)
        assert code.decode(state) == 0
        assert sorted(code.candidate_cells(state, 1)) == [0, 2]
        assert code.encode(state, 1) is ERASE_REQUIRED
        assert state.levels == [1, 0, 1, 0]

    def test_noop_when_value_already_stored(self):
        code = make_code(lb_params(2, 4))
        state = CellState.zeros(8, 4)
        assert code.encode(state, 0) is NOOP

    def test_candidates_are_always_distinct(self):
        # at every write the pairs of all 2**k values partition the cells,
        # and a pair's images (cell + w) mod n differ by XOR with a*2**k:
        # a perfect matching of the cells, fixed by (a, b, w)
        code = make_code(lb_params(2, 16))
        rng = np.random.default_rng(3)
        state = CellState.zeros(8, 16)
        for x in rng.integers(0, 4, size=400).tolist():
            cells = code.candidate_cells(state, x)
            assert len(set(cells)) == 2
            pairs = [code.candidate_cells(state, v) for v in range(4)]
            assert sorted(c for pair in pairs for c in pair) == list(range(8))
            w, a = state.weighted_level_sum, (state.level_sum + 1) % 3 + 1
            for c0, c1 in pairs:
                assert ((c0 + w) % 8) ^ ((c1 + w) % 8) == gf_mul(code.field, a, 4)
            code.encode(state, x)


@pytest.mark.parametrize("kind", list(CodeKind))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_round_trip_across_cycles(kind, k):
    "decode returns the last written value, for every reachable state."
    params = CodeParams(k=k, l=2, q=4, kind=kind)
    code = make_code(params)
    rng = np.random.default_rng(1000 + k)
    state = CellState.zeros(params.n, params.q)
    for x in rng.integers(0, params.value_count, size=2500).tolist():
        out = code.encode(state, x)
        if out is ERASE_REQUIRED:
            state = CellState.zeros(params.n, params.q)
            continue
        assert code.decode(state) == x


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(list(CodeKind)),
    k=st.integers(1, 12),
    q=st.integers(2, 8),
    seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    values=st.lists(st.integers(0, 2**12 - 1), max_size=60),  # reduced mod 2**k
)
@example(kind=CodeKind.LOAD_BALANCING, k=12, q=2, seed=1, values=list(range(0, 4096, 70)))
@example(kind=CodeKind.SELF_RANDOMIZED, k=12, q=3, seed=2, values=list(range(4095, 0, -70)))
def test_round_trip_property(kind, k, q, seed, values):
    """Each write raises at most one cell, by one level, and Written and
    NoOp outcomes leave the state decoding to the value.

    run_cycle reads r_inc off the level sum, so it relies on the first
    half.  A seed starts from random levels, so large n meets erases too.
    """
    params = CodeParams(k=k, l=2, q=q, kind=kind)
    code = make_code(params)
    levels = [0] * params.n if seed is None else np.random.default_rng(seed).integers(0, q, size=params.n).tolist()
    state = CellState(levels, q)
    for x in values:
        x %= params.value_count
        before = list(state.levels)
        out = code.encode(state, x)
        risen = [(i, now - was) for i, (was, now) in enumerate(zip(before, state.levels)) if now != was]
        assert [rise for _, rise in risen] == ([1] if out is WRITTEN else [])
        assert state.level_sum == sum(before) + len(risen)
        if out is ERASE_REQUIRED:
            state = CellState.zeros(params.n, params.q)
            continue
        assert code.decode(state) == x


@pytest.mark.parametrize("q", [2, 4])
def test_encode_memo_tracks_state_identity(q):
    """The encode memo follows the state object, not the code.

    Each code writes into two states in random order; now and then a cell
    of a state and of its mirror is raised directly, and writing goes on
    after an erase.  Every outcome must equal the reference's on the
    mirror, the stored value must be worked out (by _stored, never by
    decode) exactly when the memo cannot answer for the state at its level
    sum, and after an erase the code must hold no reference to the state:
    its count is back to the mirror's, which the code never sees.
    """

    def no_decode(state):
        raise AssertionError("encode called decode")

    for kind in CodeKind:
        for k in range(1, 7):
            params = CodeParams(k=k, l=2, q=q, kind=kind)
            code = make_code(params)
            if kind is CodeKind.LOAD_BALANCING:
                field = FieldSpec(k + 1)
                ref_encode = lambda st, x: reference_lb_encode(params, field, st, x)  # noqa: E731
            else:
                ref_encode = lambda st, x: reference_sr_encode(params, st, x)  # noqa: E731
            misses = [0]
            true_miss = code._stored

            def counted_miss(state):
                misses[0] += 1
                return true_miss(state)

            code._stored, code.decode = counted_miss, no_decode
            rng = np.random.default_rng([k, q])
            states = [CellState.zeros(params.n, q) for _ in range(2)]
            mirrors = [CellState.zeros(params.n, q) for _ in range(2)]
            held = None  # (state index, level sum) the memo may answer for
            erases = hits = 0
            for _ in range(3000):
                j = int(rng.integers(2))
                state, mirror = states[j], mirrors[j]
                if rng.random() < 0.05:
                    cell = int(rng.integers(params.n))
                    assert cell_increment(state, cell) == cell_increment(mirror, cell)
                    continue
                x = int(rng.integers(params.value_count))
                seen, miss = misses[0], held != (j, state.level_sum)
                out = code.encode(state, x)
                expected = ref_encode(mirror, x)
                # a write raises at most one cell by one, so the sums name it
                assert (out, state.level_sum, state.weighted_level_sum) == (
                    expected,
                    mirror.level_sum,
                    mirror.weighted_level_sum,
                ), (k, x)
                assert state.levels == mirror.levels
                assert misses[0] - seen == miss, (k, x)
                hits += not miss
                if out is ERASE_REQUIRED:
                    erases += 1
                    held = None
                    assert sys.getrefcount(state) == sys.getrefcount(mirror)
                    if rng.random() < 0.5:  # otherwise later writes go on into this state
                        states[j], mirrors[j] = CellState.zeros(params.n, q), CellState.zeros(params.n, q)
                else:
                    held = (j, state.level_sum)
            assert erases > 0 and hits > 0, (k, erases, hits)


@pytest.mark.parametrize("kind", list(CodeKind))
def test_decode_is_stateless(kind):
    "Decoding a rebuilt copy of the levels gives the same value."
    params = CodeParams(k=2, l=2, q=8, kind=kind)
    code = make_code(params)
    rng = np.random.default_rng(9)
    state = CellState.zeros(params.n, params.q)
    for x in rng.integers(0, params.value_count, size=300).tolist():
        if code.encode(state, x) is ERASE_REQUIRED:
            state = CellState.zeros(params.n, params.q)
    rebuilt = CellState(list(state.levels), params.q)
    assert code.decode(rebuilt) == code.decode(state)


def test_encode_rejects_out_of_range_values():
    code = make_code(sr_params(2, 4))
    state = CellState.zeros(4, 4)
    with pytest.raises(ValueError):
        code.encode(state, 4)
    lb = make_code(lb_params(1, 4))
    with pytest.raises(ValueError):
        lb.encode(CellState.zeros(4, 4), -1)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(list(CodeKind)),
    k=st.integers(1, 4),
    q=st.integers(2, 4),
    seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    # ("in", x) writes x mod 2**k; ("out", o) writes -2, -1, 2**k or 2**k + 1
    writes=st.lists(
        st.one_of(
            st.tuples(st.just("in"), st.integers(0, 15)),
            st.tuples(st.just("out"), st.sampled_from([-2, -1, 0, 1])),
        ),
        max_size=80,
    ),
)
# a refused first write on a fresh state, then refused writes the memo answers for
@example(kind=CodeKind.SELF_RANDOMIZED, k=2, q=2, seed=None, writes=[("out", -1), ("in", 1), ("out", 0), ("in", 1), ("out", 1)])
@example(kind=CodeKind.LOAD_BALANCING, k=2, q=2, seed=None, writes=[("out", -2), ("in", 3), ("out", 0), ("in", 3), ("out", -1)])
def test_out_of_range_writes_change_nothing(kind, k, q, seed, writes):
    """A write of a value outside [0, 2**k) raises ValueError and leaves no trace.

    Its state keeps its levels and both sums, and every later outcome
    equals that of the same sequence without it, on a fresh state and on
    one the memo holds.  encode tests a same-value write before the
    range, so a refused write may fill the memo, but never wrongly.
    """
    params = CodeParams(k=k, l=2, q=q, kind=kind)
    values = params.value_count
    code, clean = make_code(params), make_code(params)  # clean never sees an out-of-range value
    levels = [0] * params.n if seed is None else np.random.default_rng(seed).integers(0, q, size=params.n).tolist()
    state, clean_state = CellState(levels, q), CellState(levels, q)
    for where, x in writes:
        if where == "out":
            value = x if x < 0 else values + x
            before = (list(state.levels), state.level_sum, state.weighted_level_sum)
            with pytest.raises(ValueError, match="outside"):
                code.encode(state, value)
            assert (state.levels, state.level_sum, state.weighted_level_sum) == before
            continue
        x %= values
        out = code.encode(state, x)
        assert out is clean.encode(clean_state, x)
        assert (state.levels, state.level_sum, state.weighted_level_sum) == (
            clean_state.levels,
            clean_state.level_sum,
            clean_state.weighted_level_sum,
        )
        if out is ERASE_REQUIRED:
            state, clean_state = CellState.zeros(params.n, q), CellState.zeros(params.n, q)


def test_codes_reject_mismatched_state():
    code = make_code(sr_params(2, 4))
    with pytest.raises(ValueError):
        code.decode(CellState.zeros(8, 4))
    with pytest.raises(ValueError):
        code.encode(CellState.zeros(4, 8), 1)  # q mismatch
    for code, wrong_n in ((code, 8), (make_code(lb_params(2, 4)), 4)):
        state = CellState.zeros(wrong_n, 4)
        with pytest.raises(ValueError, match="cells"):
            code.decode(state)
        with pytest.raises(ValueError, match="cells"):
            code.encode(state, 1)
        assert state.levels == [0] * wrong_n
    # candidate_cells must not name cells of a state the code cannot hold
    lb = make_code(lb_params(3, 4))
    with pytest.raises(ValueError, match="state has 4 cells, code needs 16"):
        lb.candidate_cells(CellState.zeros(4, 4), 1)
    with pytest.raises(ValueError, match="state has q=7, code needs q=4"):
        lb.candidate_cells(CellState.zeros(16, 7), 1)
    with pytest.raises(ValueError, match="state has q=7, code needs q=4"):
        lb.encode(CellState.zeros(16, 7), 1)
    # nor the cells of a value it cannot store: 2**k would name value 0's second cell, twice
    for value in (-1, 8):
        with pytest.raises(ValueError, match=f"value {value} outside \\[0, 8\\)"):
            lb.candidate_cells(CellState.zeros(16, 4), value)
    # decode refuses a state of another q as encode does, for both codes
    for other in (lb, make_code(sr_params(4, 4))):
        with pytest.raises(ValueError, match="state has q=7, code needs q=4"):
            other.decode(CellState.zeros(16, 7))
    # both codes check a state's shape when the state enters their memo,
    # so a mismatched state is refused while a good one is held
    for code in (lb, make_code(sr_params(4, 4))):
        n, values = code.params.n, code.params.value_count  # n = 16 for both
        misses = []
        true_miss = code._stored
        code._stored = lambda state, true_miss=true_miss: misses.append(state) or true_miss(state)
        good = CellState.zeros(n, 4)
        assert code.encode(good, 1) is WRITTEN and misses == [good]
        for bad, match in ((CellState.zeros(8, 4), "cells"), (CellState.zeros(n, 7), "q=7")):
            with pytest.raises(ValueError, match=match):
                code.encode(bad, 2)
            assert bad.level_sum == 0 and not any(bad.levels)
        assert code.encode(good, 2) is WRITTEN and misses == [good]  # still a memo hit
        assert true_miss(good) == 2
        for value in (-1, values):  # the range check runs on a memo hit too
            with pytest.raises(ValueError, match="outside"):
                code.encode(good, value)
        assert good.level_sum == 2


# Reference codes: the first implementation of both codes, kept as the
# slow path the encoders are compared against write by write.  The
# load-balancing one spends three field products and one inverse per
# write and chooses among a list of candidates.


def reference_scalars(values, r):
    a = r % (values - 1) + 1 if values > 2 else 1
    b = r % values
    return a, b


def reference_lb_decode(params, field, state):
    r = state.level_sum
    raw = state.weighted_level_sum % params.n
    a, b = reference_scalars(params.value_count, r)
    return gf_mul(field, gf_inv(field, a), raw ^ b) % params.value_count


def reference_lb_candidates(params, field, state, value):
    values = params.value_count
    a, b = reference_scalars(values, state.level_sum + 1)
    raw = state.weighted_level_sum % params.n
    return [((gf_mul(field, a, value + i * values) ^ b) - raw) % params.n for i in range(params.l)]


def reference_lb_encode(params, field, state, value):
    if reference_lb_decode(params, field, state) == value:
        return NOOP
    best, best_level = -1, None
    for cell in reference_lb_candidates(params, field, state, value):  # strict <: ties keep the first candidate
        if best_level is None or state.levels[cell] < best_level:
            best, best_level = cell, state.levels[cell]
    return cell_increment(state, best)


def reference_sr_decode(params, state):
    mod = params.value_count
    r = state.level_sum
    s = state.weighted_level_sum % mod
    return (s - r * (r + 1) // 2) % mod


def reference_sr_encode(params, state, value):
    mod = params.value_count
    current = reference_sr_decode(params, state)
    if current == value:
        return NOOP
    delta = (value - current) % mod
    return cell_increment(state, (delta + state.level_sum + 1) % mod)


@pytest.mark.parametrize("q", [2, 4, 16])
@pytest.mark.parametrize("kind", list(CodeKind))
def test_encode_matches_reference_code(kind, q):
    "Outcomes, candidates and decoded values equal the reference's over whole cycles."
    for k in range(1, 11):
        params = CodeParams(k=k, l=2, q=q, kind=kind)
        code = make_code(params)
        if kind is CodeKind.LOAD_BALANCING:
            field = FieldSpec(k + 1)
            ref_encode = lambda st, x: reference_lb_encode(params, field, st, x)  # noqa: E731
            ref_decode = lambda st: reference_lb_decode(params, field, st)  # noqa: E731
        else:
            ref_encode = lambda st, x: reference_sr_encode(params, st, x)  # noqa: E731
            ref_decode = lambda st: reference_sr_decode(params, st)  # noqa: E731
        for seed in range(3):
            rng = np.random.default_rng([k, q, seed])
            state = CellState.zeros(params.n, q)
            ref_state = CellState.zeros(params.n, q)
            outcome = None
            while outcome is not ERASE_REQUIRED:
                values = rng.integers(0, params.value_count, size=512)
                values[rng.random(512) < 0.25] = 0  # zeros hit the v = 0 image and repeat often
                for x in values.tolist():
                    if kind is CodeKind.LOAD_BALANCING:
                        assert code.candidate_cells(state, x) == reference_lb_candidates(params, field, ref_state, x)
                    outcome = code.encode(state, x)
                    expected = ref_encode(ref_state, x)
                    # a write raises at most one cell by one, so the sums name it
                    assert (outcome, state.level_sum, state.weighted_level_sum) == (
                        expected,
                        ref_state.level_sum,
                        ref_state.weighted_level_sum,
                    ), (k, seed, x)
                    assert code.decode(state) == ref_decode(ref_state)
                    if outcome is ERASE_REQUIRED:
                        break
            assert state.levels == ref_state.levels
