"""cycle_rngs gives counter-based Philox streams under one key per seed.

Stream i of a master seed is Philox4x64 keyed by
SeedSequence(master_seed).generate_state(2, uint64) and started at the
counter words [0, 0, i mod 2**64, i >> 64].  The tests build that
generator independently through NumPy's own Philox constructor, so the
file must pass on every NumPy the package allows; CI runs it at the
pyproject floor as well as on the current release.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from flashmod.sim import cycle_rng, cycle_rngs

TOP = 2**128  # one past the last stream index
# where the low counter word wraps into the high one, and the last streams
EDGES = (0, 1, 2**64 - 2, 2**64 - 1, 2**64, 2**64 + 1, TOP - 3, TOP - 1)


def philox_stream(seed: int, index: int) -> np.random.Generator:
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    counter = np.array([0, 0, index % 2**64, index >> 64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def draws(rng: np.random.Generator) -> list[int]:
    """Raw words, ending with a half-used uint32 and a partly read buffer."""
    words = rng.integers(2**32, dtype=np.uint32, size=3).tolist()
    return words + rng.integers(2**64, dtype=np.uint64, size=1).tolist()


@given(
    st.one_of(st.sampled_from((0, 12345, 2**70 + 3)), st.integers(0, 2**100)),
    st.one_of(st.sampled_from(EDGES), st.integers(0, TOP - 1)),
    st.integers(0, 6),
)
@example(0, 0, 3)
@example(12345, 2**64 - 2, 4)  # the low counter word wraps between streams
@example(2**70 + 3, TOP - 3, 3)  # up to the last stream
def test_cycle_rngs_matches_cycle_rng(seed, start, count):
    count = min(count, TOP - start)
    seen = 0
    # each stream leaves a half-used uint32 and a partly read buffer, which the next must not see
    for i, rng in enumerate(cycle_rngs(seed, start, count), start):
        want = draws(philox_stream(seed, i))
        assert draws(rng) == want, i
        assert draws(cycle_rng(seed, i)) == want, i
        seen += 1
    assert seen == count


def test_streams_past_the_counter_space_are_refused():
    for call in (lambda: cycle_rng(0, TOP), lambda: cycle_rngs(0, TOP - 1, 2)):
        with pytest.raises(ValueError, match="below 2\\^128"):
            call()  # at the call, before any stream is drawn
    assert list(cycle_rngs(0, TOP, 0)) == []


def test_cycle_rngs_rejects_what_seed_sequence_rejects():
    with pytest.raises(ValueError):
        cycle_rng(-1, 0)
    for args, name in (((-1, 0, 1), "master_seed"), ((0, -1, 1), "start"), ((0, 0, -1), "count")):
        with pytest.raises(ValueError, match=f"^{name} must be >= 0, got -1"):
            cycle_rngs(*args)  # at the call, before any stream is drawn
    for args in ((1.5, 0, 1), (0, 1.0, 1), (0, 0, 2.0)):
        with pytest.raises(TypeError):
            cycle_rngs(*args)


def test_cycle_rngs_memory_is_bounded():
    tracemalloc.start()
    try:
        rng = next(cycle_rngs(0, 0, 10**12))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert draws(rng) == draws(philox_stream(0, 0))
    assert peak < 256 * 1024, peak
