"""cycle_rngs re-implements NumPy's SeedSequence hash and PCG64 seeding.

Every test here compares it with cycle_rng, which asks NumPy itself, so
the file must pass on every NumPy the package allows; CI runs it at the
pyproject floor as well as on the current release.
"""

import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from flashmod.sim import _SEED_BLOCK, cycle_rng, cycle_rngs

# where SeedSequence's split of an int into 32-bit words changes length
EDGES = (0, 1, 2**32 - 3, 2**32 - 1, 2**32, 2**63, 2**64 - 2, 2**64, 2**96 - 1, 2**96)


@given(
    st.one_of(st.sampled_from(EDGES), st.integers(0, 2**100)),
    st.one_of(st.sampled_from(EDGES), st.integers(0, 2**70)),
    st.integers(0, 12),
)
@example(7, 0, 0)
@example(2**96, 0, 1)
@example(5, 0, _SEED_BLOCK + 3)  # crosses a block edge
@example(2**70 + 5, _SEED_BLOCK - 2, 4)
@example(2**64 + 1, 2**32 - 3, 6)  # index words go from one to two
@example(2**96, 2**63, 3)
@example(3, 2**64 - 2, 5)  # index words go from two to three
def test_cycle_rngs_matches_cycle_rng(seed, start, count):
    seen = 0
    for i, rng in enumerate(cycle_rngs(seed, start, count), start):
        ref = cycle_rng(seed, i)
        assert rng.bit_generator.state == ref.bit_generator.state, i
        assert rng.random(3).tolist() == ref.random(3).tolist(), i
        assert rng.integers(0, 2**40, 3).tolist() == ref.integers(0, 2**40, 3).tolist(), i
        seen += 1
    assert seen == count


def test_cycle_rngs_rejects_what_seed_sequence_rejects():
    with pytest.raises(ValueError):
        cycle_rng(-1, 0)
    for args, name in (((-1, 0, 1), "master_seed"), ((0, -1, 1), "start"), ((0, 0, -1), "count")):
        with pytest.raises(ValueError, match=f"^{name} must be >= 0, got -1"):
            cycle_rngs(*args)  # at the call, before any stream is drawn
    for args in ((1.5, 0, 1), (0, 1.0, 1), (0, 0, 2.0)):
        with pytest.raises(TypeError):
            cycle_rngs(*args)


def test_cycle_rngs_memory_is_bounded_by_the_block():
    tracemalloc.start()
    try:
        rng = next(cycle_rngs(0, 0, 10**12))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rng.bit_generator.state == cycle_rng(0, 0).bit_generator.state
    assert peak < 256 * 1024, peak
