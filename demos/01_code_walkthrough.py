"""Walk both modulation codes through a handful of writes, printing state.

The self-randomized code stores a k-bit value in 2**k cells; the
load-balancing one spends 2**(k+1) cells to get two candidate cells per
write.  Watch the level vectors grow and the decoder track every write.
"""

from flashmod import ERASE_REQUIRED, CellState, CodeKind, CodeParams, make_code


def write(code, state, value):
    """Encode value; returns the outcome and what it did, read off the levels."""
    before = list(state.levels)
    outcome = code.encode(state, value)
    risen = [i for i, (was, now) in enumerate(zip(before, state.levels)) if now != was]
    return outcome, f"cell {risen[0]}" if risen else "no-op"


print("=== self-randomized code, k=2 (4 values in 4 cells), q=4 ===")
params = CodeParams(k=2, l=2, q=4, kind=CodeKind.SELF_RANDOMIZED)
code = make_code(params)
state = CellState.zeros(params.n, params.q)

for value in [3, 1, 1, 2, 0, 3, 2]:
    outcome, where = write(code, state, value)
    if outcome is ERASE_REQUIRED:
        print(f"write {value}: erase required, state unchanged {state.levels}")
        break
    print(f"write {value}: {where:7s} state={state.levels} decode={code.decode(state)}")

print()
print("=== load-balancing code, k=1 (2 values in 4 cells), q=4 ===")
params = CodeParams(k=1, l=2, q=4, kind=CodeKind.LOAD_BALANCING)
code = make_code(params)
state = CellState.zeros(params.n, params.q)

for value in [1, 0, 1, 0, 1, 0, 1]:
    cands = code.candidate_cells(state, value)
    outcome, where = write(code, state, value)
    if outcome is ERASE_REQUIRED:
        print(f"write {value}: candidates {cands} both full, erase required")
        break
    print(f"write {value}: candidates {cands} -> {where:7s} state={state.levels} decode={code.decode(state)}")

print()
print("The write that would push a cell past q-1 is signalled, not applied;")
print("the block erase (reset to all-zero) belongs to the simulation layer.")
