"""The two modulation codes as encode/decode transformers on CellState.

Both codes share one contract: decode reads nothing but the current
state; encode either does nothing (the state already holds the value),
raises exactly one cell level by one, or reports that the block must be
erased first.  Erasing itself is the simulator's job, which keeps the
codes pure state transformers.
"""

from .core import NOOP, CellState, CodeKind, CodeParams, WriteOutcome, cell_increment
from .field import FieldSpec, gf_inv, gf_mul

__all__ = ["SelfRandomizedCode", "LoadBalancingCode", "make_code"]


class SelfRandomizedCode:
    """Stores a value in 0..2**k-1 using n = 2**k cells.

    Decoding: with r the level sum and s the index-weighted sum, the
    stored value is (s - r(r+1)/2) mod n.  Encoding picks the one cell
    whose increment moves the decoder onto the new value; because that
    pick is offset by the running count r, repeated writes sweep the
    cells evenly for i.i.d. inputs instead of hammering a few indices.
    """

    kind = CodeKind.SELF_RANDOMIZED

    def __init__(self, params: CodeParams):
        if params.kind is not CodeKind.SELF_RANDOMIZED:
            raise ValueError(f"params describe a {params.kind.value} code")
        self.params = params
        self._mod = params.value_count

    def decode(self, state: CellState) -> int:
        """Value currently stored; a function of the state alone."""
        if state.n != self.params.n:
            raise ValueError(f"state has {state.n} cells, code needs {self.params.n}")
        r = state.level_sum
        s = state.weighted_level_sum % self._mod
        # r(r+1)/2 is computed in full precision before the reduction
        return (s - r * (r + 1) // 2) % self._mod

    def encode(self, state: CellState, value: int) -> WriteOutcome:
        """Store value, incrementing at most one cell."""
        mod = self._mod
        if not 0 <= value < mod:
            raise ValueError(f"value {value} outside [0, {mod})")
        if state.q != self.params.q:
            raise ValueError(f"state has q={state.q}, code needs q={self.params.q}")
        current = self.decode(state)
        if current == value:
            return NOOP
        delta = (value - current) % mod
        target = (delta + state.level_sum + 1) % mod
        return cell_increment(state, target)


class LoadBalancingCode:
    """Stores a value in 0..2**k-1 using n = 2**(k+1) cells.

    The spare factor of two buys two candidate cells per write: the value
    is pushed through an affine map over GF(n) whose coefficients rotate
    with the running write count, each shifted copy of the value names
    one candidate cell, and the less charged candidate is incremented.
    Charge therefore spreads like two-random-choice ball throwing while
    the value stays decodable from the state alone.
    """

    kind = CodeKind.LOAD_BALANCING

    def __init__(self, params: CodeParams):
        if params.kind is not CodeKind.LOAD_BALANCING:
            raise ValueError(f"params describe a {params.kind.value} code")
        self.params = params
        self.field = FieldSpec(params.k + 1)  # GF(n) for the binary alphabet
        self._n = params.n
        self._values = params.value_count

    def _scalars(self, r: int) -> tuple[int, int]:
        """Affine coefficients (a, b) for write count r; a is never 0."""
        values = self._values
        a = r % (values - 1) + 1 if values > 2 else 1
        b = r % values
        return a, b

    def decode(self, state: CellState) -> int:
        """Value currently stored; a function of the state alone."""
        if state.n != self._n:
            raise ValueError(f"state has {state.n} cells, code needs {self._n}")
        r = state.level_sum
        raw = state.weighted_level_sum % self._n
        a, b = self._scalars(r)
        return gf_mul(self.field, gf_inv(self.field, a), raw ^ b) % self._values

    def candidate_cells(self, state: CellState, value: int) -> list[int]:
        """Cells a write of value would choose among, in choice order."""
        r = state.level_sum + 1
        a, b = self._scalars(r)
        raw = state.weighted_level_sum % self._n
        field = self.field
        values = self._values
        cells = []
        for i in range(self.params.l):
            image = gf_mul(field, a, value + i * values) ^ b
            cells.append((image - raw) % self._n)
        return cells

    def encode(self, state: CellState, value: int) -> WriteOutcome:
        """Store value on the least charged of its candidate cells."""
        if not 0 <= value < self._values:
            raise ValueError(f"value {value} outside [0, {self._values})")
        if state.q != self.params.q:
            raise ValueError(f"state has q={state.q}, code needs q={self.params.q}")
        if self.decode(state) == value:
            return NOOP
        levels = state.levels
        best = -1
        best_level = None
        # ties go to the lowest choice index, which keeps runs reproducible
        for cell in self.candidate_cells(state, value):
            lv = levels[cell]
            if best_level is None or lv < best_level:
                best, best_level = cell, lv
        return cell_increment(state, best)


def make_code(params: CodeParams):
    """Build the code instance the params call for."""
    if params.kind is CodeKind.SELF_RANDOMIZED:
        return SelfRandomizedCode(params)
    return LoadBalancingCode(params)
