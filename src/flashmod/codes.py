"""The two modulation codes as encode/decode transformers on CellState.

Both codes share one contract: decode reads nothing but the current
state; encode either does nothing (the state already holds the value),
raises exactly one cell level by one, or reports that the block must be
erased first (erasing is the simulator's job).

They also share one memo path.  encode remembers (state, level sum,
value) of its last write, so a cycle works out its stored value once, on
its first write, and a same-value write costs one comparison.  That is
sound because cell_increment, the only way a CellState's sums change,
adds exactly one to the level sum.  An erase forgets the state (no
finished cycle is kept alive); threads sharing a code only miss.  A miss
checks the state's q and cell count and computes the value with the
private _stored that decode wraps, never through decode itself: a decode
replaced from outside (a tracer, a deliberately broken decoder) leaves
what encode writes unchanged, so a round trip still tests it.  A hit is
the same object, already checked.  The value's range is checked on
every write.
"""

from .core import ERASE_REQUIRED, NOOP, CellState, CodeKind, CodeParams, WriteKind, cell_increment
from .field import FieldSpec, gf_inv, gf_mul

__all__ = ["SelfRandomizedCode", "LoadBalancingCode", "make_code"]

_FORGOTTEN = (None, -1, -1)  # the memo of no state: no level sum is -1


def _check_fit(state: CellState, params: CodeParams) -> None:
    """Refuse a state whose cell count or level count is not the code's."""
    if len(state.levels) != params.n:
        raise ValueError(f"state has {state.n} cells, code needs {params.n}")
    if state.q != params.q:
        raise ValueError(f"state has q={state.q}, code needs q={params.q}")


class SelfRandomizedCode:
    """Stores a value in 0..2**k-1 using n = 2**k cells.

    Decoding: with r the level sum and s the index-weighted sum, the
    stored value is (s - r(r+1)/2) mod n.  Encoding picks the one cell
    whose increment moves the decoder onto the new value; because that
    pick is offset by the running count r, repeated writes sweep the
    cells evenly for i.i.d. inputs instead of hammering a few indices.
    """

    def __init__(self, params: CodeParams):
        if params.kind is not CodeKind.SELF_RANDOMIZED:
            raise ValueError(f"params describe a {params.kind.value} code")
        self.params = params
        self._mod = params.value_count
        self._last = _FORGOTTEN

    def _stored(self, state: CellState) -> int:
        r = state.level_sum
        # r(r+1)/2 is computed in full precision before the reduction
        return (state.weighted_level_sum - r * (r + 1) // 2) % self._mod

    def decode(self, state: CellState) -> int:
        """Value currently stored; a function of the state alone."""
        _check_fit(state, self.params)
        return self._stored(state)

    def encode(self, state: CellState, value: int) -> WriteKind:
        """Store value, incrementing at most one cell."""
        mod = self._mod
        if not 0 <= value < mod:
            raise ValueError(f"value {value} outside [0, {mod})")
        r = state.level_sum
        last = self._last
        if last[0] is not state or last[1] != r:
            _check_fit(state, self.params)
            last = self._last = (state, r, self._stored(state))
        current = last[2]
        if current == value:
            return NOOP
        # the cell (value - current) + r + 1 moves both sums onto value
        out = cell_increment(state, (value - current + r + 1) % mod)
        self._last = _FORGOTTEN if out is ERASE_REQUIRED else (state, r + 1, value)
        return out


class LoadBalancingCode:
    """Stores a value in 0..2**k-1 using n = 2**(k+1) cells.

    The spare factor of two buys two candidate cells per write: the value
    is pushed through an affine map over GF(n) whose coefficients rotate
    with the running write count, each shifted copy of the value names
    one candidate cell, and the less charged candidate is incremented.
    Charge therefore spreads like two-random-choice ball throwing while
    the value stays decodable from the state alone.

    Write count r uses the map v -> a_r*v + b_r with a_r = r mod (2**k - 1)
    + 1, never 0, and b_r = r mod 2**k.  A state with level sum r and
    index-weighted sum w (mod n) stores a_r^-1 * (w + b_r) mod 2**k; the
    candidates of write r for value x are a_r*x + b_r - w and
    a_r*(x + 2**k) + b_r - w (mod n).
    """

    def __init__(self, params: CodeParams):
        if params.kind is not CodeKind.LOAD_BALANCING:
            raise ValueError(f"params describe a {params.kind.value} code")
        self.params = params
        self.field = FieldSpec(params.k + 1)  # GF(n) for the binary alphabet
        self._n = params.n
        self._values = params.value_count
        self._last = _FORGOTTEN

    def _stored(self, state: CellState) -> int:
        r, values = state.level_sum, self._values
        a, b = r % (values - 1) + 1, r % values
        return gf_mul(self.field, gf_inv(self.field, a), (state.weighted_level_sum % self._n) ^ b) & (values - 1)

    def decode(self, state: CellState) -> int:
        """Value currently stored; a function of the state alone."""
        _check_fit(state, self.params)
        return self._stored(state)

    def candidate_cells(self, state: CellState, value: int) -> list[int]:
        """Cells a write of value would choose among, in choice order."""
        if not 0 <= value < self._values:
            raise ValueError(f"value {value} outside [0, {self._values})")
        _check_fit(state, self.params)
        n, values = self._n, self._values
        r = state.level_sum + 1
        a, b = r % (values - 1) + 1, r % values
        raw = state.weighted_level_sum % n
        return [((gf_mul(self.field, a, v) ^ b) - raw) % n for v in (value, value | values)]

    def encode(self, state: CellState, value: int) -> WriteKind:
        """Store value on the less charged of its two candidate cells.

        The stored value comes from the memo (_stored on a miss) and the
        candidates from the field tables; test_codes checks all three
        methods against one reference.
        """
        values = self._values
        if not 0 <= value < values:
            raise ValueError(f"value {value} outside [0, {values})")
        r = state.level_sum
        last = self._last
        if last[0] is not state or last[1] != r:
            _check_fit(state, self.params)
            last = self._last = (state, r, self._stored(state))
            # read with the field _stored just used, so a cycle sees one field
            self._tables = self.field.exp, self.field.log
        if last[2] == value:
            return NOOP
        exp, log = self._tables
        w, n = state.weighted_level_sum, self._n
        r += 1
        la = log[r % (values - 1) + 1]
        b = r % values
        first = (((exp[la + log[value]] if value else 0) ^ b) - w) % n
        second = ((exp[la + log[value | values]] ^ b) - w) % n
        levels = state.levels
        # ties go to the first candidate, which keeps runs reproducible
        out = cell_increment(state, second if levels[second] < levels[first] else first)
        self._last = _FORGOTTEN if out is ERASE_REQUIRED else (state, r, value)
        return out


def make_code(params: CodeParams):
    """Build the code instance the params call for."""
    if params.kind is CodeKind.SELF_RANDOMIZED:
        return SelfRandomizedCode(params)
    return LoadBalancingCode(params)
