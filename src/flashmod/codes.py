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
finished cycle is kept alive).  The memo is one tuple, read in one
unpack and written in one store, so threads sharing a code only miss.
A miss reads _stored, which is decode's own function, bound in the class
body: it checks the state's q and cell count and works out the value, and
a decode replaced from outside (a tracer, a deliberately broken decoder)
leaves what encode writes unchanged, so a round trip still tests it.  A
hit is the same object, already checked.  The value's range is checked on
every write that raises a cell or hits an erase, before the state is
touched; a same-value write is in range by construction, as the value it
equals is one the state stores.
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


def _take(code, params: CodeParams, kind: CodeKind) -> None:
    """Give code params of kind, its value count and an empty memo; params of the other kind are refused."""
    if params.kind is not kind:
        raise ValueError(f"params describe a {params.kind.value} code")
    code.params, code._values, code._last = params, params.value_count, _FORGOTTEN


class SelfRandomizedCode:
    """Stores a value in 0..2**k-1 using n = 2**k cells.

    Decoding: with r the level sum and s the index-weighted sum, the
    stored value is (s - r(r+1)/2) mod n.  Encoding picks the one cell
    whose increment moves the decoder onto the new value; because that
    pick is offset by the running count r, repeated writes sweep the
    cells evenly for i.i.d. inputs instead of hammering a few indices.
    """

    def __init__(self, params: CodeParams):
        _take(self, params, CodeKind.SELF_RANDOMIZED)

    def decode(self, state: CellState) -> int:
        """Value currently stored; a function of the state alone."""
        _check_fit(state, self.params)
        r = state.level_sum
        # r(r+1)/2 is computed in full precision before the reduction
        return (state.weighted_level_sum - r * (r + 1) // 2) % self._values

    _stored = decode  # encode's rule, kept when decode is replaced from outside

    def encode(self, state: CellState, value: int) -> WriteKind:
        """Store value, incrementing at most one cell."""
        r = state.level_sum
        held, at, current = self._last
        if held is not state or at != r:
            current = self._stored(state)
            self._last = (state, r, current)
        if current == value:
            return NOOP
        values = self._values
        if not 0 <= value < values:
            raise ValueError(f"value {value} outside [0, {values})")
        # the cell (value - current) + r + 1 moves both sums onto value
        out = cell_increment(state, (value - current + r + 1) % values)
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
    index-weighted sum w (mod n) stores a_r^-1 * (w + b_r) mod 2**k.
    Write r of value x names one candidate per copy c in (x, x | 2**k):
    ((a_r*c + b_r) - w) mod n, the map taken in GF(n), whose + is XOR.
    Products distribute over XOR, so with u = a_r*x + b_r the second is
    ((u ^ a_r*2**k) - w) mod n, as encode forms it, and the pairs of the
    2**k values split the n cells into a perfect matching fixed by
    (a_r, b_r, w).
    """

    def __init__(self, params: CodeParams):
        _take(self, params, CodeKind.LOAD_BALANCING)
        self.field = FieldSpec(params.k + 1)  # GF(n) for the binary alphabet
        self._n = params.n

    def _coefficients(self, r: int) -> tuple[int, int]:
        """(a_r, b_r) of write count r; encode reads the same schedule inline, on the tables."""
        return r % (self._values - 1) + 1, r % self._values

    def decode(self, state: CellState) -> int:
        """Value currently stored; a function of the state alone."""
        _check_fit(state, self.params)
        a, b = self._coefficients(state.level_sum)
        return gf_mul(self.field, gf_inv(self.field, a), (state.weighted_level_sum % self._n) ^ b) & (self._values - 1)

    _stored = decode  # encode's rule, kept when decode is replaced from outside

    def candidate_cells(self, state: CellState, value: int) -> list[int]:
        """Cells a write of value would choose among, in choice order."""
        if not 0 <= value < self._values:
            raise ValueError(f"value {value} outside [0, {self._values})")
        _check_fit(state, self.params)
        a, b = self._coefficients(state.level_sum + 1)
        n, w = self._n, state.weighted_level_sum
        return [((gf_mul(self.field, a, x) ^ b) - w) % n for x in (value, value | self._values)]

    def encode(self, state: CellState, value: int) -> WriteKind:
        """Store value on the less charged of its two candidate cells.

        The stored value comes from the memo (_stored on a miss) and the
        candidates from the field tables: one product u, then u's XOR
        partner; test_codes checks all three methods against one
        reference.
        """
        r = state.level_sum
        held, at, current = self._last
        if held is not state or at != r:
            current = self._stored(state)
            self._last = (state, r, current)
            self._tables = self.field.exp, self.field.log, self.params.k  # the degree's shared tables
        if current == value:
            return NOOP
        values = self._values
        if not 0 <= value < values:
            raise ValueError(f"value {value} outside [0, {values})")
        exp, log, k = self._tables
        w, n = state.weighted_level_sum, self._n
        r += 1
        la = log[r % (values - 1) + 1]
        b = r % values
        u = exp[la + log[value]] ^ b if value else b
        first = (u - w) % n
        # log[2**k] = k, so exp[la + k] = a*2**k, and u ^ a*2**k is the image of value | 2**k
        second = ((u ^ exp[la + k]) - w) % n
        levels = state.levels
        # ties go to the first candidate, which keeps runs reproducible
        out = cell_increment(state, second if levels[second] < levels[first] else first)
        self._last = _FORGOTTEN if out is ERASE_REQUIRED else (state, r, value)
        return out


def make_code(params: CodeParams):
    """Build the code instance the params call for."""
    return (SelfRandomizedCode if params.kind is CodeKind.SELF_RANDOMIZED else LoadBalancingCode)(params)
