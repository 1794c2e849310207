"""Cell-state primitives shared by both modulation codes.

An n-cell is a group of n charge cells, each holding an integer level in
``[0, q-1]``.  Within an erasure cycle levels only move upward; the block
erase that resets them belongs to the simulation layer, so the state
itself only ever increments.  Decoders read two aggregates of the state,
the plain level sum and the index-weighted level sum, and both are
maintained incrementally so a read costs O(1) instead of O(n).
cell_increment is the one way they change, by exactly one on the level
sum, which is what lets each code's encode memo key its stored value on
(state, level sum).  CodeParams is a plain slotted Record rather than a
decorated one: the standard library's record decorator imports inspect,
ast and dis, which cost more to load than the whole package.
"""

from enum import Enum
from operator import index

from ._record import Record
from .field import DEFAULT_POLYS

__all__ = [
    "CodeKind",
    "CodeParams",
    "CellState",
    "WriteKind",
    "NOOP",
    "WRITTEN",
    "ERASE_REQUIRED",
    "cell_increment",
    "loss_factor",
]

#: log2 of the largest cell count, n = 2**24: the largest field GF(n) the
#: load-balancing code can use, and a bound on what CellState.zeros (and
#: the ballsbins placement, per bin) allocates.
MAX_LOG2_N = max(DEFAULT_POLYS)


def read_count(value, name: str, low: int) -> int:
    """value as an int once it is >= low; a float is refused (TypeError), not truncated."""
    value = index(value)
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def read_cells(n, name: str = "n") -> int:
    """n as a cell (or bin) count in [1, 2^MAX_LOG2_N], read before anything is allocated."""
    n = index(n)
    if not 1 <= n <= 1 << MAX_LOG2_N:
        raise ValueError(f"{name} must be in [1, 2^{MAX_LOG2_N}], got {n}")
    return n


def loss_factor(mean, n, q) -> float:
    """eta = 1 - mean/(n*(q-1)), the share of an n-cell's level increments that mean increments per cycle leave unused."""
    return 1.0 - mean / (read_cells(n) * (read_count(q, "q", 2) - 1))


class CodeKind(Enum):
    """Which modulation code an n-cell is configured for."""

    SELF_RANDOMIZED = "self-randomized"
    LOAD_BALANCING = "load-balancing"


class CodeParams(Record):
    """Static configuration of one n-cell code instance.

    k is the number of stored variables, l the alphabet size (only the
    binary alphabet l=2 is supported) and q the number of charge levels
    per cell.  The cell count n is derived, never passed: a
    self-randomized code uses n = l**k cells, a load-balancing code
    n = l**(k+1).  n may not exceed 2**MAX_LOG2_N.
    """

    __slots__ = _fields = ("k", "l", "q", "kind", "n")

    def __init__(self, k: int, l: int, q: int, kind: CodeKind):
        k, l = read_count(k, "k", 1), index(l)
        if l != 2:
            raise ValueError(f"only the binary alphabet l=2 is supported, got l={l}")
        # a float q would never equal the top level q - 1, so a cycle would never end
        q = read_count(q, "q", 2)
        if not isinstance(kind, CodeKind):
            raise TypeError(f"kind must be a CodeKind, got {kind!r}")
        exponent = k if kind is CodeKind.SELF_RANDOMIZED else k + 1
        if exponent > MAX_LOG2_N:  # with l == 2 this is n > 2**MAX_LOG2_N, checked before l**exponent
            raise ValueError(
                f"{kind.value} code with k={k} needs n=2^{exponent} cells, "
                f"more than the limit 2^{MAX_LOG2_N}"
            )
        self._set(k, l, q, kind, l**exponent)

    @property
    def value_count(self) -> int:
        """Number of storable values, l**k."""
        return self.l**self.k

    @property
    def total_levels(self) -> int:
        """Level increments available per erasure cycle, n*(q-1)."""
        return self.n * (self.q - 1)


class WriteKind(Enum):
    """Result of one encode attempt: one of NOOP, WRITTEN, ERASE_REQUIRED.

    NOOP means the state already decoded to the requested value.
    WRITTEN means exactly one cell rose by one level; the state's sums
    tell which.  ERASE_REQUIRED means the selected cell sits at q-1, so
    the block must be erased before this value can be stored; the state
    was left untouched.  Members are singletons, copies and pickles
    included, so outcomes compare with ``is``.
    """

    WRITTEN = "written"
    NOOP = "noop"
    ERASE_REQUIRED = "erase-required"

    @property
    def kind(self) -> "WriteKind":
        """The member itself: the benchmark tracer reads out.kind until it compares out is WRITTEN."""
        return self


NOOP = WriteKind.NOOP
WRITTEN = WriteKind.WRITTEN
ERASE_REQUIRED = WriteKind.ERASE_REQUIRED


class CellState:
    """Mutable charge levels of one n-cell.

    Levels are only ever raised (through cell_increment), which keeps the
    running level sum and index-weighted sum valid.  A state belongs to a
    single simulation trial; nothing here is shared or locked.
    """

    __slots__ = ("q", "levels", "level_sum", "weighted_level_sum")

    def __init__(self, levels, q: int):
        q = read_count(q, "q", 2)
        levels = [index(v) for v in levels]
        for i, v in enumerate(levels):
            if not 0 <= v <= q - 1:
                raise ValueError(f"cell {i} level {v} outside [0, {q - 1}]")
        self.q = q
        self.levels = levels
        self.level_sum = sum(levels)
        self.weighted_level_sum = sum(i * v for i, v in enumerate(levels))

    @classmethod
    def zeros(cls, n: int, q: int) -> "CellState":
        """Fresh erased n-cell: all levels zero, built without __init__'s O(n) checks."""
        n, q = read_cells(n), read_count(q, "q", 2)
        state = cls.__new__(cls)
        state.q = q
        state.levels = [0] * n
        state.level_sum = state.weighted_level_sum = 0
        return state

    @property
    def n(self) -> int:
        return len(self.levels)

    def __repr__(self):
        return f"CellState(levels={self.levels!r}, q={self.q})"


def cell_increment(state: CellState, idx: int) -> WriteKind:
    """Raise cell idx by one level (WRITTEN), or signal that an erase is due.

    The state is untouched when ERASE_REQUIRED is returned.  An
    out-of-range index is a caller bug and raises IndexError: a negative
    one here, since Python would count it from the end, one past the end
    from the list read itself.
    """
    levels = state.levels
    if idx < 0:
        raise IndexError(f"cell index {idx} outside [0, {len(levels)})")
    level = levels[idx]
    if level == state.q - 1:
        return ERASE_REQUIRED
    levels[idx] = level + 1
    state.level_sum += 1
    state.weighted_level_sum += idx
    return WRITTEN
