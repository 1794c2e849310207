"""Cell-state primitives shared by both modulation codes.

An n-cell is a group of n charge cells, each holding an integer level in
``[0, q-1]``.  Within an erasure cycle levels only move upward; the block
erase that resets them belongs to the simulation layer, so the state
itself only ever increments.  Decoders read two aggregates of the state,
the plain level sum and the index-weighted level sum, and both are
maintained incrementally so a read costs O(1) instead of O(n).
"""

from dataclasses import dataclass
from enum import Enum

__all__ = [
    "CodeKind",
    "CodeParams",
    "CellState",
    "WriteKind",
    "WriteOutcome",
    "NOOP",
    "ERASE_REQUIRED",
    "written",
    "cell_increment",
]


class CodeKind(Enum):
    """Which modulation code an n-cell is configured for."""

    SELF_RANDOMIZED = "self-randomized"
    LOAD_BALANCING = "load-balancing"


@dataclass(frozen=True)
class CodeParams:
    """Static configuration of one n-cell code instance.

    k is the number of stored variables, l the alphabet size (only the
    binary alphabet l=2 is supported), q the number of charge levels per
    cell, and n the cell count.  n is tied to the kind: a self-randomized
    code uses n = l**k cells, a load-balancing code n = l**(k+1); pass
    n=0 to derive it.
    """

    k: int
    l: int
    q: int
    kind: CodeKind
    n: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.l != 2:
            raise ValueError(f"only the binary alphabet l=2 is supported, got l={self.l}")
        if self.q < 2:
            raise ValueError(f"q must be >= 2, got {self.q}")
        if not isinstance(self.kind, CodeKind):
            raise TypeError(f"kind must be a CodeKind, got {self.kind!r}")
        exponent = self.k if self.kind is CodeKind.SELF_RANDOMIZED else self.k + 1
        expected = self.l**exponent
        if self.n == 0:
            object.__setattr__(self, "n", expected)
        elif self.n != expected:
            raise ValueError(
                f"{self.kind.value} code with k={self.k}, l={self.l} "
                f"needs n={expected} cells, got n={self.n}"
            )

    @property
    def value_count(self) -> int:
        """Number of storable values, l**k."""
        return self.l**self.k

    @property
    def total_levels(self) -> int:
        """Level increments available per erasure cycle, n*(q-1)."""
        return self.n * (self.q - 1)


class WriteKind(Enum):
    WRITTEN = "written"
    NOOP = "noop"
    ERASE_REQUIRED = "erase-required"


@dataclass(frozen=True)
class WriteOutcome:
    """Result of one encode attempt.

    WRITTEN carries the index of the single incremented cell.  NOOP means
    the state already decoded to the requested value.  ERASE_REQUIRED
    means the selected cell sits at q-1, so the block must be erased
    before this value can be stored; the state was left untouched.
    """

    kind: WriteKind
    cell: int | None = None

    def __post_init__(self):
        if self.kind is WriteKind.WRITTEN:
            if self.cell is None or self.cell < 0:
                raise ValueError("WRITTEN outcome needs a non-negative cell index")
        elif self.cell is not None:
            raise ValueError(f"{self.kind.value} outcome carries no cell index")

    @property
    def is_written(self) -> bool:
        return self.kind is WriteKind.WRITTEN


NOOP = WriteOutcome(WriteKind.NOOP)
ERASE_REQUIRED = WriteOutcome(WriteKind.ERASE_REQUIRED)

_written_cache: dict[int, WriteOutcome] = {}


def written(cell: int) -> WriteOutcome:
    """Interned WRITTEN outcome for the given cell index."""
    out = _written_cache.get(cell)
    if out is None:
        out = _written_cache.setdefault(cell, WriteOutcome(WriteKind.WRITTEN, cell))
    return out


class CellState:
    """Mutable charge levels of one n-cell.

    Levels are only ever raised (through cell_increment), which keeps the
    running level sum and index-weighted sum valid.  A state belongs to a
    single simulation trial; nothing here is shared or locked.
    """

    __slots__ = ("q", "levels", "level_sum", "weighted_level_sum")

    def __init__(self, levels, q: int):
        if q < 2:
            raise ValueError(f"q must be >= 2, got {q}")
        levels = [int(v) for v in levels]
        for i, v in enumerate(levels):
            if not 0 <= v <= q - 1:
                raise ValueError(f"cell {i} level {v} outside [0, {q - 1}]")
        self.q = q
        self.levels = levels
        self.level_sum = sum(levels)
        self.weighted_level_sum = sum(i * v for i, v in enumerate(levels))

    @classmethod
    def zeros(cls, n: int, q: int) -> "CellState":
        """Fresh erased n-cell: all levels zero."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        return cls([0] * n, q)

    @property
    def n(self) -> int:
        return len(self.levels)

    @property
    def max_level(self) -> int:
        return max(self.levels)

    def copy(self) -> "CellState":
        return CellState(self.levels, self.q)

    def __repr__(self):
        return f"CellState(levels={self.levels!r}, q={self.q})"


def cell_increment(state: CellState, idx: int) -> WriteOutcome:
    """Raise cell idx by one level, or signal that an erase is due.

    The state is untouched when ERASE_REQUIRED is returned.  An
    out-of-range index is a caller bug and raises IndexError.
    """
    levels = state.levels
    if not 0 <= idx < len(levels):
        raise IndexError(f"cell index {idx} outside [0, {len(levels)})")
    if levels[idx] == state.q - 1:
        return ERASE_REQUIRED
    levels[idx] += 1
    state.level_sum += 1
    state.weighted_level_sum += idx
    return written(idx)
