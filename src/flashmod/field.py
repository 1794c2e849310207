"""Arithmetic in GF(2**m) on plain integers.

A field element is an m-bit integer whose bits are the coefficients of a
polynomial over GF(2).  The integer-to-element bijection used by the
load-balancing code is therefore the identity map (and sends 0 to 0),
which keeps traces reproducible, and field addition is integer XOR,
``a ^ b``.  Reduction uses one fixed primitive polynomial per extension
degree, and products and inverses are lookups in log/antilog tables
built lazily per FieldSpec.
"""

from functools import cached_property
from operator import index

from ._record import Record

__all__ = ["FieldSpec", "DEFAULT_POLYS", "gf_mul", "gf_inv"]

#: Conventional low-weight primitive polynomials, degree -> bit mask.
#: Its keys are the supported extension degrees.
DEFAULT_POLYS = {
    2: 0b111,  # x^2 + x + 1
    3: 0b1011,  # x^3 + x + 1
    4: 0b10011,  # x^4 + x + 1
    5: 0b100101,  # x^5 + x^2 + 1
    6: 0b1000011,  # x^6 + x + 1
    7: 0b10001001,  # x^7 + x^3 + 1
    8: 0b100011101,  # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,  # x^9 + x^4 + 1
    10: 0b10000001001,  # x^10 + x^3 + 1
    11: 0b100000000101,  # x^11 + x^2 + 1
    12: 0b1000001010011,  # x^12 + x^6 + x^4 + x + 1
    13: 0b10000000011011,  # x^13 + x^4 + x^3 + x + 1
    14: 0b100010001000011,  # x^14 + x^10 + x^6 + x + 1
    15: 0b1000000000000011,  # x^15 + x + 1
    16: 0b10001000000001011,  # x^16 + x^12 + x^3 + x + 1
    17: 0x20009,  # x^17 + x^3 + 1
    18: 0x40081,  # x^18 + x^7 + 1
    19: 0x80027,  # x^19 + x^5 + x^2 + x + 1
    20: 0x100009,  # x^20 + x^3 + 1
    21: 0x200005,  # x^21 + x^2 + 1
    22: 0x400003,  # x^22 + x + 1
    23: 0x800021,  # x^23 + x^5 + 1
    24: 0x1000087,  # x^24 + x^7 + x^2 + x + 1
}


class FieldSpec(Record):
    """GF(2**m), reduced modulo the primitive polynomial DEFAULT_POLYS[m].

    Because the polynomial is primitive, x generates the multiplicative
    group, so products and inverses are lookups in the exp (antilog) and
    log tables.  Construction only checks m; the tables are built on the
    first product or inverse.  The build is deterministic, so threads that
    race on it store equal tables, and a FieldSpec is safe to share
    across threads with all operations on it pure.
    """

    _fields = ("m",)  # no __slots__: the cached tables live in __dict__

    def __init__(self, m: int):
        m = index(m)
        if m not in DEFAULT_POLYS:
            raise ValueError(
                f"extension degree m must be in [{min(DEFAULT_POLYS)}, {max(DEFAULT_POLYS)}], got {m}"
            )
        object.__setattr__(self, "m", m)

    @property
    def poly(self) -> int:
        """(m+1)-bit mask of the reduction polynomial."""
        return DEFAULT_POLYS[self.m]

    @property
    def order(self) -> int:
        """Number of field elements, 2**m."""
        return 1 << self.m

    @cached_property
    def exp(self) -> list[int]:
        """exp[i] = x**i, for i in [0, 2*(order-1)), so a sum of two logs needs no reduction."""
        top, poly = self.order, self.poly
        exp = []
        a = 1
        for _ in range(top - 1):
            exp.append(a)
            a <<= 1
            if a & top:
                a ^= poly
        return exp + exp

    @cached_property
    def log(self) -> list[int]:
        """log[a] = i with x**i = a, for a != 0; log[0] is unused."""
        log = [0] * self.order
        for i, a in enumerate(self.exp[: self.order - 1]):
            log[a] = i
        return log


def _not_element(spec: FieldSpec, *elems: int) -> ValueError:
    """The error for the first of elems outside GF(2**m)."""
    bad = next(a for a in elems if not 0 <= a < 1 << spec.m)
    return ValueError(f"{bad} is not an element of GF(2^{spec.m})")


def gf_mul(spec: FieldSpec, a: int, b: int) -> int:
    """Field product: x**(log a + log b), with 0 absorbing."""
    top = 1 << spec.m
    if not (0 <= a < top and 0 <= b < top):  # before the tables are touched or built
        raise _not_element(spec, a, b)
    if a == 0 or b == 0:
        return 0
    log = spec.log
    return spec.exp[log[a] + log[b]]


def gf_inv(spec: FieldSpec, a: int) -> int:
    """Multiplicative inverse x**(order - 1 - log a); 0 raises ZeroDivisionError."""
    top = 1 << spec.m
    if not 0 <= a < top:  # before the tables are touched or built
        raise _not_element(spec, a)
    if a == 0:
        raise ZeroDivisionError("0 is not invertible in a field")
    return spec.exp[top - 1 - spec.log[a]]
