import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_core import assert_frozen

from flashmod.field import DEFAULT_POLYS, FieldSpec, gf_inv, gf_mul


def clmul(a, b):
    """Carryless product, no reduction."""
    acc = 0
    shift = 0
    while b:
        if b & 1:
            acc ^= a << shift
        b >>= 1
        shift += 1
    return acc


def poly_mod(a, mod):
    while a and a.bit_length() >= mod.bit_length():
        a ^= mod << (a.bit_length() - mod.bit_length())
    return a


def mul_oracle(a, b, poly):
    """Brute-force multiply-then-reduce, independent of gf_mul."""
    return poly_mod(clmul(a, b), poly)


def poly_divmod(a, b):
    q = 0
    db = b.bit_length()
    while a and a.bit_length() >= db:
        shift = a.bit_length() - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def inv_oracle(a, poly):
    """Extended Euclid over GF(2)[x]."""
    r0, r1 = poly, a
    t0, t1 = 0, 1
    while r1 not in (0, 1):
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, t0 ^ clmul(q, t1)
    assert r1 == 1, "input not invertible"
    return poly_mod(t1, poly)


def test_default_polys_all_valid():
    for m in range(2, 25):
        spec = FieldSpec(m)
        assert spec.poly == DEFAULT_POLYS[m]
        assert spec.order == 1 << m
        assert "exp" not in vars(spec) and "log" not in vars(spec)  # tables are built lazily
    spec = FieldSpec(4)
    gf_mul(spec, 3, 5)
    assert len(spec.exp) == 2 * 15 and len(spec.log) == 16
    # a frozen value, equal, hashed and shown by m alone: built tables do not count
    assert spec == FieldSpec(m=4) and hash(spec) == hash(FieldSpec(4)) and spec != FieldSpec(5)
    assert repr(spec) == "FieldSpec(m=4)"
    # a NumPy integer is read as the int it holds
    assert FieldSpec(np.int64(4)) == spec and repr(FieldSpec(np.int64(4))) == "FieldSpec(m=4)"
    assert_frozen(spec, "m", "exp")


def x_power(e, poly):
    """x**e mod poly by square-and-multiply on clmul/poly_mod."""
    result, base = 1, 0b10
    while e:
        if e & 1:
            result = poly_mod(clmul(result, base), poly)
        base = poly_mod(clmul(base, base), poly)
        e >>= 1
    return result


def prime_factors(n):
    """Distinct primes dividing n, by trial division."""
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def test_default_polys_are_primitive():
    # x generates the multiplicative group, which the log/antilog tables
    # rely on; checked without building them
    assert sorted(DEFAULT_POLYS) == list(range(2, 25))
    for m, poly in DEFAULT_POLYS.items():
        assert poly.bit_length() == m + 1
        group = (1 << m) - 1
        assert x_power(group, poly) == 1
        for p in prime_factors(group):
            assert x_power(group // p, poly) != 1, (m, p)


def test_rejects_wrong_degree_and_reducible():
    with pytest.raises(ValueError):
        FieldSpec(1)
    with pytest.raises(ValueError):
        FieldSpec(25)
    # accepted as equal to 4, a float m would fail only at the first product
    with pytest.raises(TypeError):
        FieldSpec(4.0)


def test_mul_examples():
    spec = FieldSpec(4)
    assert gf_mul(spec, 7, 1) == 7
    assert gf_mul(spec, 9, 0) == 0
    # GF(4): x * x = x + 1
    assert gf_mul(FieldSpec(2), 2, 2) == 3


def test_inv_examples():
    spec = FieldSpec(4)
    assert gf_inv(spec, 1) == 1
    assert gf_inv(FieldSpec(2), 2) == 3
    with pytest.raises(ZeroDivisionError):
        gf_inv(spec, 0)


def test_element_range_checked():
    spec = FieldSpec(2)
    with pytest.raises(ValueError):
        gf_mul(spec, 4, 1)
    # the operand check comes before the tables are touched or built
    big = FieldSpec(24)
    for call in (
        lambda: gf_mul(big, 1 << 24, 1),
        lambda: gf_mul(big, 3, -1),
        lambda: gf_inv(big, 1 << 24),
        lambda: gf_inv(big, -5),
    ):
        with pytest.raises(ValueError, match="not an element"):
            call()
        assert "log" not in vars(big) and "exp" not in vars(big)


def test_gf16_products_match_oracle_exhaustively():
    spec = FieldSpec(4)
    for a in range(16):
        for b in range(16):
            assert gf_mul(spec, a, b) == mul_oracle(a, b, spec.poly)


def test_inverse_matches_extended_euclid():
    cases = {m: np.random.default_rng(m).integers(1, 1 << m, size=50).tolist() for m in (2, 3, 4, 6, 8)}
    cases[10] = range(1, 1 << 10)  # all of GF(2^10), the field of a 1024-cell block
    for m, elements in cases.items():
        spec = FieldSpec(m)
        for a in elements:
            inv = gf_inv(spec, a)
            assert inv == inv_oracle(a, spec.poly)
            assert gf_mul(spec, a, inv) == 1


def broken_axioms(spec, a, b, c):
    """Names of the field axioms that the triple (a, b, c) breaks in spec."""
    checks = {
        "additive commutativity": a ^ b == b ^ a,
        "multiplicative commutativity": gf_mul(spec, a, b) == gf_mul(spec, b, a),
        "associativity": gf_mul(spec, gf_mul(spec, a, b), c) == gf_mul(spec, a, gf_mul(spec, b, c)),
        "distributivity": gf_mul(spec, a, b ^ c) == gf_mul(spec, a, b) ^ gf_mul(spec, a, c),
        "additive identity": a ^ 0 == a,
        "multiplicative identity": gf_mul(spec, a, 1) == a,
        "additive inverse": a ^ a == 0,
        "multiplicative inverse": not a or gf_mul(spec, a, gf_inv(spec, a)) == 1,
    }
    return [name for name, ok in checks.items() if not ok]


@given(st.integers(2, 12), st.data())
def test_field_axioms(m, data):
    "Associativity, commutativity, distributivity, identities, inverses."
    spec = FieldSpec(m)
    top = spec.order - 1
    a = data.draw(st.integers(0, top))
    b = data.draw(st.integers(0, top))
    c = data.draw(st.integers(0, top))
    assert broken_axioms(spec, a, b, c) == []


def test_identity_bijection_convention():
    # the integer<->element map is the identity, so 0 maps to 0 and the
    # whole range is covered trivially
    spec = FieldSpec(3)
    assert gf_mul(spec, 1, 0) == 0
    assert sorted(gf_mul(spec, 1, v) for v in range(spec.order)) == list(range(spec.order))
