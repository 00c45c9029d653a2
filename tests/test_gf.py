import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksets import gf
from blocksets.errors import DivisionByZero, InternalError, NotPrimePower, TooLarge
from blocksets.gf import field_make


def test_prime_field_modulus_is_x():
    f = field_make(3)
    assert (f.p, f.e) == (3, 1)
    assert f.modulus_str() == "x"


def test_gf4_canonical():
    f = field_make(4)
    assert f.modulus_str() == "x^2+x+1"  # the only irreducible quadratic
    assert f.mul(2, 2) == 3
    assert f.add(1, 1) == 0


def test_gf9_gf8_moduli():
    assert field_make(9).modulus_str() == "x^2+1"
    assert field_make(8).modulus_str() == "x^3+x+1"
    assert field_make(16).modulus_str() == "x^4+x+1"


def test_gf3_inverse():
    f = field_make(3)
    assert f.inv(2) == 2


def test_not_prime_power():
    with pytest.raises(NotPrimePower):
        field_make(6)
    with pytest.raises(NotPrimePower):
        field_make(12)
    with pytest.raises((NotPrimePower, ValueError)):
        field_make(1)
    with pytest.raises(NotPrimePower, match="q must be an integer"):
        field_make("4")


def test_order_cap():
    # every field is built with its tables, so none past the table size:
    # 521 is the least prime power above it
    assert gf.Q_CAP == 512
    for q in (521, 1 << 17):
        with pytest.raises(TooLarge):
            field_make(q)


def test_inv_zero_rejected():
    with pytest.raises(DivisionByZero):
        field_make(5).inv(0)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_axioms_exhaustive_small(q):
    f = field_make(q)
    els = range(q)
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 64])
def test_frobenius(q):
    f = field_make(q)
    for a in range(q):
        power = a
        for _ in range(q - 1):
            power = f.mul(power, a)
        assert power == a


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([16, 32, 81, 125, 128, 243, 256, 343]),
       st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_axioms_random_larger(q, a, b, c):
    f = field_make(q)
    a, b, c = a % q, b % q, c % q
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    if a:
        assert f.mul(a, f.inv(a)) == 1


def test_field_make_cached():
    assert field_make(9) is field_make(9)


@pytest.mark.parametrize("q,table,a,b", [
    (5, "add_table", 1, 2),   # a row stops being a permutation
    (4, "mul_table", 2, 3),
    (5, "neg_table", 1, None),
    (7, "inv_table", 3, None),
])
def test_corrupt_table_raises(monkeypatch, q, table, a, b):
    real = gf._build_tables

    def corrupt(fq):
        real(fq)
        t = getattr(fq, table)
        if b is None:
            t[a] = (t[a] + 1) % q
        else:
            t[a][b] = (t[a][b] + 1) % q
    monkeypatch.setattr(gf, "_build_tables", corrupt)
    with pytest.raises(InternalError):
        field_make.__wrapped__(q)
