import pytest
from hypothesis import given, strategies as st

from mqunits.intarith import (
    is_perfect_square,
    is_prime,
    is_squarefree,
    prime_factors,
    primes_upto,
    sqrt_interval,
    sqrt_mod_prime,
    squarefree_decompose,
)


def test_primes_upto_small():
    assert primes_upto(1) == []
    assert primes_upto(2) == [2]
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_primes_upto_grows_then_shrinks_consistently():
    big = primes_upto(10_000)
    small = primes_upto(100)
    assert small == [p for p in big if p <= 100]


def test_is_prime_small_table():
    table = {p for p in range(200) if is_prime(p)}
    assert table == set(primes_upto(199))


def test_prime_factors_matches_naive_trial_division():
    def naive(n):
        m, f, out = abs(n), 2, []
        while m > 1:
            if m % f == 0:
                out.append(f)
                while m % f == 0:
                    m //= f
            f += 1
        return out

    for n in range(-3, 10**4 + 1):
        assert prime_factors(n) == naive(n), n


def test_squarefree_decompose_examples():
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(200) == (2, 10)
    assert squarefree_decompose(-12) == (-3, 2)
    assert squarefree_decompose(440) == (110, 2)
    assert squarefree_decompose(55) == (55, 1)


def test_squarefree_decompose_rejects_zero():
    with pytest.raises(ValueError):
        squarefree_decompose(0)


def test_squarefree_decompose_large_semiprime_square():
    # remainder after cube-root trial division is p*q and p**2 respectively
    p, q = 10007, 10009
    assert squarefree_decompose(p * q) == (p * q, 1)
    assert squarefree_decompose(p * p) == (1, p)
    assert squarefree_decompose(4 * p * p * q) == (q, 2 * p)


def test_squarefree_decompose_integer_bound():
    # the largest prime below 10^6, cubed, sits just under the limit
    p = 999983
    assert squarefree_decompose(p**3) == (p, p)
    assert squarefree_decompose(-(10**18)) == (-1, 10**9)
    for n in (10**18 + 1, 10**400 + 1, -(10**400) - 1):
        with pytest.raises(ValueError):
            squarefree_decompose(n)


@given(st.integers(min_value=-(10**6), max_value=10**6).filter(lambda n: n != 0))
def test_squarefree_decompose_roundtrip(n):
    s, f = squarefree_decompose(n)
    assert s * f * f == n
    assert f > 0
    assert is_squarefree(s)


def test_is_perfect_square():
    assert is_perfect_square(0) == (True, 0)
    assert is_perfect_square(441) == (True, 21)
    assert is_perfect_square(440) == (False, None)
    assert is_perfect_square(-4) == (False, None)


def test_sqrt_mod_prime_matches_squares():
    # 257 = 2^8 + 1 runs the Tonelli-Shanks loop at full depth
    for p in primes_upto(400)[1:]:
        squares = {x * x % p for x in range(p)}
        for n in range(-p, p):
            r = sqrt_mod_prime(n, p)
            if n % p in squares:
                assert r is not None and (r * r - n) % p == 0, (n, p)
            else:
                assert r is None, (n, p)


def test_sqrt_interval_exact_square():
    assert sqrt_interval(4, 0) == (2, 2)
    assert sqrt_interval(4, 3) == (2000, 2000)
    assert sqrt_interval(2, 1) == (14, 15)


def test_sqrt_interval_brackets():
    lo, hi = sqrt_interval(2, 6)
    assert lo * lo <= 2 * 10**12 <= hi * hi
    assert hi - lo == 1


def test_sqrt_interval_rejects_bad_input():
    with pytest.raises(ValueError):
        sqrt_interval(0, 3)
    with pytest.raises(ValueError):
        sqrt_interval(-2, 3)
    with pytest.raises(ValueError):
        sqrt_interval(2, -1)


@given(
    st.integers(min_value=2, max_value=10**6),
    st.integers(min_value=0, max_value=12),
)
def test_sqrt_interval_nesting(n, k):
    lo, hi = sqrt_interval(n, k)
    tlo, thi = sqrt_interval(n, k + 6)
    assert lo * 10**6 <= tlo and thi <= hi * 10**6
    assert lo * lo <= n * 100**k <= hi * hi
    assert hi - lo <= 1 and (lo == hi) == is_perfect_square(n)[0]
