import pytest
from hypothesis import given, strategies as st

from mqunits.intarith import (
    FACTOR_LIMIT,
    _sieve,
    is_perfect_square,
    is_prime,
    is_squarefree,
    prime_factors,
    sqrt_interval,
    sqrt_mod_prime,
)


def _naive_factors(n):
    m, f, out = abs(n), 2, []
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1
    return out + [m] if m > 1 else out


def _naive_squarefree(n):
    return n != 0 and all(n % (f * f) for f in _naive_factors(n))


def _primes_upto(n):
    # the shared sieve's primes <= n; the sieve may hold more
    return [p for p in _sieve(n) if p <= n]


def test_primes_upto_small():
    assert _primes_upto(1) == []
    assert _primes_upto(2) == [2]
    assert _primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_primes_upto_grows_then_shrinks_consistently():
    big = _primes_upto(10_000)
    small = _primes_upto(100)
    assert small == [p for p in big if p <= 100]
    assert big == [n for n in range(10_001) if _naive_factors(n) == [n]]


def test_is_prime_small_table():
    table = {p for p in range(200) if is_prime(p)}
    assert table == {n for n in range(200) if _naive_factors(n) == [n]}


def test_prime_factors_matches_naive_trial_division():
    # is_prime and is_squarefree are built on prime_factors; the last four
    # inputs each have two prime factors (with multiplicity) above their
    # cube root, and 4*1009^2*1013 stands in for 4*10007^2*10009, which is
    # past FACTOR_LIMIT
    p, q = 10007, 10009
    for n in [*range(-3, 10**4 + 1), p * q, p * p, 4 * 1009**2 * 1013, 999983**2]:
        naive = _naive_factors(n)
        assert prime_factors(n) == naive, n
        assert is_prime(n) == (naive == [n]), n
        assert is_squarefree(n) == _naive_squarefree(n), n


def test_prime_factors_refuses_past_the_bound():
    assert prime_factors(FACTOR_LIMIT) == [2, 5]
    for n in (FACTOR_LIMIT + 1, 4 * 10007**2 * 10009, 10**400 + 1, -(10**400) - 1):
        for f in (prime_factors, is_squarefree, is_prime):
            if f is is_prime and n < 0:
                assert not is_prime(n)  # no negative number is prime
                continue
            with pytest.raises(ValueError, match="exceeds the factoring bound"):
                f(n)


@given(st.integers(min_value=-(10**6), max_value=10**6))
def test_is_squarefree_matches_naive(n):
    assert is_squarefree(n) == _naive_squarefree(n)


def test_is_perfect_square():
    assert is_perfect_square(0) == (True, 0)
    assert is_perfect_square(441) == (True, 21)
    assert is_perfect_square(440) == (False, None)
    assert is_perfect_square(-4) == (False, None)


def test_sqrt_mod_prime_matches_squares():
    # 257 = 2^8 + 1 runs the Tonelli-Shanks loop at full depth
    for p in _primes_upto(400)[1:]:
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
