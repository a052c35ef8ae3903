"""Exact integer primitives used by every other module.

Everything here is pure and deterministic: a grow-on-demand prime sieve,
distinct prime factors by trial division up to FACTOR_LIMIT, with the
primality and squarefree tests built on them, perfect-square testing,
square roots modulo an odd prime, integer brackets of scaled square
roots for exact sign determination, and one row Hermite normal form.
No floating point anywhere.  unlimited_int_digits lifts the interpreter's
limit on int <-> str conversion for the code that prints or reads units.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager

_primes: list[int] = [2, 3, 5, 7, 11, 13]
_sieve_limit = 13


def _sieve(n: int) -> list[int]:
    """The shared list of primes, grown to hold every prime <= n; callers
    iterate it up to their own bound and must not change it."""
    global _primes, _sieve_limit
    if n > _sieve_limit:
        limit = max(2 * _sieve_limit, n, 1024)
        sieve = bytearray([1]) * (limit + 1)
        sieve[0] = sieve[1] = 0
        for p in range(2, math.isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
        _primes = [i for i in range(limit + 1) if sieve[i]]
        _sieve_limit = limit
    return _primes


# |n| beyond which prime_factors refuses: its trial division would need
# primes past 10^6
FACTOR_LIMIT = 10**12


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, increasing (empty for n in -1, 0, 1).

    The one trial division of the package; raises ValueError for
    |n| > FACTOR_LIMIT before dividing anything."""
    m = abs(n)
    if m > FACTOR_LIMIT:
        raise ValueError(f"|{n}| exceeds the factoring bound {FACTOR_LIMIT}")
    out = []
    for p in _sieve(math.isqrt(m)):
        if p * p > m:
            break
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
    if m > 1:
        out.append(m)
    return out


def is_prime(n: int) -> bool:
    return n > 1 and prime_factors(n) == [n]


def is_squarefree(n: int) -> bool:
    return n != 0 and all(n % (l * l) for l in prime_factors(n))


def is_perfect_square(n: int) -> tuple[bool, int | None]:
    """Return (True, k) with k*k == n, or (False, None). Negative n is never a square."""
    if n < 0:
        return False, None
    k = math.isqrt(n)
    if k * k == n:
        return True, k
    return False, None


def sqrt_mod_prime(n: int, p: int) -> int | None:
    """A square root of n modulo the odd prime p by Tonelli-Shanks (Cohen,
    GTM 138, Algorithm 1.5.1), or None when n is not a square mod p."""
    n %= p
    if n == 0:
        return 0
    if pow(n, (p - 1) // 2, p) != 1:
        return None
    q, e = p - 1, 0
    while q % 2 == 0:
        q //= 2
        e += 1
    x, b = pow(n, (q + 1) // 2, p), pow(n, q, p)
    if b == 1:
        return x
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:
        z += 1
    y, r = pow(z, q, p), e
    while b != 1:
        m, t = 1, b * b % p
        while t != 1:
            t = t * t % p
            m += 1
        t = pow(y, 1 << (r - m - 1), p)
        y = t * t % p
        r = m
        x = x * t % p
        b = b * y % p
    return x


def sqrt_interval(n: int, digits: int) -> tuple[int, int]:
    """Integer bracket (lo, hi) of sqrt(n) * 10**digits: lo <= sqrt(n) * 10**digits
    <= hi and hi - lo <= 1, with lo == hi exactly when the scaled root is an integer."""
    if n <= 0 or digits < 0:
        raise ValueError("sqrt_interval needs n > 0 and digits >= 0")
    target = n * 100**digits
    lo = math.isqrt(target)
    return lo, lo if lo * lo == target else lo + 1


def _echelon(rows, ncols: int) -> list:
    """The row Hermite normal form of the integer rows over their first
    ncols columns; later columns ride along with every row operation.

    The nonzero rows come out in echelon form with positive pivots, and the
    entries above each pivot are reduced into [0, pivot), which makes the
    form unique for the lattice the rows span.  The rows are changed in
    place.
    """
    out = []
    for c in range(ncols):
        live = [row for row in rows if row[c]]
        if not live:
            continue
        # Euclid down column c: reduce every other live row by the smallest
        while len(live) > 1:
            piv = min(live, key=lambda row: abs(row[c]))
            for row in live:
                if row is not piv:
                    f = row[c] // piv[c]
                    row[:] = [a - f * b for a, b in zip(row, piv)]
            live = [row for row in live if row[c]]
        (piv,) = live
        rows = [row for row in rows if row is not piv]
        if piv[c] < 0:
            piv = [-a for a in piv]
        for row in out:
            f = row[c] // piv[c]
            if f:
                row[:] = [a - f * b for a, b in zip(row, piv)]
        out.append(piv)
    return out


@contextmanager
def unlimited_int_digits():
    """Lift the int <-> str conversion limit (Python 3.10.7 and later) inside
    the block and restore the limit found on entry; where the interpreter
    has no limit, the block runs as it is.  Fundamental units inside the
    supported range can have more digits than the default limit of 4300.
    Also usable as a decorator: `@unlimited_int_digits()`."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        yield
        return
    limit = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        yield
    finally:
        set_limit(limit)
