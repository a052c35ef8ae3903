"""Seeded inputs for the benchmark workloads.

Every input comes from a fixed pool whose reference outputs are recorded in
refs/.  A run draws a stratified sample from the pool: the pool is sorted by
the cost of each member as recorded in refs/costs.json, cut into as many
equal strata as the sample has members, and one member is drawn from each
stratum with random.Random(seed), which then shuffles the sample.  The same
seed gives the same inputs, and two seeds give samples of nearly the same
total cost, which keeps the spread between seeds small.  The shuffle spreads
cheap and costly inputs evenly over the run.  The program under test only
receives the drawn list.

Nothing here imports mqunits: primality and squarefreeness are decided by
the small helpers below.
"""

import json
import math
import os
import random

COSTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs", "costs.json")

# `wide` band: 400 < max(p, q) < 700 and p*q < 220000.  Sign refinement in
# the program gives up after a fixed precision (RuntimeError('sign refinement
# did not converge')), first at (653, 347) with p*q = 226591; 18 of the 151
# pairs of 400..700 above that product fail this way.  The band stops below
# that limit so that every operation succeeds.
WIDE_LO, WIDE_HI, WIDE_PQ_MAX = 400, 700, 220000

# `classnum` pool: fundamental discriminants with |D| log-uniform in
# [CLASSNUM_MIN, CLASSNUM_MAX], below the program's guard of 8 * 10**7.
CLASSNUM_MIN, CLASSNUM_MAX = 10**3, 3 * 10**7
CLASSNUM_POOL_SEED = 20200419
CLASSNUM_POOL_PER_SIGN = 400

# Operations per measured second, so that a run of `seconds` seconds at the
# commit that defined the benchmark does about `seconds` seconds of work.
WIDE_PAIRS_PER_S = 5
CLASSNUM_DISCS_PER_S = 12


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def is_squarefree(n: int) -> bool:
    n = abs(n)
    f = 2
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        if n % f == 0:
            n //= f
        f += 1
    return True


def is_fundamental(D: int) -> bool:
    if D % 4 == 1:
        return D != 1 and is_squarefree(D)
    return D % 4 == 0 and (D // 4) % 4 in (2, 3) and is_squarefree(D // 4)


def scan_pairs(max_n: int) -> list[tuple[int, int]]:
    """(p, q) with p = 5 and q = 3 (mod 8), both prime and at most max_n."""
    ps = [n for n in range(5, max_n + 1, 8) if is_prime(n)]
    qs = [n for n in range(3, max_n + 1, 8) if is_prime(n)]
    return sorted((p, q) for p in ps for q in qs)


def wide_pool() -> list[tuple[int, int]]:
    return [(p, q) for p, q in scan_pairs(WIDE_HI - 1) if max(p, q) > WIDE_LO and p * q < WIDE_PQ_MAX]


def classnum_pool() -> list[int]:
    """A fixed list of distinct fundamental discriminants, half of each sign."""
    rng = random.Random(CLASSNUM_POOL_SEED)
    lo, hi = math.log(CLASSNUM_MIN), math.log(CLASSNUM_MAX)
    pool = []
    for sign in (-1, 1):
        found = set()
        while len(found) < CLASSNUM_POOL_PER_SIGN:
            D = sign * round(math.exp(rng.uniform(lo, hi)))
            if is_fundamental(D):
                found.add(D)
        pool.extend(sorted(found, key=abs))
    return pool


def stratified(pool, n: int, key, rng: random.Random) -> list:
    """One member from each of n equal strata of the pool, ranked by the
    recorded cost of each member and then by key."""
    if not 1 <= n <= len(pool):
        raise ValueError(f"sample size {n} outside 1..{len(pool)}")
    with open(COSTS_PATH) as fh:
        costs = json.load(fh)
    ranked = sorted(pool, key=lambda x: (costs[key(x)], key(x)))
    return [ranked[rng.randrange(len(ranked) * i // n, len(ranked) * (i + 1) // n)]
            for i in range(n)]


def wide_inputs(seed: int, seconds: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    pool = wide_pool()
    n = min(len(pool), WIDE_PAIRS_PER_S * seconds)
    out = stratified(pool, n, key=lambda pq: f"{pq[0]},{pq[1]}", rng=rng)
    rng.shuffle(out)
    return out


def classnum_inputs(seed: int, seconds: int) -> list[int]:
    rng = random.Random(seed)
    pool = classnum_pool()
    n = min(CLASSNUM_POOL_PER_SIGN, max(1, CLASSNUM_DISCS_PER_S * seconds // 2))
    out = []
    for sign in (-1, 1):
        out += stratified([D for D in pool if D * sign > 0], n, key=str, rng=rng)
    rng.shuffle(out)
    return out
