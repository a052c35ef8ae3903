"""Real quadratic units, prime-pair classification, and Pell decompositions.

The fundamental unit of Q(sqrt(d)) comes from the continued fraction of
sqrt(d), or of (1+sqrt(d))/2 when d = 1 mod 4, walked only to the middle of
its symmetric period (Cohen, GTM 138, 5.7; Lenstra, "Solving the Pell
equation", Notices AMS 49, 2002).

For prime pairs with p = 5 mod 8 and q = 3 mod 8 the fundamental units of
Q(sqrt(2pq)), Q(sqrt(pq)), Q(sqrt(2q)) and Q(sqrt(q)) have norm +1, and the
quadratic residue symbol (p/q) decides the surd identity m*eps = (u1*sqrt(r1)
+ u2*sqrt(r2))**2, r1*r2 = d, m = 1 or 2, such as sqrt(2*eps_2pq) =
u1*sqrt(p) + u2*sqrt(2q).  lemma_decompose reads it off the midpoint of the
period, and its sign puts x-1 and x+1 of eps = x + y*sqrt(d) into the
squarefree-times-square shapes the claims predict.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ._record import FrozenRecord
from .claims import COND1, COND2, PELL_CASES, value
from .errors import Falsified
from .intarith import is_perfect_square, is_prime, is_squarefree

NOT_APPLICABLE = "NotApplicable"
UNSUPPORTED = "Unsupported"

DECOMPOSITION_TAGS = tuple(PELL_CASES[COND1])


class QuadraticUnit(FrozenRecord):
    """Fundamental unit (x + y*sqrt(d))/denom of the maximal order of Q(sqrt(d))."""

    __slots__ = ("d", "x", "y", "denom", "norm")

    def __init__(self, d: int, x: int, y: int, denom: int, norm: int):
        super().__init__(d, x, y, denom, norm)
        if not (x > 0 and y > 0 and denom in (1, 2) and x * x - d * y * y == norm * denom**2
                and (denom == 1 or d % 4 == 1)):
            raise ValueError(f"{self} is not a unit of norm {norm}")

    def __str__(self):
        if self.denom == 1:
            return f"{self.x}+{self.y}*sqrt({self.d})"
        return f"({self.x}+{self.y}*sqrt({self.d}))/2"


class ConditionClass(FrozenRecord):
    """Outcome of classifying a prime pair (p, q) by congruence and symbol."""

    __slots__ = ("tag", "reason")

    def __init__(self, tag: str, reason: str):
        super().__init__(tag, reason)

    @property
    def is_applicable(self) -> bool:
        return self.tag in (COND1, COND2)


class DecompositionWitness(FrozenRecord):
    """Certified shape of x-1 and x+1 for one fundamental unit.

    The surd identity u1*sqrt(r1) + u2*sqrt(r2) squares to 2*eps when doubled
    is set, to eps itself otherwise.  case_id names the split that held, in
    terms of the symbols p and q of the pair.
    """

    __slots__ = ("radicand_tag", "case_id", "u1", "u2", "r1", "r2", "doubled", "unit")

    def __init__(self, radicand_tag: str, case_id: str, u1: int, u2: int, r1: int, r2: int,
                 doubled: bool, unit: QuadraticUnit):
        super().__init__(radicand_tag, case_id, u1, u2, r1, r2, doubled, unit)


@lru_cache(maxsize=1)
def _half_period(d: int):
    """(Q0, N, a, b) at the first symmetric midpoint k of the continued
    fraction of (P0 + sqrt(d))/Q0, from (P0, Q0) = (1, 2) when d = 1 mod 4
    and (0, 1) otherwise; the fundamental unit is Q0*a*b/N, with N = Q_k.
    The last walk is kept, so a lemma's re-square reads it: one walk per radicand.

    With the convergents p_j/q_j, alpha_j = (Q0*p_(j-1) - P0*q_(j-1) +
    q_(j-1)*sqrt(d))/Q0 has norm +-Q_j/Q0.  a = b = alpha_k at the first
    P_k = P_(k+1) of an even period, for a unit of norm +1; a = alpha_k and
    b = alpha_(k+1) at the first Q_k = Q_(k+1) of an odd one, for norm -1.
    Each is (A, B) for (A + B*sqrt(d))/Q0.
    """
    sq = math.isqrt(d)
    P0, Q0 = P, Q = (1, 2) if d % 4 == 1 else (0, 1)
    # the convergents p_(k-1)/q_(k-1) and p_(k-2)/q_(k-2)
    p1, q1, p2, q2 = 1, 0, 0, 1
    while True:
        a = (P + sq) // Q
        P_next = a * Q - P
        Q_next = (d - P_next * P_next) // Q
        alpha = (Q0 * p1 - P0 * q1, q1)
        p1, q1, p2, q2 = a * p1 + p2, a * q1 + q2, p1, q1
        # both hold only where the period is 1, which is odd
        if Q_next == Q:
            return Q0, Q, alpha, (Q0 * p1 - P0 * q1, q1)
        if P_next == P:
            return Q0, Q, alpha, alpha
        P, Q = P_next, Q_next


@lru_cache(maxsize=None)
def fundamental_unit(d: int) -> QuadraticUnit:
    """Fundamental unit of the maximal order of Q(sqrt(d)), d squarefree > 1,
    from one walk to the middle of the period (_half_period)."""
    if d <= 1:
        raise ValueError("radicand must exceed 1")
    if not is_squarefree(d):
        raise ValueError(f"{d} is not squarefree")
    den, N, (A, B), (A2, B2) = _half_period(d)
    x, y = (A * A2 + d * B * B2) // N, (A * B2 + A2 * B) // N
    if den == 2 and x % 2 == 0 and y % 2 == 0:
        x, y, den = x // 2, y // 2, 1
    return QuadraticUnit(d=d, x=x, y=y, denom=den, norm=1 if (A, B) == (A2, B2) else -1)


def classify_pair(p: int, q: int) -> ConditionClass:
    """Classify (p, q) by the congruences p = 5, q = 3 (mod 8) and the symbol (p/q)."""
    if p == q:
        raise ValueError("p and q must be distinct")
    for n in (p, q):
        if n == 2 or not is_prime(n):
            raise ValueError(f"{n} is not an odd prime")
    if p % 8 != 5:
        return ConditionClass(NOT_APPLICABLE, f"p % 8 == {p % 8}, need 5")
    if q % 8 != 3:
        return ConditionClass(NOT_APPLICABLE, f"q % 8 == {q % 8}, need 3")
    # Euler's criterion: p and q are distinct odd primes
    if pow(p, (q - 1) // 2, q) == 1:
        return ConditionClass(COND1, "p == 5, q == 3 (mod 8), (p/q) == +1")
    return ConditionClass(COND2, "p == 5, q == 3 (mod 8), (p/q) == -1")


def lemma_decompose(p: int, q: int, tag: str) -> DecompositionWitness:
    """Decompose the unit of the field tagged by `tag` into its forced Pell shape.

    tag picks the radicand d: "2pq", "pq", "2q" or "q", none 1 mod 4, so
    Q0 = 1.  At the midpoint A + B*sqrt(d) = alpha_k of an even period, with
    N = Q_k, one claimed r_i has m*N = r_i*s**2; then u_i = A*s/N and u_j =
    B*s*r_i/N.  The identity is re-squared against fundamental_unit(d), and
    its sign must put x-1 and x+1 into the claimed shapes.  An odd period,
    an N that fits neither r, or any other violation raises Falsified.
    """
    if tag not in DECOMPOSITION_TAGS:
        raise ValueError(f"unknown tag {tag!r}")
    cond = classify_pair(p, q)
    if not cond.is_applicable:
        raise ValueError(f"pair ({p},{q}) not applicable: {cond.reason}")

    d = value(tag, p, q)
    _, N, (A, B), b = _half_period(d)
    if b != (A, B):
        raise Falsified(f"unit of Q(sqrt({d})) has norm -1, not +1: the period is odd")
    s_minus, s_plus, u1_side, r1_label, r2_label, doubled = PELL_CASES[cond.tag][tag]
    r1, r2, m = value(r1_label, p, q), value(r2_label, p, q), 2 if doubled else 1
    for r in (r1, r2):
        square, s = is_perfect_square(m * N // r) if m * N % r == 0 else (False, None)
        if square:
            break
    else:
        raise Falsified(f"the midpoint norm N = {N} of sqrt({d}) fits neither r1 = {r1} nor r2 = {r2}")
    u, v = A * s // N, B * s * r // N
    u1, u2 = (u, v) if r == r1 else (v, u)
    unit = fundamental_unit(d)
    # re-square the surd identity: (u1*sqrt(r1) + u2*sqrt(r2))**2 == m*eps
    if r1 * r2 != d or u1 * u1 * r1 + u2 * u2 * r2 != m * unit.x or 2 * u1 * u2 != m * unit.y:
        raise Falsified(f"the witness for eps_{d} does not re-square")
    # then u1**2*r1 - u2**2*r2 = -m gives x-1 = (2*r1/m)*u1**2, x+1 = (2*r2/m)*u2**2; +m swaps
    shapes = (s_minus, s_plus) if u1_side == "minus" else (s_plus, s_minus)
    if (u1 * u1 * r1 - u2 * u2 * r2 != (-m if u1_side == "minus" else m)
            or [m * value(s, p, q) for s in shapes] != [2 * r1, 2 * r2]):
        raise Falsified(f"eps_{d} does not have x-1 = {s_minus}*u^2 and x+1 = {s_plus}*u^2 "
                        f"with u1 on the {u1_side} side")
    return DecompositionWitness(radicand_tag=tag, case_id=f"x-1={s_minus}*u^2, x+1={s_plus}*u^2",
                                u1=u1, u2=u2, r1=r1, r2=r2, doubled=doubled, unit=unit)
