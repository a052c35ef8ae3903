"""Real quadratic units, prime-pair classification, and Pell decompositions.

The fundamental unit of Q(sqrt(d)) comes from the continued fraction of
sqrt(d) (of (1+sqrt(d))/2 when d = 1 mod 4): the unit is the product of the
complete quotients over one period and its norm is (-1)**period.

For prime pairs with p = 5 mod 8 and q = 3 mod 8 the fundamental units of
Q(sqrt(2pq)), Q(sqrt(pq)), Q(sqrt(2q)) and Q(sqrt(q)) all have norm +1, so
writing eps = x + y*sqrt(d) the product (x-1)(x+1) = d*y**2 forces each of
x-1 and x+1 into a squarefree-times-square shape.  Which shape survives is
determined by the quadratic residue symbol (p/q), and from the surviving
shape one reads off an exact surd identity such as
sqrt(2*eps_2pq) = u1*sqrt(p) + u2*sqrt(2q).  lemma_decompose tests each side
against the one squarefree shape the claims predict, which as the side's
squarefree kernel excludes every other, and recovers that witness.
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


@lru_cache(maxsize=None)
def fundamental_unit(d: int) -> QuadraticUnit:
    """Fundamental unit of the maximal order of Q(sqrt(d)), d squarefree > 1.

    Runs the (P, Q) continued-fraction recurrence starting from sqrt(d), or
    from (1+sqrt(d))/2 when d = 1 mod 4, and multiplies the complete quotients
    (P_i + sqrt(d))/Q_i over one full period.  The norm is (-1)**period.
    """
    if d <= 1:
        raise ValueError("radicand must exceed 1")
    if not is_squarefree(d):
        raise ValueError(f"{d} is not squarefree")
    sq = math.isqrt(d)

    def step(P, Q):
        a = (P + sq) // Q
        P2 = a * Q - P
        return P2, (d - P2 * P2) // Q

    P, Q = (1, 2) if d % 4 == 1 else (0, 1)
    first = step(P, Q)
    # the product so far is (x + y*sqrt(d))/den, kept in lowest terms
    x, y, den = 1, 0, 1
    P, Q = first
    period = 0
    while True:
        x, y, den = x * P + y * d, x + y * P, den * Q
        g = math.gcd(x, y, den)
        x, y, den = x // g, y // g, den // g
        period += 1
        P, Q = step(P, Q)
        if (P, Q) == first:
            break
    return QuadraticUnit(d=d, x=x, y=y, denom=den, norm=-1 if period % 2 else 1)


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

    tag picks the radicand d: "2pq", "pq", "2q" or "q".  Writing the unit as
    x + y*sqrt(d), claims.PELL_CASES predicts for the pair's condition a
    squarefree shape s of each side n = x-1, x+1.  One division and one
    square test decide whether n = s*u**2, with no factoring of the huge
    integer n.  When it holds, s is the squarefree kernel of n, which is
    unique, so no other shape can match; and 2*n or 2d*n could only be a
    square if s were 2 or the squarefree kernel of 2d, which no shape of the
    table is.  The roots u of the two sides give the surd identity, which is
    re-squared.  Any violation raises Falsified.
    """
    if tag not in DECOMPOSITION_TAGS:
        raise ValueError(f"unknown tag {tag!r}")
    cond = classify_pair(p, q)
    if not cond.is_applicable:
        raise ValueError(f"pair ({p},{q}) not applicable: {cond.reason}")

    d = value(tag, p, q)
    unit = fundamental_unit(d)
    if unit.norm != 1 or unit.denom != 1:
        raise Falsified(f"unit of Q(sqrt({d})) should have norm +1 and integer coordinates")
    x = unit.x
    s_minus, s_plus, u1_side, r1_label, r2_label, doubled = PELL_CASES[cond.tag][tag]
    roots = {}
    for side, n, shape in (("minus", x - 1, s_minus), ("plus", x + 1, s_plus)):
        s = value(shape, p, q)
        square, roots[side] = is_perfect_square(n // s) if n % s == 0 else (False, None)
        if not square:
            raise Falsified(f"x{'-' if side == 'minus' else '+'}1 of eps_{d} is not {s} times a square, "
                            f"the predicted shape {shape}*u^2")

    u1 = roots[u1_side]
    u2 = roots["plus" if u1_side == "minus" else "minus"]
    r1 = value(r1_label, p, q)
    r2 = value(r2_label, p, q)
    # re-square the surd identity: (u1*sqrt(r1) + u2*sqrt(r2))**2 == m*eps
    m = 2 if doubled else 1
    if r1 * r2 != d or u1 * u1 * r1 + u2 * u2 * r2 != m * x or 2 * u1 * u2 != m * unit.y:
        raise Falsified(f"the witness for eps_{d} does not re-square")
    case_id = f"x-1={s_minus}*u^2, x+1={s_plus}*u^2"
    return DecompositionWitness(
        radicand_tag=tag,
        case_id=case_id,
        u1=u1,
        u2=u2,
        r1=r1,
        r2=r2,
        doubled=doubled,
        unit=unit,
    )
