"""Reference routes to the Pell units and witnesses, kept for the tests.

fundamental_unit here multiplies the complete quotients (P_i + sqrt d)/Q_i
of the continued fraction of sqrt(d) (of (1+sqrt(d))/2 when d = 1 mod 4)
over one whole period, kept in lowest terms by a gcd at every step; the norm
is (-1)**period.  lemma_decompose reads the witness of a Pell lemma off the
two sides of eps = x + y*sqrt(d): it tests x-1 and x+1 against the shapes
claims.PELL_CASES predicts, by one division and one integer square root
each.  Neither route shares code with mqunits.quadratic beyond the claimed
tables and the records, so the tests compare the half-period walk with them.
"""

import math

from mqunits.claims import PELL_CASES, value
from mqunits.errors import Falsified
from mqunits.intarith import is_perfect_square
from mqunits.quadratic import DecompositionWitness, QuadraticUnit, classify_pair


def fundamental_unit(d: int) -> QuadraticUnit:
    """Fundamental unit of Q(sqrt(d)), d squarefree > 1, over one full period."""
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


def lemma_decompose(p: int, q: int, tag: str) -> DecompositionWitness:
    """The witness of the Pell lemma for tag, from the shapes of x-1 and x+1.

    Each side n must be s*u**2 for the predicted squarefree shape s, which
    is then its squarefree kernel; the roots of the two sides give the surd
    identity, which is re-squared.  Any violation raises Falsified.
    """
    cond = classify_pair(p, q)
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
    m = 2 if doubled else 1
    if r1 * r2 != d or u1 * u1 * r1 + u2 * u2 * r2 != m * x or 2 * u1 * u2 != m * unit.y:
        raise Falsified(f"the witness for eps_{d} does not re-square")
    return DecompositionWitness(
        radicand_tag=tag, case_id=f"x-1={s_minus}*u^2, x+1={s_plus}*u^2",
        u1=u1, u2=u2, r1=r1, r2=r2, doubled=doubled, unit=unit,
    )
