import hashlib
import itertools
import math
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import pell_oracle
from mqunits.errors import Falsified
from mqunits.intarith import is_perfect_square, is_squarefree
from mqunits.quadratic import (
    COND1,
    COND2,
    DECOMPOSITION_TAGS,
    NOT_APPLICABLE,
    QuadraticUnit,
    classify_pair,
    fundamental_unit,
    lemma_decompose,
)
from mqunits.report import scan_pairs


def pell_minimal_unit(d):
    """Smallest unit > 1 of the maximal order, by exhaustive search on the surd coefficient.

    A unit is (x + y*sqrt(d))/c with x*x - d*y*y = norm*c*c, c = 2 only when d = 1 (mod 4); the
    first y with a solution gives it, and of the two norms -1 has the smaller x.  With t = d*y*y,
    s = isqrt(t + c*c) is that x for either norm: t + c*c = s*s for norm +1, and x*x = t - c*c
    has s = x once x >= c*c, as x*x + 2*c*c < (x + 1)**2.  Only t < c**4 + c*c allows a smaller
    x, and there norm -1 is tested on its own first.
    """
    c = 2 if d % 4 == 1 else 1
    cc = c * c
    for y in itertools.count(1):
        t = d * y * y
        if t < cc * cc + cc:
            x = math.isqrt(t - cc)
            if x * x == t - cc:
                return _unit(d, x, y, c, -1)
        x = math.isqrt(t + cc)
        n = x * x - t
        if abs(n) == cc:
            return _unit(d, x, y, c, n // cc)


def _unit(d, x, y, c, norm):
    """(x + y*sqrt(d))/c in lowest terms: both even when c = 2 and y is even."""
    if c == 2 and y % 2 == 0:
        x, y, c = x // 2, y // 2, 1
    return QuadraticUnit(d=d, x=x, y=y, denom=c, norm=norm)


def fraction_unit(d):
    """(x, y, denom, norm) by the continued-fraction recurrence on Fractions."""
    sq = math.isqrt(d)

    def step(P, Q):
        a = (P + sq) // Q
        P2 = a * Q - P
        return P2, (d - P2 * P2) // Q

    first = step(*((1, 2) if d % 4 == 1 else (0, 1)))
    ax, ay = Fraction(1), Fraction(0)
    P, Q = first
    period = 0
    while True:
        ax, ay = (ax * P + ay * d) / Q, (ax + ay * P) / Q
        period += 1
        P, Q = step(P, Q)
        if (P, Q) == first:
            break
    denom = math.lcm(ax.denominator, ay.denominator)
    return int(ax * denom), int(ay * denom), denom, -1 if period % 2 else 1


def test_fundamental_unit_matches_fraction_recurrence():
    radicands = [d for d in range(2, 600) if is_squarefree(d)]
    radicands += [2 * 3181 * 3011, 3181 * 3011, 2 * 3011, 2 * 2333 * 3691]
    for d in radicands:
        u = fundamental_unit(d)
        assert (u.x, u.y, u.denom, u.norm) == fraction_unit(d), d


def test_fundamental_unit_matches_the_full_period_oracle():
    # both period parities, both starts (1+sqrt(d))/2 and sqrt(d), and one unit of 9009 bits
    radicands = [d for d in range(2, 30000) if is_squarefree(d)]
    assert len(radicands) == 18241
    for d in radicands + [2 * 17333 * 17387]:
        assert fundamental_unit(d) == pell_oracle.fundamental_unit(d), d


@pytest.mark.parametrize("d,digest", [
    (31741 * 31531, "cced2dba8b332147829a18e00f98c13d3ca7707a498099d4ea7a579756f286b1"),
    (2 * 31741 * 31531, "8ec23102c88f08cab42222cd72b29d5e59588a7198018863f9dbb6ec5f7d7ab6"),
])
def test_fundamental_unit_of_a_large_radicand_is_pinned(d, digest):
    # SHA-256 of "x y" in hex, taken from the full-period product: x has 17111 and 24868 bits,
    # whose full period takes seconds, so the oracle is not run here
    u = fundamental_unit(d)
    assert (u.denom, u.norm) == (1, 1)
    assert hashlib.sha256(f"{u.x:x} {u.y:x}".encode()).hexdigest() == digest


def test_lemma_decompose_matches_the_shape_oracle():
    pairs = scan_pairs(400)
    assert len(pairs) * len(DECOMPOSITION_TAGS) == 1760
    for p, q in pairs:
        for tag in DECOMPOSITION_TAGS:
            assert lemma_decompose(p, q, tag) == pell_oracle.lemma_decompose(p, q, tag), (p, q, tag)


def test_fundamental_unit_frozen_values():
    cases = {
        2: (1, 1, 1, -1),
        5: (1, 1, 2, -1),
        13: (3, 1, 2, -1),
        30: (11, 2, 1, 1),
        110: (21, 2, 1, 1),
        22: (197, 42, 1, 1),
    }
    for d, (x, y, denom, norm) in cases.items():
        u = fundamental_unit(d)
        assert (u.x, u.y, u.denom, u.norm) == (x, y, denom, norm)


def test_fundamental_unit_matches_exhaustive_search():
    for d in range(2, 150):
        if is_squarefree(d):
            assert fundamental_unit(d) == pell_minimal_unit(d)


def test_fundamental_unit_rejects_bad_radicands():
    for d in (1, 0, -5, 12, 45):
        with pytest.raises(ValueError):
            fundamental_unit(d)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=20000).filter(is_squarefree))
def test_fundamental_unit_pell_identity(d):
    u = fundamental_unit(d)
    assert u.x * u.x - d * u.y * u.y == u.norm * u.denom**2
    assert u.x > 0 and u.y > 0


def test_classify_pair_examples():
    assert classify_pair(5, 11).tag == COND1
    assert classify_pair(13, 3).tag == COND1
    assert classify_pair(5, 3).tag == COND2
    assert classify_pair(29, 3).tag == COND2
    assert classify_pair(5, 7).tag == NOT_APPLICABLE
    assert classify_pair(13, 11).tag == COND2
    assert classify_pair(3, 5).tag == NOT_APPLICABLE


def test_classify_pair_rejects_bad_input():
    for p, q in ((5, 5), (4, 3), (5, 9), (2, 3), (5, 2)):
        with pytest.raises(ValueError):
            classify_pair(p, q)


def test_lemma_decompose_2pq_cond2():
    w = lemma_decompose(5, 3, "2pq")
    assert (w.unit.x, w.unit.y) == (11, 2)
    assert (w.u1, w.u2) == (1, 2)
    assert (w.r1, w.r2) == (10, 3)
    assert w.doubled
    # 2 = -2p*u1^2 + q*u2^2
    assert -10 * w.u1**2 + 3 * w.u2**2 == 2


def test_lemma_decompose_2pq_cond1():
    w = lemma_decompose(5, 11, "2pq")
    assert (w.unit.x, w.unit.y) == (21, 2)
    assert (w.u1, w.u2) == (2, 1)
    assert (w.r1, w.r2) == (5, 22)
    # 2 = 2q*u2^2 - p*u1^2
    assert 22 * w.u2**2 - 5 * w.u1**2 == 2


def test_lemma_decompose_pq_cond1():
    w = lemma_decompose(5, 11, "pq")
    assert (w.unit.x, w.unit.y) == (89, 12)
    assert (w.u1, w.u2) == (3, 2)
    assert (w.r1, w.r2) == (5, 11)
    assert not w.doubled
    # 1 = p*u1^2 - q*u2^2
    assert 5 * w.u1**2 - 11 * w.u2**2 == 1


def test_lemma_decompose_q_cond2():
    w = lemma_decompose(5, 3, "q")
    assert (w.unit.x, w.unit.y) == (2, 1)
    assert (w.u1, w.u2) == (1, 1)
    # 2 = -u1^2 + q*u2^2
    assert -w.u1**2 + 3 * w.u2**2 == 2


def test_lemma_decompose_surd_identity_resquares():
    for p, q in ((5, 3), (5, 11), (13, 3), (29, 3), (13, 11), (5, 43)):
        for tag in DECOMPOSITION_TAGS:
            w = lemma_decompose(p, q, tag)
            m = 2 if w.doubled else 1
            assert w.u1**2 * w.r1 + w.u2**2 * w.r2 == m * w.unit.x
            assert 2 * w.u1 * w.u2 == m * w.unit.y
            assert w.r1 * w.r2 == w.unit.d


def test_lemma_decompose_wrong_witness_is_falsified_under_python_O():
    # the re-square is the only check of the roots, so it must not be an assert
    code = textwrap.dedent("""\
        from mqunits import quadratic
        from mqunits.errors import Falsified
        is_perfect_square = quadratic.is_perfect_square

        def off_by_one(n):
            square, root = is_perfect_square(n)
            return square, root + 1 if square else root

        quadratic.is_perfect_square = off_by_one
        try:
            quadratic.lemma_decompose(5, 11, "q")
        except Falsified as exc:
            print("falsified:", exc)
    """)
    res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "falsified: the witness for eps_11 does not re-square\n"


# each fault, set up in a fresh interpreter under python -O, and the Falsified it must raise
LEMMA_FAULTS = {
    "odd period": (
        # the radicand of tag q read as 10, whose unit 3+sqrt(10) has norm -1
        'quadratic.value = lambda s, p, q, value=quadratic.value: 10 if s == "q" else value(s, p, q)',
        (5, 11, "q"), "unit of Q(sqrt(10)) has norm -1, not +1: the period is odd"),
    "norm outside both kernels": (
        # the class-1 roots p, 2q for a class-2 pair: N = 5 and 2*N = 2p, the class-2 root
        'quadratic.PELL_CASES[quadratic.COND2]["2pq"] = quadratic.PELL_CASES[quadratic.COND1]["2pq"]',
        (5, 3, "2pq"), "the midpoint norm N = 5 of sqrt(30) fits neither r1 = 5 nor r2 = 6"),
    "wrong unit": (
        # the square of the unit, which the midpoint witness does not square to
        "unit = quadratic.fundamental_unit\n"
        "quadratic.fundamental_unit = lambda d: quadratic.QuadraticUnit("
        "d, unit(d).x ** 2 + d * unit(d).y ** 2, 2 * unit(d).x * unit(d).y, 1, 1)",
        (5, 11, "q"), "the witness for eps_11 does not re-square"),
    "wrong sign": (
        # shapes that fit u1 on the plus side, where 3^2 - 11*1^2 = -2 puts it on the minus side
        'quadratic.PELL_CASES[quadratic.COND1]["q"] = ("q", "1", "plus", "1", "q", True)',
        (5, 11, "q"), "eps_11 does not have x-1 = q*u^2 and x+1 = 1*u^2 with u1 on the plus side"),
    "wrong shape": (
        # the sign is right, but x-1 = 9 is not 11 times a square
        'quadratic.PELL_CASES[quadratic.COND1]["q"] = ("q", "1", "minus", "1", "q", True)',
        (5, 11, "q"), "eps_11 does not have x-1 = q*u^2 and x+1 = 1*u^2 with u1 on the minus side"),
}


@pytest.mark.parametrize("fault", list(LEMMA_FAULTS))
def test_every_lemma_decompose_fault_is_falsified_under_python_O(fault):
    setup, args, message = LEMMA_FAULTS[fault]
    code = "\n".join([
        "from mqunits import quadratic",
        "from mqunits.errors import Falsified",
        setup,
        "try:",
        f"    print(quadratic.lemma_decompose{args})",
        "except Falsified as exc:",
        "    print('falsified:', exc)",
    ])
    res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == f"falsified: {message}\n"


def test_lemma_decompose_rejects_bad_calls():
    with pytest.raises(ValueError):
        lemma_decompose(5, 11, "3pq")
    with pytest.raises(ValueError):
        lemma_decompose(5, 7, "2pq")


def test_unit_invariant_enforced():
    with pytest.raises(ValueError):
        QuadraticUnit(d=2, x=2, y=1, denom=1, norm=1)


def test_unit_denominator_is_enforced_under_python_O():
    # fundamental_unit relies on this raise, not on an assert, for den in (1, 2):
    # (6 + 2*sqrt(5))/4 has norm 1 but a denominator the maximal order never needs
    code = textwrap.dedent("""\
        from mqunits.quadratic import QuadraticUnit
        try:
            QuadraticUnit(d=5, x=6, y=2, denom=4, norm=1)
            print("accepted")
        except ValueError:
            print("rejected")
    """)
    res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "rejected\n"
