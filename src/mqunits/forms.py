"""Class numbers of quadratic fields via reduced binary quadratic forms.

Imaginary fields: the class number is the count of reduced primitive
positive-definite forms of the fundamental discriminant, and
class_number_imaginary adds the class-group structure from composition and
element orders.  Real fields: the narrow class number is the number of
rho-reduction cycles of reduced indefinite forms, and the wide class number
follows from the norm of the fundamental unit.  Everything is integer arithmetic; square-root comparisons
against sqrt(D) are done through isqrt brackets, never floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .intarith import is_squarefree, prime_factors
from .quadratic import fundamental_unit

DISCRIMINANT_GUARD = 8 * 10**7


@dataclass(frozen=True)
class ClassNumberReport:
    """Class number of one quadratic field with its exact 2-part.

    group_structure lists primary cyclic orders (imaginary case only);
    two_rank counts its even entries.  Real fields report h and h2 only.
    """

    discriminant_or_radicand: int
    h: int
    h2: int
    two_rank: int | None = None
    group_structure: tuple[int, ...] | None = None


def disc_of_radicand(m: int) -> int:
    """Fundamental discriminant of Q(sqrt(m)) for squarefree m."""
    if m in (0, 1) or not is_squarefree(m):
        raise ValueError(f"{m} is not a valid radicand")
    return m if m % 4 == 1 else 4 * m


def is_fundamental_discriminant(D: int) -> bool:
    if D in (0, 1):
        return False
    if D % 4 == 1:
        return is_squarefree(D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and is_squarefree(m)
    return False


# ---------------------------------------------------------------------------
# imaginary: positive definite forms


def _reduce_posdef(a, b, c, D):
    while True:
        if b > a or b <= -a:
            b %= 2 * a
            if b > a:
                b -= 2 * a
            c = (b * b - D) // (4 * a)
        if a > c:
            a, b, c = c, -b, a
            continue
        if a == c and b < 0:
            b = -b
        return a, b, c


def _principal_form(D):
    if D % 2:
        return (1, 1, (1 - D) // 4)
    return (1, 0, -D // 4)


def _enumerate_posdef(D):
    forms = []
    b = D % 2
    while 3 * b * b <= -D:
        m = (b * b - D) // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                c = m // a
                if math.gcd(a, math.gcd(b, c)) == 1:
                    forms.append((a, b, c))
                    if 0 < b < a < c:
                        forms.append((a, -b, c))
            a += 1
        b += 2
    return sorted(forms)


def _egcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_s, s = s, old_s - qt * s
        old_t, t = t, old_t - qt * t
    return old_r, old_s, old_t


def compose_forms(f1, f2, D):
    """Composition of two primitive forms of discriminant D, reduced.

    Cohen, A Course in Computational Algebraic Number Theory (GTM 138),
    Algorithm 5.4.7: two extended gcds give the united form directly.
    """
    if f1[0] > f2[0]:
        f1, f2 = f2, f1
    a1, b1, _ = f1
    a2, b2, c2 = f2
    s = (b1 + b2) // 2
    n = b2 - s
    if a2 % a1 == 0:
        y1, d = 0, a1
    else:
        d, y1, _ = _egcd(a2, a1)
    if s % d == 0:
        x2, y2, d1 = 0, -1, d
    else:
        d1, x2, y2 = _egcd(s, d)
        y2 = -y2
    v1, v2 = a1 // d1, a2 // d1
    r = (y1 * y2 * n - x2 * c2) % v1
    a3 = v1 * v2
    b3 = b2 + 2 * v2 * r
    return _reduce_posdef(a3, b3, (b3 * b3 - D) // (4 * a3), D)


def _form_pow(f, n, D):
    result = _principal_form(D)
    base = f
    while n:
        if n & 1:
            result = compose_forms(result, base, D)
        base = compose_forms(base, base, D)
        n >>= 1
    return result


def _group_structure(forms, D):
    """Primary cyclic decomposition from counts of l^j-torsion elements."""
    h = len(forms)
    e = _principal_form(D)
    structure = []
    for l in prime_factors(h):
        exp = 0
        hh = h
        while hh % l == 0:
            hh //= l
            exp += 1
        counts = [1]
        for j in range(1, exp + 1):
            nj = sum(1 for f in forms if _form_pow(f, l**j, D) == e)
            counts.append(nj)
        t = []
        for j in range(1, exp + 1):
            assert counts[j] % counts[j - 1] == 0
            ratio = counts[j] // counts[j - 1]
            tj = 0
            while ratio > 1:
                assert ratio % l == 0
                ratio //= l
                tj += 1
            t.append(tj)
        t.append(0)
        for j in range(1, exp + 1):
            structure.extend([l**j] * (t[j - 1] - t[j]))
    assert math.prod(structure) == h
    return tuple(sorted(structure))


def _reduced_forms(D):
    """The reduced forms of a supported negative fundamental discriminant."""
    if D >= 0 or not is_fundamental_discriminant(D):
        raise ValueError(f"{D} is not a negative fundamental discriminant")
    if -D > DISCRIMINANT_GUARD:
        raise ValueError(f"|{D}| exceeds the supported bound {DISCRIMINANT_GUARD}")
    return _enumerate_posdef(D)


@lru_cache(maxsize=None)
def count_reduced_forms(D: int) -> int:
    """h(D) of a negative fundamental discriminant, without the group structure."""
    return len(_reduced_forms(D))


@lru_cache(maxsize=None)
def class_number_imaginary(D: int) -> ClassNumberReport:
    """Class number and 2-group data of the imaginary field with discriminant D."""
    forms = _reduced_forms(D)
    h = len(forms)
    structure = _group_structure(forms, D)
    return ClassNumberReport(
        discriminant_or_radicand=D,
        h=h,
        h2=h & -h,
        two_rank=sum(1 for n in structure if n % 2 == 0),
        group_structure=structure,
    )


# ---------------------------------------------------------------------------
# real: indefinite forms


def _enumerate_indefinite(D):
    """Reduced indefinite forms: |sqrt(D) - 2|a|| < b < sqrt(D), exact via isqrt."""
    s = math.isqrt(D)
    forms = []
    b = 2 - (D % 2)
    while b <= s:
        m = (D - b * b) // 4
        e = 1
        while e * e <= m:
            if m % e == 0:
                for aa in {e, m // e}:
                    if 2 * aa + b >= s + 1 and 2 * aa - b <= s:
                        c = -(m // aa)
                        forms.append((aa, b, c))
                        forms.append((-aa, b, -c))
            e += 1
        b += 2
    return sorted(forms)


def _rho(form, D, s):
    """One reduction step on an indefinite form; cycles through each class."""
    _, b, c = form
    c2 = abs(c)
    if c2 <= s:
        r = s - ((s + b) % (2 * c2))
    else:
        r = (-b) % (2 * c2)
        if r > c2:
            r -= 2 * c2
    return (c, r, (r * r - D) // (4 * c))


def _narrow_class_number(D):
    s = math.isqrt(D)
    allforms = frozenset(_enumerate_indefinite(D))
    remaining = set(allforms)
    cycles = 0
    while remaining:
        start = min(remaining)
        f = start
        steps = 0
        while True:
            remaining.discard(f)
            f = _rho(f, D, s)
            assert f in allforms
            steps += 1
            assert steps <= len(allforms)
            if f == start:
                break
        cycles += 1
    return cycles


@lru_cache(maxsize=None)
def class_number_real(d: int) -> ClassNumberReport:
    """Wide class number of Q(sqrt(d)): rho cycles give the narrow number,
    halved exactly when the fundamental unit has norm +1."""
    if d <= 1 or not is_squarefree(d):
        raise ValueError(f"{d} is not a valid real radicand")
    D = disc_of_radicand(d)
    if D > DISCRIMINANT_GUARD:
        raise ValueError(f"{D} exceeds the supported bound {DISCRIMINANT_GUARD}")
    h_narrow = _narrow_class_number(D)
    if fundamental_unit(d).norm == 1:
        assert h_narrow % 2 == 0
        h = h_narrow // 2
    else:
        h = h_narrow
    return ClassNumberReport(discriminant_or_radicand=d, h=h, h2=h & -h)
