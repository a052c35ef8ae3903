"""Class numbers of quadratic fields via reduced binary quadratic forms.

Imaginary fields: the class number is the count of reduced primitive
positive-definite forms of the fundamental discriminant, and
class_number_imaginary adds the class-group structure from composition and
the torsion of each Sylow subgroup.  Real fields: the narrow class number
is the number of rho-reduction cycles of reduced indefinite forms.
Negation (a, b, c) -> (-a, b, -c) carries a cycle C to a cycle -C, and
C = -C for every cycle exactly when (1, b0, c0) and (-1, b0, -c0) share
one, that is when the fundamental unit has norm -1; otherwise the wide
class number is half the narrow one (Buell, Binary Quadratic Forms, ch. 3).
One walk of C yields the forms of -C as well, so each pair C, -C is walked
once.  No unit is computed here.

Both enumerations go by leading coefficient (Cohen, GTM 138, 5.3 and 5.6;
Buell, Binary Quadratic Forms, ch. 3 and 4).  A reduced form has b a root
of b*b = D (mod 4|a|), and |a| <= sqrt(|D|/3) when D < 0.  When D > 0,
|a|*|c| = (D - b*b)/4 < D/4 and rho carries (a, b, c) to a form led by c,
so every rho cycle holds a form with |a| < sqrt(D)/2, and the walks start
from those with a > 0 alone.  The table of roots is walked only over the a
that have any, built from the odd prime powers with roots, so it costs
about one Chinese remaindering per admissible a up to sqrt(|D|/3) or
sqrt(D)/2, plus one step per root.  Everything is integer arithmetic;
square-root comparisons against sqrt(D) are done through isqrt brackets,
never floats.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .intarith import is_squarefree, prime_factors, primes_upto, sqrt_mod_prime
from .quadratic import fundamental_unit  # noqa: F401  unused; perfbench traces this binding

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


def supported_discriminant(D: int) -> int:
    """D itself when it is a fundamental discriminant with |D| <= DISCRIMINANT_GUARD;
    the bound is tested first, so a huge D never reaches a squarefree test."""
    if abs(D) > DISCRIMINANT_GUARD:
        raise ValueError(f"|{D}| exceeds the supported bound {DISCRIMINANT_GUARD}")
    if not is_fundamental_discriminant(D):
        raise ValueError(f"{D} is not a fundamental discriminant")
    return D


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


def _sqrt_table(D, A):
    """Yield (a, roots) for the 0 < a <= A that have roots: the residues
    b mod 2a with b*b = D (mod 4a), nonempty.

    The a are built by a depth-first walk over products of odd prime
    powers l^e <= A that have roots, in increasing l, each odd node then
    multiplied by the powers of 2 that have roots; an a with a prime power
    that has none is never visited.  D is a fundamental discriminant, so an
    odd l dividing D has the one root 0 mod l and none mod l^2.  Roots mod
    any other l come from Tonelli-Shanks and are lifted to l^e by trying
    the l lifts of each root; the 2-part keeps b mod 2^(k+1) with
    b*b = D (mod 2^(k+2)), lifted the same way.  The Chinese remainder
    theorem joins the parts, once per odd node and once per yielded a.
    """
    twos, roots, k = [], [D % 2], 0  # (2^k, the roots mod 2^(k+1) of b*b = D (mod 2^(k+2)))
    while roots and 1 << k <= A:
        twos.append((1 << k, roots))
        k += 1
        roots = [x for r in roots for x in (r, r + (1 << k)) if (x * x - D) % (4 << k) == 0]
    chains = []  # per odd prime l <= A with roots: [(l^e, the roots mod l^e), ...]
    for l in primes_upto(A)[1:]:
        r = sqrt_mod_prime(D, l)
        if r is None:
            continue
        chain = [(l, [r, l - r] if r else [0])]
        q = l * l
        while r and q <= A:
            chain.append((q, [x for y in chain[-1][1] for x in range(y, q, q // l) if (x * x - D) % q == 0]))
            q *= l
        chains.append(chain)
    stack = [(1, [0], 0)]  # (odd m, the roots mod m, index of the next prime)
    while stack:
        m, odd, i = stack.pop()
        for t, two in twos:
            if m * t > A:
                break
            yield m * t, _crt(two, 2 * t, odd, m)
        for j in range(i, len(chains)):
            if m * chains[j][0][0] > A:
                break
            for q, rq in chains[j]:
                if m * q > A:
                    break
                stack.append((m * q, _crt(odd, m, rq, q), j + 1))


def _crt(roots1, m1, roots2, m2):
    """Every x mod m1*m2 with x = r1 (mod m1), x = r2 (mod m2) for coprime m1, m2."""
    if not roots1 or not roots2:
        return []
    k = pow(m1, -1, m2)
    return [r1 + m1 * ((r2 - r1) * k % m2) for r1 in roots1 for r2 in roots2]


def _enumerate_posdef(D):
    """Reduced positive definite forms (a, b, c) of a negative fundamental D.

    Reduced means |b| <= a <= c, with b >= 0 when |b| = a or a = c, so
    3a^2 <= |D|.  For each such a, every root b of b*b = D (mod 4a) taken
    in (-a, a] gives one candidate with c = (b*b - D)/(4a), kept when c >= a.
    The cost is the square-root table to sqrt(|D|/3) plus one step per root
    (Cohen, GTM 138, 5.3; Buell, Binary Quadratic Forms, ch. 3).
    """
    forms = []
    for a, roots in _sqrt_table(D, math.isqrt(-D // 3)):
        for b in roots:
            if b > a:
                b -= 2 * a
            c = (b * b - D) // (4 * a)
            if c > a or (c == a and b >= 0):
                forms.append((a, b, c))
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
    result = None
    while n:
        if n & 1:
            result = f if result is None else compose_forms(result, f, D)
        n >>= 1
        if n:
            f = compose_forms(f, f, D)
    return _principal_form(D) if result is None else result


def _group_structure(forms, D):
    """Primary cyclic decomposition from the l^j-torsion of each Sylow subgroup.

    For each prime l with l^e exactly dividing h: when e = 1 the l-part is
    cyclic of order l.  Otherwise the forms, in sorted order, are raised to
    the power h/l^e, which lands in the l-Sylow subgroup, and the subgroup
    generated so far is closed under composition, coset by coset, until it
    has l^e elements.  The l^j-torsion is counted inside that subgroup
    alone, so a prime costs a few projections and about e*l^e powerings by
    l, where raising all h forms to every l^j cost about e*h powerings.
    """
    h = len(forms)
    e = _principal_form(D)
    structure = []
    for l in prime_factors(h):
        exp = 0
        hh = h
        while hh % l == 0:
            hh //= l
            exp += 1
        if exp == 1:  # a group of prime order is cyclic
            structure.append(l)
            continue
        sylow = {e}
        for f in forms:
            if len(sylow) == l**exp:
                break
            x = _form_pow(f, hh, D)
            if x in sylow:
                continue
            g, reps = x, list(sylow)
            while x not in sylow:
                sylow.update(compose_forms(y, x, D) for y in reps)
                x = compose_forms(x, g, D)
        assert len(sylow) == l**exp
        counts = [0] * (exp + 1)
        for f in sylow:
            j = 0
            while f != e:
                f = _form_pow(f, l, D)
                j += 1
            counts[j] += 1
        counts = list(itertools.accumulate(counts))
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
    if D >= 0:
        raise ValueError(f"{D} is not a negative fundamental discriminant")
    return _enumerate_posdef(supported_discriminant(D))


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
    """Yield (a, b) for each reduced indefinite form (a, b, c) with
    0 < a <= isqrt(D)//2 of a positive fundamental D.

    Reduced means |sqrt(D) - 2|a|| < b < sqrt(D), exact via s = isqrt(D) as
    s + 1 - 2a <= b <= s for these a.  That window holds 2a consecutive
    integers, so each root class of b*b = D (mod 4a) gives exactly one b,
    and c = (b*b - D)/(4a) < 0 follows from a and b.  The cost is the
    square-root table to sqrt(D)/2 plus one step per root (Cohen, GTM 138,
    5.6; Buell, Binary Quadratic Forms, ch. 4).
    """
    s = math.isqrt(D)
    for a, roots in _sqrt_table(D, s // 2):
        lo = s + 1 - 2 * a
        for r in roots:
            yield a, lo + (r - lo) % (2 * a)


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
    """The number of rho cycles, and whether the principal form (1, b0, c0),
    b0 = s or s - 1 with the parity of D for s = isqrt(D), shares its cycle
    with (-1, b0, -c0).

    The sign of a alternates along a rho cycle, and (a, b, c) -> (-a, b, -c)
    commutes with rho, so the forms with a > 0 of each cycle C make one
    cycle of rho^2, and the negated odd-step forms -rho(f) of that walk are
    the forms with a > 0 of the cycle -C.  One walk therefore accounts for
    the pair C, -C: C = -C exactly when -rho(start) was walked, and then
    every negated form must belong to C; otherwise C and -C are two cycles,
    and the negated forms are marked seen.  Since -C is C times the class of
    (-1, b0, -c0), every cycle must agree with the principal cycle, which is
    walked first, so the count is even whenever that cycle is not shared.
    A reduced form has |a|*|c| = (D - b*b)/4 < D/4, and rho carries
    (a, b, c) to a form led by c, so every cycle holds a form with
    |a| <= s//2, and C or -C holds one with a > 0: the walks start only
    from the principal form and from each (a, b) with 0 < a <= s//2 not yet
    seen.  A walked form that was already seen, a walked or negated form
    that is not reduced (0 < b <= s and |s - 2a| < b, exact for a > 0), or a
    cycle that disagrees with these rules means rho is broken, and raises
    ArithmeticError.
    """
    s = math.isqrt(D)
    b0 = s - (s - D) % 2
    cycle_of = {}  # (a, b) of each a > 0 form seen -> the index of its cycle
    cycles = 0
    shared = None
    for a, b in itertools.chain(((1, b0),), _enumerate_indefinite(D)):
        if (a, b) in cycle_of:
            continue
        f = start = (a, b, (b * b - D) // (4 * a))
        negated = []
        while True:
            a, b, _ = f
            if (a, b) in cycle_of or not 0 < b <= s or abs(s - 2 * a) >= b:
                raise ArithmeticError(f"rho left the reduced forms of {D} at {f}")
            cycle_of[a, b] = cycles
            g = _rho(f, D, s)
            a, b, _ = g
            if not 0 < b <= s or abs(s + 2 * a) >= b:
                raise ArithmeticError(f"rho left the reduced forms of {D} at {g}")
            negated.append((-a, b))
            f = _rho(g, D, s)
            if f == start:
                break
        paired = cycle_of.get(negated[0]) == cycles
        if shared is None:
            shared = paired
        elif paired != shared:
            raise ArithmeticError(f"the rho cycle of {start} disagrees with the principal cycle of {D}")
        if shared:  # every negated form is on C
            commutes = set(map(cycle_of.get, negated)) == {cycles}
        else:  # the negated forms of -C are new and distinct
            size = len(cycle_of)
            cycle_of.update(dict.fromkeys(negated, cycles + 1))
            commutes = len(cycle_of) == size + len(negated)
        if not commutes:
            raise ArithmeticError(f"rho of {D} does not commute with negation on the cycle of {start}")
        cycles += 1 if shared else 2
    return cycles, shared


@lru_cache(maxsize=None)
def class_number_real(d: int) -> ClassNumberReport:
    """Wide class number of Q(sqrt(d)): rho cycles give the narrow number,
    halved exactly when the principal form and its negative lie in different
    cycles, that is when the fundamental unit has norm +1 (Buell, ch. 3)."""
    if d <= 1:
        raise ValueError(f"{d} is not a valid real radicand")
    D = supported_discriminant(d if d % 4 == 1 else 4 * d)
    h_narrow, negative_norm = _narrow_class_number(D)
    h = h_narrow if negative_norm else h_narrow // 2
    return ClassNumberReport(discriminant_or_radicand=d, h=h, h2=h & -h)
