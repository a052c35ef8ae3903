"""Class numbers of quadratic fields via reduced binary quadratic forms.

Imaginary fields: the class number is the count of reduced primitive
positive-definite forms of the fundamental discriminant, and
class_number_imaginary adds the class-group structure from the relations
of the prime forms in each Sylow subgroup.  Real fields: the narrow class
number is the number of rho-reduction cycles of reduced indefinite forms.  The
group K of negation nu (a, b, c) -> (-a, b, -c), which commutes with rho,
and reflection sigma (a, b, c) -> (c, b, a), which reverses rho and
carries a cycle to that of the inverse class, permutes the cycles; each
K-orbit of cycles is walked once and holds 4/|H| of them, H the
stabilizer of one.  nu fixes every cycle exactly when the fundamental
unit has norm -1; otherwise the wide class number is half the narrow one
(Buell, Binary Quadratic Forms, ch. 3).  No unit is computed here.

Both enumerations go by leading coefficient (Cohen, GTM 138, 5.3 and 5.6;
Buell, Binary Quadratic Forms, ch. 3 and 4).  A reduced form has b a root
of b*b = D (mod 4|a|), and |a| <= sqrt(|D|/3) when D < 0.  When D > 0,
|a|*|c| = (D - b*b)/4 < D/4 and rho carries (a, b, c) to a form led by c,
so every rho cycle holds a form with |a| < sqrt(D)/2, and the walks start
from those with a > 0 alone.  The table of roots is walked only over the a
that have any, built from the odd prime powers with roots.  It counts
roots without finding them, and finds them, one Chinese remaindering per
a, only where forms are read: a >= sqrt(|D|)/2 when D < 0 and rho-walk
starts until the walks hold every form counted.  The structure lists no
form: its prime forms share the count's cached chains.  Everything is
integer arithmetic; square-root comparisons against sqrt(D) are done
through isqrt brackets, never floats.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from ._record import FrozenRecord
from .intarith import _echelon, _sieve, is_squarefree, prime_factors, sqrt_mod_prime
from .quadratic import fundamental_unit  # noqa: F401  unused; perfbench traces this binding

DISCRIMINANT_GUARD = 8 * 10**7


class ClassNumberReport(FrozenRecord):
    """Class number of one quadratic field with its exact 2-part.

    discriminant is the field's fundamental discriminant D, of either sign.
    group_structure lists primary cyclic orders (imaginary case only);
    two_rank counts its even entries.  Real fields report h and h2 only.
    """

    __slots__ = ("discriminant", "h", "h2", "two_rank", "group_structure")

    def __init__(self, discriminant: int, h: int, h2: int, two_rank: int | None = None,
                 group_structure: tuple[int, ...] | None = None):
        super().__init__(discriminant, h, h2, two_rank, group_structure)


def disc_of_radicand(m: int) -> int:
    """Fundamental discriminant of Q(sqrt(m)) for squarefree m, unchecked:
    supported_discriminant validates it before any form is counted."""
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


def _sqrt_table(D, A, lo=0):
    """Yield (a, roots) for the lo < a <= A that have roots: the residues
    b mod 2a with b*b = D (mod 4a), nonempty.  Return N(lo), the number of
    those residues summed over 0 < a <= lo.

    The a are built by a depth-first walk over products of odd prime
    powers l^e <= A that have roots, in increasing l, each odd node then
    multiplied by the powers of 2 that have roots.  Each node carries its
    root count and its prime-power path, so N(lo) needs no roots.  The
    yielded a alone get roots: a memoized Tonelli-Shanks root per prime,
    Hensel-lifted, joined along the path by the Chinese remainder theorem
    once per odd node, then once per a with the roots mod 2^(k+1) of
    b*b = D (mod 2^(k+2)), lifted by trial.
    """
    twos, roots, k = [], [D % 2], 0  # (2^k, the roots mod 2^(k+1) of b*b = D (mod 2^(k+2)))
    while roots and 1 << k <= A:
        twos.append((1 << k, roots))
        k += 1
        roots = [x for r in roots for x in (r, r + (1 << k)) if (x * x - D) % (4 << k) == 0]
    chains = _chains(D, A)
    lifted = {}  # l -> a root of D mod the last of its powers
    known = {1: [0]}  # odd m -> its roots, for m on the path of a yielded a
    count = 0
    stack = [(1, 1, (), 0)]  # (odd m, its number of roots, its path of (chain, l^e), index of the next prime)
    while stack:
        m, n, path, i = stack.pop()
        for t, two in twos:
            if m * t > A:
                break
            if m * t <= lo:
                count += n * len(two)
                continue
            if m not in known:
                mm = 1
                for (l, _, powers), q in path:
                    if mm * q not in known:
                        if l not in lifted:
                            r = sqrt_mod_prime(D, l)
                            for p in powers[1:]:  # l does not divide 2r
                                r = (r - (r * r - D) * pow(2 * r, -1, p)) % p
                            lifted[l] = r
                        known[mm * q] = _crt(known[mm], mm, {lifted[l] % q, -lifted[l] % q}, q)
                    mm *= q
            yield m * t, _crt(two, 2 * t, known[m], m)
        for j in range(i, len(chains)):
            l, nl, powers = chains[j]
            if m * l > A:
                break
            for q in powers:
                if m * q > A:
                    break
                stack.append((m * q, n * nl, path + ((chains[j], q),), j + 1))
    return count


@lru_cache(maxsize=1)
def _chains(D, A):
    """(l, 1 + (D/l) roots mod each l^e, the l^e <= A with roots) per odd prime l <= A with
    roots, for a fundamental D; cached for the last (D, A): the count and the prime forms share it."""
    chains = []
    for l in itertools.islice(_sieve(A), 1, None):
        if l > A:
            break
        nl = 1 + pow(D, (l - 1) // 2, l)  # l when (D/l) = -1
        if nl <= 2:
            powers = [l]
            while nl == 2 and powers[-1] * l <= A:
                powers.append(powers[-1] * l)
            chains.append((l, nl, powers))
    return chains


def _drain(table):
    """The return value N(lo) of a root table, and the entries it yields."""
    entries = []
    while True:
        try:
            entries.append(next(table))
        except StopIteration as done:
            return done.value, entries


def _crt(roots1, m1, roots2, m2):
    """Every x mod m1*m2 with x = r1 (mod m1), x = r2 (mod m2) for coprime m1, m2."""
    k = pow(m1, -1, m2)
    return [r1 + m1 * ((r2 - r1) * k % m2) for r1 in roots1 for r2 in roots2]


def _enumerate_posdef(D, table=None):
    """Yield the reduced positive definite forms (a, b, c) of a negative
    fundamental D from the entries (a, roots) of a root table, in its order.

    Reduced means |b| <= a <= c, with b >= 0 when |b| = a or a = c, so
    3a^2 <= |D|.  For each such a, every root b of b*b = D (mod 4a) taken
    in (-a, a] gives one candidate with c = (b*b - D)/(4a), kept when c >= a
    (Cohen, GTM 138, 5.3; Buell, Binary Quadratic Forms, ch. 3).
    """
    for a, roots in _sqrt_table(D, math.isqrt(-D // 3)) if table is None else table:
        for b in roots:
            if b > a:
                b -= 2 * a
            c = (b * b - D) // (4 * a)
            if c > a or (c == a and b >= 0):
                yield a, b, c


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


def _prime_forms(D):
    """Yield a reduced form of norm l, one of each inverse pair, for each prime
    l <= sqrt(|D|/3) that splits or ramifies, of a negative fundamental D: for
    l = 2 unless D = 5 (mod 8), with b*b = D (mod 8), and for an odd l from the
    chains of the count, with b the root of D (mod l) of the parity of D.  Every
    class holds a reduced form with a <= sqrt(|D|/3), whose ideal is a product
    of primes of norm dividing a, so these forms generate the class group."""
    A = math.isqrt(-D // 3)
    if D % 8 != 5 and A >= 2:
        b = 2 if D % 8 == 4 else D % 2
        yield _reduce_posdef(2, b, (b * b - D) // 8, D)
    for l, _, _ in _chains(D, A):
        r = sqrt_mod_prime(D, l)
        b = r if (r - D) % 2 == 0 else l - r
        yield _reduce_posdef(l, b, (b * b - D) // (4 * l), D)


def _group_structure(h, D):
    """Primary cyclic decomposition of the class group, of order h, from the
    relations of the prime forms in each Sylow subgroup (Cohen, GTM 138,
    2.4.3 and 5.4).  For each prime l with l^e exactly dividing h: when e = 1
    the l-part is cyclic of order l.  Otherwise the x = f^(h/l^e) of the
    prime forms f generate the l-Sylow subgroup H.  An x outside H so far
    adds the cosets H x^j until x^j = w lies in the old H, and the relation
    j x = w over the earlier generators; the relations are triangular with
    determinant |H|, and alternate row echelons of them and of their
    transpose reach the diagonal of its cyclic orders.  h is counted, so a
    power of x in one of its own new cosets, a Sylow subgroup of another
    size, or a product other than h means the two disagree: ArithmeticError."""
    e = _principal_form(D)
    structure = []
    for l in prime_factors(h):
        exp, hh = 0, h
        while hh % l == 0:
            hh //= l
            exp += 1
        if exp == 1:  # a group of prime order is cyclic
            structure.append(l)
            continue
        sylow, relations = {e: ()}, []  # each element -> its exponents over the generators so far
        for f in itertools.takewhile(lambda f: len(sylow) < l**exp, _prime_forms(D)):
            x = _form_pow(f, hh, D)
            if x in sylow:
                continue
            k = len(relations)
            old = [(y, v + (0,) * (k - len(v))) for y, v in sylow.items() if y != e]
            xj, j = x, 1
            while xj not in sylow:
                sylow[xj] = (0,) * k + (j,)  # the representative e gives x^j itself
                sylow.update((compose_forms(y, xj, D), v + (j,)) for y, v in old)
                xj, j = compose_forms(xj, x, D), j + 1
            w = sylow[xj]
            if len(w) > k:
                raise ArithmeticError(f"a power of {x} in {D} lands in its own new coset, against the group law")
            relations.append([-n for n in w] + [0] * (k - len(w)) + [j])
        if len(sylow) != l**exp:
            raise ArithmeticError(f"the {l}-Sylow subgroup of {D} has {len(sylow)} elements, not {l**exp}")
        m = [row + [0] * (len(relations) - len(row)) for row in relations]
        while any(a for i, row in enumerate(m) for j, a in enumerate(row) if i != j):
            m = [list(col) for col in zip(*_echelon(m, len(m)))]
        structure.extend(row[i] for i, row in enumerate(m) if row[i] != 1)
    if math.prod(structure) != h:
        raise ArithmeticError(f"the class group structure {structure} of {D} does not multiply to h = {h}")
    return tuple(sorted(structure))


@lru_cache(maxsize=None)
def count_reduced_forms(D: int) -> int:
    """h(D) of a negative fundamental discriminant, without the group structure.
    A root b of b*b = D (mod 4a) in (-a, a] with 4a^2 < |D| always gives a
    reduced form, as c >= |D|/(4a) > a, so only the larger a are listed."""
    if D >= 0:
        raise ValueError(f"{D} is not a negative fundamental discriminant")
    D = supported_discriminant(D)
    n, window = _drain(_sqrt_table(D, math.isqrt(-D // 3), math.isqrt((-D - 1) // 4)))
    return n + sum(1 for _ in _enumerate_posdef(D, window))


@lru_cache(maxsize=None)
def class_number_imaginary(D: int) -> ClassNumberReport:
    """Class number and 2-group data of the imaginary field with discriminant D."""
    h = count_reduced_forms(D)
    structure = _group_structure(h, D)
    return ClassNumberReport(
        discriminant=D,
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
    and c = (b*b - D)/(4a) < 0 follows from a and b.  The table finds the
    roots of an a only when it is drawn (Cohen, GTM 138, 5.6; Buell, Binary
    Quadratic Forms, ch. 4).
    """
    s = math.isqrt(D)
    for a, roots in _sqrt_table(D, s // 2):
        lo = s + 1 - 2 * a
        for r in roots:
            yield a, lo + (r - lo) % (2 * a)


def _rho(form, D, s):
    """One reduction step on a reduced indefinite form, s = isqrt(D): the
    next reduced form of its cycle.  A reduced form has |c| < sqrt(D), so
    the new b is the r in (s - 2|c|, s] with r = -b (mod 2|c|)."""
    _, b, c = form
    r = s - ((s + b) % (2 * abs(c)))
    return (c, r, (r * r - D) // (4 * c))


def _narrow_class_number(D):
    """The number of rho cycles, and whether the principal form (1, b0, c0),
    b0 = s or s - 1 with the parity of D for s = isqrt(D), shares its cycle
    with (-1, b0, -c0).

    The sign of a alternates along a cycle.  A K-orbit of forms holds one
    or two forms with a > 0 and is keyed by (min(|a|, |c|), b); relative to
    a walked cycle C, its label is the k in K with the keyed member on kC.
    An orbit of cycles is walked from a start with a > 0 in two segments of
    rho^2 steps, each up to its first form with a > 0 already keyed: along
    C from the start, and along sigma C from rho(sigma(start)), which is C
    backward from the start.  A symmetry of C folds it at two points, and
    each segment reaches one; with none, the first segment closes C and the
    second stops at once.  The stabilizer H of C holds the product of the
    two labels of each key met again, at a stop or an odd step, and
    nu*sigma when it fixes a walked form (|a| = |c|); two such elements
    make H all of K, and the orbit holds 4/|H| cycles.  nu C is C times
    the class of (-1, b0, -c0), so nu is in every H or none, as in that of
    the principal cycle, walked first.  Then the walks start from each
    (a, b) with 0 < a <= s//2 not yet keyed, until the keys hold all
    N(s//2) of them.  A walked form that is not a reduced form of D of its
    sign (0 < b <= s and |s - 2|a|| < b, exact, and b*b - 4ac = D), a key
    of another orbit, an orbit that disagrees on nu, or another count when
    the walks stop means rho or the count is broken, and raises
    ArithmeticError.  A count short by exactly the forms of the last orbits
    walked stops the walks before those orbits, and is not seen.
    """
    s = math.isqrt(D)
    half = s // 2
    b0 = s - (s - D) % 2
    total = _drain(_sqrt_table(D, half, half))[0]
    keyed = {}  # k[0]*(s + 1) + k[1] for each key k walked -> 4 * (its orbit's index) + its label
    cycles = found = orbits = 0  # found: the forms with 0 < a <= s//2 in the keyed orbits
    shared = None
    for a, b in itertools.chain(((1, b0),), _enumerate_indefinite(D)):
        c = (b * b - D) // (4 * a)
        if min(a, -c) * (s + 1) + b in keyed:
            continue
        start = (a, b, c)
        stabilizer = set()  # labels 1 = nu, 2 = sigma, 3 = nu*sigma, composed by xor
        for f, label in ((start, 0), (_rho(start[::-1], D, s), 2)):
            sign = 1  # the sign of a: +1 on the rho^2 steps, -1 on the odd steps
            while True:
                a, b, c = f
                x, y = sign * a, -sign * c
                if x <= 0 or not 0 < b <= s or not s - b < 2 * x < s + b or b * b - 4 * a * c != D:
                    raise ArithmeticError(f"rho left the reduced forms of {D} at {f}")
                if x > y:
                    key, mine = y * (s + 1) + b, label ^ (sign < 0) ^ 3
                else:
                    key, mine = x * (s + 1) + b, label ^ (sign < 0)
                    if x == y:  # nu*sigma fixes f
                        stabilizer.add(3)
                theirs = keyed.get(key)
                if theirs is None:
                    keyed[key] = 4 * orbits + mine
                    found += (x <= half) + (x != y and y <= half)
                else:
                    if theirs >> 2 != orbits:
                        raise ArithmeticError(f"rho left the orbit of {start} for another orbit of {D} at {f}")
                    stabilizer.add((theirs ^ mine) & 3)
                    if sign > 0:
                        break
                f, sign = _rho(f, D, s), -sign
        stabilizer.discard(0)
        nu = 1 in stabilizer or len(stabilizer) > 1
        if shared is None:
            shared = nu
        elif nu != shared:
            raise ArithmeticError(f"the rho cycle of {start} disagrees with the principal cycle of {D}")
        cycles += 4 >> min(len(stabilizer), 2)
        orbits += 1
        if found >= total:
            break
    if found != total:
        raise ArithmeticError(f"the rho cycles of {D} hold {found} forms with 0 < a <= {half}, the table {total}")
    return cycles, shared


@lru_cache(maxsize=None)
def class_number_real(d: int) -> ClassNumberReport:
    """Wide class number of Q(sqrt(d)), under its discriminant D: rho cycles give the
    narrow number, halved exactly when the principal form and its negative lie in
    different cycles, that is when the fundamental unit has norm +1 (Buell, ch. 3)."""
    if d <= 1:
        raise ValueError(f"{d} is not a valid real radicand")
    D = supported_discriminant(disc_of_radicand(d))
    h_narrow, negative_norm = _narrow_class_number(D)
    h = h_narrow if negative_norm else h_narrow // 2
    return ClassNumberReport(discriminant=D, h=h, h2=h & -h)
