"""Exact arithmetic in multiquadratic fields Q(sqrt(d1), ..., sqrt(dk)).

An element is a rational combination of the surds sqrt(r), where r runs over
the squarefree parts of the 2^k subset products of the generators.  sqrt(r)
for negative r means i*sqrt(|r|), so CM fields use the same machinery with a
negative radicand (conventionally -1, listed last) among the generators.

Everything is exact and runs on integers: an element is a tuple of integer
numerators over one positive common denominator, in lowest terms (Cohen, A
Course in Computational Algebraic Number Theory, ch. 4).  Products reduce
through the precomputed structure constants sqrt(r1)*sqrt(r2) = c*sqrt(r3),
square roots are extracted by recursive descent through the quadratic tower,
and real signs are decided by integer square roots of the numerator terms.
Fractions appear only at the edges: scalar arguments, coords and the text
form.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .intarith import is_perfect_square, sqrt_interval, squarefree_decompose

# generator tuple -> its one FieldBasis
_BASES = {}


class FieldBasis:
    """The multiquadratic field generated by square roots of `generators`.

    Radicands are indexed by bitmask over the generator list: radicand(m) is
    the squarefree part of the product of the generators selected by m.
    Generators must be multiplicatively independent modulo squares, which
    makes the 2^k radicands distinct and the surds linearly independent.

    There is one instance per generator tuple: FieldBasis(gens) returns the
    basis built by the first call with these generators, so bases compare
    by identity.  A tuple that fails validation is never stored.
    """

    def __new__(cls, generators):
        generators = tuple(map(int, generators))
        basis = _BASES.get(generators)
        if basis is None:
            basis = super().__new__(cls)
            basis._build(generators)
            _BASES[generators] = basis
        return basis

    def _build(self, generators):
        for g in generators:
            if g in (0, 1) or squarefree_decompose(g)[1] != 1:
                raise ValueError(f"generator {g} must be squarefree and != 0, 1")
        self.generators = generators
        self.k = len(generators)
        self.dim = 1 << self.k
        rads = []
        for m in range(self.dim):
            prod = 1
            for i in range(self.k):
                if m >> i & 1:
                    prod *= generators[i]
            rads.append(squarefree_decompose(prod)[0])
        for m in range(1, self.dim):
            if rads[m] == 1:
                raise ValueError("generators are multiplicatively dependent modulo squares")
        self.radicands = tuple(rads)
        self.mask_of = {r: m for m, r in enumerate(rads)}
        assert len(self.mask_of) == self.dim
        self.is_cm = any(r < 0 for r in rads)
        coef = []
        for m1 in range(self.dim):
            row = []
            for m2 in range(self.dim):
                r1, r2, r3 = rads[m1], rads[m2], rads[m1 ^ m2]
                t2 = r1 * r2 // r3
                t = math.isqrt(t2)
                assert t * t == t2
                row.append(-t if r1 < 0 and r2 < 0 else t)
            coef.append(tuple(row))
        self._coef = tuple(coef)

    @property
    def sub(self) -> "FieldBasis":
        """The subfield dropping the last generator."""
        assert self.k > 0
        return FieldBasis(self.generators[:-1])

    def __repr__(self):
        surds = ",".join(f"sqrt({g})" for g in self.generators)
        return f"Q({surds})" if surds else "Q"

    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.dim, 1)

    def one(self) -> "FieldElement":
        return FieldElement(self, (1,) + (0,) * (self.dim - 1), 1)

    def from_rational(self, x) -> "FieldElement":
        if not isinstance(x, (int, Fraction)):
            x = Fraction(x)
        return FieldElement(self, (x.numerator,) + (0,) * (self.dim - 1), x.denominator)

    def element(self, coords: dict) -> "FieldElement":
        """Build an element from {radicand: coefficient}."""
        terms = {}
        for r, c in coords.items():
            c = Fraction(c)
            terms[self.mask_of[r]] = (c.numerator, c.denominator)
        return _from_terms(self, terms)

    def surd(self, r: int) -> "FieldElement":
        """The basis surd sqrt(r) (i*sqrt(|r|) for negative r)."""
        return self.element({r: 1})


class FieldElement:
    """Immutable element of a multiquadratic field.

    The coefficient of sqrt(radicand(m)) is _num[m] / _den: integer
    numerators over one common denominator, kept in lowest terms, with
    gcd(_den, *_num) == 1 and _den > 0.  Zero is (0, ..., 0)/1.  Equal
    elements therefore have equal tuples, which equality and hashing compare.
    The constructor trusts its caller; _reduced brings a pair to this form.
    """

    __slots__ = ("basis", "_num", "_den")

    def __init__(self, basis: FieldBasis, num: tuple, den: int):
        assert len(num) == basis.dim
        self.basis = basis
        self._num = num
        self._den = den

    @property
    def coords(self) -> dict:
        """Nonzero coefficients keyed by radicand."""
        rads = self.basis.radicands
        return {rads[m]: Fraction(n, self._den) for m, n in enumerate(self._num) if n}

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return (self.basis is other.basis and self._den == other._den
                    and self._num == other._num)
        if isinstance(other, (int, Fraction)):
            return (self.is_rational() and self._num[0] == other.numerator
                    and self._den == other.denominator)
        return NotImplemented

    def __hash__(self):
        return hash((self.basis.generators, self._num, self._den))

    def _lift(self, other):
        if isinstance(other, FieldElement):
            if other.basis is not self.basis:
                raise ValueError("elements belong to different bases")
            return other
        if isinstance(other, (int, Fraction)):
            return self.basis.from_rational(other)
        return None

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return _add(self, other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return _add(self, other, -1)

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        return FieldElement(self.basis, tuple(-a for a in self._num), self._den)

    def __mul__(self, other):
        if not isinstance(other, FieldElement):
            if isinstance(other, (int, Fraction)):
                return _scaled(self, other.numerator, other.denominator)
            return NotImplemented
        other = self._lift(other)
        coef = self.basis._coef
        ys = [(m2, y) for m2, y in enumerate(other._num) if y]
        out = [0] * self.basis.dim
        for m1, x in enumerate(self._num):
            if x:
                row = coef[m1]
                for m2, y in ys:
                    out[m1 ^ m2] += x * y * row[m2]
        return _reduced(self.basis, tuple(out), self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("dividing a field element by zero")
            return _scaled(self, other.denominator, other.numerator)
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.basis.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse via the product of all Galois conjugates."""
        if self.is_zero():
            raise ZeroDivisionError("inverting zero field element")
        v = self
        cof = self.basis.one()
        for j in range(self.basis.k):
            w = conjugate(v, 1 << j)
            cof = cof * w
            v = v * w
        assert v.is_rational()
        return _scaled(cof, v._den, v._num[0])

    def __repr__(self):
        return f"<{serialize_element(self)} in {self.basis!r}>"


def _reduced(basis: FieldBasis, num: tuple, den: int) -> FieldElement:
    """The element num/den (den > 0) with numerators and denominator divided
    by their gcd."""
    g = math.gcd(den, *num)
    if g != 1:
        num = tuple(a // g for a in num)
        den //= g
    return FieldElement(basis, num, den)


def _add(u: FieldElement, v: FieldElement, sign: int) -> FieldElement:
    """u + sign*v over the least common denominator, for sign in (1, -1)."""
    g = math.gcd(u._den, v._den)
    fu, fv = v._den // g, u._den // g * sign
    return _reduced(u.basis, tuple(a * fu + b * fv for a, b in zip(u._num, v._num)), u._den * fu)


def _scaled(u: FieldElement, n: int, d: int) -> FieldElement:
    """u * n/d for integers n and d != 0."""
    if d < 0:
        n, d = -n, -d
    return _reduced(u.basis, tuple(a * n for a in u._num), u._den * d)


def _from_terms(basis: FieldBasis, terms: dict) -> FieldElement:
    """The element with coefficient n/d (d > 0) at mask m, for {m: (n, d)}."""
    den = math.lcm(*(d for _, d in terms.values()))
    num = [0] * basis.dim
    for m, (n, d) in terms.items():
        num[m] = n * (den // d)
    return _reduced(basis, tuple(num), den)


def conjugate(u: FieldElement, mask: int) -> FieldElement:
    """The Galois conjugate sending sqrt(g_i) to -sqrt(g_i) for each bit i of
    mask: the coefficient of each surd picks up the sign of its subset."""
    return FieldElement(
        u.basis,
        tuple(-c if (m & mask).bit_count() & 1 else c for m, c in enumerate(u._num)),
        u._den,
    )


def relative_norm(u: FieldElement, mask: int) -> FieldElement:
    """u times its conjugate under mask, which lies in the fixed field."""
    v = u * conjugate(u, mask)
    assert conjugate(v, mask) == v
    return v


def sign_at_embedding(u: FieldElement, signs: dict) -> int:
    """Sign of u under the real embedding sending sqrt(g) to signs[g]*sqrt(g).

    Only defined for elements supported on positive radicands.  The common
    denominator is positive, so u has the sign of its numerator part, a sum
    of k terms n*sqrt(r).  Each signed floor
    sign(n)*floor(|n|*sqrt(r)*10^d) is off by less than 1, so once their sum S
    has |S| >= k, S has the sign of u.  Otherwise d doubles; the loop ends
    because u != 0 and the surds are linearly independent over Q.
    """
    if u.is_zero():
        raise ValueError("sign of zero is undefined")
    basis = u.basis
    for g in basis.generators:
        if g > 0 and g not in signs:
            raise ValueError(f"no sign provided for generator {g}")
    terms = []
    for m, n in enumerate(u._num):
        if not n:
            continue
        r = basis.radicands[m]
        if r < 0:
            raise ValueError("sign_at_embedding requires a real-supported element")
        s = 1
        for i in range(basis.k):
            if m >> i & 1:
                s *= signs[basis.generators[i]]
        terms.append((n * s, r))
    digits = 8
    while True:
        total = 0
        for n, r in terms:
            lo, _ = sqrt_interval(n * n * r, digits)
            total += lo if n > 0 else -lo
        if abs(total) >= len(terms):
            return 1 if total > 0 else -1
        digits *= 2


# ---------------------------------------------------------------------------
# square roots by descent through the tower


def _split_top(u: FieldElement):
    """Write u = a + b*sqrt(g_top) with a, b in the subfield basis."""
    basis = u.basis
    sub = basis.sub
    half = sub.dim
    # coordinate m|top of u is b_m * c_m, where sqrt(r_m)*sqrt(g_top) = c_m*sqrt(r_{m|top})
    scale = [basis._coef[m][half] for m in range(half)]
    lcm = math.lcm(*scale)
    a = _reduced(sub, u._num[:half], u._den)
    b = _reduced(sub, tuple(n * (lcm // c) for n, c in zip(u._num[half:], scale)), u._den * lcm)
    return a, b


def _join_top(basis: FieldBasis, a: FieldElement, b: FieldElement) -> FieldElement:
    half = basis.sub.dim
    coef = basis._coef
    g = math.gcd(a._den, b._den)
    fa, fb = b._den // g, a._den // g
    num = (tuple(n * fa for n in a._num)
           + tuple(n * fb * coef[m][half] for m, n in enumerate(b._num)))
    return _reduced(basis, num, a._den * fa)


def _sqrt_descent(u: FieldElement):
    basis = u.basis
    if basis.k == 0:
        # n/d is in lowest terms, so it is a square exactly when n and d are
        nsq, nroot = is_perfect_square(u._num[0])
        dsq, droot = is_perfect_square(u._den)
        return FieldElement(basis, (nroot,), droot) if nsq and dsq else None
    d = basis.generators[-1]
    a, b = _split_top(u)
    if b.is_zero():
        r = _sqrt_descent(a)
        if r is not None:
            return _join_top(basis, r, a.basis.zero())
        r = _sqrt_descent(a * d)
        if r is not None:
            return _join_top(basis, a.basis.zero(), r / d)
        return None
    n = a * a - b * b * d
    w = _sqrt_descent(n)
    if w is None:
        return None
    for ww in (w, -w):
        s = _sqrt_descent((a + ww) / 2)
        if s is not None and not s.is_zero():
            t = b * s.inverse() / 2
            assert s * s + t * t * d == a and 2 * s * t == b
            return _join_top(basis, s, t)
    return None


def sqrt_in_field(u: FieldElement):
    """An exact square root of u in its own field, or None.

    Descends the quadratic tower in generator order: with u = a + b*sqrt(d)
    over the subfield F, either b = 0 and one of a, a*d must be a square in
    F, or the relative norm a^2 - b^2*d must be a square w^2 in F with
    (a+w)/2 or (a-w)/2 a square again.  The returned witness is re-squared.
    Which of the two roots comes back is not specified; callers normalize.
    """
    if u.is_zero():
        raise ValueError("sqrt of zero is excluded by the nonzero precondition")
    w = _sqrt_descent(u)
    if w is not None:
        assert w * w == u
    return w


# ---------------------------------------------------------------------------
# roots of unity


def zeta(n: int, basis: FieldBasis) -> FieldElement:
    """The root of unity zeta_n as an exact element; n in {8, 24}."""
    if n == 8:
        for r in (-1, 2, -2):
            if r not in basis.mask_of:
                raise ValueError("zeta_8 needs radicands -1 and 2")
        return basis.element({2: Fraction(1, 2), -2: Fraction(1, 2)})
    if n == 24:
        if -3 not in basis.mask_of:
            raise ValueError("zeta_24 needs radicand -3")
        zeta3 = basis.element({1: Fraction(-1, 2), -3: Fraction(1, 2)})
        return zeta(8, basis) * zeta3
    raise ValueError("only zeta_8 and zeta_24 are constructed directly")


def torsion_order(basis: FieldBasis) -> int:
    """Order of the roots of unity in the field: 2 for totally real fields,
    else determined by which of i, zeta_8, zeta_3 lie inside.

    No multiquadratic field contains zeta_16: Gal(Q(zeta_16)/Q) = Z/2 x Z/4
    is not elementary abelian.
    """
    rads = basis.mask_of
    n = 2
    if -1 in rads:
        n = 4
        if 2 in rads:
            n = 8
    if -3 in rads:
        n *= 3
    return n


# ---------------------------------------------------------------------------
# serialization and embedding


_TERM_RE = re.compile(r"^(-?\d+)/(\d+)\*sqrt\((-?\d+)\)$")


def serialize_element(u: FieldElement) -> str:
    """Canonical text form: nonzero terms "num/den*sqrt(r)" joined by " + "
    in basis mask order; the zero element prints as "0/1*sqrt(1)"."""
    parts = [f"{c.numerator}/{c.denominator}*sqrt({r})" for r, c in u.coords.items()]
    return " + ".join(parts) if parts else "0/1*sqrt(1)"


def parse_element(s: str, basis: FieldBasis) -> FieldElement:
    """Inverse of serialize_element for elements of the given basis."""
    terms = {}
    for part in s.split(" + "):
        m = _TERM_RE.match(part.strip())
        if not m:
            raise ValueError(f"bad element term {part!r}")
        num, den, r = int(m.group(1)), int(m.group(2)), int(m.group(3))
        if not den:
            raise ValueError(f"zero denominator in {part!r}")
        if r not in basis.mask_of:
            raise ValueError(f"radicand {r} not in basis {basis!r}")
        if basis.mask_of[r] in terms:
            raise ValueError(f"radicand {r} repeated")
        terms[basis.mask_of[r]] = (num, den)
    return _from_terms(basis, terms)


def embed_element(u: FieldElement, big: FieldBasis) -> FieldElement:
    """Reinterpret u inside a larger basis containing all its radicands."""
    num = [0] * big.dim
    rads = u.basis.radicands
    for m, n in enumerate(u._num):
        if n:
            r = rads[m]
            if r not in big.mask_of:
                raise ValueError(f"radicand {r} of element not present in {big!r}")
            num[big.mask_of[r]] = n
    return FieldElement(big, tuple(num), u._den)
