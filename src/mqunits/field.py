"""Exact arithmetic in multiquadratic fields Q(sqrt(d1), ..., sqrt(dk)).

An element is a rational combination of the surds sqrt(r), where r runs over
the squarefree parts of the 2^k subset products of the generators.  sqrt(r)
for negative r means i*sqrt(|r|), so CM fields use the same machinery with a
negative radicand (conventionally -1, listed last) among the generators.

Everything is exact and runs on one integer core: pure functions on pairs
(num, den), a tuple of integer numerators over one positive common
denominator in lowest terms (Cohen, A Course in Computational Algebraic
Number Theory, ch. 4).  FieldElement wraps a pair with its basis, and its
operators are thin calls into the core.  Products reduce through the
structure constants sqrt(r1)*sqrt(r2) = c*sqrt(r3) kept on the basis, square
roots descend the quadratic tower on pairs with the last two levels, the
biquadratic and the quadratic one, solved in closed form on integers, and
real signs are decided by integer square roots of the numerator terms.
Fractions appear only at the edges: scalar arguments and coords.
"""

from __future__ import annotations

import math
import re
import weakref
from fractions import Fraction

from .intarith import is_perfect_square, is_squarefree, sqrt_interval, unlimited_int_digits

# generator tuple -> its one live FieldBasis
_BASES = weakref.WeakValueDictionary()


class FieldBasis:
    """The multiquadratic field generated by square roots of `generators`.

    Radicands are indexed by bitmask over the generator list: radicand(m) is
    the squarefree part of the product of the generators selected by m.
    Generators must be multiplicatively independent modulo squares, which
    makes the 2^k radicands distinct and the surds linearly independent.

    There is one live instance per generator tuple: FieldBasis(gens)
    returns the basis built with these generators for as long as anything
    holds it (an element, a result, a cache or the caller), so bases compare
    by identity.  The interning is weak, and nothing kept on a basis holds
    an element, so refcounting frees a basis once the last holder lets go.
    A tuple that fails validation is never stored.  `sub` is the subfield
    dropping the last generator (None for Q), built first, so that a build
    tests only the generator it adds, and `chars` the character
    data once units._char_data has built it, the only data of units kept
    on a basis.
    """

    def __new__(cls, generators):
        generators = tuple(map(int, generators))
        basis = _BASES.get(generators)
        if basis is None:
            basis = super().__new__(cls)
            basis._build(generators)
            _BASES[generators] = basis
        return basis

    def __reduce__(self):
        # pickle and copy go through __new__, which returns the interned basis
        return FieldBasis, (self.generators,)

    def _build(self, generators):
        self.sub = FieldBasis(generators[:-1]) if generators else None
        self.generators = generators
        self.k = len(generators)
        self.dim = 1 << self.k
        rads = (1,)
        if self.k:
            g = generators[-1]
            if g == 1 or not is_squarefree(g):
                raise ValueError(f"generator {g} must be squarefree and != 0, 1")
            # g is independent exactly when it is no radicand of the sub, and
            # the squarefree part of r*g for squarefree r and g is r*g/gcd(r, g)^2
            if g in self.sub.mask_of:
                raise ValueError("generators are multiplicatively dependent modulo squares")
            rads = self.sub.radicands + tuple(r * g // math.gcd(r, g) ** 2 for r in self.sub.radicands)
        self.radicands = rads
        self.mask_of = {r: m for m, r in enumerate(rads)}
        assert len(self.mask_of) == self.dim
        self.is_cm = any(r < 0 for r in rads)
        # r1*r2 = gcd(r1, r2)^2 * r3 for squarefree r1, r2, and
        # sqrt(r1)*sqrt(r2) = -|gcd|*sqrt(r3) when both are i times a surd
        gcd = math.gcd
        self._coef = tuple(tuple(-gcd(r1, r2) if r1 < 0 and r2 < 0 else gcd(r1, r2) for r2 in rads)
                           for r1 in rads)
        self.chars = None
        if self.k:
            # sqrt(r_m)*sqrt(g_top) = _top[m]*sqrt(r_{m|top}) for m below top;
            # _top_lift scales the top half of a numerator tuple to a common
            # denominator over those constants
            half = self.dim >> 1
            self._top = tuple(self._coef[m][half] for m in range(half))
            lcm = math.lcm(*self._top)
            self._top_lift = (tuple(lcm // c for c in self._top), lcm)

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


# ---------------------------------------------------------------------------
# the integer core: pairs (num, den) with den > 0 and gcd(den, *num) == 1


def _reduced(num: tuple, den: int) -> tuple:
    """The pair num/den (den > 0) with numerators and denominator divided by
    their gcd; zero comes out as (0, ..., 0)/1."""
    g = math.gcd(den, *num)
    if g != 1:
        num = tuple(a // g for a in num)
        den //= g
    return num, den


def _add(x: tuple, y: tuple, sign: int) -> tuple:
    """x + sign*y over the least common denominator, for sign in (1, -1)."""
    (xn, xd), (yn, yd) = x, y
    g = math.gcd(xd, yd)
    fx, fy = yd // g, xd // g * sign
    return _reduced(tuple(a * fx + b * fy for a, b in zip(xn, yn)), xd * fx)


def _scaled(x: tuple, n: int, d: int) -> tuple:
    """x * n/d for integers n and d != 0."""
    if d < 0:
        n, d = -n, -d
    return _reduced(tuple(a * n for a in x[0]), x[1] * d)


def _neg(x: tuple) -> tuple:
    return tuple(-a for a in x[0]), x[1]


def _mul(basis: FieldBasis, x: tuple, y: tuple) -> tuple:
    """The product of two pairs over basis."""
    coef = basis._coef
    ys = [(m2, b) for m2, b in enumerate(y[0]) if b]
    out = [0] * basis.dim
    for m1, a in enumerate(x[0]):
        if a:
            row = coef[m1]
            for m2, b in ys:
                out[m1 ^ m2] += a * b * row[m2]
    return _reduced(tuple(out), x[1] * y[1])


def _conjugate(x: tuple, mask: int) -> tuple:
    """The Galois conjugate sending sqrt(g_i) to -sqrt(g_i) for each bit i of
    mask: the coefficient of each surd picks up the sign of its subset."""
    return tuple(-c if (m & mask).bit_count() & 1 else c for m, c in enumerate(x[0])), x[1]


def _inverse(basis: FieldBasis, x: tuple) -> tuple:
    """x^-1 for x != 0.  Multiplying v = x by its conjugate under each
    generator in turn ends in a rational v; the cofactor, the product of
    those conjugates, divided by v is the inverse."""
    v, cof = x, ((1,), 1)
    for j in range(basis.k):
        w = _conjugate(v, 1 << j)
        cof = _mul(basis, cof, w) if j else w
        v = _mul(basis, v, w)
    (n, *rest), d = v
    assert not any(rest)
    return _scaled(cof, d, n)


class FieldElement:
    """Immutable element of a multiquadratic field.

    The coefficient of sqrt(radicand(m)) is _num[m] / _den: integer
    numerators over one common denominator, kept in lowest terms, with
    gcd(_den, *_num) == 1 and _den > 0.  Zero is (0, ..., 0)/1.  Equal
    elements therefore have equal tuples, which equality and hashing compare.
    The constructor trusts its caller; the core functions return pairs in
    this form.
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

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return (self.basis is other.basis and self._den == other._den
                    and self._num == other._num)
        if isinstance(other, (int, Fraction)):
            return (not any(self._num[1:]) and self._num[0] == other.numerator
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
        return FieldElement(self.basis, *_add((self._num, self._den), (other._num, other._den), 1))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.basis, *_add((self._num, self._den), (other._num, other._den), -1))

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        return FieldElement(self.basis, *_neg((self._num, self._den)))

    def __mul__(self, other):
        if not isinstance(other, FieldElement):
            if isinstance(other, (int, Fraction)):
                return FieldElement(self.basis, *_scaled((self._num, self._den),
                                                         other.numerator, other.denominator))
            return NotImplemented
        other = self._lift(other)
        return FieldElement(self.basis, *_mul(self.basis, (self._num, self._den),
                                              (other._num, other._den)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("dividing a field element by zero")
            return FieldElement(self.basis, *_scaled((self._num, self._den),
                                                     other.denominator, other.numerator))
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n: int):
        """Binary powering: x**0 is one, x**1 is x itself, and no square is
        taken beyond the top bit of n."""
        if n < 0:
            return self.inverse() ** (-n)
        if not n:
            return self.basis.one()
        base = self
        while not n & 1:
            base = base * base
            n >>= 1
        result = base
        n >>= 1
        while n:
            base = base * base
            if n & 1:
                result = result * base
            n >>= 1
        return result

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse via the product of all Galois conjugates."""
        if self.is_zero():
            raise ZeroDivisionError("inverting zero field element")
        return FieldElement(self.basis, *_inverse(self.basis, (self._num, self._den)))

    def __repr__(self):
        return f"<{serialize_element(self)} in {self.basis!r}>"


def _from_terms(basis: FieldBasis, terms: dict) -> FieldElement:
    """The element with coefficient n/d (d > 0) at mask m, for {m: (n, d)}."""
    den = math.lcm(*(d for _, d in terms.values()))
    num = [0] * basis.dim
    for m, (n, d) in terms.items():
        num[m] = n * (den // d)
    return FieldElement(basis, *_reduced(tuple(num), den))


# ---------------------------------------------------------------------------
# real signs


def sign_at_embedding(u: FieldElement, signs: dict) -> int:
    """Sign of u under the real embedding sending sqrt(g) to signs[g]*sqrt(g).

    Only defined for nonzero elements supported on positive radicands; the
    work is done by signs_at_embeddings.
    """
    j = 0
    for i, g in enumerate(u.basis.generators):
        if g > 0 and g not in signs:
            raise ValueError(f"no sign provided for generator {g}")
        if signs.get(g, 1) < 0:
            j |= 1 << i
    return signs_at_embeddings(u, (j,))[0]


def signs_at_embeddings(u: FieldElement, masks) -> list:
    """The signs of u at several real embeddings, in the order of masks:
    mask j sends sqrt(g_i) to -sqrt(g_i) for each bit i of j and fixes the
    other generators.

    Only defined for nonzero elements supported on positive radicands.  The
    common denominator is positive, so u has the sign of its numerator part,
    a sum of terms n*sqrt(r).  Each term is bracketed by its signed floor
    sign(n)*floor(|n|*sqrt(r)*10^digits), starting at 8 digits, and the
    embedding j flips the terms whose mask meets j in an odd number of bits.
    The sum of the floors is off by less than their count from 10^digits
    times that part, so a sum at least the count in absolute value decides.
    The floors are taken once per precision for every embedding, and only
    the embeddings left undecided go on to twice the digits; the loop ends
    because u != 0 and the surds are linearly independent over Q.
    """
    if u.is_zero():
        raise ValueError("sign of zero is undefined")
    rads = u.basis.radicands
    terms = [(m, n) for m, n in enumerate(u._num) if n]
    if any(rads[m] < 0 for m, _ in terms):
        raise ValueError("sign_at_embedding requires a real-supported element")
    out = {}
    todo = set(masks)
    digits = 8
    while todo:
        floors = []
        for m, n in terms:
            lo, _ = sqrt_interval(n * n * rads[m], digits)
            floors.append((m, lo if n > 0 else -lo))
        for j in tuple(todo):
            total = 0
            for m, f in floors:
                total += -f if (m & j).bit_count() & 1 else f
            if abs(total) >= len(terms):
                out[j] = 1 if total > 0 else -1
                todo.discard(j)
        digits *= 2
    return [out[j] for j in masks]


# ---------------------------------------------------------------------------
# square roots by descent through the tower


def _split_top(basis: FieldBasis, x: tuple) -> tuple:
    """Write x = a + b*sqrt(g_top) with pairs a, b over basis.sub."""
    num, den = x
    half = basis.dim >> 1
    lift, lcm = basis._top_lift
    return (_reduced(num[:half], den),
            _reduced(tuple(n * f for n, f in zip(num[half:], lift)), den * lcm))


def _join_top(basis: FieldBasis, a: tuple, b: tuple) -> tuple:
    """a + b*sqrt(g_top) for pairs a, b over basis.sub."""
    (an, ad), (bn, bd) = a, b
    g = math.gcd(ad, bd)
    fa, fb = bd // g, ad // g
    num = tuple(n * fa for n in an) + tuple(n * fb * c for n, c in zip(bn, basis._top))
    return _reduced(num, ad * fa)


def _sqrt_quadratic(g: int, a: int, b: int, d: int):
    """A square root of (a + b*sqrt(g))/d (d > 0) in Q(sqrt(g)) as a pair,
    or None: the quadratic level of the descent in closed form.

    P/Q with Q > 0 is a rational square exactly when P*Q is an integer square.
    With b = 0, sqrt(a/d) = sqrt(a*d)/d is tried before sqrt(a*g/d)/g.
    Otherwise the norm (a^2 - g*b^2)/d^2 must be a square w^2/d^2 with w >= 0,
    and for +w, then -w, s = sqrt((a +- w)/2d) = r/2d with r > 0 gives the
    root s + t*sqrt(g), t = (b/d)/2s = b/r.
    """
    if not b:
        is_sq, r = is_perfect_square(a * d)
        if is_sq:
            return _reduced((r, 0), d)
        is_sq, r = is_perfect_square(a * g * d)
        return _scaled(((0, r), d), 1, g) if is_sq else None
    is_sq, w = is_perfect_square(a * a - g * b * b)
    if not is_sq:
        return None
    for p in (a + w, a - w):
        is_sq, r = is_perfect_square(2 * d * p)
        if is_sq and r:
            root = _reduced((r * r, 2 * d * b), 2 * d * r)
            (s, t), e = root
            assert (s * s + t * t * g) * d == a * e * e and 2 * s * t * d == b * e * e
            return root
    return None


def _sqrt_biquadratic(basis: FieldBasis, x: tuple):
    """A square root of the pair x over a basis of two generators g1, g2 as
    a pair, or None: the biquadratic level of the descent in closed form.

    With sqrt(g1)*sqrt(g2) = c*sqrt(r), x = (n0, n1, n2, n3)/d is a + b*sqrt(g2)
    for a = (n0 + n1*sqrt(g1))/d and b*sqrt(g2) = (n2*sqrt(g2) + n3*sqrt(r))/d.
    The steps are those of the descent, each square root in Q(sqrt(g1)) by
    _sqrt_quadratic: with b = 0, sqrt(a), then sqrt(a*g2)*sqrt(g2)/g2;
    otherwise the relative norm a^2 - g2*b^2 must be a square w^2, and for
    +w, then -w, a nonzero s = sqrt((a +- w)/2) gives the root s + t*sqrt(g2)
    with t = b/2s, whose s^2 + g2*t^2 = a and 2st = b are checked on integers.
    """
    g1, g2 = basis.generators
    r, c = basis.radicands[3], basis._coef[1][2]
    (n0, n1, n2, n3), d = x
    if not (n2 or n3):
        s = _sqrt_quadratic(g1, n0, n1, d)
        if s is not None:
            return s[0] + (0, 0), s[1]
        s = _sqrt_quadratic(g1, n0 * g2, n1 * g2, d)
        return None if s is None else _scaled(((0, 0, s[0][0], s[0][1] * c), s[1]), 1, g2)
    # sqrt(g2)*sqrt(r) = h2*sqrt(g1) and sqrt(g1)*sqrt(r) = h1*sqrt(g2)
    h1, h2 = g1 // c, g2 // c
    w = _sqrt_quadratic(g1, n0 * n0 + g1 * n1 * n1 - g2 * n2 * n2 - r * n3 * n3,
                        2 * (n0 * n1 - h2 * n2 * n3), d * d)
    if w is None:
        return None
    (w0, w1), f = w
    for dw in (d, -d):  # (a + w)/2, then (a - w)/2, over 2*d*f
        s = _sqrt_quadratic(g1, n0 * f + w0 * dw, n1 * f + w1 * dw, 2 * d * f)
        if s is None or not any(s[0]):
            continue
        (s0, s1), e = s
        # t*sqrt(g2) = b*sqrt(g2)/2s = e*(n2*sqrt(g2) + n3*sqrt(r))*(s0 - s1*sqrt(g1))/m
        m = 2 * d * (s0 * s0 - g1 * s1 * s1)
        root = _scaled(((s0 * m, s1 * m, e * e * (n2 * s0 - h1 * n3 * s1),
                         e * e * (n3 * s0 - c * n2 * s1)), 1), 1, e * m)
        (y0, y1, y2, y3), z = root
        zz = z * z
        assert ((y0 * y0 + g1 * y1 * y1 + g2 * y2 * y2 + r * y3 * y3) * d == n0 * zz
                and 2 * (y0 * y1 + h2 * y2 * y3) * d == n1 * zz
                and 2 * (y0 * y2 + h1 * y1 * y3) * d == n2 * zz
                and 2 * (y0 * y3 + c * y1 * y2) * d == n3 * zz)
        return root
    return None


def _sqrt_descent(basis: FieldBasis, x: tuple):
    """A square root of the pair x over basis as a pair, or None."""
    if basis.k == 2:
        return _sqrt_biquadratic(basis, x)
    if basis.k == 1:
        (a, b), d = x
        return _sqrt_quadratic(basis.generators[0], a, b, d)
    if basis.k == 0:
        (n,), d = x
        n_sq, n_root = is_perfect_square(n)
        d_sq, d_root = is_perfect_square(d)
        return ((n_root,), d_root) if n_sq and d_sq else None
    sub, g = basis.sub, basis.generators[-1]
    a, b = _split_top(basis, x)
    zero = ((0,) * sub.dim, 1)
    if not any(b[0]):
        r = _sqrt_descent(sub, a)
        if r is not None:
            return _join_top(basis, r, zero)
        r = _sqrt_descent(sub, _scaled(a, g, 1))
        if r is not None:
            return _join_top(basis, zero, _scaled(r, 1, g))
        return None
    w = _sqrt_descent(sub, _add(_mul(sub, a, a), _scaled(_mul(sub, b, b), g, 1), -1))
    if w is None:
        return None
    for ww in (w, _neg(w)):
        s = _sqrt_descent(sub, _scaled(_add(a, ww, 1), 1, 2))
        if s is not None and any(s[0]):
            t = _scaled(_mul(sub, b, _inverse(sub, s)), 1, 2)
            assert (_add(_mul(sub, s, s), _scaled(_mul(sub, t, t), g, 1), 1) == a
                    and _scaled(_mul(sub, s, t), 2, 1) == b)
            return _join_top(basis, s, t)
    return None


def sqrt_in_field(u: FieldElement):
    """An exact square root of u in its own field, or None.

    Descends the quadratic tower in generator order on integer pairs: with
    u = a + b*sqrt(d) over the subfield F, either b = 0 and one of a, a*d
    must be a square in F, or the relative norm a^2 - b^2*d must be a square
    w^2 in F with (a+w)/2 or (a-w)/2 a square again.  At the biquadratic
    and quadratic levels the same steps run in closed form on integers
    (_sqrt_biquadratic, _sqrt_quadratic).  The witness is re-squared, under
    python -O too.
    Which of the two roots comes back is fixed by the order of the tries but
    not specified; callers normalize.
    """
    if u.is_zero():
        raise ValueError("sqrt of zero is excluded by the nonzero precondition")
    root = _sqrt_descent(u.basis, (u._num, u._den))
    if root is None:
        return None
    w = FieldElement(u.basis, *root)
    if w * w != u:
        raise ArithmeticError(f"square root witness {w!r} does not re-square to {u!r}")
    return w


# ---------------------------------------------------------------------------
# serialization and embedding


_TERM_RE = re.compile(r"^(-?\d+)/(\d+)\*sqrt\((-?\d+)\)$")


@unlimited_int_digits()
def serialize_element(u: FieldElement) -> str:
    """Canonical text form: nonzero terms "num/den*sqrt(r)" joined by " + "
    in basis mask order; the zero element prints as "0/1*sqrt(1)"."""
    den, rads = u._den, u.basis.radicands
    parts = []
    for m, n in enumerate(u._num):
        if n:
            g = math.gcd(n, den)
            parts.append(f"{n // g}/{den // g}*sqrt({rads[m]})")
    return " + ".join(parts) if parts else "0/1*sqrt(1)"


@unlimited_int_digits()
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
    """Reinterpret u inside a larger basis containing all its radicands (u itself if in big)."""
    if u.basis is big:
        return u
    num = [0] * big.dim
    rads = u.basis.radicands
    for m, n in enumerate(u._num):
        if n:
            r = rads[m]
            if r not in big.mask_of:
                raise ValueError(f"radicand {r} of element not present in {big!r}")
            num[big.mask_of[r]] = n
    return FieldElement(big, tuple(num), u._den)
