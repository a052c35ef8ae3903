import copy
import math
import pickle
import random
import subprocess
import sys
import textwrap
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mqunits import field as field_module, units
from mqunits.field import (
    FieldBasis,
    FieldElement,
    embed_element,
    parse_element,
    serialize_element,
    sign_at_embedding,
    signs_at_embeddings,
    sqrt_in_field,
)
from mqunits.intarith import is_perfect_square, is_squarefree
from mqunits.quadratic import fundamental_unit
from mqunits.units import _torsion, _torsion_order, fsu_biquadratic

from norm_oracle import conjugate


def unit_element(d, basis):
    u = fundamental_unit(d)
    return basis.element({1: Fraction(u.x, u.denom), d: Fraction(u.y, u.denom)})


def numeric_square_oracle(u):
    """Decide squareness by embedding numerics + rational reconstruction."""
    getcontext().prec = 90
    basis = u.basis
    gens = basis.generators
    k = basis.k
    embeddings = []
    for bits in range(1 << k):
        sgn = [1 - 2 * (bits >> i & 1) for i in range(k)]
        val = Decimal(0)
        for r, c in u.coords.items():
            m = basis.mask_of[r]
            s = 1
            for i in range(k):
                if m >> i & 1:
                    s *= sgn[i]
            root = Decimal(r).sqrt()
            val += Decimal(c.numerator) / Decimal(c.denominator) * s * root
        embeddings.append((sgn, val))
    if any(v < 0 for _, v in embeddings):
        return False
    roots = [(sgn, v.sqrt()) for sgn, v in embeddings]
    n = 1 << k
    surd = [Decimal(r).sqrt() for r in basis.radicands]
    for pattern in range(1 << (n - 1)):
        target = [roots[j][1] if j == 0 else (1 - 2 * (pattern >> (j - 1) & 1)) * roots[j][1] for j in range(n)]
        coords = []
        ok = True
        for m in range(n):
            acc = Decimal(0)
            for j, (sgn, _) in enumerate(roots):
                s = 1
                for i in range(k):
                    if m >> i & 1:
                        s *= sgn[i]
                acc += s * target[j]
            approx = acc / (n * surd[m])
            frac = Fraction(str(approx)).limit_denominator(10**6)
            if abs(Fraction(str(approx)) - frac) > Fraction(1, 10**12):
                ok = False
                break
            coords.append(frac)
        if not ok:
            continue
        cand = basis.element({basis.radicands[m]: coords[m] for m in range(n)})
        if cand * cand == u:
            return True
    return False


def test_multiply_examples():
    b = FieldBasis((5, 3))
    u = b.element({5: 1, 3: 1})
    assert u * u == b.element({1: 8, 15: 2})
    b6 = FieldBasis((6,))
    v = b6.element({1: 2, 6: 1})
    assert v * v == b6.element({1: 10, 6: 4})
    assert u * b.one() == u


def test_invert_examples():
    b = FieldBasis((2,))
    eps2 = b.element({1: 1, 2: 1})
    assert eps2.inverse() == b.element({1: -1, 2: 1})
    assert b.from_rational(2).inverse() == b.from_rational(Fraction(1, 2))
    b53 = FieldBasis((5, 3))
    half = b53.element({5: Fraction(1, 2), 3: Fraction(1, 2)})
    assert half.inverse() == b53.element({5: 1, 3: -1})
    with pytest.raises(ZeroDivisionError):
        b.zero().inverse()


def test_ring_axioms_random():
    rng = random.Random(7)
    b = FieldBasis((2, 5, 3))
    def rand_elem():
        return b.element({
            r: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            for r in b.radicands
        })
    for _ in range(60):
        u, v, w = rand_elem(), rand_elem(), rand_elem()
        assert (u * v) * w == u * (v * w)
        assert u * (v + w) == u * v + u * w
        assert u * v == v * u
        assert u + v == v + u
        assert u - u == b.zero()
        if not v.is_zero():
            assert v * v.inverse() == b.one()


def test_automorphism_action():
    b = FieldBasis((2, 5, 3))
    tau1, tau2 = 0b001, 0b010  # negate sqrt(2), resp. sqrt(5)
    s2 = b.surd(2)
    assert conjugate(s2, tau1) == -s2
    s15 = b.surd(15)
    assert conjugate(s15, tau2) == -s15
    assert conjugate(s15, tau1) == s15
    assert conjugate(s15, tau1 | tau2 | 0b100) == s15
    u = b.element({1: 3, 2: 1, 30: Fraction(1, 2)})
    assert conjugate(u, 0) == u
    rng = random.Random(11)
    def rand_elem():
        return b.element({r: Fraction(rng.randint(-5, 5)) for r in b.radicands})
    for _ in range(25):
        u, v = rand_elem(), rand_elem()
        assert conjugate(u * v, tau1) == conjugate(u, tau1) * conjugate(v, tau1)
        assert conjugate(conjugate(u, tau1), tau2) == conjugate(u, tau1 | tau2)
        assert conjugate(conjugate(u, tau2), tau2) == u


def test_sign_at_embedding():
    b = FieldBasis((2,))
    eps2 = b.element({1: 1, 2: 1})
    conj = b.element({1: -1, 2: 1})
    assert sign_at_embedding(eps2, {2: 1}) == 1
    assert sign_at_embedding(conj, {2: 1}) == 1
    assert sign_at_embedding(conj, {2: -1}) == -1
    b55 = FieldBasis((55,))
    eps55 = b55.element({1: 89, 55: 12})
    assert sign_at_embedding(eps55, {55: -1}) == 1
    with pytest.raises(ValueError):
        sign_at_embedding(b.zero(), {2: 1})


def test_sign_at_embedding_beyond_400_digits():
    # (1 - sqrt2)^n has about 766 zeros after the point, while its
    # coefficients have about 766 digits each
    b = FieldBasis((2,))
    eps2 = b.element({1: 1, 2: 1})
    assert sign_at_embedding(conjugate(eps2**2001, 1), {2: 1}) == -1
    assert sign_at_embedding(conjugate(eps2**2002, 1), {2: 1}) == 1


def test_sqrt_in_field_examples():
    b = FieldBasis((5, 11))
    eps55 = unit_element(55, b)
    w = sqrt_in_field(eps55)
    assert w is not None and w * w == eps55
    assert w in (b.element({5: 3, 11: 2}), -b.element({5: 3, 11: 2}))

    b35 = FieldBasis((3, 5))
    u = unit_element(3, b35) * unit_element(15, b35)
    w = sqrt_in_field(u)
    expected = b35.element({1: Fraction(3, 2), 3: Fraction(1, 2), 5: Fraction(1, 2), 15: Fraction(1, 2)})
    assert w in (expected, -expected)

    b2 = FieldBasis((2,))
    assert sqrt_in_field(unit_element(2, b2)) is None
    assert sqrt_in_field(b2.from_rational(4)) == b2.from_rational(2)

    b6 = FieldBasis((6,))
    two_eps6 = b6.element({1: 10, 6: 4})
    w = sqrt_in_field(two_eps6)
    assert w is not None and w * w == two_eps6


def test_sqrt_in_cm_field():
    bi = FieldBasis((-1,))
    w = sqrt_in_field(bi.from_rational(-4))
    assert w is not None and w * w == bi.from_rational(-4)
    b2i = FieldBasis((2, -1))
    i = b2i.surd(-1)
    w = sqrt_in_field(i)
    assert w is not None and w * w == i
    z8 = b2i.element({2: Fraction(1, 2), -2: Fraction(1, 2)})
    assert w in (z8, -z8, z8 * i, -(z8 * i)) or w * w == i


def test_zeta():
    """The root-of-unity generator is primitive of its order; zeta8 and zeta24 by value."""
    for gens in [(2, 5, 11, -1), (2, 5, 3, -1), (5, 3), (5, 3, -1), (2, -1), (-2, 5), (5, -1)]:
        b = FieldBasis(gens)
        g, n, xi, x = _torsion(b)
        one = b.one()
        assert g ** n == one and g ** (n // 2) == -one, gens
        # xi = g^x generates the roots of unity of 2-power order
        assert g ** x == xi and xi ** (n & -n) == one and xi ** ((n & -n) // 2) == -one, gens
        # a primitive n-th root: no power n/l is 1 for a prime l dividing n
        assert all(g ** (n // l) != one for l in (2, 3) if n % l == 0), gens
        if n % 8 == 0:
            z8 = b.element({2: Fraction(1, 2), -2: Fraction(1, 2)})
            assert z8 * z8 == b.surd(-1) and xi == z8
            assert g == (z8 if n == 8 else z8 * b.element({1: Fraction(-1, 2), -3: Fraction(1, 2)})), gens


def test_torsion_order():
    for gens, order in [((2, 5, 11, -1), 8), ((2, 5, 3, -1), 24), ((5, 3), 2), ((5, 3, -1), 12),
                        ((2, -1), 8), ((-2, 5), 2), ((5, -1), 4)]:
        b = FieldBasis(gens)
        assert _torsion_order(b) == _torsion(b)[1] == order, gens
    # Q(sqrt-3, sqrt5) holds the sixth roots of unity, which no builder needs
    for find in (_torsion_order, _torsion):
        with pytest.raises(ValueError, match="cube roots"):
            find(FieldBasis((-3, 5)))


def test_torsion_identities_are_proved_once_per_order(monkeypatch):
    powers = []
    pow_ = FieldElement.__pow__

    def counted(self, n):
        powers.append(n)
        return pow_(self, n)

    monkeypatch.setattr(units, "_PROVED_ORDERS", set())
    monkeypatch.setattr(FieldElement, "__pow__", counted)
    assert _torsion(FieldBasis((2, 5, 3, -1)))[1] == 24
    assert len(powers) == (3 if __debug__ else 0)
    # a new field of an order already proved: its zeta is built, not raised to a power
    powers.clear()
    g, n, xi, x = _torsion(FieldBasis((2, 13, 3, -1)))
    assert n == 24 and x == 9 and powers == []


def test_basis_validation():
    with pytest.raises(ValueError):
        FieldBasis((2, 8))
    with pytest.raises(ValueError):
        FieldBasis((2, 3, 6))
    with pytest.raises(ValueError):
        FieldBasis((6, 10, 15))
    with pytest.raises(ValueError):
        FieldBasis((1,))
    # a generator past intarith.FACTOR_LIMIT is refused before any division
    with pytest.raises(ValueError, match="exceeds the factoring bound"):
        FieldBasis((10**400 + 1,))
    b = FieldBasis((2, 5, 11))
    assert b.radicands[3] == 10
    assert b.radicands[7] == 110
    assert b.sub.generators == (2, 5)


def _squarefree_part(n):
    """The squarefree s of the sign of n with n = s*f**2, by naive trial division."""
    s, m, f = (1 if n > 0 else -1), abs(n), 2
    while f * f <= m:
        while m % (f * f) == 0:
            m //= f * f
        if m % f == 0:
            m //= f
            s *= f
        f += 1
    return s * m


def test_radicands_are_the_squarefree_parts_of_the_subset_products():
    for gens in ((2, 5, 11), (6, 10, 7), (2, 13, 3, -1), (-3, 15, 35), (30, 42, 70, -1)):
        b = FieldBasis(gens)
        for m, r in enumerate(b.radicands):
            assert r == _squarefree_part(math.prod(g for i, g in enumerate(gens) if m >> i & 1))


def test_a_basis_on_a_live_sub_tests_only_the_generator_it_adds(monkeypatch):
    sub = FieldBasis((2, 5))
    tested = []
    monkeypatch.setattr(field_module, "is_squarefree", lambda n: tested.append(n) or is_squarefree(n))
    b = FieldBasis((2, 5, 11 * 19))
    assert b.sub is sub and tested == [209]
    assert b.radicands == (1, 2, 5, 10, 209, 418, 1045, 2090)
    # each fault of the added generator reads as it did when all were tested
    for gens, message in (((2, 5, 1), "generator 1 must be squarefree"), ((2, 5, 45), "generator 45 must"),
                          ((2, 5, 10), "dependent modulo squares")):
        with pytest.raises(ValueError, match=message):
            FieldBasis(gens)
    assert tested == [209, 45, 10]


def test_basis_interned_by_generator_tuple():
    b = FieldBasis([2, 5])
    assert FieldBasis((2, 5)) is b
    assert FieldBasis((2, 5, 11)).sub is b
    assert b.sub is FieldBasis((2,))
    # a failed build is not stored, so the error repeats
    for _ in range(2):
        with pytest.raises(ValueError):
            FieldBasis((2, 3, 6))


def test_bases_elements_and_systems_survive_pickle_and_deepcopy():
    b = FieldBasis((2, 5))
    assert pickle.loads(pickle.dumps(b)) is b
    one = b.one()
    assert copy.deepcopy(one) == one
    fsu = fsu_biquadratic(2, 5)
    assert pickle.loads(pickle.dumps(fsu)) == fsu


def test_serialization():
    b = FieldBasis((5, 11))
    eps55 = unit_element(55, b)
    s = serialize_element(eps55)
    assert s == "89/1*sqrt(1) + 12/1*sqrt(55)"
    assert parse_element(s, b) == eps55
    assert serialize_element(b.zero()) == "0/1*sqrt(1)"
    assert parse_element("0/1*sqrt(1)", b) == b.zero()
    u = b.element({1: Fraction(-3, 2), 5: 4, 55: Fraction(7, 3)})
    assert parse_element(serialize_element(u), b) == u
    with pytest.raises(ValueError):
        parse_element("banana", b)
    with pytest.raises(ValueError):
        parse_element("1/1*sqrt(7)", b)
    rng = random.Random(3)
    for _ in range(30):
        u = b.element({r: Fraction(rng.randint(-99, 99), rng.randint(1, 16)) for r in b.radicands})
        assert parse_element(serialize_element(u), b) == u


def test_embed_element():
    small = FieldBasis((55,))
    big = FieldBasis((5, 11))
    eps55 = unit_element(55, small)
    lifted = embed_element(eps55, big)
    assert lifted == unit_element(55, big)
    # an element already in big is not copied: elements are immutable
    assert embed_element(lifted, big) is lifted
    with pytest.raises(ValueError):
        embed_element(big.surd(5), small)


def test_sqrt_verdict_matches_numeric_oracle():
    rng = random.Random(41)
    b = FieldBasis((5, 11))
    checked_square = checked_nonsquare = 0
    for _ in range(25):
        w = b.element({r: Fraction(rng.randint(-6, 6)) for r in b.radicands})
        if w.is_zero():
            continue
        u = w * w
        assert sqrt_in_field(u) is not None
        assert numeric_square_oracle(u)
        checked_square += 1
        v = b.element({r: Fraction(rng.randint(-6, 6)) for r in b.radicands})
        if v.is_zero() or sqrt_in_field(v) is not None:
            continue
        assert not numeric_square_oracle(v)
        checked_nonsquare += 1
    assert checked_square >= 20 and checked_nonsquare >= 15


# ---------------------------------------------------------------------------
# the integer representation against a reference on {radicand: Fraction}

PROPERTY_FIELDS = (FieldBasis((2, 5, 3, -1)), FieldBasis((2, 13, 11)))


def _ref_add(x, y, sign):
    out = dict(x)
    for r, c in y.items():
        out[r] = out.get(r, 0) + sign * c
    return {r: c for r, c in out.items() if c}


def _ref_mul(basis, x, y):
    """sqrt(r1)*sqrt(r2) = s*sqrt(r3), with r1*r2 = s^2*r3, negated when both
    radicands are negative (i*i = -1)."""
    out = {}
    for r1, c1 in x.items():
        for r2, c2 in y.items():
            r3 = next(r for r in basis.radicands
                      if r1 * r2 % r == 0 and r1 * r2 // r > 0
                      and math.isqrt(r1 * r2 // r) ** 2 == r1 * r2 // r)
            s = math.isqrt(r1 * r2 // r3) * (-1 if r1 < 0 and r2 < 0 else 1)
            out[r3] = out.get(r3, 0) + c1 * c2 * s
    return {r: c for r, c in out.items() if c}


def _assert_canonical(u):
    assert u._den > 0 and math.gcd(u._den, *u._num) == 1
    assert all(isinstance(n, int) for n in u._num)
    if u.is_zero():
        assert u._den == 1


@st.composite
def _element_pairs(draw):
    basis = draw(st.sampled_from(PROPERTY_FIELDS))
    coef = st.builds(Fraction, st.integers(-10**9, 10**9), st.integers(1, 10**4))
    elem = st.dictionaries(st.sampled_from(basis.radicands), coef, max_size=basis.dim)
    scalar = st.builds(Fraction, st.integers(-10**6, 10**6).filter(bool), st.integers(1, 10**6))
    return basis, draw(elem), draw(elem), draw(st.integers(0, basis.dim - 1)), draw(scalar)


@settings(max_examples=80, deadline=None)
@given(_element_pairs())
def test_integer_arithmetic_matches_a_fraction_reference(case):
    basis, x, y, mask, c = case
    u, v = basis.element(x), basis.element(y)
    x = {r: a for r, a in x.items() if a}
    y = {r: a for r, a in y.items() if a}
    assert u.coords == x and v.coords == y
    results = {
        "add": (u + v, _ref_add(x, y, 1)),
        "sub": (u - v, _ref_add(x, y, -1)),
        "neg": (-u, {r: -a for r, a in x.items()}),
        "mul": (u * v, _ref_mul(basis, x, y)),
        "scale": (u * c, {r: a * c for r, a in x.items()}),
        "divide": (u / c, {r: a / c for r, a in x.items()}),
        "conjugate": (conjugate(u, mask), {
            r: -a if (basis.mask_of[r] & mask).bit_count() & 1 else a for r, a in x.items()}),
    }
    for name, (got, want) in results.items():
        assert got.coords == want, name
        _assert_canonical(got)
    if x:
        inv = u.inverse()
        _assert_canonical(inv)
        assert _ref_mul(basis, x, inv.coords) == {1: 1}
    assert parse_element(serialize_element(u), basis) == u


def test_canonical_form():
    b = FieldBasis((2, 13, 11))
    half = b.element({1: Fraction(2, 4)})
    assert half == b.from_rational(Fraction(1, 2)) and hash(half) == hash(b.from_rational(Fraction(1, 2)))
    assert (half._num[0], half._den) == (1, 2)
    u = b.element({2: Fraction(6, 4), 26: Fraction(-9, 6)})
    assert u._num == (0, 3, 0, -3, 0, 0, 0, 0) and u._den == 2
    assert {r: (c.numerator, c.denominator) for r, c in u.coords.items()} == {2: (3, 2), 26: (-3, 2)}
    for zero in (b.zero(), u - u, u * 0, b.element({13: 0}), parse_element("0/5*sqrt(2)", b)):
        assert zero._den == 1 and zero._num == (0,) * 8 and zero == b.zero() and zero == 0
        assert hash(zero) == hash(b.zero())
    for w in (half, u, u * u, u.inverse(), u / -3, u * Fraction(-4, 9), conjugate(u, 0b101)):
        _assert_canonical(w)
    assert u / -3 == u * Fraction(-1, 3) and (u / -3)._den > 0
    assert parse_element("2/4*sqrt(1) + -6/4*sqrt(26)", b) == b.element({1: Fraction(1, 2), 26: Fraction(-3, 2)})
    with pytest.raises(ValueError):
        parse_element("1/0*sqrt(2)", b)
    with pytest.raises(ZeroDivisionError):
        u / 0


def test_serialize_matches_the_fraction_form():
    rng = random.Random(4)
    b = FieldBasis((2, 5, 3, -1))
    for _ in range(50):
        u = b.element({r: Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 60))
                       for r in b.radicands if rng.random() < 0.5})
        want = " + ".join(f"{c.numerator}/{c.denominator}*sqrt({r})" for r, c in u.coords.items())
        assert serialize_element(u) == (want or "0/1*sqrt(1)")
        assert parse_element(serialize_element(u), b) == u


# ---------------------------------------------------------------------------
# square roots against the element-level descent


def _oracle_split(u):
    """u = a + b*sqrt(g) with a, b in the subfield dropping the last generator g."""
    basis, sub = u.basis, u.basis.sub
    g = basis.generators[-1]
    a = sub.element({r: c for r, c in u.coords.items() if r in sub.mask_of})
    b = sub.element(((u - embed_element(a, basis)) * basis.surd(g) / g).coords)
    return a, b


def _oracle_join(basis, s, t):
    return embed_element(s, basis) + embed_element(t, basis) * basis.surd(basis.generators[-1])


def oracle_sqrt(u):
    """The square-root descent on FieldElement operations, level by level down
    to Q, trying roots in the order sqrt_in_field promises."""
    basis = u.basis
    if basis.k == 0:
        c = Fraction(u.coords.get(1, 0))
        n_sq, n_root = is_perfect_square(c.numerator)
        d_sq, d_root = is_perfect_square(c.denominator)
        return basis.from_rational(Fraction(n_root, d_root)) if n_sq and d_sq else None
    sub, d = basis.sub, basis.generators[-1]
    a, b = _oracle_split(u)
    if b.is_zero():
        r = oracle_sqrt(a)
        if r is not None:
            return _oracle_join(basis, r, sub.zero())
        r = oracle_sqrt(a * d)
        if r is not None:
            return _oracle_join(basis, sub.zero(), r / d)
        return None
    w = oracle_sqrt(a * a - b * b * d)
    if w is None:
        return None
    for ww in (w, -w):
        s = oracle_sqrt((a + ww) / 2)
        if s is not None and not s.is_zero():
            t = b * s.inverse() / 2
            assert s * s + t * t * d == a and 2 * s * t == b
            return _oracle_join(basis, s, t)
    return None


# the biquadratic level is a closed form: CM fields, and generators that
# are not coprime, where sqrt(g1)*sqrt(g2) = c*sqrt(r) with c != 1
ORACLE_FIELDS = ((5,), (2, 5), (2, 5, 3), (2, 5, 3, -1),
                 (2, -1), (3, -1), (-3, -1), (-1, 5), (6, 10), (10, 15))


@pytest.mark.parametrize("gens", ORACLE_FIELDS)
def test_sqrt_in_field_returns_the_oracle_root(gens):
    rng = random.Random(sum(gens) + 97)
    basis = FieldBasis(gens)

    def rand_elem(support, size):
        return basis.element({r: Fraction(rng.randint(-size, size), rng.randint(1, 4)) for r in support})

    def subfield_support():
        # elements with zero top coordinate exercise the b = 0 branch
        return [r for r in basis.radicands if basis.mask_of[r] < basis.dim // 2]

    units = [unit_element(r, basis) for r in basis.radicands if r > 1]
    cases = []
    for _ in range(30):
        w = rand_elem(basis.radicands, 9)
        cases += [w * w, rand_elem(basis.radicands, 9)]
        v = rand_elem(subfield_support(), 9)
        cases += [v * v, v * v * basis.generators[-1], v]
    for _ in range(20):
        e = basis.one()
        for u in rng.sample(units, rng.randint(1, len(units))):
            e = e * u
        cases += [e, e * e, -e]
    squares = 0
    for u in cases:
        if u.is_zero():
            continue
        got, want = sqrt_in_field(u), oracle_sqrt(u)
        assert got == want
        squares += got is not None
    assert squares >= 60


def test_sqrt_quadratic_level_with_zero_surd_coefficient():
    b5 = FieldBasis((5,))
    for a, root in ((9, 3), (Fraction(9, 4), Fraction(3, 2))):
        assert sqrt_in_field(b5.from_rational(a)) == b5.from_rational(root)
    # only a*d is a square: a = 5/4 and 20 give sqrt(5)/2 and 2*sqrt(5)
    assert sqrt_in_field(b5.from_rational(Fraction(5, 4))) == b5.element({5: Fraction(1, 2)})
    assert sqrt_in_field(b5.from_rational(20)) == b5.element({5: 2})
    assert sqrt_in_field(b5.from_rational(-5)) is None
    assert sqrt_in_field(b5.from_rational(3)) is None
    bi = FieldBasis((-1,))
    # sqrt(a*d)/d with d = -1: the root of -4 comes back as -2i
    assert sqrt_in_field(bi.from_rational(-4)) == bi.element({-1: -2})
    for basis in (b5, bi, FieldBasis((2, 5, 3, -1))):
        for a in (9, Fraction(5, 4), 20, -5, -4, 3, Fraction(-1, 9)):
            u = basis.from_rational(a)
            assert sqrt_in_field(u) == oracle_sqrt(u)


def test_sqrt_resquare_survives_python_O():
    # the descent is patched to return a wrong root, 2 + sqrt(2) for 4
    code = textwrap.dedent("""\
        import sys
        from mqunits import field
        b = field.FieldBasis((2, 5))
        field._sqrt_descent = lambda basis, x: ((2, 1, 0, 0), 1)
        try:
            w = field.sqrt_in_field(b.from_rational(4))
        except ArithmeticError:
            print("raised", sys.flags.optimize)
        else:
            print("returned", w)
    """)
    res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "raised 1\n"


# ---------------------------------------------------------------------------
# sign masks and powers


def decimal_sign(u, j):
    """The sign of u at the real embedding that negates sqrt(g_i) for each
    bit i of j, evaluated with 200 Decimal digits."""
    getcontext().prec = 200
    total = Decimal(0)
    for m, n in enumerate(u._num):
        if n:
            t = Decimal(n) * Decimal(u.basis.radicands[m]).sqrt()
            total += -t if (m & j).bit_count() & 1 else t
    assert abs(total) > Decimal(10) ** -150
    return 1 if total > 0 else -1


def test_sign_at_embedding_refines_where_8_digits_do_not_decide(monkeypatch):
    b = FieldBasis((2, 5, 3))
    eps2, eps5, eps3 = (unit_element(r, b) for r in (2, 5, 3))
    big = eps2 ** 40
    elems = [big, conjugate(big, 0b001), conjugate(big, 0b001) * eps5,
             conjugate(big * eps3, 0b101),
             conjugate(big, 0b001) + b.from_rational(Fraction(1, 10**20)),
             eps2 * eps5 * eps3, -conjugate(eps5 * eps3, 0b110)]
    digits = []
    sqrt_interval = field_module.sqrt_interval
    monkeypatch.setattr(field_module, "sqrt_interval",
                        lambda n, d: digits.append(d) or sqrt_interval(n, d))
    undecided = 0
    for w in elems:
        for j in range(b.dim):
            digits.clear()
            signs = {g: 1 - 2 * (j >> i & 1) for i, g in enumerate(b.generators)}
            assert sign_at_embedding(w, signs) == decimal_sign(w, j)
            undecided += max(digits) > 8
    assert undecided >= 8


def test_sign_kernel_matches_sign_at_embedding_at_every_embedding():
    b = FieldBasis((2, 5, 3))
    eps2, eps5, eps3 = (unit_element(r, b) for r in (2, 5, 3))
    rng = random.Random(7)
    elems = [b.element({r: Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for r in b.radicands})
             for _ in range(20)]
    # near-cancelling: at the identity (1 - sqrt2)^k is tiny against its coefficients
    elems += [conjugate(eps2 ** k, 0b001) * u for k in (30, 61, 200) for u in (b.one(), eps5, eps3)]
    elems = [w for w in elems if not w.is_zero()]
    masks = list(range(b.dim))
    for w in elems:
        signs = signs_at_embeddings(w, masks)
        for j in masks:
            gen_signs = {g: 1 - 2 * (j >> i & 1) for i, g in enumerate(b.generators)}
            assert signs[j] == sign_at_embedding(w, gen_signs) == decimal_sign(w, j)
    # the masks come back in the order asked, repeats included
    w = elems[0]
    assert signs_at_embeddings(w, [5, 0, 5]) == [signs_at_embeddings(w, [j])[0] for j in (5, 0, 5)]
    with pytest.raises(ValueError):
        signs_at_embeddings(b.zero(), [0])


def test_sign_kernel_brackets_each_term_once_per_precision(monkeypatch):
    # (1 - sqrt2)^200 needs far more than 8 digits at the identity, and its
    # conjugate (1 + sqrt2)^200 is decided at once: the kernel refines only
    # the identity, on the floors of one pass over the terms per precision
    b = FieldBasis((2,))
    w = conjugate(b.element({1: 1, 2: 1}) ** 200, 1)
    calls = []
    sqrt_interval = field_module.sqrt_interval
    monkeypatch.setattr(field_module, "sqrt_interval",
                        lambda n, d: calls.append(d) or sqrt_interval(n, d))
    assert sign_at_embedding(w, {2: 1}) == 1
    alone = list(calls)
    assert max(alone) > 8
    calls.clear()
    assert signs_at_embeddings(w, [0, 1]) == [1, 1]
    assert calls == alone


def test_powers_match_repeated_products():
    rng = random.Random(5)
    b = FieldBasis((2, 5, 3))
    x = b.element({r: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for r in b.radicands})
    product = b.one()
    for n in range(10):
        assert x ** n == product
        product = product * x
    inv = x.inverse()
    product = b.one()
    for n in range(1, 4):
        product = product * inv
        assert x ** -n == product


def test_powers_make_no_wasted_products(monkeypatch):
    calls = []
    mul = FieldElement.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(FieldElement, "__mul__", counting)
    x = FieldBasis((2, 5)).element({1: 1, 2: 1, 5: 3})
    for n, products in ((0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3)):
        calls.clear()
        x ** n
        assert len(calls) == products, n
