"""Fundamental systems of units (FSUs) for multiquadratic fields.

A unit of a multiquadratic field is represented by a `UnitExpr`: an exact
field element (the witness) together with its exponent vector over the
fundamental units of the quadratic subfields, with denominators 1, 2 or 4.
An FSU is a list of such units whose exponent matrix is nonsingular; the
absolute determinant 2^(-j) records the index of the subfield-unit lattice.
Each FsuResult carries one integer frame of its generators: the row Hermite
normal form of their exponent rows times 4, over the real radicands of the
field, with the transformation riding along (Cohen, A Course in
Computational Algebraic Number Theory, section 2.4).  The index, the
comparison with a theorem lattice and the coordinates of a vector in the
unit lattice are all read from that frame.

Construction goes bottom-up: known FSU shapes for the six relevant
biquadratic configurations, then saturation by square roots of subset
products for degree-8 totally real fields, then one torsion-twisted unit
for the CM extension.  The builders materialize every predicted square root
as an exact element; a missing root raises Falsified rather than guessing.
The twisted unit takes no root of its own: with xi a primitive 2^n-th root
of unity and mu = xi + 1/xi, (1 + xi)^2 = xi*(2 + mu), so the root w of
(2 + mu)*eps that Azizi's criterion finds in the real field gives
(1 + xi)*w/(2 + mu), a square root of xi*eps.  The norm tables of the
degree-8 field take no root either: they are checked on exponent vectors,
with the signs of the generators at the real embeddings (norm_table), one
sign pass per generator for all the embeddings it needs.

Each unit is verified once, where it is made (_make_expr); a unit carried
into a larger field is embedded with its exponents and torsion exponent
(_embed_expr).  Both searches form a subset product only when quadratic
characters allow it to be +-1 times a square: a unit maps to a nonzero
residue at CHAR_PRIMES primes l = 7 (mod 8), and a product that is +-w^2
has the same Legendre symbol, +1 or -1, at every one of them (Adleman,
"Factoring numbers using singular integers", STOC 1991).  Every candidate
still goes through the exact square root and its re-square.
"""

import math
from fractions import Fraction
from itertools import combinations

from . import claims
from ._record import Record
from .errors import Falsified
from .field import (
    FieldBasis,
    FieldElement,
    embed_element,
    sign_at_embedding,
    signs_at_embeddings,
    sqrt_in_field,
    torsion_order,
    zeta,
)
from .intarith import _sieve, prime_factors
from .quadratic import classify_pair, fundamental_unit


class UnitExpr(Record):
    """A unit as torsion * product of quadratic fundamental units to rational powers.

    With s the lcm of the exponent denominators, the defining identity is

        witness**s == zeta**torsion_exponent * prod(eps_r ** (e_r * s))

    where zeta generates the roots of unity of the field (-1 in the totally
    real case) and eps_r is the fundamental unit of Q(sqrt(r)).
    """

    __slots__ = ("torsion_exponent", "exponents", "witness")

    def __init__(self, torsion_exponent: int, exponents: dict, witness: FieldElement):
        super().__init__(torsion_exponent, exponents, witness)

    def cleared_level(self) -> int:
        return exponent_level([self.exponents])


def exponent_level(exps_list) -> int:
    """The lcm of the denominators of every exponent in the list of vectors."""
    return math.lcm(*(e.denominator for exps in exps_list for e in exps.values()))


class FsuResult(Record):
    """A fundamental system of units of `field` modulo roots of unity.

    chars holds the character vectors of the generators when the builder
    computed them (wada_fsu does), for azizi_extend to reuse.  frame is the
    exponent frame of the generators over the real radicands of the field
    (_exponent_frame), built once here and left out of equality;
    q_index_log2 is read off its diagonal and raises ArithmeticError, under
    python -O too, unless the exponent matrix is square and nonsingular
    with index a power of 2."""

    __slots__ = ("field", "torsion", "generators", "chars", "frame", "q_index_log2")
    _uncompared = ("frame",)

    def __init__(self, field: FieldBasis, torsion: str, generators: tuple, chars: tuple | None = None):
        frame = _exponent_frame(_real_labels(field), [g.exponents for g in generators])
        super().__init__(field, torsion, generators, chars, frame, _frame_q_log2(frame, len(generators)))

    def spans(self, exps_list) -> bool:
        """Do the generators span the lattice of the vectors in exps_list?
        Both sides are put in Hermite normal form over the frame's labels."""
        labels = _real_labels(self.field)
        k = len(labels)
        return [list(row[:k]) for row in self.frame] == _echelon(_exponent_rows(exps_list, labels), k)

    def contains(self, exps: dict) -> bool:
        """Is the vector exps an integer combination of the generators?"""
        return _frame_solve(self.frame, _exponent_rows([exps], _real_labels(self.field))[0]) is not None


# ---------------------------------------------------------------------------
# shared helpers


def _quad_unit(r: int, basis: FieldBasis) -> FieldElement:
    """The fundamental unit of Q(sqrt(r)) as an element of `basis`: x and y
    are odd when the denominator is 2, so the pair is in lowest terms."""
    u = fundamental_unit(r)
    num = [0] * basis.dim
    num[0], num[basis.mask_of[r]] = u.x, u.y
    return FieldElement(basis, tuple(num), u.denom)


def _base_units(basis: FieldBasis) -> dict:
    """{r: eps_r} over the real quadratic subfields, built once per basis and
    kept on it; callers must not change the dict."""
    if basis.quad_units is None:
        basis.quad_units = {r: _quad_unit(r, basis) for r in basis.radicands if r > 1}
    return basis.quad_units


def _torsion(basis: FieldBasis):
    """(generator, order) of the roots of unity of the field, found once per
    basis and kept on it."""
    if basis.torsion is not None:
        return basis.torsion
    n = torsion_order(basis)
    if n == 2:
        g = basis.from_rational(-1)
    elif n == 4:
        g = basis.surd(-1)
    elif n == 8:
        g = zeta(8, basis)
    elif n == 12:
        g = basis.element({3: Fraction(1, 2), -1: Fraction(1, 2)})
    elif n == 24:
        g = zeta(24, basis)
    else:
        raise AssertionError(f"unexpected torsion order {n}")
    assert g ** n == basis.one() and g ** (n // 2) == -basis.one()
    basis.torsion = g, n
    return basis.torsion


def _torsion_name(n: int) -> str:
    return "-1" if n == 2 else f"zeta{n}"


def _norm_pos(w: FieldElement) -> FieldElement:
    """Normalize a witness of a totally real field to be positive at the
    all-plus embedding."""
    signs = {g: 1 for g in w.basis.generators}
    return w if sign_at_embedding(w, signs) > 0 else -w


# primes per character vector; each is 7 (mod 8), so sqrt(2) exists mod l and
# -1 is a non-residue: the vector of -1 is all ones
CHAR_PRIMES = 16
_ALL_CHARS = (1 << CHAR_PRIMES) - 1


def _char_data(basis: FieldBasis) -> tuple:
    """(primes, L, images) for the character vectors of a totally real
    basis, built once per basis and kept on it.

    primes are the first CHAR_PRIMES primes l = 7 (mod 8) of the shared
    sieve at which every generator is a nonzero square, L is their product,
    and images[m] is the image of sqrt(r_m) mod L.  At the i-th prime the
    ring map sends sqrt(g_j) to pow(g_j, (l+1)/4, l), negated for each bit j
    of i mod 2^k, so the maps spread over the embeddings of the field.  The
    image of each sqrt(g_j) is joined over the primes by the Chinese
    remainder theorem once, and that of sqrt(r_m) is their product times
    the inverse of f_m.
    """
    if basis.chars is None:
        if basis.is_cm:
            raise ValueError("character vectors need a totally real field")
        gens, rads = basis.generators, basis.radicands
        # 2 is a square mod every l = 7 (mod 8), so a squarefree generator is
        # a square there exactly when its odd part is
        odd = [g >> 1 if g & 1 == 0 else g for g in gens]
        odd = [g for g in odd if g != 1]
        primes = []
        seen, bound = 0, 1024
        while len(primes) < CHAR_PRIMES:
            sieve = _sieve(bound)
            for l in sieve[seen:]:
                if l & 7 != 7:
                    continue
                for g in odd:
                    if pow(g, l >> 1, l) != 1:
                        break
                else:
                    primes.append(l)
                    if len(primes) == CHAR_PRIMES:
                        break
            seen, bound = len(sieve), 2 * sieve[-1]
        big = math.prod(primes)
        cofactors = [big // l * pow(big // l, -1, l) for l in primes]
        roots = []
        for j, g in enumerate(gens):
            x = 0
            for i, (l, cofactor) in enumerate(zip(primes, cofactors)):
                r = pow(g, (l + 1) >> 2, l)
                x += (l - r if i >> j & 1 else r) * cofactor
            roots.append(x % big)
        # sqrt(prod of the generators in m) = f_m * sqrt(r_m) with f_m > 0
        prods = [1] * basis.dim
        images = [1] * basis.dim
        for m in range(1, basis.dim):
            low = m & -m
            j = low.bit_length() - 1
            prods[m] = prods[m ^ low] * gens[j]
            images[m] = images[m ^ low] * roots[j] % big
        images = tuple(x * pow(math.isqrt(prods[m] // rads[m]), -1, big) % big
                       for m, x in enumerate(images))
        basis.chars = (tuple(primes), big, images)
    return basis.chars


def _char_vector(w: FieldElement) -> int:
    """The character vector of w, an element of a totally real field that is
    a unit at every character prime (any unit, and 2 + sqrt(2)): bit i is
    set when w maps to a non-residue at the i-th character prime.

    The vector of a product is the XOR of the vectors, a square has vector
    0 and minus a square all ones.  A unit never vanishes at an odd prime
    that divides no generator; a zero residue raises ArithmeticError.
    """
    primes, big, images = _char_data(w.basis)
    x = sum(n * c for n, c in zip(w._num, images) if n) * w._den % big
    out = 0
    for i, l in enumerate(primes):
        r = x % l
        if not r:
            raise ArithmeticError(f"{w!r} vanishes at the character prime {l}")
        if pow(r, l >> 1, l) != 1:
            out |= 1 << i
    return out


def _make_expr(basis: FieldBasis, base_units: dict, exps: dict, witness: FieldElement) -> UnitExpr:
    """Build a verified UnitExpr, solving for the torsion exponent."""
    exps = {r: Fraction(e) for r, e in exps.items() if e}
    s = exponent_level([exps])
    assert s in (1, 2, 4), f"exponent denominator {s} out of range"
    lhs = witness ** s
    rhs = None
    for r, e in exps.items():
        power = base_units[r] ** int(e * s)
        rhs = power if rhs is None else rhs * power
    gen, order = _torsion(basis)
    cur = rhs
    for t in range(order):
        if cur == lhs:
            return UnitExpr(t, exps, witness)
        cur = cur * gen
    raise AssertionError("witness does not match its exponent vector")


def _embed_expr(g: UnitExpr, big: FieldBasis) -> UnitExpr:
    """The unit g of a totally real field as a unit of the larger field big.

    Nothing is re-verified: an embedding is an injective ring map, so the
    identity of g still holds in big, with -1 = zeta^(n/2) for the torsion
    generator zeta of order n of big.
    """
    if g.witness.basis.is_cm:
        raise ValueError("only units of totally real fields are embedded")
    return UnitExpr(g.torsion_exponent * (_torsion(big)[1] // 2), dict(g.exponents),
                    embed_element(g.witness, big))


def _real_labels(field: FieldBasis) -> list:
    """The real radicands r > 1 of the field in mask order: the labels of
    exponent vectors over the fundamental units eps_r."""
    return [r for r in field.radicands if r > 1]


def _exponent_rows(exps_list, labels, level: int = 4) -> list:
    """Each exponent vector times level as an integer row over labels.
    Raises ArithmeticError for an exponent whose denominator does not divide
    level and KeyError for a radicand outside labels."""
    col = {r: i for i, r in enumerate(labels)}
    rows = []
    for exps in exps_list:
        row = [0] * len(labels)
        for r, e in exps.items():
            a, rem = divmod(level * e.numerator, e.denominator)
            if rem:
                raise ArithmeticError(f"exponent {e} of eps_{r} is not a multiple of 1/{level}")
            row[col[r]] = a
        rows.append(row)
    return rows


def _echelon(rows, ncols: int) -> list:
    """The row Hermite normal form of the integer rows over their first
    ncols columns; later columns ride along with every row operation.

    The nonzero rows come out in echelon form with positive pivots, and the
    entries above each pivot are reduced into [0, pivot), which makes the
    form unique for the lattice the rows span.  The rows are changed in
    place.
    """
    out = []
    for c in range(ncols):
        live = [row for row in rows if row[c]]
        if not live:
            continue
        # Euclid down column c: reduce every other live row by the smallest
        while len(live) > 1:
            piv = min(live, key=lambda row: abs(row[c]))
            for row in live:
                if row is not piv:
                    f = row[c] // piv[c]
                    row[:] = [a - f * b for a, b in zip(row, piv)]
            live = [row for row in live if row[c]]
        (piv,) = live
        rows = [row for row in rows if row is not piv]
        if piv[c] < 0:
            piv = [-a for a in piv]
        for row in out:
            f = row[c] // piv[c]
            if f:
                row[:] = [a - f * b for a, b in zip(row, piv)]
        out.append(piv)
    return out


def _exponent_frame(labels, exps_list) -> tuple:
    """The integer frame of the exponent vectors in exps_list over labels.

    With G the matrix of the vectors times 4 (_exponent_rows), the frame is
    the row Hermite normal form of (G | identity) over the columns of G: each
    of its rows (h | u) has u*G = h, the h form the Hermite normal form of
    the lattice G spans, and a dependent vector leaves no row.
    """
    n, k = len(exps_list), len(labels)
    rows = _exponent_rows(exps_list, labels)
    for i, row in enumerate(rows):
        row += [int(i == j) for j in range(n)]
    return tuple(map(tuple, _echelon(rows, k)))


def _frame_q_log2(frame, n: int) -> int:
    """-log2 |det| of the exponent matrix of the n vectors whose frame is
    given, read off the diagonal as 4^n / prod(pivots).  Raises
    ArithmeticError, under python -O too, unless the matrix is square and
    nonsingular with |det| a power of 1/2."""
    if len(frame) != n or any(len(row) != 2 * n for row in frame):
        raise ArithmeticError("exponent matrix is not square and nonsingular")
    # a quotient of 4^n that is an integer is a power of 2
    index, rem = divmod(4 ** n, math.prod(row[i] for i, row in enumerate(frame)))
    if rem:
        raise ArithmeticError("exponent lattice index is not a power of 2")
    return index.bit_length() - 1


def _frame_solve(frame, row):
    """The integer c with row = c*G for the square nonsingular matrix G whose
    frame is given, or None when row is not in the lattice of G.  Reduces
    (row | 0) by the frame rows (h | u), whose pivots lie on the diagonal:
    what is left is (0 | -c)."""
    x = list(row) + [0] * len(row)
    for i, h in enumerate(frame):
        f, rem = divmod(x[i], h[i])
        if rem:
            return None
        if f:
            x = [a - f * b for a, b in zip(x, h)]
    return [-a for a in x[len(row):]]


def _square_subsets(gens, vecs, factor=None):
    """Yield (idxs, w) for each subset of the generators whose product u,
    times factor when one is given, has u or -u = w^2: by size, then
    lexicographically, from the empty subset when there is a factor and
    from size 1 otherwise.  The product and its root are formed only when
    the XOR of the character vectors of the subset and of factor is 0 (then
    u is tried) or all ones (-u)."""
    n = len(gens)
    x0 = 0 if factor is None else _char_vector(factor)
    for size in range(factor is None, n + 1):
        for idxs in combinations(range(n), size):
            x = x0
            for i in idxs:
                x ^= vecs[i]
            if x and x != _ALL_CHARS:
                continue
            u = factor
            for i in idxs:
                u = gens[i].witness if u is None else u * gens[i].witness
            w = sqrt_in_field(-u if x else u)
            if w is not None:
                yield idxs, w


def _halved(gens, idxs) -> dict:
    """The exponent vector of a square root of the product of the generators
    at idxs; _make_expr drops the exponents that cancel."""
    out = {}
    for i in idxs:
        for r, e in gens[i].exponents.items():
            out[r] = out.get(r, 0) + e / 2
    return out


# ---------------------------------------------------------------------------
# quadratic and biquadratic FSUs


def fsu_quadratic(d: int) -> FsuResult:
    """FSU of the real quadratic field Q(sqrt(d)): its fundamental unit."""
    basis = FieldBasis((d,))
    assert not basis.is_cm
    expr = UnitExpr(0, {d: Fraction(1)}, _quad_unit(d, basis))
    return FsuResult(basis, "-1", (expr,))


def fsu_biquadratic(d1: int, d2: int) -> FsuResult:
    """FSU of the real biquadratic field Q(sqrt(d1), sqrt(d2)).

    Covers the six configurations of claims.BIQUAD_FSU, built from primes
    p = 5 mod 8 and q = 3 mod 8 and found by their radicand sets, so the
    order of d1 and d2 does not matter.  The system is the one claimed for
    the condition class of the pair (p, q) when both primes appear, and
    the field's one system otherwise.
    Predicted square roots are materialized exactly; raises Falsified when
    one does not exist, ValueError for an unknown configuration.
    """
    basis = FieldBasis((d1, d2))
    if basis.is_cm:
        raise ValueError("biquadratic FSU shapes cover totally real fields only")
    rads = set(basis.radicands) - {1}
    primes = {f for r in rads for f in prime_factors(r)} - {2}
    ps = [f for f in primes if f % 8 == 5]
    qs = [f for f in primes if f % 8 == 3]
    key = None
    if len(ps) <= 1 and len(qs) <= 1 and len(ps) + len(qs) == len(primes):
        # a prime the field lacks stands as 0, which no radicand equals
        p, q = (ps or [0])[0], (qs or [0])[0]
        for s1, s2 in claims.BIQUAD_FSU:
            a, b = claims.value(s1, p, q), claims.value(s2, p, q)
            if {a, b, a * b // math.gcd(a, b) ** 2} == rads:
                key = s1, s2
    if key is None:
        raise ValueError(f"unknown biquadratic configuration {sorted(rads)}")
    system = claims.BIQUAD_FSU[key]
    if ps and qs:
        actual = classify_pair(p, q)
        if not actual.is_applicable:
            raise ValueError(f"pair not applicable: {actual.reason}")
        system = system[actual.tag]
    units = _base_units(basis)
    gens = []
    for vec in system:
        exps = claims.exponents(vec, p, q)
        if exponent_level([exps]) == 1:  # a quadratic unit itself
            (r,) = exps
            gens.append(UnitExpr(0, exps, units[r]))
            continue
        w = sqrt_in_field(math.prod(map(units.get, exps), start=basis.one()))
        if w is None:
            names = "*".join(f"eps_{r}" for r in exps)
            raise Falsified(f"{names} is predicted to be a square in {basis!r} but is not")
        gens.append(_make_expr(basis, units, exps, _norm_pos(w)))
    return FsuResult(basis, "-1", tuple(gens))


# ---------------------------------------------------------------------------
# degree-8 totally real fields: saturation by subset square roots


def wada_fsu(field: FieldBasis, subfield_fsus) -> FsuResult:
    """FSU of a totally real multiquadratic field from three subfield FSUs.

    Starts from the union of the subfield generators (deduplicated in
    exponent space), then repeatedly tests every subset product, up to sign,
    for being a square in the field.  A found square root replaces the
    highest-index generator of its subset and the sweep restarts; the loop
    ends with a full sweep that finds nothing, which is the closure proof.
    Each sweep takes the first subset _square_subsets yields: by increasing
    size, then lexicographically, skipping a subset whose character vectors
    XOR to neither 0 nor all ones, whose product is not +-1 times a square.
    The vectors are computed once per generator and kept on the result.
    """
    assert not field.is_cm
    gens = []
    seen = set()
    for fsu in subfield_fsus:
        for g in fsu.generators:
            key = frozenset(g.exponents.items())
            if key not in seen:
                seen.add(key)
                gens.append(_embed_expr(g, field))
    vecs = [_char_vector(g.witness) for g in gens]
    units = _base_units(field)
    while (found := next(_square_subsets(gens, vecs), None)) is not None:
        idxs, w = found
        top = max(idxs)
        gens[top] = _make_expr(field, units, _halved(gens, idxs), _norm_pos(w))
        vecs[top] = _char_vector(gens[top].witness)
    return FsuResult(field, "-1", tuple(gens), tuple(vecs))


# ---------------------------------------------------------------------------
# CM extension: one torsion-twisted square root


def azizi_extend(real_fsu: FsuResult, cm_basis: FieldBasis) -> FsuResult:
    """FSU of the CM field K(i) from the FSU of the totally real field K.

    With 2^n the 2-power torsion order of K(i) and mu = zeta + 1/zeta for a
    primitive 2^n-th root of unity zeta, searches all subset products e of
    the real FSU, up to sign, for (2 + mu) * e a square in K.  At most one
    subset can succeed; two successes contradict the independence of the
    FSU and raise Falsified.  The search is the one wada_fsu sweeps with,
    _square_subsets with the factor 2 + mu, run to the end: every subset,
    the empty one first, whose character vectors XOR with that of 2 + mu to
    0 (sign +1) or all ones (sign -1) has its product formed and tested.
    The real generators are embedded without re-verification.  On
    success the highest-index generator of the subset is replaced by
    (1 + zeta)*w/(2 + mu) for the root w of (2 + mu)*e that the search found:
    since (1 + zeta)^2 = zeta*(2 + mu), it is a square root of zeta*e, and
    _make_expr checks it against its exponent identity.  That halves the
    exponent lattice; otherwise the real FSU carries over unchanged except
    for the enlarged torsion.
    """
    real = real_fsu.field
    if not cm_basis.is_cm:
        raise ValueError("cm_basis must contain a negative radicand")
    if cm_basis.generators != real.generators + (-1,):
        raise ValueError("cm_basis must extend the real basis by -1")
    tors_gen, order = _torsion(cm_basis)
    n0 = (order & -order).bit_length() - 1
    assert n0 in (2, 3), f"unsupported 2-power torsion 2^{n0}"
    mu = real.surd(2) if n0 == 3 else real.zero()
    xi = zeta(8, cm_basis) if n0 == 3 else cm_basis.surd(-1)
    two_mu = mu + 2

    gens = real_fsu.generators
    vecs = real_fsu.chars or [_char_vector(g.witness) for g in gens]
    hits = list(_square_subsets(gens, vecs, two_mu))
    if len(hits) > 1:
        raise Falsified("two independent unit subsets make (2+mu)*eps square; FSU was dependent")

    units = _base_units(cm_basis)
    out = [_embed_expr(g, cm_basis) for g in gens]
    if hits:
        idxs, w = hits[0]
        if not idxs:
            raise Falsified("(2+mu) itself is a square, contradicting the torsion order")
        # (1 + xi)^2 = xi*(2 + mu), so this squares to xi*w^2/(2 + mu) = xi*eps
        root = embed_element(w * two_mu.inverse(), cm_basis) * (xi + 1)
        out[max(idxs)] = _make_expr(cm_basis, units, _halved(gens, idxs), _first_positive(root))
    return FsuResult(cm_basis, _torsion_name(order), tuple(out))


def _first_positive(w: FieldElement) -> FieldElement:
    """w or -w, whichever has its first nonzero coefficient in mask order
    positive.  Of the two square roots of an element of a CM field whose
    imaginary part is nonzero, that is the one sqrt_in_field returns: its
    lower half is a root of the real subfield, and every root that descent
    returns in a totally real field starts with a positive coefficient."""
    return w if next(n for n in w._num if n) > 0 else -w


def unit_index(fsu: FsuResult) -> int:
    """The unit index 2^j recorded by the FSU: the exponent-lattice index,
    times one extra factor of 2 in the CM case for the enlarged torsion."""
    return 2 ** (fsu.q_index_log2 + (1 if fsu.field.is_cm else 0))


# ---------------------------------------------------------------------------
# reference unit groups for the degree-8 and degree-16 fields


def theorem_real_exponents(p: int, q: int, tag: str):
    """Reference FSU exponent vectors for Q(sqrt2, sqrt p, sqrt q): claims.KPLUS_FSU."""
    return [claims.exponents(claims.UNITS[tag][name], p, q) for name in claims.KPLUS_FSU]


def theorem_cm_exponents(p: int, q: int, tag: str):
    """Reference FSU exponent vectors for Q(sqrt2, sqrt p, sqrt q, i): claims.CM_FSU."""
    return [claims.exponents(claims.UNITS[tag][name], p, q) for name in claims.CM_FSU]


def vector_in_lattice(vec: dict, exps_list) -> bool:
    """Is `vec` an integer combination of the exponent vectors in exps_list?"""
    return lattice_equal(exps_list, [*exps_list, vec])


def lattice_equal(a_list, b_list) -> bool:
    """Do two lists of exponent vectors span the same lattice?"""
    every = [*a_list, *b_list]
    labels = sorted({r for exps in every for r in exps})
    level, k = exponent_level(every), len(labels)
    return (_echelon(_exponent_rows(a_list, labels, level), k)
            == _echelon(_exponent_rows(b_list, labels, level), k))


# ---------------------------------------------------------------------------
# conjugation and relative norm tables


class NormRow(Record):
    __slots__ = ("label", "entries")

    def __init__(self, label: str, entries: dict):
        super().__init__(label, entries)


class NormTable(Record):
    __slots__ = ("field", "rows")

    def __init__(self, field: FieldBasis, rows: tuple):
        super().__init__(field, rows)


def norm_table(field: FieldBasis, fsu: FsuResult) -> NormTable:
    """Check conjugates and relative norms of the degree-8 units against the
    table claims.NORM_TABLES of the pair's class, resolving the symbolic signs.

    A named unit is the one with its exponent vector that is positive at the
    all-plus embedding, and an entry claims tau(w) or w*tau(w) = sign *
    monomial.  The claim is checked in two parts, on integer exponent
    vectors scaled by 4:
    - the exponents: tau(eps_r) = N(eps_r)/eps_r when tau moves sqrt(r), so
      tau negates those exponents of w; that, plus w for a norm column, must
      be the vector of the monomial;
    - the sign: two real units with one exponent vector differ by +-1, and
      the monomial is positive at the all-plus embedding, so the sign is
      that of w at the embedding sigma negating the column's mask.  With
      w = +-prod g_i^c_i over the FSU generators, that is the product of
      s_i(sigma)*s_i(1) over the odd c_i, s_i(sigma) being the sign of g_i
      at sigma.
    The c are solved on the frame of the FSU; a row vector outside its
    lattice names no unit.  The signs come from one sign pass per generator
    over the identity and the six embeddings of the columns.  A fixed sign must match; a
    symbolic sign is resolved on first use and must stay consistent within
    its row.  Any mismatch raises Falsified.
    """
    ps = [g for g in field.generators if g % 8 == 5]
    qs = [g for g in field.generators if g % 8 == 3]
    if field.is_cm or field.k != 3 or 2 not in field.generators or len(ps) != 1 or len(qs) != 1:
        raise ValueError(f"{field} is not Q(sqrt2, sqrt p, sqrt q) with p = 5, q = 3 (mod 8)")
    p, q = ps[0], qs[0]
    cond = classify_pair(p, q)
    if not cond.is_applicable:
        raise ValueError(f"pair ({p}, {q}) is not applicable: {cond.reason}")
    if fsu.field is not field:
        raise ValueError(f"the unit system lives in {fsu.field}, not in {field}")

    named = claims.UNITS[cond.tag]
    # column m - 1 holds the exponent of eps at radicand m; the labels are
    # those of the frame, and the rows are scaled by 4 like it
    labels = field.radicands[1:]
    k = len(labels)
    scaled = _exponent_rows([claims.exponents(v, p, q) for v in named.values()], labels)
    vec = dict(zip(named, scaled))

    bit = {g: 1 << i for i, g in enumerate(field.generators)}
    t1, t2, t3 = bit[2], bit[p], bit[q]
    masks = dict(zip(claims.NORM_COLUMNS, (t1, t2, t3, t1, t2, t3, t1 | t2, t1 | t3, t2 | t3)))
    # the image of w under a column: tau multiplies the entry at mask m by
    # -1 when m meets its mask in an odd number of bits, a norm adds w
    factors = {col: [(-1 if (m & mask).bit_count() & 1 else 1) + (not col.startswith("tau"))
                     for m in range(1, k + 1)] for col, mask in masks.items()}
    embeddings = sorted({0, *masks.values()})
    gen_signs = [dict(zip(embeddings, signs_at_embeddings(g.witness, embeddings)))
                 for g in fsu.generators]

    rows = []
    for label, claimed in claims.NORM_TABLES[cond.tag].items():
        w = vec[label]
        c = _frame_solve(fsu.frame, w)
        if c is None:
            raise Falsified(f"{label} is predicted to exist in {field!r} but its exponent vector "
                            "is not in the unit lattice")
        odd = [i for i, a in enumerate(c) if a & 1]
        resolved = {}
        entries = {}
        for col, entry in zip(claims.NORM_COLUMNS, claimed):
            if entry is None:
                continue
            sign, mono = entry
            image = [a * f for a, f in zip(w, factors[col])]
            target = [0] * k
            for name, e in mono.items():
                target = [a + e * b for a, b in zip(target, vec[name])]
            if image != target:
                raise Falsified(f"norm table shape mismatch at row {label}, column {col}")
            mask = masks[col]
            got = math.prod(gen_signs[i][mask] * gen_signs[i][0] for i in odd)
            if sign in (1, -1):
                if got != sign:
                    raise Falsified(f"norm table mismatch at row {label}, column {col}")
                entries[col] = (sign, None, dict(mono))
            elif resolved.setdefault(sign, got) != got:
                raise Falsified(f"inconsistent sign {sign} in norm table row {label}")
            else:
                entries[col] = (got, sign, dict(mono))
        rows.append(NormRow(label, entries))
    return NormTable(field, tuple(rows))
