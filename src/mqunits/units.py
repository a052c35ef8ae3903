"""Fundamental systems of units (FSUs) for multiquadratic fields.

A unit of a multiquadratic field is represented by a `UnitExpr`: an exact
field element (the witness) together with its exponent vector over the
fundamental units of the quadratic subfields, in quarters: the exponents
lie in (1/4)Z, and each vector is kept as integers {r: 4*e} from the claims
(claims.row) to the report.  An FSU is a list of such units whose
exponent matrix is nonsingular; the absolute determinant 2^(-j) records
the index of the subfield-unit lattice.  Each FsuResult carries one integer
frame of its generators: the row Hermite normal form of their quarter rows
over the real radicands they use, with the transformation riding along
(Cohen, A Course in Computational Algebraic Number Theory, section 2.4).
The index, the comparison with a theorem lattice and the coordinates of a
vector in the unit lattice are all read from that frame.

Construction goes bottom-up: known FSU shapes for the six relevant
biquadratic configurations, each checked against its claimed index where
it is built, then saturation by square roots of subset products for
degree-8 real fields, then one torsion-twisted unit for the CM extension.
Every predicted square root is exact; a missing one raises Falsified.
The twisted unit takes no root of its own (azizi_extend), and the norm
tables of the degree-8 field take none either: they are checked on quarter
vectors and on the signs of the generators at the real embeddings, and
norm_table returns only the symbolic signs each row resolves.  The roots of
unity are read off the field's shape (_torsion_order), so the only data of
this module kept on a basis is its character data (_char_data).

Each unit is verified once, where it is made: a claimed root by the
re-square of sqrt_in_field or of the Pell witnesses it is a product of
(fsu_in_kplus), a root that a subset search finds by deriving its identity
from those of its subset (_halved), with no power taken, and a unit
carried into a larger field by embedding (_embed_expr).  Both searches
form a subset product only when quadratic characters allow it to be +-1
times a square: a unit maps to a nonzero residue at CHAR_PRIMES primes
l = 7 (mod 8), and a product that is +-w^2 has the same Legendre symbol,
+1 or -1, at every one of them (Adleman, STOC 1991).  Every candidate is
rooted exactly and re-squared, or squares a known root of the caller,
which decides nothing, since any other candidate is still rooted; at 20
primes, every candidate of a scan to 400 is a square.
"""

import functools
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
    sign_at_embedding,  # not called here; perfbench/tracing.py wraps this binding
    signs_at_embeddings,
    sqrt_in_field,
)
from .intarith import _echelon, _sieve, prime_factors
from .quadratic import classify_pair, fundamental_unit


class UnitExpr(Record):
    """A unit as torsion * product of quadratic fundamental units to powers in (1/4)Z.

    quarters maps r to n_r = 4*e_r; with s its level (exponent_level), the
    defining identity is

        witness**s == zeta**torsion_exponent * prod(eps_r ** (n_r * s / 4))

    where zeta generates the roots of unity of the field (-1 in the totally
    real case) and eps_r is the fundamental unit of Q(sqrt(r)).
    """

    __slots__ = ("torsion_exponent", "quarters", "witness", "chars")
    _uncompared = ("chars",)  # the witness's character vector, once computed

    def __init__(self, torsion_exponent: int, quarters: dict, witness: FieldElement):
        super().__init__(torsion_exponent, quarters, witness, None)


def exponent_level(quarters_list) -> int:
    """The lcm of the exponent denominators of the quarter vectors: 1, 2 or 4."""
    return 4 // math.gcd(4, *(n for quarters in quarters_list for n in quarters.values()))


class FsuResult(Record):
    """A fundamental system of units of `field` modulo roots of unity: the
    field and its generators, with everything else derived from them.

    frame is the exponent frame of the generators over the radicands they
    use (_exponent_frame), built once here and left out of equality;
    q_index_log2 is read off its diagonal and raises ArithmeticError, under
    python -O too, unless the exponent matrix is square and nonsingular
    with index a power of 2.  torsion names the generator of the roots of
    unity that _torsion_order reads, "-1" or "zetaN"."""

    __slots__ = ("field", "generators", "frame", "q_index_log2")
    _uncompared = ("frame",)

    def __init__(self, field: FieldBasis, generators: tuple):
        used = {r for g in generators for r in g.quarters}
        frame = _exponent_frame([r for r in field.radicands if r in used], [g.quarters for g in generators])
        super().__init__(field, generators, frame, _frame_q_log2(frame, len(generators)))

    @property
    def torsion(self) -> str:
        n = _torsion_order(self.field)
        return "-1" if n == 2 else f"zeta{n}"

    def spans(self, rows) -> bool:
        """Do the generators span the lattice of the rows?  A row holds the
        quarters at the real radicands of the field in mask order, as the
        frame does (a claims.row for K+ and K); both sides are compared in
        Hermite normal form."""
        k = len(self.generators)
        return tuple(row[:k] for row in self.frame) == _hnf(tuple(rows), k)


# ---------------------------------------------------------------------------
# shared helpers


def _quad_unit(r: int, basis: FieldBasis) -> FieldElement:
    """The fundamental unit of Q(sqrt(r)) as an element of `basis`: x and y
    are odd when the denominator is 2, so the pair is in lowest terms."""
    u = fundamental_unit(r)
    num = [0] * basis.dim
    num[0], num[basis.mask_of[r]] = u.x, u.y
    return FieldElement(basis, tuple(num), u.denom)


def _torsion_order(basis: FieldBasis) -> int:
    """The order of the roots of unity of the field, read off which of -1, 2
    and -3 are radicands: 2 without i, else 4, times 2 for zeta8 and 3 for
    zeta3.  No multiquadratic field holds zeta16 (Gal(Q(zeta16)/Q) = Z/2 x
    Z/4 is not elementary abelian); one with sqrt-3 but not i raises ValueError."""
    rads = basis.mask_of
    if -1 not in rads:
        if -3 in rads:
            raise ValueError(f"{basis!r} holds the cube roots of unity but not i")
        return 2
    return 4 * (2 if 2 in rads else 1) * (3 if -3 in rads else 1)


# the orders that _torsion has met in this process, each asserted on first meeting
_PROVED_ORDERS = set()


def _torsion(basis: FieldBasis):
    """(zeta, n, xi, x) for the roots of unity of the field, built on each
    call: their generator zeta, of order n (_torsion_order), is -1, i,
    zeta8 = (sqrt2 + sqrt-2)/2, zeta12 = (sqrt3 + i)/2 or
    zeta24 = zeta8*(-1 + sqrt-3)/2, and xi = zeta^x, which is -1, i or
    zeta8, generates those of 2-power order.  They are the same surds in
    every field of order n, so their identities are proved once per order."""
    n = _torsion_order(basis)
    half = Fraction(1, 2)
    if n == 2:
        g = basis.from_rational(-1)
    elif n % 8 == 0:
        g = basis.element({2: half, -2: half})
    elif n == 12:
        g = basis.element({3: half, -1: half})
    else:
        g = basis.surd(-1)
    # xi = g^x: zeta8 itself or i = zeta12^3, and zeta8 = zeta24^9 as zeta3^9 = 1
    xi, x = (g, 1) if n != 12 else (basis.surd(-1), 3)
    if n == 24:
        g, x = g * basis.element({1: -half, -3: half}), 9
    if n not in _PROVED_ORDERS:
        assert g ** n == basis.one() and g ** (n // 2) == -basis.one() and g ** x == xi
        _PROVED_ORDERS.add(n)
    return g, n, xi, x


def _norm_pos(w: FieldElement) -> FieldElement:
    """Normalize a witness of a totally real field to be positive at the
    all-plus embedding."""
    return w if signs_at_embeddings(w, (0,))[0] > 0 else -w


# primes per character vector; each is 7 (mod 8), so sqrt(2) exists mod l and
# -1 is a non-residue: the vector of -1 is all ones
CHAR_PRIMES = 20
_ALL_CHARS = (1 << CHAR_PRIMES) - 1
# the primes l = 7 (mod 8) of the shared sieve, increasing; every basis reads
# them from the start, and _char_data grows them with the sieve
_SEVENS = []


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
        primes, i = [], 0
        while len(primes) < CHAR_PRIMES:
            if i == len(_SEVENS):
                _SEVENS[:] = [l for l in _sieve(2 * _SEVENS[-1] if _SEVENS else 1024) if l & 7 == 7]
            l = _SEVENS[i]
            i += 1
            nonres = _nonresidues(l)
            for g in odd:
                if nonres[g % l]:
                    break
            else:
                primes.append(l)
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
        if _nonresidues(l)[r]:
            out |= 1 << i
    return out


@functools.lru_cache(maxsize=512)
def _nonresidues(l: int) -> bytes:
    """Byte r is 0 exactly when r is a nonzero square mod the odd prime l
    (Euler: pow(r, (l-1)/2, l) == 1).  Kept per process for the last 512
    primes, l bytes each; a scan to 200 reads 112, one to 400 reads 119."""
    table = bytearray(b"\1") * l
    for x in range(1, (l + 1) >> 1):
        table[x * x % l] = 0
    return bytes(table)


def _embed_expr(g: UnitExpr, big: FieldBasis) -> UnitExpr:
    """The unit g of a totally real field as a unit of the larger field big.

    Nothing is re-verified: an embedding is an injective ring map, so the
    identity of g still holds in big, with -1 = zeta^(n/2) for the torsion
    generator zeta of order n of big.
    """
    if g.witness.basis.is_cm:
        raise ValueError("only units of totally real fields are embedded")
    return UnitExpr(g.torsion_exponent * (_torsion_order(big) // 2), dict(g.quarters),
                    embed_element(g.witness, big))


def _exponent_rows(quarters_list, labels) -> tuple:
    """Each quarter vector as an integer row over labels, in a tuple of
    tuples.  Raises KeyError for a radicand outside labels."""
    col = {r: i for i, r in enumerate(labels)}
    rows = []
    for quarters in quarters_list:
        row = [0] * len(labels)
        for r, n in quarters.items():
            row[col[r]] = n
        rows.append(tuple(row))
    return tuple(rows)


def _exponent_frame(labels, quarters_list) -> tuple:
    """The integer frame of the quarter vectors in quarters_list over labels.

    With G the matrix of their rows (_exponent_rows), the frame is the row
    Hermite normal form of (G | identity) over the columns of G: each of its
    rows (h | u) has u*G = h, the h form the Hermite normal form of the
    lattice G spans, and a dependent vector leaves no row.
    """
    n = len(quarters_list)
    rows = _exponent_rows(quarters_list, labels)
    return _hnf(tuple(row + (0,) * i + (1,) + (0,) * (n - 1 - i) for i, row in enumerate(rows)), len(labels))


@functools.lru_cache(maxsize=256)
def _hnf(rows: tuple, k: int) -> tuple:
    """_echelon of the integer rows (a tuple of tuples) over their first k
    columns, as a tuple of tuples.  Kept per process for the last 256
    distinct inputs; a scan to 200 or to 400 reads 14."""
    return tuple(map(tuple, _echelon(list(map(list, rows)), k)))


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


def _square_subsets(gens, factor=None, known=None):
    """Yield (idxs, neg, w) for each subset of the generators whose product
    u, times factor when one is given, has w^2 = -u if neg else u: by size,
    then lexicographically, from the empty subset when there is a factor
    and from size 1 otherwise.  The product and its root are formed only
    when the XOR of the character vectors of the subset (each computed once
    and kept on its unit) and of factor is 0 (then u is tried) or all ones
    (-u).  The candidate that known squares to takes known as its root."""
    for g in gens:
        if g.chars is None:
            g.chars = _char_vector(g.witness)
    vecs = [g.chars for g in gens]
    x0 = 0 if factor is None else _char_vector(factor)
    known_sq = None if known is None else known * known
    for size in range(factor is None, len(gens) + 1):
        for idxs in combinations(range(len(gens)), size):
            x = x0
            for i in idxs:
                x ^= vecs[i]
            if x and x != _ALL_CHARS:
                continue
            u = factor
            for i in idxs:
                u = gens[i].witness if u is None else u * gens[i].witness
            u = -u if x else u
            w = known if u == known_sq else sqrt_in_field(u)
            if w is not None:
                yield idxs, x != 0, w


def _halved(gens, idxs) -> tuple:
    """(quarters, m, odd) for a square root of the product u of the real
    units at idxs: half the sum of their quarter vectors, zeros dropped, and
    with m the largest of their levels, u^m = (-1)^odd * prod
    eps_r^(m*quarters[r]/2).  Raises ArithmeticError, under python -O too,
    unless m is 1 or 2, which makes every quarter even and no sum odd."""
    total = {}
    for i in idxs:
        for r, n in gens[i].quarters.items():
            total[r] = total.get(r, 0) + n
    levels = [exponent_level([gens[i].quarters]) for i in idxs]
    m = max(levels)
    if m > 2:
        raise ArithmeticError(f"a root of a subset of level {m} has quarter sums {total}")
    quarters = {r: n >> 1 for r, n in total.items() if n}
    return quarters, m, sum(gens[i].torsion_exponent * (m // s) for i, s in zip(idxs, levels)) & 1


# ---------------------------------------------------------------------------
# quadratic and biquadratic FSUs


def fsu_quadratic(d: int) -> FsuResult:
    """FSU of the real quadratic field Q(sqrt(d)): its fundamental unit."""
    basis = FieldBasis((d,))
    assert not basis.is_cm
    expr = UnitExpr(0, {d: 4}, _quad_unit(d, basis))
    return FsuResult(basis, (expr,))


def fsu_biquadratic(d1: int, d2: int) -> FsuResult:
    """FSU of the real biquadratic field Q(sqrt(d1), sqrt(d2)).

    Covers the six configurations of claims.BIQUAD_FSU, built from primes
    p = 5 mod 8 and q = 3 mod 8 and found by their radicand sets, so the
    order of d1 and d2 does not matter.  The system is the one claimed for
    the condition class of the pair (p, q) when both primes appear (the
    battery builds those in K+: fsu_in_kplus), and the field's one system
    otherwise.  Predicted square roots are materialized exactly; raises
    Falsified when one does not exist or as _claimed_fsu checks, ValueError
    for an unknown configuration.
    """
    basis = FieldBasis((d1, d2))
    if basis.is_cm:
        raise ValueError("biquadratic FSU shapes cover totally real fields only")
    rads = set(basis.radicands) - {1}
    # the third radicand's primes are among those of d1 and d2
    primes = {*prime_factors(d1), *prime_factors(d2)} - {2}
    ps = [f for f in primes if f % 8 == 5]
    qs = [f for f in primes if f % 8 == 3]
    key = None
    if len(ps) <= 1 and len(qs) <= 1 and len(ps) + len(qs) == len(primes):
        # a prime the field lacks stands as 0, which no radicand equals; two
        # distinct radicands of a biquadratic field determine its third
        p, q = (ps or [0])[0], (qs or [0])[0]
        for s1, s2 in claims.BIQUAD_FSU:
            if {claims.value(s1, p, q), claims.value(s2, p, q)} <= rads:
                key = s1, s2
    if key is None:
        raise ValueError(f"unknown biquadratic configuration {sorted(rads)}")
    system = claims.BIQUAD_FSU[key]
    if ps and qs:  # p = 5 and q = 3 (mod 8): Cond1 or Cond2
        system = system[classify_pair(p, q).tag]

    def root(quarters):
        # the re-square of sqrt_in_field is the identity check of the root
        w = sqrt_in_field(math.prod((_quad_unit(r, basis) ** (n >> 1) for r, n in quarters.items()),
                                    start=basis.one()))
        if w is None:
            names = "*".join(f"eps_{r}" for r in quarters)
            raise Falsified(f"{names} is predicted to be a square in {basis!r} but is not")
        return _norm_pos(w)

    return _claimed_fsu(basis, key, system, p, q, root)


def _claimed_fsu(basis, field, system, p, q, root) -> FsuResult:
    """The vectors of system, claimed for the subfield named by field (a key
    of claims.BIQUAD_FSU), as units of basis: eps_r itself and root(quarters)
    for a square root; ValueError for any other vector.  A unit outside the
    four masks of field, or an index other than claims.Q_LOG2[field], raises
    Falsified."""
    rads_pq = claims.radicands(p, q)
    m1, m2 = (basis.mask_of[claims.value(s, p, q)] for s in field)
    where = f"Q(sqrt {field[0]}, sqrt {field[1]})"
    gens = []
    for vec in system:
        quarters = {rads_pq[m]: n for m, n in enumerate(claims.row(vec), 1) if n}
        level = exponent_level([quarters])
        if level != 2 and list(quarters.values()) != [4]:
            raise ValueError(f"claimed unit {vec} is neither a quadratic unit nor a square root")
        w = root(quarters) if level == 2 else _quad_unit(next(iter(quarters)), basis)
        if any(n and m not in (0, m1, m2, m1 ^ m2) for m, n in enumerate(w._num)):
            raise Falsified(f"the unit of {quarters} is claimed in {where} but lies outside it")
        gens.append(UnitExpr(0, quarters, w))
    fsu = FsuResult(basis, tuple(gens))
    if fsu.q_index_log2 != claims.Q_LOG2[field]:
        raise Falsified(f"{where} has q_log2 {fsu.q_index_log2}, expected {claims.Q_LOG2[field]}")
    return fsu


def pell_root(w, basis: FieldBasis) -> FieldElement:
    """sqrt(eps_d) in basis from the Pell lemma witness w of d, which the
    lemma re-squared: u1*sqrt(r1) + u2*sqrt(r2), positive as u1, u2 > 0,
    times sqrt2/2 when doubled, with sqrt2*sqrt(r) = sqrt(2r) or 2*sqrt(r/2)."""
    h = 2 if w.doubled else 1
    return basis.element({h * r // math.gcd(h, r) ** 2: Fraction(u * math.gcd(h, r), h)
                          for u, r in ((w.u1, w.r1), (w.u2, w.r2))})


def fsu_in_kplus(kplus: FieldBasis, field, tag: str, roots: dict) -> FsuResult:
    """The claimed system of class tag of the subfield named by field, a key
    of claims.BIQUAD_FSU holding p and q, in kplus = Q(sqrt2, sqrt p, sqrt q).
    A root is a product of the roots {d: pell_root}, so it squares to its
    claim and is positive at the all-plus embedding.  A factor with no root
    raises Falsified, and so does what _claimed_fsu checks."""
    _, p, q = kplus.generators

    def root(quarters):
        if not quarters.keys() <= roots.keys():
            raise Falsified(f"the root of {quarters} claimed in Q(sqrt {field[0]}, sqrt {field[1]}) "
                            "has a factor with no Pell root")
        return functools.reduce(FieldElement.__mul__, (roots[r] ** (n >> 1) for r, n in quarters.items()))

    return _claimed_fsu(kplus, field, claims.BIQUAD_FSU[field][tag], p, q, root)


# ---------------------------------------------------------------------------
# degree-8 totally real fields: saturation by subset square roots


def wada_fsu(field: FieldBasis, subfield_fsus, known=None) -> FsuResult:
    """FSU of a totally real multiquadratic field from three subfield FSUs.

    Starts from the union of the subfield generators (deduplicated in
    exponent space), then repeatedly tests every subset product, up to sign,
    for being a square in the field.  A found square root replaces the
    highest-index generator of its subset and the sweep restarts; the loop
    ends with a full sweep that finds nothing, which is the closure proof.
    Each sweep takes the first subset _square_subsets yields.  The vectors
    stay on the generators, for azizi_extend; known, a square root in field
    of one candidate (the battery's is sqrt(eps_pq)), spares that candidate
    its descent.  A root's quarters are _halved's and its torsion exponent
    is 0: it is taken positive at the all-plus embedding, where every eps_r
    and generator is, so a root of -u is a fault and raises ArithmeticError,
    under python -O too, as does a subset outside _halved's shapes.
    """
    assert not field.is_cm
    first = {}  # each vector's first generator, in the order of first sight
    for fsu in subfield_fsus:
        for g in fsu.generators:
            first.setdefault(frozenset(g.quarters.items()), g)
    gens = [_embed_expr(g, field) for g in first.values()]
    while (found := next(_square_subsets(gens, None, known), None)) is not None:
        idxs, neg, w = found
        if neg:
            raise ArithmeticError(f"minus a product of units is a square in {field!r}")
        gens[max(idxs)] = UnitExpr(0, _halved(gens, idxs)[0], _norm_pos(w))
    return FsuResult(field, tuple(gens))


# ---------------------------------------------------------------------------
# CM extension: one torsion-twisted square root


def azizi_extend(real_fsu: FsuResult, root=None) -> FsuResult:
    """FSU of the CM field K(i) = FieldBasis(K's generators and -1) from the
    FSU of the totally real field K.

    With xi = zeta8 or i the generator of the 2-power roots of unity of K(i)
    and mu = xi + 1/xi, searches the subset products e of the real FSU, up
    to sign, for (2 + mu) * e a square in K: _square_subsets with the factor
    2 + mu, run to the end from the empty subset; root, a known square root
    of one candidate in a subfield of K, spares that candidate its descent.
    Two hits (a dependent FSU) or a hit on 2 + mu alone (a wrong torsion
    order) are faults of the computation and raise ArithmeticError.  A hit
    replaces the highest-index generator of its subset by (1 + xi)*w/(2 + mu)
    for the root w of +-(2 + mu)*e it found; (1 + xi)^2 = xi*(2 + mu), so it
    squares to +-xi*e.  For the subset's level m (_halved), its power 2m is
    zeta^t times its monomial, with t = m*x plus n/2 for each -1 of the sign
    and of e^m, where xi = zeta^x of order n (_torsion); quarters of a level
    other than 2m raise ArithmeticError, under python -O too.  Every other
    generator is the real one at its index, embedded (_embed_expr).
    """
    real = real_fsu.field
    cm_basis = FieldBasis(real.generators + (-1,))
    _, order, xi, x = _torsion(cm_basis)
    # the order is 4, 8, 12 or 24: 2^n is 8 exactly when zeta8 is in K(i)
    two_mu = (real.surd(2) if order % 8 == 0 else real.zero()) + 2
    gens = real_fsu.generators
    hits = list(_square_subsets(gens, two_mu, None if root is None else embed_element(root, real)))
    if len(hits) > 1:
        raise ArithmeticError("two independent unit subsets make (2+mu)*eps square; FSU was dependent")
    out = [_embed_expr(g, cm_basis) for g in gens]
    if hits:
        idxs, neg, w = hits[0]
        if not idxs:
            raise ArithmeticError("(2+mu) itself is a square, contradicting the torsion order")
        quarters, m, odd = _halved(gens, idxs)
        if exponent_level([quarters]) != 2 * m:
            raise ArithmeticError(f"a root of a subset of level {m} has quarters {quarters}")
        # (1 + xi)^2 = xi*(2 + mu), so this squares to xi*w^2/(2 + mu) = +-xi*eps
        twisted = embed_element(w * two_mu.inverse(), cm_basis) * (xi + 1)
        t = (m * x + order // 2 * (m * neg + odd)) % order
        out[max(idxs)] = UnitExpr(t, quarters, _first_positive(twisted))
    return FsuResult(cm_basis, tuple(out))


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
# lattices of quarter vectors over any radicands


def vector_in_lattice(vec: dict, quarters_list) -> bool:
    """Is the quarter vector `vec` an integer combination of those in quarters_list?"""
    return lattice_equal(quarters_list, [*quarters_list, vec])


def lattice_equal(a_list, b_list) -> bool:
    """Do two lists of quarter vectors span the same lattice?"""
    labels = sorted({r for quarters in (*a_list, *b_list) for r in quarters})
    k = len(labels)
    return _hnf(_exponent_rows(a_list, labels), k) == _hnf(_exponent_rows(b_list, labels), k)


# ---------------------------------------------------------------------------
# conjugation and relative norm tables


def norm_table(fsu: FsuResult) -> dict:
    """Check conjugates and relative norms of the degree-8 units of fsu.field
    against the table claims.NORM_TABLES of the pair's class, and return the
    symbolic signs each row resolved: {label: {letter: +-1}}, one key per
    row, empty for a row whose signs are all fixed.  The field must be
    FieldBasis((2, p, q)), in that order; any other raises ValueError.

    A named unit is the one with its exponent vector that is positive at the
    all-plus embedding, and an entry claims tau(w) or w*tau(w) = sign *
    monomial.  The claim is checked in two parts, on quarter vectors:
    - the exponents: tau(eps_r) = N(eps_r)/eps_r when tau moves sqrt(r), so
      tau negates those exponents of w; that, plus w for a norm column, must
      be the vector of the monomial;
    - the sign: two real units with one exponent vector differ by +-1, and
      the monomial is positive at the all-plus embedding, so the sign is
      that of w at the embedding sigma negating the column's mask.  With
      w = +-prod g_i^c_i over the FSU generators, that is the product of
      s_i(sigma)*s_i(1) over the odd c_i, s_i(sigma) being the sign of g_i
      at sigma: a row XORs the bits m where s_i(sigma_m)*s_i(1) = -1.
    The exponents and the c, solved on the frame of the FSU, are _norm_plan's;
    a row vector outside its lattice names no unit.  The signs come from one
    sign pass per generator over the identity and the six column embeddings.
    A fixed sign must match; a symbolic sign is resolved on first use and
    must stay consistent within its row.  Any mismatch raises Falsified.
    """
    field = fsu.field
    gens = field.generators
    if field.is_cm or len(gens) != 3 or gens[0] != 2 or gens[1] % 8 != 5 or gens[2] % 8 != 3:
        raise ValueError(f"{field} is not Q(sqrt2, sqrt p, sqrt q), in that order, "
                         "with p = 5, q = 3 (mod 8)")
    tag = classify_pair(*gens[1:]).tag  # Cond1 or Cond2 after the residue tests
    try:
        embeddings, plan = _norm_plan(fsu.frame, tag)
    except Falsified as exc:
        raise Falsified(f"{field!r}: {exc}") from None
    # the embeddings start at 0, the identity
    signs = [signs_at_embeddings(g.witness, embeddings) for g in fsu.generators]
    flips = [sum(1 << m for m, s in zip(embeddings, ss) if s != ss[0]) for ss in signs]

    rows = {}
    for label, odd, claimed in plan:
        flip = functools.reduce(int.__xor__, (flips[i] for i in odd), 0)
        resolved = rows[label] = {}
        for col, mask, sign in claimed:
            got = -1 if flip >> mask & 1 else 1
            if sign in (1, -1):
                if got != sign:
                    raise Falsified(f"norm table mismatch at row {label}, column {col}")
            elif resolved.setdefault(sign, got) != got:
                raise Falsified(f"inconsistent sign {sign} in norm table row {label}")
    return rows


@functools.lru_cache(maxsize=16)
def _norm_plan(frame: tuple, tag: str) -> tuple:
    """The part of norm_table that no element decides, from the frame of an
    FSU of K+ and the class: (the embeddings to sign, and per row of
    claims.NORM_TABLES[tag] (label, the i with c_i odd, and (column, mask,
    sign) per claimed entry)); the monomials are checked here on the rows of
    claims.unit_rows(tag) and not kept.  Raises Falsified, which is never
    kept, on a shape mismatch or a row outside the frame's lattice.  Kept
    per process for the last 16 inputs; a scan reads two.  The claims are
    read on a miss: an edit to them is read once this cache is cleared."""
    vec = claims.unit_rows(tag)
    masks = dict(zip(claims.NORM_COLUMNS, (1, 2, 4, 1, 2, 4, 3, 5, 6)))  # over (2, p, q)
    # the image of w under a column: tau multiplies the entry at mask m by
    # -1 when m meets its mask in an odd number of bits, a norm adds w
    factors = {col: [(-1 if (m & mask).bit_count() & 1 else 1) + (not col.startswith("tau"))
                     for m in range(1, 8)] for col, mask in masks.items()}
    rows = []
    for label, claimed in claims.NORM_TABLES[tag].items():
        w = vec[label]
        c = _frame_solve(frame, w)
        if c is None:
            raise Falsified(f"{label} is predicted to exist but its exponent vector "
                            "is not in the unit lattice")
        entries = []
        for col, entry in zip(claims.NORM_COLUMNS, claimed):
            if entry is None:
                continue
            sign, mono = entry
            target = [0] * 7
            for name, e in mono.items():
                target = [a + e * b for a, b in zip(target, vec[name])]
            if [a * f for a, f in zip(w, factors[col])] != target:
                raise Falsified(f"norm table shape mismatch at row {label}, column {col}")
            entries.append((col, masks[col], sign))
        rows.append((label, tuple(i for i, a in enumerate(c) if a & 1), tuple(entries)))
    return tuple(sorted({0, *masks.values()})), tuple(rows)
