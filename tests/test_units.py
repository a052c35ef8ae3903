"""Tests for FSU construction, saturation, CM extension and norm tables."""

import collections
import functools
import io
import json
import math
import random
import re
import subprocess
import sys
import textwrap
import types
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from mqunits import claims, cli, quadratic, report, units
from mqunits.errors import Falsified
from mqunits.field import FieldBasis, FieldElement, embed_element, sqrt_in_field
from mqunits.quadratic import COND1, COND2, classify_pair
from mqunits.report import scan_pairs
from mqunits.units import (
    CHAR_PRIMES,
    FsuResult,
    UnitExpr,
    _base_units,
    _char_data,
    _char_vector,
    _echelon,
    _embed_expr,
    _exponent_frame,
    _frame_q_log2,
    _nonresidues,
    _torsion,
    azizi_extend,
    exponent_level,
    fsu_biquadratic,
    fsu_quadratic,
    lattice_equal,
    norm_table,
    unit_index,
    vector_in_lattice,
    wada_fsu,
)

import exponent_oracle
import norm_oracle
from claim_caches import clear_claim_caches

H = Fraction(1, 2)


def make_expr(basis: FieldBasis, base_units: dict, quarters: dict, witness: FieldElement) -> UnitExpr:
    """The oracle of every unit identity: a UnitExpr of witness whose
    torsion exponent is found by exponentiation.  It takes the exponents
    n/4 of the quarter vector as Fractions, raises the witness to the lcm s
    of their denominators, multiplies the base-unit powers, and walks the
    torsion until the two sides agree; AssertionError when none does."""
    exps = {r: Fraction(n, 4) for r, n in quarters.items() if n}
    s = math.lcm(*(e.denominator for e in exps.values()))
    lhs = witness ** s
    rhs = math.prod((base_units[r] ** int(e * s) for r, e in exps.items()), start=basis.one())
    gen, order = _torsion(basis)[:2]
    for t in range(order):
        if rhs == lhs:
            return UnitExpr(t, {r: n for r, n in quarters.items() if n}, witness)
        rhs = rhs * gen
    raise AssertionError("witness does not match its exponent vector")


def verify_unit_expr(expr: UnitExpr) -> None:
    """Re-prove the defining identity of a UnitExpr by the oracle: its
    exponents and its torsion exponent modulo the order; raises on mismatch."""
    basis = expr.witness.basis
    rebuilt = make_expr(basis, _base_units(basis), expr.quarters, expr.witness)
    assert rebuilt.quarters == expr.quarters
    assert rebuilt.torsion_exponent == expr.torsion_exponent % _torsion(basis)[1]


@functools.lru_cache(maxsize=None)
def deg8(p, q):
    field = FieldBasis((2, p, q))
    subs = tuple(fsu_biquadratic(2, d) for d in (p, q, p * q))
    return field, wada_fsu(field, subs)


def quarters_list(fsu):
    return [g.quarters for g in fsu.generators]


def named_quarters(p, q, tag, names=claims.KPLUS_FSU):
    """The quarter vectors of the named units of the class for the pair,
    read off their rows over the masks of (2, p, q)."""
    rads, rows = claims.radicands(p, q), claims.unit_rows(tag)
    return [{rads[m]: n for m, n in enumerate(rows[name], 1) if n} for name in names]


def test_fsu_quadratic():
    fsu = fsu_quadratic(5)
    assert fsu.torsion == "-1" and fsu.q_index_log2 == 0
    (g,) = fsu.generators
    assert g.quarters == {5: 4} and g.torsion_exponent == 0
    assert g.witness == fsu.field.element({1: H, 5: H})
    assert unit_index(fsu) == 1
    verify_unit_expr(g)


def test_biquad_cond1_pq():
    fsu = fsu_biquadratic(5, 11)
    assert quarters_list(fsu) == [{5: 4}, {11: 4}, {55: 2}]
    assert fsu.generators[2].witness == fsu.field.element({5: 3, 11: 2})
    assert fsu.q_index_log2 == 1 and unit_index(fsu) == 2
    for g in fsu.generators:
        assert g.torsion_exponent == 0
        verify_unit_expr(g)


def test_biquad_cond2_pq():
    fsu = fsu_biquadratic(5, 3)
    assert quarters_list(fsu) == [{5: 4}, {3: 4}, {3: 2, 15: 2}]
    w = fsu.generators[2].witness
    assert w == fsu.field.element({1: Fraction(3, 2), 3: H, 5: H, 15: H})
    assert fsu.q_index_log2 == 1


def test_biquad_2_q_example():
    fsu = fsu_biquadratic(2, 3)
    assert quarters_list(fsu) == [{2: 4}, {3: 2}, {6: 2}]
    basis = fsu.field
    assert fsu.generators[1].witness == basis.element({2: H, 6: H})
    assert fsu.generators[2].witness == basis.element({2: 1, 3: 1})
    assert fsu.q_index_log2 == 2 and unit_index(fsu) == 4


@pytest.mark.parametrize("p,q", [(5, 11), (13, 11)])
def test_biquad_all_six_configs(p, q):
    for d1, d2, expect_q in [
        (p, q, 1), (2, q, 2), (p, 2 * q, 1), (q, 2 * p, 1), (2, p * q, 1), (2, p, 1),
    ]:
        fsu = fsu_biquadratic(d1, d2)
        assert len(fsu.generators) == 3
        assert fsu.q_index_log2 == expect_q, (d1, d2)
        for g in fsu.generators:
            verify_unit_expr(g)


def test_biquad_rejections():
    with pytest.raises(ValueError):
        fsu_biquadratic(5, 7)
    with pytest.raises(ValueError):
        fsu_biquadratic(5, -11)


def test_wada_deg8_cond1():
    field, fsu = deg8(5, 11)
    assert len(fsu.generators) == 7 and fsu.q_index_log2 == 6
    assert unit_index(fsu) == 64
    assert lattice_equal(quarters_list(fsu), named_quarters(5, 11, COND1))
    assert vector_in_lattice({22: 2}, quarters_list(fsu))
    other_f4 = named_quarters(5, 11, COND2)[6]
    assert not vector_in_lattice(other_f4, quarters_list(fsu))
    for g in fsu.generators:
        verify_unit_expr(g)


def test_wada_deg8_cond2():
    field, fsu = deg8(5, 3)
    assert len(fsu.generators) == 7 and fsu.q_index_log2 == 6
    assert lattice_equal(quarters_list(fsu), named_quarters(5, 3, COND2))
    assert vector_in_lattice({6: 2}, quarters_list(fsu))
    assert not vector_in_lattice(named_quarters(5, 3, COND1)[6], quarters_list(fsu))


def test_wada_degenerate_biquadratic():
    field = FieldBasis((5, 11))
    fsu = wada_fsu(field, (fsu_quadratic(5), fsu_quadratic(11), fsu_quadratic(55)))
    direct = fsu_biquadratic(5, 11)
    assert fsu.q_index_log2 == direct.q_index_log2 == 1
    assert lattice_equal(quarters_list(fsu), quarters_list(direct))


def test_biquadratic_claim_outside_the_half_level_is_refused(monkeypatch):
    # the claimed roots are formed from their exponents and checked only by
    # their re-square, so a claimed fourth root must not reach the square root
    monkeypatch.setitem(claims.BIQUAD_FSU, ("2", "q"), ({"2": 1}, {"q": H}, {"2q": Fraction(1, 4)}))
    with pytest.raises(ValueError, match="neither a quadratic unit nor a square root"):
        fsu_biquadratic(2, 3)


def test_wada_result_is_its_field_and_generators():
    field, fsu = deg8(13, 3)
    assert fsu == FsuResult(field, fsu.generators)
    assert fsu.torsion == "-1"


def test_fsu_torsion_name():
    """An FSU names its roots of unity from the order `_torsion` finds."""
    for gens, name in [((2, 5, 11, -1), "zeta8"), ((2, 5, 3, -1), "zeta24"), ((5, 3), "-1"),
                       ((5, 3, -1), "zeta12"), ((5, -1), "zeta4")]:
        assert FsuResult(FieldBasis(gens), ()).torsion == name, gens


def test_azizi_eighth_roots_of_unity():
    fsu = azizi_extend(fsu_quadratic(2), FieldBasis((2, -1)))
    assert fsu.torsion == "zeta8" and fsu.q_index_log2 == 0
    (g,) = fsu.generators
    assert g.quarters == {2: 4} and unit_index(fsu) == 2


def test_azizi_biquadratic_cm():
    real = fsu_biquadratic(5, 3)
    cm = FieldBasis((5, 3, -1))
    fsu = azizi_extend(real, cm)
    assert fsu.torsion == "zeta12" and fsu.q_index_log2 == 2
    assert unit_index(fsu) == 8
    twisted = [g for g in fsu.generators if g.quarters == {3: 2}]
    assert len(twisted) == 1
    g = twisted[0]
    assert g.torsion_exponent == 3
    eps3 = cm.element({1: 2, 3: 1})
    assert g.witness * g.witness == cm.surd(-1) * eps3
    assert quarters_list(fsu) == [{5: 4}, {3: 2}, {3: 2, 15: 2}]


def test_azizi_rejects_wrong_basis():
    with pytest.raises(ValueError):
        azizi_extend(fsu_quadratic(2), FieldBasis((2, 3)))
    with pytest.raises(ValueError):
        azizi_extend(fsu_quadratic(2), FieldBasis((3, -1)))


def test_azizi_deg16():
    field, real = deg8(5, 11)
    cm = FieldBasis((2, 5, 11, -1))
    fsu = azizi_extend(real, cm)
    assert fsu.torsion == "zeta8" and fsu.q_index_log2 == 7
    assert unit_index(fsu) == 256
    assert lattice_equal(quarters_list(fsu), named_quarters(5, 11, COND1, claims.CM_FSU))
    twisted = [g for g in fsu.generators if g.quarters == {2: 2, 11: 1, 22: 1}]
    assert len(twisted) == 1
    assert twisted[0].torsion_exponent == 2
    for g in fsu.generators:
        verify_unit_expr(g)


@pytest.mark.parametrize("p,q", [(5, 11), (5, 3)])
def test_norm_table(p, q):
    _, fsu = deg8(p, q)
    rows = norm_table(fsu)
    assert list(rows) == list(claims.NORM_TABLES[classify_pair(p, q).tag])
    assert rows.pop(claims.SP2P).keys() == {"u", "v"}
    assert rows.pop(claims.F4).keys() == {"r", "s", "t"}
    assert all(resolved == {} for resolved in rows.values())


def test_norm_table_requires_deg8_shape():
    fsu = fsu_biquadratic(5, 11)
    with pytest.raises(ValueError):
        norm_table(fsu)
    # K+ with its generators in another order: the plans read the masks of (2, p, q)
    field = FieldBasis((5, 2, 11))
    fsu = wada_fsu(field, [fsu_biquadratic(2, d) for d in (5, 11, 55)])
    assert fsu.q_index_log2 == 6
    with pytest.raises(ValueError, match="in that order"):
        norm_table(fsu)


def test_norm_table_matches_the_oracle():
    """The exponent-and-sign table equals the table evaluated in the field."""
    pairs = [pq for pq in scan_pairs(200) if classify_pair(*pq).is_applicable]
    assert len(pairs) == 156
    for p, q in pairs + [(653, 347), (3181, 3011)]:
        field = FieldBasis((2, p, q))
        fsu = wada_fsu(field, [fsu_biquadratic(2, d) for d in (p, q, p * q)])
        assert norm_table(fsu) == norm_oracle.norm_table(fsu), (p, q)


@pytest.mark.parametrize("entry", [
    (1, {claims.E2: -1}),  # the fixed sign of tau1(eps_2) flipped
    (-1, {claims.E2: -2}),  # its monomial exponent altered
])
def test_tampered_norm_table_entry_is_falsified(monkeypatch, entry):
    _, fsu = deg8(5, 11)
    table = claims.NORM_TABLES[COND1]
    assert table[claims.E2][0] == (-1, {claims.E2: -1})
    try:
        with monkeypatch.context() as mp:
            mp.setitem(table, claims.E2, (entry,) + table[claims.E2][1:])
            clear_claim_caches()
            for table in (norm_table, norm_oracle.norm_table):
                with pytest.raises(Falsified, match="norm table"):
                    table(fsu)
    finally:
        clear_claim_caches()


def test_norm_table_row_outside_the_unit_lattice_is_falsified():
    field, fsu = deg8(5, 11)
    # squaring one generator leaves an index-2 sublattice, which misses one
    # of the seven named units that span the full lattice
    g = max(fsu.generators, key=lambda g: exponent_level([g.quarters]))
    squared = UnitExpr(0, {r: 2 * n for r, n in g.quarters.items()}, g.witness * g.witness)
    gens = tuple(squared if h is g else h for h in fsu.generators)
    small = FsuResult(field, gens)
    assert small.q_index_log2 == fsu.q_index_log2 - 1
    with pytest.raises(Falsified, match="is predicted to exist"):
        norm_table(small)


def test_lattice_helpers():
    # quarter vectors: {2: 4} is eps_2 itself, {3: 2} is sqrt(eps_3)
    a = [{2: 4}, {3: 2}]
    assert vector_in_lattice({2: 4, 3: 4}, a)
    assert not vector_in_lattice({3: 1}, a)
    assert lattice_equal(a, [{2: 4, 3: 4}, {3: 2}])
    assert not lattice_equal(a, [{2: 4}, {3: 4}])
    assert not lattice_equal(a, [{2: 4}])
    gens = named_quarters(5, 11, COND1)
    # doubling one generator gives an index-2 sublattice with the same span
    sub = [dict(g) for g in gens]
    sub[6] = {r: 2 * e for r, e in sub[6].items()}
    assert not lattice_equal(gens, sub)
    assert not lattice_equal(sub, gens)
    # adding a multiple of one generator to another and negating a third is
    # a unimodular change of basis
    mixed = [dict(g) for g in gens]
    for r, e in gens[4].items():
        mixed[6][r] = mixed[6].get(r, 0) + 3 * e
    mixed[1] = {r: -e for r, e in mixed[1].items()}
    assert lattice_equal(gens, mixed)
    assert lattice_equal(mixed, gens)
    # a vector outside the label set of the other list
    assert not lattice_equal(gens, gens[:6] + [{7: 4}])


def test_lattice_equal_rank_deficient_lists():
    # dependent lists compare by the lattice they span, not by their length
    a = [{2: 2, 3: 2}, {2: 4, 3: 4}]
    b = [{2: -2, 3: -2}]
    assert lattice_equal(a, b) and lattice_equal(b, a)
    assert lattice_equal([{2: 4}, {3: 4}, {2: 4, 3: 4}], [{2: 4}, {3: 4}])
    assert not lattice_equal(b, [{2: 4, 3: 4}])
    assert not lattice_equal(a, [{2: 2}, {3: 2}])


def fraction_inverse_det(rows):
    """(inverse, det) of a square Fraction matrix by Gauss-Jordan; the
    inverse is None when the matrix is singular."""
    n = len(rows)
    m = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return None, Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        m[c] = [v / m[c][c] for v in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return [row[n:] for row in m], det


def fraction_in_lattice(rows, basis_rows):
    """Is every row an integer combination of the nonsingular basis_rows?"""
    inv, _ = fraction_inverse_det(basis_rows)
    n = len(basis_rows)
    return all(sum(row[k] * inv[k][j] for k in range(n)).denominator == 1
               for row in rows for j in range(n))


def fraction_lattice_equal(a_rows, b_rows):
    """B^-1 A integral and |det A| = |det B|, for nonsingular A and B."""
    return (fraction_in_lattice(a_rows, b_rows)
            and abs(fraction_inverse_det(a_rows)[1]) == abs(fraction_inverse_det(b_rows)[1]))


EXPONENTS = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 4)))


@st.composite
def unimodular_change(draw, rows):
    """rows after a random product of row additions, sign flips and a permutation."""
    rows = [list(row) for row in rows]
    n = len(rows)
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            rows[i] = [-a for a in rows[i]]
        else:
            k = draw(st.integers(-3, 3))
            rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
    return draw(st.permutations(rows))


@st.composite
def exponent_matrices(draw):
    """A nonsingular square matrix of exponents with denominators 1, 2, 4:
    either random, or a unimodular change of an upper triangular matrix with
    diagonal 1, 1/2 or 1/4, whose |det| is then a power of 1/2."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        rows = [[draw(EXPONENTS) for _ in range(n)] for _ in range(n)]
        assume(fraction_inverse_det(rows)[1] != 0)
        return rows
    diag = st.sampled_from((Fraction(1), Fraction(1, 2), Fraction(1, 4)))
    tri = [[draw(diag) if i == j else draw(EXPONENTS) if j > i else Fraction(0)
            for j in range(n)] for i in range(n)]
    return draw(unimodular_change(tri))


def as_quarters(rows, labels):
    """The Fraction rows as quarter vectors over labels, zeros dropped."""
    return [{r: int(4 * e) for r, e in zip(labels, row) if e} for row in rows]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lattice_helpers_match_fraction_reference(data):
    b_rows = data.draw(exponent_matrices())
    n = len(b_rows)
    labels = data.draw(st.permutations((2, 3, 5, 6, 7, 10)))[:n]
    a_rows = data.draw(unimodular_change(b_rows))
    i = data.draw(st.integers(0, n - 1))
    sub_rows = [[2 * e for e in row] if k == i else row for k, row in enumerate(a_rows)]
    b, a, sub = (as_quarters(rows, labels) for rows in (b_rows, a_rows, sub_rows))

    assert fraction_lattice_equal(a_rows, b_rows)
    assert lattice_equal(a, b) and lattice_equal(b, a)
    assert not fraction_lattice_equal(sub_rows, b_rows)
    assert not lattice_equal(sub, b) and not lattice_equal(b, sub)

    coeffs = [data.draw(st.integers(-3, 3)) for _ in range(n)]
    coeffs[i] += data.draw(st.sampled_from((0, H, Fraction(1, 4))))
    v_row = [sum(c * row[j] for c, row in zip(coeffs, b_rows)) for j in range(n)]
    if any((4 * e).denominator != 1 for e in v_row):
        # outside (1/4)Z, where both lattices lie, and so in neither
        assert not fraction_in_lattice([v_row], b_rows) and not fraction_in_lattice([v_row], sub_rows)
    else:
        (v,) = as_quarters([v_row], labels)
        assert vector_in_lattice(v, b) == fraction_in_lattice([v_row], b_rows)
        assert vector_in_lattice(v, sub) == fraction_in_lattice([v_row], sub_rows)

    for rows, exps in ((b_rows, b), (sub_rows, sub)):
        frame = _exponent_frame(labels, exps)
        det = abs(fraction_inverse_det(rows)[1])
        if det.numerator == 1 and det.denominator & (det.denominator - 1) == 0:
            assert _frame_q_log2(frame, n) == det.denominator.bit_length() - 1
        else:
            with pytest.raises(ArithmeticError):
                _frame_q_log2(frame, n)


def test_base_units_built_once_per_basis():
    # each call wraps the cached fundamental units as elements of the basis
    # again; the basis itself keeps none of them
    field = FieldBasis((2, 13, 11))
    units = _base_units(field)
    misses = quadratic.fundamental_unit.cache_info().misses
    assert _base_units(field) == units and quadratic.fundamental_unit.cache_info().misses == misses
    assert sorted(units) == [r for r in sorted(field.radicands) if r > 1]
    assert all(u.basis is field for u in units.values())


def test_exponent_level_of_each_unit_and_of_the_system():
    field, fsu = deg8(5, 11)
    levels = sorted({exponent_level([g.quarters]) for g in fsu.generators})
    assert levels == [1, 2, 4]
    assert exponent_level(quarters_list(fsu)) == 4


def test_q_log2_raises_under_python_O():
    # in quarters: the index of {2: 12}, eps_2^3, is 1/3, not a power of 2;
    # the second list is singular
    code = textwrap.dedent("""
        from mqunits.units import _frame_q_log2, _exponent_frame
        for exps in ([{2: 12}], [{2: 2, 3: 4}, {2: 4, 3: 8}]):
            try:
                print("returned", _frame_q_log2(_exponent_frame([2, 3][:len(exps)], exps), len(exps)))
            except ArithmeticError:
                print("raised")
    """)
    res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "raised\nraised\n"


# ---------------------------------------------------------------------------
# character vectors and the unit ledger

CHAR_PAIRS = ((5, 11), (13, 3), (173, 163), (653, 347))


@functools.lru_cache(maxsize=None)
def squares_mod(l):
    return frozenset(x * x % l for x in range(1, l))


def oracle_char_vector(w):
    """The character vector of w computed prime by prime: the first
    CHAR_PRIMES primes l = 7 (mod 8) with every generator a square mod l,
    sqrt(g_j) -> pow(g_j, (l+1)/4, l) negated for each bit j of i mod 2^k at
    the i-th prime, and whether the image of w is a square mod l, read from
    the squares mod l listed by brute force."""
    basis = w.basis
    gens = basis.generators
    primes = []
    l = 7
    while len(primes) < CHAR_PRIMES:
        if all(l % d for d in range(2, math.isqrt(l) + 1)) and all(g % l in squares_mod(l) for g in gens):
            primes.append(l)
        l += 8
    assert _char_data(basis)[0] == tuple(primes)
    out = 0
    for i, l in enumerate(primes):
        roots = [pow(g, (l + 1) // 4, l) * (-1 if i >> j & 1 else 1) for j, g in enumerate(gens)]
        assert all((x * x - g) % l == 0 for x, g in zip(roots, gens))
        value = 0
        for r, c in w.coords.items():
            m = basis.mask_of[r]
            chosen = [j for j in range(basis.k) if m >> j & 1]
            f = math.isqrt(math.prod(gens[j] for j in chosen) // r)
            image = math.prod(roots[j] for j in chosen) * pow(f, -1, l)
            value += c.numerator * image * pow(c.denominator, -1, l)
        assert value % l
        out |= (value % l not in squares_mod(l)) << i
    return out


@pytest.mark.parametrize("p,q", CHAR_PAIRS)
def test_char_vectors_match_the_prime_by_prime_oracle(p, q):
    field, fsu = deg8(p, q)
    for g in fsu.generators:
        assert _char_vector(g.witness) == oracle_char_vector(g.witness)
    two = field.surd(2) + 2
    assert _char_vector(two) == oracle_char_vector(two)


@pytest.mark.parametrize("p,q", CHAR_PAIRS)
def test_char_vectors_of_squares(p, q):
    field, fsu = deg8(p, q)
    rng = random.Random(p * q)
    full = (1 << CHAR_PRIMES) - 1
    assert _char_vector(-field.one()) == full
    for _ in range(6):
        w = field.one()
        for g in fsu.generators:
            w = w * g.witness ** rng.randint(-2, 2)
        v = _char_vector(w)
        assert _char_vector(w * w) == 0
        assert _char_vector(-w * w) == full
        assert _char_vector(-w) == v ^ full
        u = fsu.generators[rng.randrange(7)].witness
        assert _char_vector(w * u) == v ^ _char_vector(u)


@pytest.mark.parametrize("gens,primes", [
    ((2, 5, 11), (79, 151, 239, 271, 359, 431, 439, 479,
                  919, 1031, 1151, 1231, 1319, 1399, 1471, 1559)),
    ((2, 13, 3), (23, 191, 263, 311, 503, 599, 647, 719,
                  887, 911, 1031, 1223, 1439, 1511, 1559, 1583)),
])
def test_char_primes_are_pinned(gens, primes):
    # the primes enter every character vector, so the search order must not move them
    assert _char_data(FieldBasis(gens))[0] == primes


def per_prime_char_data(basis):
    """(primes, L, images) as the prime search of trial steps l += 8 with an
    is_prime test, and images built prime by prime, then joined by CRT."""
    gens, rads = basis.generators, basis.radicands
    primes = []
    l = 7
    while len(primes) < CHAR_PRIMES:
        if all(pow(g, l >> 1, l) == 1 for g in gens) and all(l % d for d in range(2, math.isqrt(l) + 1)):
            primes.append(l)
        l += 8
    big = math.prod(primes)
    prods = [1] * basis.dim
    for m in range(1, basis.dim):
        low = m & -m
        prods[m] = prods[m ^ low] * gens[low.bit_length() - 1]
    images = [0] * basis.dim
    for i, l in enumerate(primes):
        roots = [pow(g, (l + 1) >> 2, l) for g in gens]
        roots = [l - x if i >> j & 1 else x for j, x in enumerate(roots)]
        cofactor = big // l * pow(big // l, -1, l)
        for m in range(basis.dim):
            x = pow(math.isqrt(prods[m] // rads[m]), -1, l)
            for j, root in enumerate(roots):
                if m >> j & 1:
                    x = x * root % l
            images[m] += x * cofactor
    return tuple(primes), big, tuple(x % big for x in images)


@pytest.mark.parametrize("gens", [(2, 5, 11), (2, 13, 3), (2, 53, 43), (2, 277, 83), (2, 6, 35), (2, 13)])
def test_char_data_matches_the_per_prime_oracle(gens):
    assert _char_data(FieldBasis(gens)) == per_prime_char_data(FieldBasis(gens))


def test_char_vector_refuses_zero_residues_and_cm_fields():
    field = FieldBasis((2, 5, 11))
    l = _char_data(field)[0][0]
    with pytest.raises(ArithmeticError):
        _char_vector(field.from_rational(Fraction(1, l)))
    with pytest.raises(ValueError):
        _char_vector(FieldBasis((2, 5, 11, -1)).one())


@pytest.mark.parametrize("real,big", [
    (lambda: fsu_biquadratic(5, 3), (5, 3, -1)),  # zeta12
    (lambda: deg8(13, 3)[1], (2, 13, 3, -1)),  # zeta24
    (lambda: deg8(5, 11)[1], (2, 5, 11, -1)),  # zeta8
    (lambda: fsu_biquadratic(2, 13), (2, 13, 3)),  # totally real target
])
def test_embed_expr_matches_make_expr(real, big):
    big = FieldBasis(big)
    gens = list(real().generators)
    small = gens[0].witness.basis
    # the witnesses are positive at the all-plus embedding, so their torsion
    # exponents are 0; the negated witnesses bring in -1 = zeta^(n/2)
    gens += [make_expr(small, _base_units(small), g.quarters, -g.witness) for g in gens]
    assert any(g.torsion_exponent for g in gens)
    for g in gens:
        e = _embed_expr(g, big)
        assert e.quarters == g.quarters and e.witness.basis is big
        verify_unit_expr(e)
        assert e == make_expr(big, _base_units(big), g.quarters, e.witness)


def test_embed_expr_refuses_cm_units():
    cm = azizi_extend(fsu_biquadratic(5, 3), FieldBasis((5, 3, -1)))
    with pytest.raises(ValueError):
        _embed_expr(cm.generators[0], FieldBasis((2, 5, 3, -1)))


def test_verify_pair_makes_each_unit_once_and_no_failing_root(monkeypatch):
    vectors, roots = [], []
    char_vector, sqrt = units._char_vector, units.sqrt_in_field

    def counting_char_vector(w):
        vectors.append(w)
        return char_vector(w)

    def counting_sqrt(u):
        w = sqrt(u)
        roots.append((w is not None, u.basis.k))
        return w

    monkeypatch.setattr(units, "_char_vector", counting_char_vector)
    monkeypatch.setattr(units, "sqrt_in_field", counting_sqrt)
    monkeypatch.setattr(report, "sqrt_in_field", counting_sqrt)
    report._one_prime_fsu.cache_clear()  # so that Q(sqrt2, sqrt13) and Q(sqrt2, sqrt3) are built
    assert report.verify_pair(13, 3).passed
    # every vector is of K+: the 7 generators the saturation starts from,
    # the 2 roots it finds and 2 + sqrt2, each computed once; azizi_extend
    # reads those of the generators from the units
    assert len(vectors) == 10 and len({(w._num, w._den) for w in vectors}) == 10
    assert all(w.basis is FieldBasis((2, 13, 3)) for w in vectors)
    # the norm table takes no root: it works on exponents and signs; the
    # twisted CM unit takes none either, it comes from the root of Azizi's
    # test, which azizi_square takes in Q(sqrt2, sqrt3) and cm_fsu checks by
    # its square; sqrt(eps_pq) is the lemma_pq witness, so the fourth root
    # is the one root of K+
    assert all(ok for ok, _ in roots) and len(roots) == 9
    assert sorted(k for _, k in roots) == [2] * 8 + [3]


def battery_systems(p, q):
    """The biquadratic systems by field, and the FSUs of K+ and K, as the
    battery builds them, the known Azizi root included."""
    cond = classify_pair(p, q)
    rep = report.PairReport(p, q, {"tag": cond.tag, "reason": cond.reason})
    biquad = report._check_biquad_fsu_all(p, q, cond, rep)[2]
    fsu = report._check_wada_q_index(p, q, cond, rep, biquad)[2]
    ok, _, root = report._check_azizi_square(p, q, cond, rep, biquad)
    assert ok
    cm = report._check_cm_fsu(p, q, cond, rep, fsu, root)[2]
    return biquad, fsu, cm


def battery_units(p, q):
    """The generators of K+ and K as the battery builds them."""
    _, fsu, cm = battery_systems(p, q)
    return fsu.generators + cm.generators


def test_every_derived_identity_matches_the_exponentiation_oracle():
    """Each unit of fsu_real and fsu_cm of every pair of scan(60), and of
    the CM fields the fsu verb reaches (zeta4 to zeta24), re-proved by
    exponentiation: its exponents and its torsion exponent modulo the order."""
    pairs = [pq for pq in scan_pairs(60) if classify_pair(*pq).is_applicable]
    gens = [g for pq in pairs for g in battery_units(*pq)]
    orders = set()
    for rads in ((5,), (5, 3), (13, 3), (2, 5, 11), (2, 13, 3), (2, 29, 19)):
        fsu = cli._build_fsu(rads, True)
        gens += fsu.generators
        orders.add(_torsion(fsu.field)[1])
    assert orders == {4, 8, 12, 24} and len(gens) == 14 * len(pairs) + 1 + 3 + 3 + 3 * 7
    for g in gens:
        verify_unit_expr(g)
    assert {g.torsion_exponent for g in gens} == {0, 2, 3, 18}


def assert_four_times(fsu, vectors):
    """The quarters of the generators are integers, 4 times the vectors."""
    got = [g.quarters for g in fsu.generators]
    assert all(type(n) is int for quarters in got for n in quarters.values())
    assert got == [{r: 4 * e for r, e in exps.items()} for exps in vectors]


def test_quarters_are_four_times_the_fraction_route():
    """Every unit of fsu_real and fsu_cm of the pairs of scan(60), and of
    the fields of the fsu verb with and without CM, against the exponents
    that exponent_oracle finds on Fractions over the same witnesses."""
    pairs = [pq for pq in scan_pairs(60) if classify_pair(*pq).is_applicable]
    for p, q in pairs:
        biquad, fsu, cm = battery_systems(p, q)
        subs = [(exponent_oracle.biquadratic(("2", s), p, q), biquad[(2, d)])
                for s, d in (("p", p), ("q", q), ("pq", p * q))]
        real = exponent_oracle.wada(fsu.field, subs)
        assert_four_times(fsu, real)
        assert_four_times(cm, exponent_oracle.azizi(real, fsu, cm.field))
    for rads in ((5,), (5, 3), (13, 3), (2, 5, 11), (2, 13, 3), (2, 29, 19)):
        fsu = cli._build_fsu(rads, False)
        if len(rads) == 1:
            vectors = [{rads[0]: Fraction(1)}]
        elif len(rads) == 2:
            vectors = exponent_oracle.biquadratic(("p", "q"), *rads)
        else:
            _, p, q = rads
            vectors = exponent_oracle.wada(fsu.field, [
                (exponent_oracle.biquadratic(("2", s), p, q), fsu_biquadratic(2, d))
                for s, d in (("p", p), ("q", q), ("pq", p * q))])
        assert_four_times(fsu, vectors)
        cm = cli._build_fsu(rads, True)
        assert_four_times(cm, exponent_oracle.azizi(vectors, fsu, cm.field))


def test_report_strings_from_quarters_match_the_fraction_formatting():
    # every quarter n in -64..64, alone and beside a companion exponent
    # 1/s that sets the level to s, for each level s it allows
    for n in range(-64, 65):
        assert report._quarter_str(n) == str(Fraction(n, 4)), n
        for s in (1, 2, 4):
            if n % (4 // s):
                continue
            for quarters in ({5: n}, {5: n, 7: 4 // s}, {2: 4 // s, 5: n}):
                exps = {r: Fraction(m, 4) for r, m in quarters.items()}
                assert exponent_level([quarters]) == exponent_oracle.level(exps)
                assert report._unit_label(quarters) == exponent_oracle.unit_label(exps), quarters
                entry = report._unit_to_dict(UnitExpr(0, quarters, FieldBasis((2,)).one()))
                assert entry["exponents"] == exponent_oracle.exponent_strings(exps), quarters


def battery_checks(flags, setup):
    """{check id: [passed, detail]} of verify_pair(13, 3) in a fresh
    interpreter started with flags, after the statements of setup."""
    code = textwrap.dedent(setup) + textwrap.dedent("""
        import json
        from mqunits import report
        print(json.dumps({cid: [ok, detail] for cid, ok, detail in report.verify_pair(13, 3).checks}))
    """)
    res = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_a_claimed_eighth_reads_error(flags):
    # the named units reach the checks as quarters; an exponent 1/8 has none
    checks = battery_checks(flags, """
        from fractions import Fraction
        from mqunits import claims
        claims.UNITS["Cond1"][claims.F4]["2q"] = Fraction(1, 8)
    """)
    assert checks["wada_q_index"][0] and checks["azizi_square"][0]
    error = [False, "error: ArithmeticError('exponent 1/8 of eps_2q is not a multiple of 1/4')"]
    for cid in ("wada_generators", "cm_fsu", "norm_tables"):
        assert checks[cid] == error, cid


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_an_odd_quarter_sum_reads_error(flags):
    # eps_pq carried into K+ as eps_pq^(3/4): the saturation's first hit is
    # the singleton {eps_pq}, whose quarter sum 3 halves to an eighth
    checks = battery_checks(flags, """
        from mqunits import units
        embed = units._embed_expr

        def skewed(g, big):
            e = embed(g, big)
            if e.quarters == {39: 4}:
                e.quarters = {39: 3}
            return e
        units._embed_expr = skewed
    """)
    assert checks["biquad_fsu_all"][0]
    assert checks["wada_q_index"] == [
        False, "error: ArithmeticError('a root of a subset of level 4 has quarter sums {39: 3}')"]


def test_a_minus_hit_in_a_real_field_reads_error(monkeypatch):
    # every generator of K+ is positive at the all-plus embedding, so no
    # product of them is minus a square; a search that says so is wrong
    search = units._square_subsets

    def minus_hits(gens, factor=None, known=None):
        for idxs, neg, w in search(gens, factor, known):
            yield idxs, neg or factor is None, w
    monkeypatch.setattr(units, "_square_subsets", minus_hits)
    checks = {cid: (ok, detail) for cid, ok, detail in report.verify_pair(13, 3).checks}
    assert checks["wada_q_index"] == (False, "error: ArithmeticError('minus a product of units "
                                              "is a square in Q(sqrt(2),sqrt(13),sqrt(3))')")
    assert checks["cm_fsu"] == (False, "skipped: wada_q_index failed")


def test_a_level_8_subset_reads_error(monkeypatch):
    # the hit of Azizi's search with the fourth root of K+ added: the root
    # of such a product is not among the shapes whose identity is derived
    search = units._square_subsets

    def with_fourth_root(gens, factor=None, known=None):
        for idxs, neg, w in search(gens, factor, known):
            if factor is not None:
                (j,) = [j for j, g in enumerate(gens) if exponent_level([g.quarters]) == 4]
                idxs = tuple(sorted({*idxs, j}))
            yield idxs, neg, w
    monkeypatch.setattr(units, "_square_subsets", with_fourth_root)
    checks = {cid: (ok, detail) for cid, ok, detail in report.verify_pair(13, 3).checks}
    assert checks["wada_q_index"][0]
    ok, detail = checks["cm_fsu"]
    assert not ok and detail.startswith("error: ArithmeticError('a root of a subset of level 4 has")


@pytest.mark.parametrize("p,q", [(13, 3), (5, 11)])
def test_a_known_azizi_root_spares_one_descent_and_changes_nothing_else(monkeypatch, p, q):
    field, real = deg8(p, q)
    cm = FieldBasis((2, p, q, -1))
    u = field.surd(2) + 2
    for g in fsu_biquadratic(2, q).generators:
        u = u * embed_element(g.witness, field)
    w = sqrt_in_field(u)
    roots = []
    sqrt = units.sqrt_in_field
    monkeypatch.setattr(units, "sqrt_in_field", lambda v: roots.append(v) or sqrt(v))
    plain = azizi_extend(real, cm)
    descents = len(roots)
    assert u in roots
    # either sign of the root, or an element that squares to no candidate
    for root, spared in ((w, 1), (-w, 1), (field.surd(2), 0)):
        roots.clear()
        fsu = azizi_extend(real, cm, root)
        assert fsu == plain
        assert len(roots) == descents - spared and (u in roots) == (not spared)


@pytest.mark.parametrize("p,q", [(13, 3), (5, 11)])
def test_a_known_root_of_eps_pq_spares_one_descent_and_changes_nothing_else(monkeypatch, p, q):
    field, plain = deg8(p, q)
    subs = [fsu_biquadratic(2, d) for d in (p, q, p * q)]
    w = quadratic.lemma_decompose(p, q, "pq")
    root = field.element({w.r1: w.u1, w.r2: w.u2}) * (field.surd(2) / 2 if w.doubled else 1)
    assert root * root == embed_element(_base_units(FieldBasis((p * q,)))[p * q], field)
    roots = []
    sqrt = units.sqrt_in_field
    monkeypatch.setattr(units, "sqrt_in_field", lambda v: roots.append(v) or sqrt(v))
    assert wada_fsu(field, subs) == plain
    descents = len(roots)
    # the root, its negative, and twice the root, which squares to no candidate
    for known, spared in ((root, 1), (-root, 1), (2 * root, 0)):
        roots.clear()
        assert wada_fsu(field, subs, known) == plain
        assert len(roots) == descents - spared


@pytest.mark.parametrize("p,q", [(13, 3), (5, 11)])
def test_azizi_extend_sees_two_subsets_when_a_generator_is_squared(p, q):
    # with eps_p replaced by its square, the subset that makes (2+mu)*eps a
    # square makes it one with and without that generator: the search runs
    # through every subset and the second hit raises
    field, fsu = deg8(p, q)
    gens = list(fsu.generators)
    g = gens[1]
    assert g.quarters == {p: 4} and g.torsion_exponent == 0
    gens[1] = UnitExpr(0, {p: 2 * g.quarters[p]}, g.witness * g.witness)
    squared = FsuResult(field, tuple(gens))
    with pytest.raises(Falsified, match="two independent unit subsets"):
        azizi_extend(squared, FieldBasis((2, p, q, -1)))


@pytest.mark.parametrize("make,big", [
    (lambda: deg8(13, 3)[1], (2, 13, 3, -1)),  # zeta24
    (lambda: deg8(5, 11)[1], (2, 5, 11, -1)),  # zeta8
    (lambda: deg8(3181, 3011)[1], (2, 3181, 3011, -1)),
    (lambda: fsu_biquadratic(5, 3), (5, 3, -1)),  # zeta12: xi = i, mu = 0
])
def test_closed_form_twisted_unit_is_the_root_sqrt_in_field_finds(make, big):
    fsu = azizi_extend(make(), FieldBasis(big))
    (g,) = [g for g in fsu.generators if g.torsion_exponent]
    # the twisted unit squares to xi*eps; the descent finds the same sign of its root
    assert sqrt_in_field(g.witness * g.witness) == g.witness
    verify_unit_expr(g)


def test_frame_reads_the_index_and_the_coordinates():
    field, fsu = deg8(5, 11)
    n = len(fsu.generators)
    assert len(fsu.frame) == n and all(len(row) == 2 * n for row in fsu.frame)
    g = [[quarters.get(r, 0) for r in field.radicands[1:]] for quarters in quarters_list(fsu)]
    for row in fsu.frame:
        h, u = row[:n], row[n:]
        assert list(h) == [sum(c * gi[j] for c, gi in zip(u, g)) for j in range(n)]
    assert fsu.q_index_log2 == 6
    # the claims' rows are over the masks of (2, p, q), the columns of the frame
    rows = [claims.unit_rows(tag) for tag in (COND1, COND2)]
    assert fsu.spans([rows[0][name] for name in claims.KPLUS_FSU])
    assert not fsu.spans([rows[1][name] for name in claims.KPLUS_FSU])
    assert fsu.contains(claims.row({"2q": H})) and not fsu.contains(rows[1][claims.F4])
    assert not fsu.contains(claims.row({"2": Fraction(1, 4)}))


def test_a_scan_resolves_the_named_units_once_per_class():
    claims.unit_rows.cache_clear()
    report.scan(60, out=io.StringIO())
    info = claims.unit_rows.cache_info()
    assert info.misses == 2 and info.currsize == 2 and info.hits > 0


def test_one_prime_fields_are_built_once_per_scan():
    def verify(p, q):
        # as scan runs a pair
        line, _, _ = report._scan_pair((p, q))
        return re.sub(r'"elapsed_ms":[-+0-9.eE]+', "", line)

    cache = report._one_prime_fsu
    cache.cache_clear()
    fresh = verify(13, 3)
    cache.cache_clear()
    verify(13, 11)
    assert cache.cache_info().currsize == 2
    # Q(sqrt2, sqrt13) comes from the cache
    again = verify(13, 3)
    info = cache.cache_info()
    assert again == fresh and info.hits == 1 and info.currsize == 3
    # every system is kept: a bound below the q-primes of a scan would thrash
    assert info.maxsize is None
    # and keeps its basis interned: it is the system a fresh build gives, in
    # the same basis
    assert cache(2, 13) == fsu_biquadratic(2, 13)
    assert cache(2, 13).field is FieldBasis((2, 13))


def test_one_prime_systems_are_built_once_over_65_q_primes(monkeypatch):
    """The scan's lookup order, p-major, cycles through the (2, q) systems
    once per p; with 65 q-primes a 64-entry least-recently-used cache
    missed at every one of them."""
    pairs = [(p, q) for p, q in scan_pairs(1619) if p < 30]
    assert len({q for _, q in pairs}) == 65 and len({p for p, _ in pairs}) == 3
    built = collections.Counter()
    pair = None

    def cheap_fsu_biquadratic(d1, d2):
        built[(d1, d2)] += 1
        (field,) = [f for f in claims.BIQUAD_FSU if tuple(claims.value(s, *pair) for s in f) == (d1, d2)]
        return types.SimpleNamespace(q_index_log2=claims.Q_LOG2[field])

    monkeypatch.setattr(report, "fsu_biquadratic", cheap_fsu_biquadratic)
    report._one_prime_fsu.cache_clear()
    try:
        for pair in pairs:
            assert report._check_biquad_fsu_all(*pair, None, None)[0], pair
    finally:
        report._one_prime_fsu.cache_clear()  # drop the stubs
    one_prime = [(2, d) for d in sorted({d for pair in pairs for d in pair})]
    assert [built[key] for key in one_prime] == [1] * 68


def _table_of_5_11_after_13_3():
    """The FSU of K+ of (5, 11) once verify_pair(13, 3), of the same class,
    has filled the frame and plan caches."""
    assert classify_pair(13, 3).tag == classify_pair(5, 11).tag == COND1
    report.verify_pair(13, 3)
    return wada_fsu(FieldBasis((2, 5, 11)), [fsu_biquadratic(2, d) for d in (5, 11, 55)])


def _negate_one_sign(gen, embedding):
    """signs_at_embeddings with the sign of gen at embedding negated."""
    signs = units.signs_at_embeddings

    def tampered(u, masks):
        out = signs(u, masks)
        return [-s if u is gen and j == embedding else s for s, j in zip(out, masks)]
    return tampered


@pytest.mark.parametrize("tamper", [
    # one fixed sign of the table: the plan keeps it, so the plans are
    # cleared for the edit to be read, as for any edit to the claims
    lambda mp, fsu: (mp.setitem(claims.NORM_TABLES[COND1], claims.E2,
                                ((1, {claims.E2: -1}),) + claims.NORM_TABLES[COND1][claims.E2][1:]),
                     clear_claim_caches()),
    # one named unit: the other class's fourth root
    lambda mp, fsu: (mp.setitem(claims.UNITS[COND1], claims.F4, claims.UNITS[COND2][claims.F4]),
                     clear_claim_caches()),
    # the sign of one generator at the all-plus embedding, which every column reads
    lambda mp, fsu: mp.setattr(units, "signs_at_embeddings", _negate_one_sign(fsu.generators[0].witness, 0)),
], ids=["norm_tables_entry", "units_vector", "one_sign"])
def test_cached_plans_and_frames_carry_no_verdict(monkeypatch, tamper):
    fsu = _table_of_5_11_after_13_3()
    rows = norm_table(fsu)
    try:
        with monkeypatch.context() as mp:
            tamper(mp, fsu)
            with pytest.raises(Falsified):
                norm_table(fsu)
    finally:
        clear_claim_caches()
    assert norm_table(fsu) == rows


def test_caches_hold_exact_frames_and_no_field_objects(monkeypatch):
    """Every frame a scan caches is the Hermite normal form of its rows, and
    no key or value of the per-process caches holds a basis or an element."""
    seen = []
    cached = {name: (units, name) for name in ("_hnf", "_norm_plan", "_nonresidues")}
    cached["unit_rows"] = (claims, "unit_rows")
    for name, (module, attr) in cached.items():
        def recorded(*args, _cached=getattr(module, attr), _name=name):
            out = _cached(*args)
            seen.append((_name, args, out))
            return out
        monkeypatch.setattr(module, attr, recorded)
    report.scan(60, out=io.StringIO())
    frames = [(args, out) for name, args, out in seen if name == "_hnf"]
    assert frames and {name for name, _, _ in seen} == set(cached)
    for (rows, k), frame in frames:
        assert frame == tuple(map(tuple, _echelon([list(row) for row in rows], k)))

    def walk(x):
        assert not isinstance(x, (FieldBasis, FieldElement)), x
        if isinstance(x, dict):
            walk(tuple(x.items()))
        if isinstance(x, (tuple, list)):
            for y in x:
                walk(y)
    for _, args, out in seen:
        walk((args, out))


def test_a_basis_keeps_no_roots_of_unity(monkeypatch):
    """The roots of unity are read off the radicands: no basis that a scan
    builds, CM ones included, keeps them."""
    built = []
    build = FieldBasis._build

    def recorded(self, generators):
        build(self, generators)
        built.append(self)
    monkeypatch.setattr(FieldBasis, "_build", recorded)
    report.scan(60, out=io.StringIO())
    assert any(b.is_cm for b in built) and any(b.chars is not None for b in built)
    assert not any(hasattr(b, "torsion") for b in built)


@pytest.mark.parametrize("gens", [(2, 5, 11), (2, 13, 3), (2, 53, 43), (2, 277, 83)])
def test_nonresidue_tables_follow_eulers_criterion(gens):
    for l in _char_data(FieldBasis(gens))[0]:
        table = _nonresidues(l)
        assert len(table) == l
        assert all(table[r] == (pow(r, l >> 1, l) != 1) for r in range(l)), l


@pytest.mark.parametrize("gens", [
    (-1,), (5,), (2, -1), (2, 3), (5, 3, -1), (-3, 5), (2, 5, 11), (6, 35, -7),
    (2, 5, 11, -1), (2, 13, 3, -1), (2, 3, 5, 7),
])
def test_structure_constants_match_the_isqrt_rule(gens):
    """sqrt(r1)*sqrt(r2) = c*sqrt(r3) with c = isqrt(r1*r2/r3), negated when
    both radicands are negative: the rule the gcd form replaced."""
    basis = FieldBasis(gens)
    rads = basis.radicands
    for m1, r1 in enumerate(rads):
        for m2, r2 in enumerate(rads):
            t2, rem = divmod(r1 * r2, rads[m1 ^ m2])
            t = math.isqrt(t2)
            assert rem == 0 and t * t == t2
            assert basis._coef[m1][m2] == (-t if r1 < 0 and r2 < 0 else t), (gens, r1, r2)
