"""Reference evaluator for the degree-8 norm tables, kept for the tests.

norm_table here checks the predicted table the direct way: it rebuilds every
named unit as an exact field element (square roots normalized positive at
the all-plus embedding), forms each conjugate and each relative norm
u * conjugate(u, mask), and compares it with the evaluated monomial.  It
reads the same claimed tables as mqunits.units.norm_table
(claims.NORM_TABLES), so a test that edits one entry reaches both, but it
builds its units and evaluates its entries without that function.
"""

from fractions import Fraction

from mqunits.claims import (
    E2, E2P, E2PQ, E2Q, EP, EPQ, EQ, F4, NORM_COLUMNS, NORM_TABLES, S2PQ, S2Q, SP2P, SPQ, SQ,
)
from mqunits.errors import Falsified
from mqunits.field import FieldElement, _conjugate, sqrt_in_field
from mqunits.quadratic import COND1, classify_pair
from mqunits.units import FsuResult, _base_units, _norm_pos


def conjugate(u: FieldElement, mask: int) -> FieldElement:
    """The Galois conjugate sending sqrt(g_i) to -sqrt(g_i) for each bit i of mask."""
    return FieldElement(u.basis, *_conjugate((u._num, u._den), mask))


def norm_table(fsu: FsuResult) -> dict:
    """The norm table of fsu.field, every entry evaluated as a field
    element, and {label: {letter: +-1}}, the symbolic signs each row
    resolved.

    A fixed-sign entry must match exactly; a symbolic sign is resolved on
    first use and must stay consistent within its row.  Any mismatch raises
    Falsified.
    """
    field = fsu.field
    ps = [g for g in field.generators if g % 8 == 5]
    qs = [g for g in field.generators if g % 8 == 3]
    if field.is_cm or field.k != 3 or 2 not in field.generators or len(ps) != 1 or len(qs) != 1:
        raise ValueError(f"{field} is not Q(sqrt2, sqrt p, sqrt q) with p = 5, q = 3 (mod 8)")
    p, q = ps[0], qs[0]
    cond = classify_pair(p, q)
    if not cond.is_applicable:
        raise ValueError(f"pair ({p}, {q}) is not applicable: {cond.reason}")

    base = _base_units(field)
    env = {
        E2: base[2], EP: base[p], EQ: base[q], E2P: base[2 * p],
        E2Q: base[2 * q], EPQ: base[p * q], E2PQ: base[2 * p * q],
    }
    by_exps = {frozenset((r, Fraction(n, 4)) for r, n in g.quarters.items()): g.witness
               for g in fsu.generators}

    def materialize(name, exps, square):
        key = frozenset(exps.items())
        if key in by_exps and by_exps[key] * by_exps[key] == square:
            return _norm_pos(by_exps[key])
        w = sqrt_in_field(square)
        if w is None:
            raise Falsified(f"{name} is predicted to exist in {field!r} but its square is not a square")
        return _norm_pos(w)

    H, Q4 = Fraction(1, 2), Fraction(1, 4)
    env[SQ] = materialize(SQ, {q: H}, env[EQ])
    env[S2Q] = materialize(S2Q, {2 * q: H}, env[E2Q])
    env[SPQ] = materialize(SPQ, {p * q: H}, env[EPQ])
    env[S2PQ] = materialize(S2PQ, {2 * p * q: H}, env[E2PQ])
    env[SP2P] = materialize(SP2P, {2: H, p: H, 2 * p: H}, env[E2] * env[EP] * env[E2P])
    if cond.tag == COND1:
        f4_exps = {p: H, 2 * q: Q4, p * q: Q4, 2 * p * q: Q4}
        f4_square = env[EP] * env[S2Q] * env[SPQ] * env[S2PQ]
    else:
        f4_exps = {2: H, p: H, q: Q4, p * q: Q4, 2 * p * q: Q4}
        f4_square = env[E2] * env[EP] * env[SQ] * env[SPQ] * env[S2PQ]
    env[F4] = materialize(F4, f4_exps, f4_square)

    def monomial(mono):
        value = field.one()
        for name, e in mono.items():
            value = value * (env[name] ** e if e >= 0 else env[name].inverse() ** -e)
        return value

    bit = {g: 1 << i for i, g in enumerate(field.generators)}
    t1, t2, t3 = bit[2], bit[p], bit[q]
    masks = dict(zip(NORM_COLUMNS, (t1, t2, t3, t1, t2, t3, t1 | t2, t1 | t3, t2 | t3)))

    rows = {}
    for label, claimed in NORM_TABLES[cond.tag].items():
        w = env[label]
        resolved = rows[label] = {}
        for col, entry in zip(NORM_COLUMNS, claimed):
            if entry is None:
                continue
            computed = conjugate(w, masks[col])
            if not col.startswith("tau"):
                computed = w * computed
            sign, mono = entry
            value = monomial(mono)
            if sign in (1, -1):
                if computed != (value if sign > 0 else -value):
                    raise Falsified(f"norm table mismatch at row {label}, column {col}")
                continue
            if computed == value:
                got = 1
            elif computed == -value:
                got = -1
            else:
                raise Falsified(f"norm table shape mismatch at row {label}, column {col}")
            if resolved.setdefault(sign, got) != got:
                raise Falsified(f"inconsistent sign {sign} in norm table row {label}")
    return rows
