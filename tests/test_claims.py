"""Tests for the claims table: what follows from it alone, and that every
check reads its claim from it."""

import math

import pytest

from mqunits import claims
from mqunits.claims import COND1, COND2, K_2P, K_CM, K_PLUS
from mqunits.classnum import claimed_h2, kuroda_h2
from mqunits.intarith import is_squarefree
from mqunits.quadratic import classify_pair
from mqunits.report import verify_pair

from claim_caches import verify_patched

H = claims.H

# one pair of each condition class; (13, 3) has the zeta24 torsion of q = 3
PAIRS = {COND1: (13, 3), COND2: (13, 11)}


def test_value_resolves_every_symbol():
    assert [claims.value(s, 5, 3) for s in claims.SUBFIELDS] == \
        [-1, 2, -2, 5, -5, 3, -3, 10, -10, 6, -6, 15, -15, 30, -30]
    assert claims.value("1", 5, 3) == 1
    # and the vectors as integer quarters, 4 times each exponent, over the
    # masks of (2, p, q), whose radicands are those of the pair
    rads = claims.radicands(5, 11)
    assert rads == (1, 2, 5, 10, 11, 22, 55, 110)
    f4 = claims.row(claims.UNITS[COND1][claims.F4])
    assert f4 == claims.unit_rows(COND1)[claims.F4] == (0, 2, 0, 0, 1, 1, 1)
    assert {rads[m]: n for m, n in enumerate(f4, 1) if n} == {5: 2, 22: 1, 55: 1, 110: 1}


@pytest.mark.parametrize("tag", [COND1, COND2])
def test_norm_table_shape(tag):
    # report._check_norm_tables counts these; units.norm_table returns only the
    # letters of the two rows with symbolic signs
    table = claims.NORM_TABLES[tag]
    sizes = {label: sum(e is not None for e in row) for label, row in table.items()}
    assert len(table) == 8 and sum(sizes.values()) == 66
    assert all(len(row) == len(claims.NORM_COLUMNS) == 9 for row in table.values())
    assert [label for label, n in sizes.items() if n == 9] == [
        label for label in table if label not in (claims.SP2P, claims.F4)]
    assert sizes[claims.SP2P] == sizes[claims.F4] == 6

    def letters(label):
        return {e[0] for e in table[label] if e is not None and e[0] not in (1, -1)}
    assert letters(claims.SP2P) == {"u", "v"} and letters(claims.F4) == {"r", "s", "t"}
    assert all(letters(label) == set() for label in table if label not in (claims.SP2P, claims.F4))


def test_pell_shapes_leave_no_doubled_product_a_square():
    # lemma_decompose proves x-1 = s*u^2 and x+1 = s'*u'^2 for the predicted
    # shapes s, s' only: s is squarefree, so it is the side's squarefree
    # kernel, and 2*(x+-1) or 2d*(x+-1) would be a square only if s were 2
    # or the squarefree kernel of 2d
    for cls, cases in claims.PELL_CASES.items():
        for tag, (s_minus, s_plus, *_) in cases.items():
            for p, q in PAIRS.values():
                d = claims.value(tag, p, q)
                kernel_2d = 2 * d // math.gcd(2, d) ** 2
                for shape in (s_minus, s_plus):
                    s = claims.value(shape, p, q)
                    assert is_squarefree(s) and s not in (2, kernel_2d), (cls, tag, shape, p, q)


def _formula_over_claims(field, tag, h2_neg_pq=None):
    """kuroda_h2 over the claimed subfield h2 and the claimed unit index of
    field, with h2(-pq) replaced by h2_neg_pq when given."""
    h2 = {s: n for s, (_, n) in claims.H2_CLAIMS[tag].items()}
    if h2_neg_pq is not None:
        h2["-pq"] = h2_neg_pq
    # the unit index of K has one more factor 2 than its lattice index, for the torsion
    return kuroda_h2(field, h2, 2 ** (claims.Q_LOG2[field] + (field == K_CM)))


@pytest.mark.parametrize("tag", [COND1, COND2])
def test_the_formula_checks_follow_from_the_claims(tag):
    # kuroda_deg4 and kuroda_deg8 compare the formula with what it gives over
    # the claims, and the claims alone give h2 = 1 for both fields: a pair
    # whose unit indices and subfield h2 pass their own checks passes these
    assert _formula_over_claims(K_2P, tag) == 1 == claimed_h2(K_2P, tag)
    assert _formula_over_claims(K_PLUS, tag) == 1 == claimed_h2(K_PLUS, tag)
    # over the claims, the degree-16 product is h2(-pq) itself, so kuroda_deg16
    # reads back the value it compares with
    rel, n = claims.H2_CLAIMS[tag]["-pq"]
    if tag == COND2:
        assert (rel, n) == ("==", 2)
        assert _formula_over_claims(K_CM, tag) == 2 == claimed_h2(K_CM, tag)
    else:
        assert (rel, n) == (">=", 4)
        for h2 in (4, 8, 16, 32):
            assert _formula_over_claims(K_CM, tag, h2) == h2


def _other(tag):
    return COND2 if tag == COND1 else COND1


# check id -> a fault that edits one entry of the claims table the check reads
FAULTS = {
    "lemma_q": lambda mp, tag, p, q: mp.setitem(
        claims.PELL_CASES[tag], "q", ("q", "1", "minus", "1", "q", True)),
    "biquad_fsu_all": lambda mp, tag, p, q: mp.setitem(claims.Q_LOG2, ("2", "q"), 1),
    "wada_q_index": lambda mp, tag, p, q: mp.setitem(claims.Q_LOG2, K_PLUS, 5),
    # the other class's fourth root put in the lattice of this one
    "wada_generators": lambda mp, tag, p, q: mp.setitem(
        claims.UNITS[_other(tag)], claims.F4, claims.UNITS[tag][claims.F4]),
    "cm_fsu": lambda mp, tag, p, q: mp.setitem(claims.CM_TORSION, q == 3, "zeta12"),
    "norm_tables": lambda mp, tag, p, q: mp.setitem(
        claims.NORM_TABLES[tag], claims.E2,
        ((1, {claims.E2: -1}),) + claims.NORM_TABLES[tag][claims.E2][1:]),
    "quad_h2_table": lambda mp, tag, p, q: mp.setitem(claims.H2_CLAIMS[tag], "q", ("==", 2)),
    "structures": lambda mp, tag, p, q: mp.setitem(claims.STRUCTURES[tag], "m", ("==", 3)),
}


def assert_fails_exactly(rep, cid, ways=("error:", "skipped:")):
    """cid failed, not in one of the ways given, and every other failed entry
    is a check skipped below it."""
    failed = {c: detail for c, ok, detail in rep.checks if not ok}
    assert not failed[cid].startswith(ways), failed[cid]
    assert all(detail.startswith("skipped: ") for c, detail in failed.items() if c != cid), failed


@pytest.mark.parametrize("tag", [COND1, COND2])
@pytest.mark.parametrize("cid", list(FAULTS))
def test_one_claim_fault_fails_exactly_the_check_that_reads_it(monkeypatch, cid, tag):
    p, q = PAIRS[tag]
    assert classify_pair(p, q).tag == tag
    rep = verify_patched(monkeypatch, lambda mp: FAULTS[cid](mp, tag, p, q), p, q)
    # the check fails by Falsified or by returning False
    assert_fails_exactly(rep, cid)
    assert verify_pair(p, q).passed


@pytest.mark.parametrize("tag", [COND1, COND2])
def test_a_one_prime_system_fault_fails_biquad_fsu_all(monkeypatch, tag):
    # Q(sqrt2, sqrt q) has one system, read by pairs of both classes
    p, q = PAIRS[tag]
    plain = ({"2": 1}, {"q": 1}, {"2q": 1})
    rep = verify_patched(
        monkeypatch, lambda mp: mp.setitem(claims.BIQUAD_FSU, ("2", "q"), plain), p, q)
    # three plain units have index 1: the check returns False, it raises nothing
    assert_fails_exactly(rep, "biquad_fsu_all", ("error:", "skipped:", "falsified:"))
    assert verify_pair(p, q).passed


def test_a_plain_system_in_any_biquad_fsu_leaf_fails_biquad_fsu_all(monkeypatch):
    # a system keyed by class fails on a pair of that class; a one-prime
    # system is read by both classes, so it fails on a pair of each
    faulted = []
    for field, entry in claims.BIQUAD_FSU.items():
        third = "".join(s for s in "2pq" if "".join(field).count(s) % 2)
        plain = tuple({s: 1} for s in (*field, third))
        by_class = isinstance(entry, dict)
        for tag in entry if by_class else (COND1, COND2):
            if by_class:
                fault = lambda mp, entry=entry, tag=tag: mp.setitem(entry, tag, plain)
            else:
                fault = lambda mp, field=field: mp.setitem(claims.BIQUAD_FSU, field, plain)
            rep = verify_patched(monkeypatch, fault, *PAIRS[tag])
            assert_fails_exactly(rep, "biquad_fsu_all", ("error:", "skipped:", "falsified:"))
            faulted.append((field, tag))
    assert len(faulted) == 12
    assert all(verify_pair(*pair).passed for pair in PAIRS.values())


@pytest.mark.parametrize("tag", [COND1, COND2])
def test_a_root_claimed_outside_its_field_fails_biquad_fsu_all(monkeypatch, tag):
    # sqrt(eps_pq) lies in K+ but not in Q(sqrt p, sqrt 2q): the root is the
    # lemma's, and its terms fall outside the four masks of the claimed field
    p, q = PAIRS[tag]
    field = ("p", "2q")
    moved = claims.BIQUAD_FSU[field][tag][:2] + ({"pq": H},)
    rep = verify_patched(monkeypatch, lambda mp: mp.setitem(claims.BIQUAD_FSU[field], tag, moved), p, q)
    detail = {c: d for c, _, d in rep.checks}["biquad_fsu_all"]
    assert detail == (f"falsified: the unit of {{{p * q}: 2}} is claimed in Q(sqrt p, sqrt 2q) "
                      "but lies outside it")
    assert_fails_exactly(rep, "biquad_fsu_all")


@pytest.mark.parametrize("tag", [COND1, COND2])
def test_a_half_exponent_with_no_lemma_root_fails_biquad_fsu_all(monkeypatch, tag):
    # no Pell lemma gives sqrt(eps_p), so a half exponent on p has no root
    p, q = PAIRS[tag]
    field = ("p", "q")
    system = claims.BIQUAD_FSU[field][tag]
    moved = system[:2] + ({"p": H, **{s: e for s, e in system[2].items() if s != "pq"}},)
    rep = verify_patched(monkeypatch, lambda mp: mp.setitem(claims.BIQUAD_FSU[field], tag, moved), p, q)
    detail = {c: d for c, _, d in rep.checks}["biquad_fsu_all"]
    assert detail.startswith(f"falsified: the root of {{{p}: 2") and detail.endswith(
        "claimed in Q(sqrt p, sqrt q) has a factor with no Pell root")
    assert_fails_exactly(rep, "biquad_fsu_all")
