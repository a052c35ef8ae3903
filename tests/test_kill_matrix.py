"""The kill matrix, seeded: one fault at a time in the claims or in the
class-number code, run through the battery on eight pairs of the two
condition classes, with every per-process cache cleared around it as
tests/test_work.py clears them, so that no fault reads a value cached
before it or leaves one behind.

A fault is killed when a check fails on every pair.  A fault that still
leaves all 16 checks green on every pair is pinned as a strict xfail that
names the ROADMAP item meant to kill it: once that item lands, the xfail
passes, which fails the suite, and the fault moves to KILLED.
"""

import pytest

from mqunits import claims, classnum, report
from mqunits.claims import COND1, COND2
from mqunits.forms import ClassNumberReport

from test_work import _clear_caches

# the pairs of ROADMAP item 2: five of Cond1 and three of Cond2, the
# zeta24 torsion of q = 3 in both
PAIRS = ((13, 3), (5, 11), (37, 11), (53, 43), (61, 19), (13, 11), (29, 3), (5, 3))


def _real_h_times(k):
    """class_number_real with h multiplied by k and h2 read off the product."""
    def fault(mp):
        real = classnum.class_number_real

        def scaled(d):
            r = real(d)
            return ClassNumberReport(r.discriminant, k * r.h, k * r.h & -(k * r.h))
        mp.setattr(classnum, "class_number_real", scaled)
    return fault


def _index_raised(field):
    """Q_LOG2 of field claimed one higher than the system gives."""
    return lambda mp: mp.setitem(claims.Q_LOG2, field, claims.Q_LOG2[field] + 1)


def _under_claim(field, plain):
    """The square root of the system of field replaced by the plain unit
    plain in both classes, as Q_LOG2 is shared, with the index lowered to
    match: a system that is not maximal, claimed consistently."""
    def fault(mp):
        for tag in (COND1, COND2):
            mp.setitem(claims.BIQUAD_FSU[field], tag, claims.BIQUAD_FSU[field][tag][:2] + (plain,))
        mp.setitem(claims.Q_LOG2, field, 0)
    return fault


def _towers_swapped(mp):
    """The tower groups of STRUCTURES swapped between the classes."""
    one, two = claims.STRUCTURES[COND1], claims.STRUCTURES[COND2]
    for key in ("cl2_tower", "gal_F2"):
        a, b = one[key], two[key]
        mp.setitem(one, key, b)
        mp.setitem(two, key, a)


KILLED = {
    "class_number_real with h doubled": _real_h_times(2),
    "the index of Q(sqrt2, sqrt p) claimed one higher": _index_raised(claims.K_2P),
    "the index of Q(sqrt2, sqrt q) claimed one higher": _index_raised(("2", "q")),
    "the index of Q(sqrt p, sqrt q) claimed one higher": _index_raised(("p", "q")),
}

# fault -> (the fault, the ROADMAP item meant to kill it)
SURVIVORS = {
    "class_number_real with h tripled": (_real_h_times(3), "item 4, second legs for every class-number claim"),
    "STRUCTURES cl2_tower and gal_F2 swapped": (_towers_swapped, "item 5, the tower claims from computed values"),
    "the (p, q) under-claim": (_under_claim(("p", "q"), {"pq": 1}), "item 3, each system maximal in its field"),
    "the (2, pq) under-claim": (_under_claim(("2", "pq"), {"2pq": 1}), "item 3, each system maximal in its field"),
}


def _run(monkeypatch, fault) -> list:
    """The reports of PAIRS under the fault."""
    try:
        with monkeypatch.context() as mp:
            fault(mp)
            _clear_caches()
            return [report.verify_pair(p, q) for p, q in PAIRS]
    finally:
        _clear_caches()


@pytest.mark.parametrize("name", KILLED)
def test_a_fault_fails_a_check_on_every_pair(monkeypatch, name):
    reports = _run(monkeypatch, KILLED[name])
    assert not any(rep.passed for rep in reports), name
    assert all(report.verify_pair(p, q).passed for p, q in PAIRS)


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"ROADMAP {item}"))
    for name, (_, item) in SURVIVORS.items()])
def test_a_surviving_fault_fails_a_check(monkeypatch, name):
    clean = [report.verify_pair(p, q) for p, q in PAIRS]
    reports = _run(monkeypatch, SURVIVORS[name][0])
    if reports == clean:  # not an AssertionError, which the xfail would take
        pytest.fail(f"{name} does not reach the reports")
    assert not all(rep.passed for rep in reports), name
