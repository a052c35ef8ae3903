import subprocess
import sys
import textwrap

import pytest

from mqunits import claims, classnum, report
from mqunits.claims import K_2P, K_CM, K_PLUS
from mqunits.classnum import (
    kuroda_h2,
    predict_structures,
    quadratic_h2,
    subfield_radicands,
)
from mqunits.errors import Falsified
from mqunits.quadratic import classify_pair
from mqunits.units import unit_index

from battery import battery_systems


def h2_of(field, values):
    """{symbol: h2} over the subfields of field, in claims.KURODA_FIELDS order."""
    return dict(zip(claims.KURODA_FIELDS[field], values))


def test_kuroda_known_values():
    # K+ of (5, 11): subfields 2, 5, 11, 10, 22, 55, 110
    assert kuroda_h2(K_PLUS, h2_of(K_PLUS, (1, 1, 1, 2, 1, 2, 2)), 2 ** 6) == 1
    # K of (5, 3), unit index 2^8 with the torsion
    assert kuroda_h2(K_CM, h2_of(K_CM, (1, 1, 1, 1, 2, 1, 1, 2, 2, 1, 2, 2, 2, 2, 4)), 2 ** 8) == 2
    # Q(sqrt2, sqrt5): subfields 2, 5, 10
    assert kuroda_h2(K_2P, h2_of(K_2P, (1, 1, 2)), 2) == 1


def test_kuroda_non_integral_is_falsified():
    with pytest.raises(Falsified) as err:
        kuroda_h2(K_PLUS, h2_of(K_PLUS, (1, 1, 1, 2, 1, 2, 2)), 2 ** 5)
    assert str(err.value) == \
        "class number formula gives 256/512 for the degree-8 field, which is not an integer"


def test_input_checks_hold_under_python_O():
    # assert statements vanish under python -O; these checks must not
    code = textwrap.dedent("""\
        from mqunits import classnum
        try:
            print("accepted", classnum.predict_structures(5, 11, "Cond1", 12)["m"])
        except classnum.Falsified:
            print("falsified")
    """)
    res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "falsified\n"


def computed_h2(p, q):
    """{symbol: h2} over the 15 subfields, as quad_h2_table passes it on."""
    return {s: quadratic_h2(claims.value(s, p, q)).h2 for s in claims.SUBFIELDS}


def structures(p, q):
    return predict_structures(p, q, classify_pair(p, q).tag, quadratic_h2(-p * q).h2)


def battery_fsus(p, q):
    """The FSUs of Q(sqrt2, sqrt p), K+ and K, built as the battery builds
    them (battery_systems)."""
    systems, fsu, cm = battery_systems(p, q)
    return {K_2P: systems[0], K_PLUS: fsu, K_CM: cm}


def test_instance_builders():
    # the formula over the computed table and the unit indices of the built FSUs
    fsus = battery_fsus(5, 11)
    h2 = computed_h2(5, 11)
    assert [h2[s] for s in claims.KURODA_FIELDS[K_PLUS]] == [1, 1, 1, 2, 1, 2, 2]
    assert kuroda_h2(K_PLUS, h2, unit_index(fsus[K_PLUS])) == 1
    # under Cond1 the degree-16 value reproduces h2(-pq)
    assert kuroda_h2(K_CM, h2, unit_index(fsus[K_CM])) == 4 == quadratic_h2(-55).h2

    fsus = battery_fsus(5, 3)
    h2 = computed_h2(5, 3)
    assert list(h2.values()) == [1, 1, 1, 1, 2, 1, 1, 2, 2, 1, 2, 2, 2, 2, 4]
    assert kuroda_h2(K_CM, h2, unit_index(fsus[K_CM])) == 2
    assert [h2[s] for s in claims.KURODA_FIELDS[K_2P]] == [1, 1, 2]
    assert kuroda_h2(K_2P, h2, unit_index(fsus[K_2P])) == 1


@pytest.mark.parametrize("p,q", [(13, 3), (13, 11)])
def test_the_unit_index_and_the_claims_count_the_cm_factor_alike(p, q):
    # units.unit_index adds the torsion factor of K, and claimed_h2 adds it
    # to the lattice index that claims.Q_LOG2 stores: the two must agree
    fsus = battery_fsus(p, q)
    indices = {field: unit_index(fsu) for field, fsu in fsus.items()}
    assert indices == {K_2P: 2, K_PLUS: 64, K_CM: 256}
    assert indices == {field: 2 ** (claims.Q_LOG2[field] + ("-1" in field)) for field in fsus}
    h2 = computed_h2(p, q)
    assert report.verify_pair(p, q).kuroda_results == {
        "h2_Kplus": kuroda_h2(K_PLUS, h2, indices[K_PLUS]),
        "h2_K": kuroda_h2(K_CM, h2, indices[K_CM]),
    }


@pytest.mark.parametrize("p,q", [(5, 11), (5, 3), (13, 3), (13, 11)])
def test_crosscheck_all_pass(p, q):
    # quad_h2_table cross-checks the 15 computed values with the claims
    cond = classify_pair(p, q)
    rep = report.PairReport(p, q, {"tag": cond.tag, "reason": cond.reason})
    ok, detail, h2 = report._check_quad_h2_table(p, q, cond, rep)
    assert ok, detail
    assert h2 == computed_h2(p, q) and list(h2) == list(claims.SUBFIELDS)
    assert [row["h2"] for row in rep.h2_table] == list(h2.values())


@pytest.mark.parametrize("p,q", [(13, 3), (5, 11)])
def test_verify_pair_computes_each_subfield_class_number_once(monkeypatch, p, q):
    calls = []
    original = classnum.quadratic_h2

    def counting(r):
        calls.append(r)
        return original(r)

    # every module that imported quadratic_h2 holds a binding of its own
    bound = [mod for name, mod in sys.modules.items()
             if name.partition(".")[0] == "mqunits" and getattr(mod, "quadratic_h2", None) is original]
    assert classnum in bound and report in bound
    for mod in bound:
        monkeypatch.setattr(mod, "quadratic_h2", counting)
    assert report.verify_pair(p, q).passed
    assert len(calls) == 15 and sorted(calls) == sorted(subfield_radicands(p, q))


def test_spot_class_numbers():
    assert quadratic_h2(-30).h == 4
    assert quadratic_h2(-110).h == 12
    assert quadratic_h2(-110).h2 == 4
    assert quadratic_h2(55).h == 2


def test_predict_structures_cond1():
    rep = structures(5, 11)
    assert rep["m"] == 2
    assert rep["cl2_genus_base"] == "(2,2)"
    assert rep["cl2_L"] == 8
    assert rep["cl2_F"] == rep["cl2_K"] == "(2,2)"
    assert rep["gal_F2"] == "Q_3"
    assert rep["gal_k2"] == "Q_4"
    assert rep["h2_Ln"] == "2^(n+1)"
    assert rep["h2_Ln_plus"] == 1
    assert rep["iwasawa"] == [1, 1]
    # order of Q_{m+1} is twice h2(-pq)
    assert 2 ** (rep["m"] + 1) == 2 * quadratic_h2(-55).h2


def test_predict_structures_cond2():
    rep = structures(5, 3)
    assert rep["m"] == 1
    assert rep["cl2_L"] == 4
    assert rep["cl2_F"] == rep["cl2_K"] == "Z/4"
    assert rep["gal_F2"] == "Z/4"
    assert rep["gal_k2"] == "Q_3"
    assert rep["iwasawa"] == [1, 0]
    assert rep["h2_Ln"] == "2^n"

    rep = structures(13, 11)
    assert rep["m"] == 1 and rep["gal_F2"] == "Z/4"


def test_predict_structures_cond1_larger():
    rep = structures(13, 3)
    assert rep["m"] == 2 and rep["gal_F2"] == "Q_3"


def test_predict_structures_rejects_an_h2_that_is_not_a_power_of_2():
    with pytest.raises(Falsified, match="not a power of 2"):
        predict_structures(5, 11, "Cond1", 12)


def test_predict_structures_rejects_inapplicable():
    # an inapplicable pair has a tag that STRUCTURES does not know
    with pytest.raises(ValueError, match="no structures are claimed"):
        predict_structures(5, 7, classify_pair(5, 7).tag, 2)
