import subprocess
import sys
import textwrap

import pytest

from mqunits import claims, classnum, report
from mqunits.claims import K_2P, K_CM, K_PLUS
from mqunits.classnum import (
    KurodaInstance,
    kuroda_h2,
    kuroda_instance,
    predict_structures,
    quadratic_h2,
    subfield_radicands,
)
from mqunits.errors import Falsified
from mqunits.quadratic import classify_pair


DEG8_RADS = (2, 5, 11, 10, 22, 55, 110)


def test_kuroda_known_values():
    inst = KurodaInstance(8, tuple(zip(DEG8_RADS, (1, 1, 1, 2, 1, 2, 2))), 6)
    assert kuroda_h2(inst) == 1

    rads16 = subfield_radicands(5, 3)
    inst = KurodaInstance(16, tuple(zip(rads16, (1, 1, 1, 1, 2, 1, 1, 2, 2, 1, 2, 2, 2, 2, 4))), 8)
    assert kuroda_h2(inst) == 2

    inst = KurodaInstance(4, ((2, 1), (5, 1), (10, 2)), 1)
    assert kuroda_h2(inst) == 1


def test_kuroda_non_integral_is_falsified():
    inst = KurodaInstance(8, tuple(zip(DEG8_RADS, (1, 1, 1, 2, 1, 2, 2))), 5)
    with pytest.raises(Falsified):
        kuroda_h2(inst)


def test_kuroda_instance_validation():
    with pytest.raises(ValueError):
        KurodaInstance(6, (), 0)
    with pytest.raises(ValueError):
        KurodaInstance(8, ((2, 1), (5, 1)), 6)
    with pytest.raises(ValueError, match="not all positive"):
        KurodaInstance(4, ((2, 1), (5, 0), (10, 2)), 3)
    with pytest.raises(ValueError, match="negative"):
        KurodaInstance(4, ((2, 1), (5, 1), (10, 2)), -1)


def test_input_checks_hold_under_python_O():
    # assert statements vanish under python -O; these checks must not
    code = textwrap.dedent("""\
        from mqunits import classnum
        for args in ((4, ((2, 1), (5, 0), (10, 2)), 3), (4, ((2, 1), (5, 1), (10, 2)), -1)):
            try:
                print("accepted", classnum.kuroda_h2(classnum.KurodaInstance(*args)))
            except ValueError:
                print("rejected")
        try:
            print("accepted", classnum.predict_structures(5, 11, "Cond1", 12)["m"])
        except classnum.Falsified:
            print("falsified")
    """)
    res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "rejected\nrejected\nfalsified\n"


def computed_h2(p, q):
    """{symbol: h2} over the 15 subfields, as quad_h2_table passes it on."""
    return {s: quadratic_h2(claims.value(s, p, q)).h2 for s in claims.SUBFIELDS}


def structures(p, q):
    return predict_structures(p, q, classify_pair(p, q).tag, quadratic_h2(-p * q).h2)


def test_instance_builders():
    inst = kuroda_instance(K_PLUS, 5, 11, computed_h2(5, 11), 6)
    assert tuple(h for _, h in inst.subfield_h2) == (1, 1, 1, 2, 1, 2, 2)
    assert kuroda_h2(inst) == 1

    inst = kuroda_instance(K_CM, 5, 3, computed_h2(5, 3), 8)
    assert tuple(h for _, h in inst.subfield_h2) == (1, 1, 1, 1, 2, 1, 1, 2, 2, 1, 2, 2, 2, 2, 4)
    assert kuroda_h2(inst) == 2

    # under Cond1 the degree-16 value reproduces h2(-pq)
    inst = kuroda_instance(K_CM, 5, 11, computed_h2(5, 11), 8)
    assert kuroda_h2(inst) == 4 == quadratic_h2(-55).h2

    inst = kuroda_instance(K_2P, 5, 3, computed_h2(5, 3), 1)
    assert tuple(h for _, h in inst.subfield_h2) == (1, 1, 2)
    assert kuroda_h2(inst) == 1


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
