"""The public names: what the package exports and what the README lists,
what importing it loads, and what its record classes promise."""

import copy
import functools
import os
import pathlib
import pickle
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import mqunits
from mqunits.field import FieldBasis
from mqunits.forms import ClassNumberReport
from mqunits.quadratic import ConditionClass, DecompositionWitness, QuadraticUnit
from mqunits.report import PairReport, ScanSummary
from mqunits.units import FsuResult, UnitExpr, fsu_quadratic

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def resolves(name):
    """Whether name, dotted or not, is mqunits or an attribute path on it."""
    path = name.split(".")
    if path[0] == "mqunits":
        path = path[1:]
    try:
        functools.reduce(getattr, path, mqunits)
    except AttributeError:
        return False
    return True


def test_every_exported_name_resolves():
    assert [name for name in mqunits.__all__ if not hasattr(mqunits, name)] == []


def test_every_name_of_the_readme_library_section_resolves():
    text = README.read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    section = re.sub(r"```.*?```", "", section, flags=re.S)
    names = re.findall(r"`([^`]+)`", section)
    assert "kuroda_h2" in names and "verify_pair" in names
    assert [name for name in names if not resolves(name)] == []


def test_import_loads_no_code_generation_and_no_deferred_module():
    # -S: no site-packages .pth file imports anything first; mqunits needs the
    # standard library only.  tempfile and hashlib wait for a cached scan, the
    # process pool for --jobs above 1.
    code = "\n".join([
        "import sys",
        "unwanted = {'dataclasses', 'inspect', 'ast', 'dis', 'tempfile', 'hashlib', 'concurrent.futures'}",
        "import mqunits",
        "print(sorted(unwanted & set(sys.modules)))",
        "import mqunits.cli",
        "print(sorted(unwanted & set(sys.modules)))",
    ])
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    res = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n[]\n"


def _records():
    """(class, field names in constructor order, values, a change of one compared field)."""
    unit = QuadraticUnit(2, 1, 1, 1, -1)
    fsu = fsu_quadratic(5)
    (gen,) = fsu.generators
    cond = {"tag": "Cond1", "reason": "r"}
    return [pytest.param(*case, id=case[0].__name__) for case in [
        (ClassNumberReport, ("discriminant", "h", "h2", "two_rank", "group_structure"),
         (-20, 2, 2, 1, (2,)), {"h": 4}),
        (QuadraticUnit, ("d", "x", "y", "denom", "norm"), (2, 1, 1, 1, -1), {"x": 3, "y": 2, "norm": 1}),
        (ConditionClass, ("tag", "reason"), ("Cond1", "r"), {"tag": "Cond2"}),
        (DecompositionWitness, ("radicand_tag", "case_id", "u1", "u2", "r1", "r2", "doubled", "unit"),
         ("2q", "c", 1, 1, 2, 3, True, unit), {"doubled": False}),
        (PairReport, ("p", "q", "condition", "lemma_witnesses", "fsu_real", "fsu_cm", "q_indices",
                      "h2_table", "kuroda_results", "structures", "checks", "elapsed_ms"),
         (13, 3, cond, [], None, None, None, None, None, None, [], 1.5), {"checks": [["c", True, ""]]}),
        (ScanSummary, ("range", "pairs_examined", "cond1_count", "cond2_count", "failures"),
         ([1, 30], 4, 2, 2, []), {"failures": [[13, 3, "c"]]}),
        (UnitExpr, ("torsion_exponent", "quarters", "witness"),
         (gen.torsion_exponent, gen.quarters, gen.witness), {"torsion_exponent": 1}),
        (FsuResult, ("field", "generators"), (fsu.field, fsu.generators), {"field": FieldBasis((5, -1))}),
    ]]


@pytest.mark.parametrize("cls, names, values, change", _records())
def test_records_compare_by_value(cls, names, values, change):
    a = cls(*values)
    assert a == cls(**dict(zip(names, values)))
    assert [getattr(a, n) for n in names] == list(values)
    assert a != cls(**{**dict(zip(names, values)), **change})
    if cls is PairReport:
        assert a == PairReport(*values[:-1], elapsed_ms=2.5)
        fresh, other = PairReport(13, 3, {}), PairReport(13, 3, {})
        assert fresh.checks == [] and fresh.checks is not other.checks
    if cls is FsuResult:
        b = cls(*values)
        b.frame = ()
        assert a == b and a.q_index_log2 == 0
        # the torsion is derived from the field
        assert a.torsion == "-1" and FsuResult(FieldBasis((5, -1)), values[1]).torsion == "zeta4"
    if cls in (ClassNumberReport, QuadraticUnit, ConditionClass, DecompositionWitness):
        assert hash(a) == hash(cls(*values))
        with pytest.raises(AttributeError):
            setattr(a, names[0], values[0])
        assert pickle.loads(pickle.dumps(a)) == a == copy.copy(a)
    else:
        with pytest.raises(TypeError):
            hash(a)
