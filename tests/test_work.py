"""Work budgets: what one in-process scan(200) does, counted by wrapping.

Time on a shared host cannot show a change of a few percent, but the work
of a scan is fixed: the same counts under every hash seed and every run.
So each count is pinned here as an upper bound, at its value when the
budget was last lowered; a change that lowers a count lowers its bound,
here and in the table of the README, which a test compares row for row,
and one that raises a count says why.  The per-process caches are cleared
first, so the scan starts as a fresh interpreter does, but for the bases
and class numbers that other tests keep alive, which only lower a count.

Run as a script, the module prints the counts as JSON, for comparing runs
under different hash seeds.
"""

import gc
import io
import json
import os
import re

import pytest

from mqunits import field, forms, quadratic, report, units
from mqunits.field import FieldBasis, FieldElement

from claim_caches import clear_claim_caches

# count -> its upper bound over a cold scan(200)
BUDGETS = {
    "FieldBasis builds": 339,
    "FieldElement builds": 9229,
    "sqrt_in_field calls": 349,
    "sqrt_in_field misses": 0,
    "_char_vector calls": 1560,
    "field._mul calls": 5291,
    "signs_at_embeddings calls": 1441,
    "is_squarefree calls": 1428,
    "distinct class numbers": 727,
    "continued-fraction walks": 651,  # the misses of quadratic._half_period's one-entry memo
}


def _clear_caches() -> None:
    """Empty every per-process cache of the verify path."""
    clear_claim_caches()
    for module in (quadratic, forms, units):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    units._PROVED_ORDERS.clear()
    gc.collect()


def scan_work(monkeypatch) -> dict:
    """The counts of BUDGETS over one scan(200), the caches cleared first."""
    _clear_caches()
    counts = dict.fromkeys(BUDGETS, 0)

    def counted(module, name, key, miss_key=None):
        fn = getattr(module, name)

        def wrapper(*args):
            counts[key] += 1
            out = fn(*args)
            if miss_key is not None and out is None:
                counts[miss_key] += 1
            return out
        monkeypatch.setattr(module, name, wrapper)

    build = FieldBasis._build

    def counted_build(self, generators):
        counts["FieldBasis builds"] += 1
        build(self, generators)
    monkeypatch.setattr(FieldBasis, "_build", counted_build)
    element = FieldElement.__init__

    def counted_element(self, *args):
        counts["FieldElement builds"] += 1
        element(self, *args)
    monkeypatch.setattr(FieldElement, "__init__", counted_element)
    for module in (units, report):
        counted(module, "sqrt_in_field", "sqrt_in_field calls", "sqrt_in_field misses")
    counted(units, "_char_vector", "_char_vector calls")
    counted(field, "_mul", "field._mul calls")
    counted(units, "signs_at_embeddings", "signs_at_embeddings calls")
    for module in (field, forms, quadratic):
        counted(module, "is_squarefree", "is_squarefree calls")
    report.scan(200, out=io.StringIO())
    # every imaginary class number is counted by count_reduced_forms, which
    # class_number_imaginary calls for its h, so its keys are a subset
    counts["distinct class numbers"] = (forms.count_reduced_forms.cache_info().currsize
                                        + forms.class_number_real.cache_info().currsize)
    counts["continued-fraction walks"] = quadratic._half_period.cache_info().misses
    _clear_caches()
    return counts


@pytest.fixture(scope="module")
def work():
    with pytest.MonkeyPatch.context() as mp:
        return scan_work(mp)


@pytest.mark.parametrize("name", BUDGETS)
def test_scan_200_keeps_its_work_budget(work, name):
    assert work[name] <= BUDGETS[name], (name, work[name])


def readme_budgets() -> list:
    """The rows of the README's budget table as (count, bound): the first
    column with its backticks and a closing parenthetical dropped."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = lines.index("| Budget | Bound |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        name, bound = (cell.strip() for cell in line.strip("|").split("|"))
        rows.append((re.sub(r" \(.*\)$", "", name.replace("`", "")), int(bound)))
    return rows


def test_the_readme_lists_every_budget_at_its_bound():
    assert readme_budgets() == list(BUDGETS.items())


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as mp:
        print(json.dumps(scan_work(mp)))
