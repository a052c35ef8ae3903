"""Work budgets: what one in-process scan(200) does, counted by wrapping.

Time on a shared host cannot show a change of a few percent, but the work
of a scan is fixed: the same counts under every hash seed and every run.
So each count is pinned here as an upper bound, at its value when the
budget was last lowered; a change that lowers a count lowers its bound,
and one that raises a count says why.  The per-process caches are cleared
first, so the scan starts as a fresh interpreter does, but for the bases
and class numbers that other tests keep alive, which only lower a count.

Run as a script, the module prints the counts as JSON, for comparing runs
under different hash seeds.
"""

import gc
import io
import json

import pytest

from mqunits import field, forms, quadratic, report, units
from mqunits.field import FieldBasis

from claim_caches import clear_claim_caches

# count -> its upper bound over a cold scan(200)
BUDGETS = {
    "FieldBasis builds": 339,
    "sqrt_in_field calls": 351,
    "sqrt_in_field misses": 2,
    "_char_vector calls": 1560,
    "field._mul calls": 5301,
    "signs_at_embeddings calls": 1441,
    "is_squarefree calls": 1428,
    "distinct class numbers": 363,
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
    for module in (units, report):
        counted(module, "sqrt_in_field", "sqrt_in_field calls", "sqrt_in_field misses")
    counted(units, "_char_vector", "_char_vector calls")
    counted(field, "_mul", "field._mul calls")
    counted(units, "signs_at_embeddings", "signs_at_embeddings calls")
    for module in (field, forms, quadratic):
        counted(module, "is_squarefree", "is_squarefree calls")
    report.scan(200, out=io.StringIO())
    counts["distinct class numbers"] = (forms.class_number_imaginary.cache_info().currsize
                                        + forms.class_number_real.cache_info().currsize)
    _clear_caches()
    return counts


@pytest.fixture(scope="module")
def work():
    with pytest.MonkeyPatch.context() as mp:
        return scan_work(mp)


@pytest.mark.parametrize("name", BUDGETS)
def test_scan_200_keeps_its_work_budget(work, name):
    assert work[name] <= BUDGETS[name], (name, work[name])


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as mp:
        print(json.dumps(scan_work(mp)))
