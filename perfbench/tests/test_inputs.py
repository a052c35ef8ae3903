"""The seeded input generator and the recorded references."""

import inputs
import pytest
import refs
from mqunits.forms import DISCRIMINANT_GUARD

SEEDS = (0, 1, 7, 123456789)


@pytest.mark.parametrize("make", [inputs.wide_inputs, inputs.classnum_inputs])
def test_one_seed_always_gives_the_same_inputs(make):
    for seed in SEEDS:
        assert make(seed, 15) == make(seed, 15)
    assert make(1, 15) != make(2, 15)


def test_sample_size_follows_seconds():
    assert len(inputs.wide_inputs(3, 15)) == 15 * inputs.WIDE_PAIRS_PER_S
    assert len(inputs.classnum_inputs(3, 15)) == 2 * (15 * inputs.CLASSNUM_DISCS_PER_S // 2)


def test_wide_pairs_are_in_the_band_and_recorded():
    recorded = refs.load(refs.REPORTS_PATH)["reports"]
    for seed in SEEDS:
        pairs = inputs.wide_inputs(seed, 15)
        assert len(set(pairs)) == len(pairs)
        for p, q in pairs:
            assert p % 8 == 5 and q % 8 == 3
            assert inputs.is_prime(p) and inputs.is_prime(q)
            assert inputs.WIDE_LO < max(p, q) < inputs.WIDE_HI and p * q < inputs.WIDE_PQ_MAX
            assert refs.pair_key(p, q) in recorded


def test_discriminants_are_fundamental_inside_the_guard_and_recorded():
    recorded = refs.load(refs.CLASSNUM_PATH)
    for seed in SEEDS:
        discs = inputs.classnum_inputs(seed, 15)
        assert len(set(discs)) == len(discs)
        assert any(D < 0 for D in discs) and any(D > 0 for D in discs)
        for D in discs:
            assert inputs.is_fundamental(D)
            assert abs(D) <= DISCRIMINANT_GUARD
            assert str(D) in recorded


def test_fundamental_discriminant_helper():
    assert [D for D in range(-30, 30) if inputs.is_fundamental(D)] == [
        -24, -23, -20, -19, -15, -11, -8, -7, -4, -3, 5, 8, 12, 13, 17, 21, 24, 28, 29]


def test_scan_references_cover_the_scan():
    ref = refs.load(refs.REPORTS_PATH)
    pairs = inputs.scan_pairs(200)
    assert len(pairs) == 156
    assert all(refs.pair_key(p, q) in ref["reports"] for p, q in pairs)
    assert '"pairs_examined":156' in ref["scan200_summary"]
    assert '"failures":[]' in ref["scan200_summary"]


def test_class_number_references_hold_independently():
    table = refs.load(refs.CLASSNUM_PATH)
    for D, h in refs.SPOT_CLASS_NUMBERS.items():
        assert table[str(D)][0] == h
    assert refs.crosscheck_classnum(table) == []
    checked = [D for D in map(int, table) if -refs.ANALYTIC_LIMIT <= D < -4]
    assert len(checked) > 100


def test_analytic_formula_and_kronecker_symbol():
    assert [refs.analytic_class_number(D) for D in (-7, -15, -23, -55, -120, -440)] == \
        [1, 2, 3, 4, 4, 12]
    assert [refs.kronecker(-4, n) for n in range(1, 9)] == [1, 0, -1, 0, 1, 0, -1, 0]
    assert [refs.kronecker(5, n) for n in range(1, 9)] == [1, -1, -1, 1, 0, 1, -1, -1]
