import itertools
import math

import pytest

from mqunits.forms import (
    class_number_imaginary,
    class_number_real,
    compose_forms,
    count_reduced_forms,
    disc_of_radicand,
    is_fundamental_discriminant,
    _enumerate_posdef,
    _principal_form,
    _reduce_posdef,
)
from mqunits.intarith import prime_factors

# Classical class numbers of imaginary quadratic fields, keyed by fundamental
# discriminant.  Standard table values.
KNOWN_IMAGINARY_H = {
    -3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -15: 2, -20: 2, -23: 3, -24: 2,
    -31: 3, -35: 2, -39: 4, -40: 2, -43: 1, -47: 5, -51: 2, -52: 2,
    -55: 4, -56: 4, -59: 3, -67: 1, -84: 4, -120: 4, -163: 1, -440: 12,
}

# Wide class numbers of real quadratic fields, keyed by radicand.
KNOWN_REAL_H = {
    2: 1, 3: 1, 5: 1, 6: 1, 7: 1, 10: 2, 15: 2, 30: 2, 34: 2,
    55: 2, 79: 3, 82: 4, 110: 2,
}


def test_imaginary_known_class_numbers():
    for D, h in KNOWN_IMAGINARY_H.items():
        assert class_number_imaginary(D).h == h, D


def test_imaginary_reduced_forms_minus15():
    assert _enumerate_posdef(-15) == [(1, 1, 4), (2, 1, 2)]


def test_imaginary_structure_examples():
    r = class_number_imaginary(-440)
    assert (r.h, r.h2, r.two_rank) == (12, 4, 2)
    assert r.group_structure == (2, 2, 3)
    r = class_number_imaginary(-39)
    assert (r.h, r.h2, r.two_rank) == (4, 4, 1)
    assert r.group_structure == (4,)
    r = class_number_imaginary(-84)
    assert r.group_structure == (2, 2)
    r = class_number_imaginary(-56)
    assert r.group_structure == (4,)
    r = class_number_imaginary(-120)
    assert (r.group_structure, r.two_rank) == ((2, 2), 2)
    assert class_number_imaginary(-260).group_structure == (2, 4)
    assert class_number_imaginary(-420).group_structure == (2, 2, 2)
    assert class_number_imaginary(-2184).group_structure == (2, 2, 2, 3)


def test_imaginary_structure_product_is_h():
    for D in KNOWN_IMAGINARY_H:
        r = class_number_imaginary(D)
        prod = 1
        for n in r.group_structure:
            prod *= n
        assert prod == r.h


def test_composition_closure_and_identity():
    # -260: (2,4), -420: (2,2,2), -2184: (2,2,2,3)
    for D in (-15, -84, -440, -260, -420, -2184):
        forms = _enumerate_posdef(D)
        group = set(forms)
        e = _principal_form(D)
        assert e in group
        for f1, f2 in itertools.product(forms, repeat=2):
            f12 = compose_forms(f1, f2, D)
            assert f12 in group and f12 == compose_forms(f2, f1, D)
            for f3 in forms:
                assert compose_forms(f12, f3, D) == compose_forms(f1, compose_forms(f2, f3, D), D)
        for f in forms:
            a, b, c = f
            inv = _reduce_posdef(a, -b, c, D)
            assert compose_forms(f, inv, D) == e
            assert compose_forms(f, e, D) == f


def test_genus_theory_two_rank():
    for D in range(-3, -3001, -1):
        if not is_fundamental_discriminant(D):
            continue
        r = class_number_imaginary(D)
        assert r.h == count_reduced_forms(D)
        assert r.two_rank == len(prime_factors(D)) - 1, D
        assert math.prod(r.group_structure) == r.h, D


def test_real_known_class_numbers():
    for d, h in KNOWN_REAL_H.items():
        assert class_number_real(d).h == h, d


def test_real_narrow_equals_wide_for_negative_norm():
    # d=10: norm(eps)=-1, so the rho-cycle count is already the wide number
    from mqunits.forms import _narrow_class_number

    assert _narrow_class_number(40) == 2
    # d=15: norm(eps)=+1, narrow is twice wide
    assert _narrow_class_number(60) == 4


def test_disc_of_radicand():
    assert disc_of_radicand(5) == 5
    assert disc_of_radicand(3) == 12
    assert disc_of_radicand(-1) == -4
    assert disc_of_radicand(-55) == -55
    assert disc_of_radicand(10) == 40
    with pytest.raises(ValueError):
        disc_of_radicand(12)
    with pytest.raises(ValueError):
        disc_of_radicand(1)


def test_is_fundamental_discriminant():
    assert is_fundamental_discriminant(-15)
    assert is_fundamental_discriminant(-20)
    assert is_fundamental_discriminant(40)
    assert not is_fundamental_discriminant(-12)
    assert not is_fundamental_discriminant(-9)
    assert not is_fundamental_discriminant(1)
    assert not is_fundamental_discriminant(25)


def test_bad_inputs_rejected():
    with pytest.raises(ValueError):
        class_number_imaginary(-12)
    with pytest.raises(ValueError):
        count_reduced_forms(-12)
    with pytest.raises(ValueError):
        class_number_imaginary(5)
    with pytest.raises(ValueError):
        class_number_real(12)
    with pytest.raises(ValueError):
        class_number_real(-5)
