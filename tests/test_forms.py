import itertools
import math
import os
import subprocess
import sys
import textwrap

import pytest

from mqunits import forms, quadratic
from mqunits.classnum import quadratic_h2
from mqunits.forms import (
    DISCRIMINANT_GUARD,
    class_number_imaginary,
    class_number_real,
    compose_forms,
    count_reduced_forms,
    disc_of_radicand,
    is_fundamental_discriminant,
    _drain,
    _enumerate_indefinite,
    _enumerate_posdef,
    _group_structure,
    _narrow_class_number,
    _prime_forms,
    _principal_form,
    _reduce_posdef,
    _rho,
    _sqrt_table,
)
from mqunits.intarith import is_squarefree, prime_factors


# Oracles: the former O(|D|) enumerations, which loop over b and then over
# trial divisors of (|D| - b^2)/4, and the former group structure, which
# raises every form to every power l^j.


def oracle_enumerate_posdef(D):
    forms = []
    b = D % 2
    while 3 * b * b <= -D:
        m = (b * b - D) // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                c = m // a
                if math.gcd(a, math.gcd(b, c)) == 1:
                    forms.append((a, b, c))
                    if 0 < b < a < c:
                        forms.append((a, -b, c))
            a += 1
        b += 2
    return sorted(forms)


def oracle_enumerate_indefinite(D):
    """Reduced indefinite forms: |sqrt(D) - 2|a|| < b < sqrt(D), exact via isqrt."""
    s = math.isqrt(D)
    forms = []
    b = 2 - (D % 2)
    while b <= s:
        m = (D - b * b) // 4
        e = 1
        while e * e <= m:
            if m % e == 0:
                for aa in {e, m // e}:
                    if 2 * aa + b >= s + 1 and 2 * aa - b <= s:
                        c = -(m // aa)
                        forms.append((aa, b, c))
                        forms.append((-aa, b, -c))
            e += 1
        b += 2
    return sorted(forms)


def oracle_cycles(D):
    """The rho cycles, as sets, walked over the reduced forms of both signs."""
    s = math.isqrt(D)
    remaining = set(oracle_enumerate_indefinite(D))
    cycles = []
    while remaining:
        f = start = min(remaining)
        cycle = set()
        while True:
            remaining.remove(f)
            cycle.add(f)
            f = _rho(f, D, s)
            if f == start:
                break
        cycles.append(frozenset(cycle))
    return cycles


def oracle_narrow_class_number(D):
    """The rho cycles counted over the reduced forms of both signs."""
    return len(oracle_cycles(D))


# The group K acting on reduced indefinite forms: nu commutes with rho,
# sigma and nu*sigma reverse it.
K_ACTION = {
    "1": lambda f: f,
    "nu": lambda f: (-f[0], f[1], -f[2]),
    "sigma": lambda f: (f[2], f[1], f[0]),
    "nu*sigma": lambda f: (-f[2], f[1], -f[0]),
}


def oracle_stabilizers(D):
    """The stabilizers in K of the rho cycles of D, each as a set of names."""
    cycles = oracle_cycles(D)
    cycle_of = {f: C for C in cycles for f in C}
    return {frozenset(k for k, act in K_ACTION.items() if cycle_of[act(min(C))] == C) for C in cycles}


def oracle_principal_cycle_is_shared(D):
    """Whether (-1, b0, -c0) lies on the rho cycle of the principal form,
    walked through the oracle's reduced forms."""
    s = math.isqrt(D)
    b0 = s - (s - D) % 2
    reduced = set(oracle_enumerate_indefinite(D))
    f = principal = (1, b0, (b0 * b0 - D) // 4)
    shared = False
    while True:
        assert f in reduced, (D, f)
        shared |= f == (-1, b0, -principal[2])
        f = _rho(f, D, s)
        if f == principal:
            return shared


def oracle_form_pow(f, n, D):
    result = _principal_form(D)
    base = f
    while n:
        if n & 1:
            result = compose_forms(result, base, D)
        base = compose_forms(base, base, D)
        n >>= 1
    return result


def oracle_group_structure(forms, D):
    """Primary cyclic decomposition from counts of l^j-torsion elements."""
    h = len(forms)
    e = _principal_form(D)
    structure = []
    for l in prime_factors(h):
        exp = 0
        hh = h
        while hh % l == 0:
            hh //= l
            exp += 1
        counts = [1]
        for j in range(1, exp + 1):
            nj = sum(1 for f in forms if oracle_form_pow(f, l**j, D) == e)
            counts.append(nj)
        t = []
        for j in range(1, exp + 1):
            assert counts[j] % counts[j - 1] == 0
            ratio = counts[j] // counts[j - 1]
            tj = 0
            while ratio > 1:
                assert ratio % l == 0
                ratio //= l
                tj += 1
            t.append(tj)
        t.append(0)
        for j in range(1, exp + 1):
            structure.extend([l**j] * (t[j - 1] - t[j]))
    assert math.prod(structure) == h
    return tuple(sorted(structure))


def assert_matches_oracle(D):
    if D < 0:
        forms = oracle_enumerate_posdef(D)
        assert sorted(_enumerate_posdef(D)) == forms, D
        h = count_reduced_forms(D)
        assert h == len(forms), D
        assert _group_structure(h, D) == oracle_group_structure(forms, D), D
    else:
        # c = (b*b - D)/(4a) follows from a and b, so (a, b) pairs lose nothing
        half = math.isqrt(D) // 2
        want = [(a, b) for a, b, _ in oracle_enumerate_indefinite(D) if 0 < a <= half]
        assert sorted(_enumerate_indefinite(D)) == want, D
        assert _narrow_class_number(D) == (oracle_narrow_class_number(D),
                                           oracle_principal_cycle_is_shared(D)), D


def test_enumerations_match_oracle_small():
    for n in range(3, 5001):
        for D in (n, -n):
            if is_fundamental_discriminant(D):
                assert_matches_oracle(D)


# Drawn log-uniformly from [10^6, 3*10^7] with random.Random(20200419),
# alternating signs, keeping fundamental discriminants.
LARGE_DISCRIMINANTS = (-3639156, 7183013, -12291195, 6678829, -1310983, 16830440, -2491336, 1010012)


def test_enumerations_match_oracle_large():
    for D in LARGE_DISCRIMINANTS:
        assert is_fundamental_discriminant(D)
        assert_matches_oracle(D)


def test_narrow_class_number_matches_oracle_below_20000():
    checked = 0
    for D in range(5, 20000):
        if is_fundamental_discriminant(D):
            assert _narrow_class_number(D) == (oracle_narrow_class_number(D),
                                               oracle_principal_cycle_is_shared(D)), D
            checked += 1
    assert checked == 6081


# The first fundamental discriminant whose rho cycles reach each stabilizer
# type of the orbit walk: |H| = 4, 2, 2, 2 and 1 give orbits of 1, 2, 2, 2
# and 4 cycles.
STABILIZER_TYPES = {
    5: {"1", "nu", "sigma", "nu*sigma"},
    12: {"1", "sigma"},
    136: {"1", "nu*sigma"},
    145: {"1", "nu"},
    316: {"1"},
}


@pytest.mark.parametrize("D", list(STABILIZER_TYPES))
def test_each_stabilizer_type_is_reached_and_counted(D):
    stabilizer = frozenset(STABILIZER_TYPES[D])
    assert stabilizer in oracle_stabilizers(D)
    assert not any(stabilizer in oracle_stabilizers(E) for E in range(5, D) if is_fundamental_discriminant(E))
    assert _narrow_class_number(D) == (oracle_narrow_class_number(D), oracle_principal_cycle_is_shared(D))


def test_every_rho_cycle_holds_a_half_width_form():
    for D in range(3, 5001):
        if not is_fundamental_discriminant(D):
            continue
        s = math.isqrt(D)
        remaining = set(oracle_enumerate_indefinite(D))
        while remaining:
            f = start = min(remaining)
            small = False
            while True:
                remaining.remove(f)
                small |= abs(f[0]) <= s // 2
                f = _rho(f, D, s)
                if f == start:
                    break
            assert small, (D, start)


def test_sqrt_table_matches_brute_force():
    # 856, 421, -164 and -131 have roots mod 9, 25, 27, 49 and 121
    odd_squares = {9, 25, 27, 49, 121}
    covered = set()
    for D in (-3, -4, -8, -15, -20, -84, -131, -164, -3896, -4547,
              5, 8, 12, 40, 60, 105, 421, 856, 1020):
        A = 300
        pairs = list(_sqrt_table(D, A))
        table = dict(pairs)
        assert len(table) == len(pairs) and set(table) <= set(range(1, A + 1))
        assert all(table.values()), D
        covered |= odd_squares & set(table)
        for a in range(1, A + 1):
            want = [b for b in range(2 * a) if (b * b - D) % (4 * a) == 0]
            assert sorted(table.get(a, ())) == want, (D, a)
    assert covered == odd_squares


def test_sqrt_table_counts_the_roots_up_to_lo_and_lists_the_rest():
    for D in (-3, -4, -15, -84, -131, -3896, 5, 8, 105, 421, 856, 1020):
        A = 200
        brute = {a: [b for b in range(2 * a) if (b * b - D) % (4 * a) == 0] for a in range(1, A + 1)}
        for lo in (0, 1, 2, 37, 150, A):
            count, listed = _drain(_sqrt_table(D, A, lo))
            assert count == sum(len(brute[a]) for a in range(1, lo + 1)), (D, lo)
            assert sorted((a, sorted(roots)) for a, roots in listed) == [
                (a, roots) for a, roots in brute.items() if a > lo and roots], (D, lo)


def _merging_rho(D):
    """rho, except that every form off the principal cycle is sent into it."""
    s = math.isqrt(D)
    b0 = s - (s - D) % 2
    f = principal = (1, b0, (b0 * b0 - D) // 4)
    cycle = set()
    while f not in cycle:
        cycle.add(f)
        f = _rho(f, D, s)
    return lambda f, D, s: _rho(f if f in cycle else principal, D, s)


# norm(eps) = -1 for D = 40; +1 for D = 60 and 1010012 (radicand 3 mod 4).
# One walk per pair of cycles C, nu C took 8, 4 and 304 rho calls here.
RHO_CALLS = {40: 6, 60: 6, 1010012: 154}


@pytest.mark.parametrize("D", [40, 60, 1010012])
def test_one_walk_for_each_pair_of_cycles(monkeypatch, D):
    calls = []

    def counted(f, D, s):
        calls.append(f)
        return _rho(f, D, s)

    monkeypatch.setattr(forms, "_rho", counted)
    cycles, shared = _narrow_class_number(D)
    assert shared == (D == 40)
    reduced = oracle_enumerate_indefinite(D)
    positive = {f for f in reduced if f[0] > 0}
    # every rho call is on a reduced form, and no a > 0 form is walked twice
    walked = [f for f in calls if f[0] > 0]
    assert set(calls) <= set(reduced) and len(walked) == len(set(walked))
    # the K-orbits of the walked forms hold every a > 0 form, each once
    keyed = {}
    for a, b, c in calls:
        x, y = abs(a), abs(c)
        keyed[min(x, y), b] = {(x, b, -y), (y, b, -x)}
    members = [f for orbit in keyed.values() for f in orbit]
    assert sorted(members) == sorted(positive)
    # about half the calls of one walk per pair C, nu C
    pair_walks = len(reduced) if shared else len(reduced) // 2
    assert len(calls) == RHO_CALLS[D] <= pair_walks // 2 + 2 * cycles


def _cross_rho(D, kind):
    """rho, except that one odd step leaves its cycle for another one.

    "merge": the principal form steps into the cycle -C of its own cycle C,
    and a form of -C steps back, so C and -C make one cycle that disagrees
    with every other pair.  "detour": a form of another cycle steps to the
    negated principal form (-1, b0, -c0), whose negation was already seen,
    and then returns to its own cycle.
    """
    s = math.isqrt(D)
    b0 = s - (s - D) % 2
    principal = (1, b0, (b0 * b0 - D) // 4)
    neg = lambda f: (-f[0], f[1], -f[2])
    if kind == "merge":
        other = neg(_rho(principal, D, s))
        swap = {principal: _rho(other, D, s), other: _rho(principal, D, s)}
    else:
        own, f = {principal, neg(principal)}, _rho(principal, D, s)
        while f != principal:
            own |= {f, neg(f)}
            f = _rho(f, D, s)
        f = min(f for f in oracle_enumerate_indefinite(D) if f[0] > 0 and f not in own)
        swap = {f: neg(principal), neg(principal): _rho(_rho(f, D, s), D, s)}
    return lambda f, D, s: swap[f] if f in swap else _rho(f, D, s)


@pytest.mark.parametrize("kind, message", [("merge", "disagrees"), ("detour", "another orbit")])
def test_rho_that_crosses_cycles_raises(monkeypatch, kind, message):
    monkeypatch.setattr(forms, "_rho", _cross_rho(60, kind))
    with pytest.raises(ArithmeticError, match=message):
        _narrow_class_number(60)


def _off_discriminant_rho(f, D, s):
    """rho read off (a, b) alone, whose forms led by a < 0 carry c + 1:
    forms of discriminant D - 4a, with the (a, b) of the true rho."""
    a, b, _ = f
    a, b, c = _rho((a, b, (b * b - D) // (4 * a)), D, s)
    return (a, b, c + 1) if a < 0 else (a, b, c)


def _miscounted_table(offset):
    """_sqrt_table, with every count N(lo) of lo > 0 off by offset."""
    def table(D, A, lo=0):
        count = yield from _sqrt_table(D, A, lo)
        return count + offset if lo else count
    return table


# Drawing every table entry would take 218 and 1020 starts here.
@pytest.mark.parametrize("D", [1010012, 6678829])
def test_walks_stop_drawing_starts_once_the_table_count_is_reached(monkeypatch, D):
    drawn = []

    def counted(D):
        for start in _enumerate_indefinite(D):
            drawn.append(start)
            yield start

    monkeypatch.setattr(forms, "_enumerate_indefinite", counted)
    assert _narrow_class_number(D) == (oracle_narrow_class_number(D), oracle_principal_cycle_is_shared(D))
    assert 0 < len(drawn) < 10


@pytest.mark.parametrize("D", [40, 60, 1010012])
def test_rho_off_the_discriminant_raises(monkeypatch, D):
    monkeypatch.setattr(forms, "_rho", _off_discriminant_rho)
    with pytest.raises(ArithmeticError, match="rho left"):
        _narrow_class_number(D)


# D = 5 has one table form: a count of 0 must not skip the principal cycle
@pytest.mark.parametrize("offset", [1, -1])
@pytest.mark.parametrize("D", [5, 40, 60, 1010012, 6678829])
def test_miscounted_table_raises(monkeypatch, D, offset):
    monkeypatch.setattr(forms, "_sqrt_table", _miscounted_table(offset))
    with pytest.raises(ArithmeticError, match="the table"):
        _narrow_class_number(D)


def test_structure_of_a_miscounted_group_raises():
    # -260 has h = 8, so no 16 forms make a 2-Sylow subgroup
    with pytest.raises(ArithmeticError, match="2-Sylow subgroup of -260 has 8 elements, not 16"):
        _group_structure(16, -260)


def _squares_miss_the_principal_form(D, bound):
    """compose_forms, except that a form of order 2 squares to itself, so
    its powers by 2 never reach the principal form; after bound calls it
    raises RuntimeError, which is not the ArithmeticError a test expects."""
    e, calls = _principal_form(D), []

    def compose(f1, f2, D):
        calls.append(f1)
        if len(calls) > bound:
            raise RuntimeError(f"{bound} compositions")
        f = compose_forms(f1, f2, D)
        return f1 if f1 == f2 and f == e else f
    return compose


def test_composition_that_misses_the_principal_form_raises(monkeypatch):
    # -260 has the group (2, 4); the norm-2 prime form has order 2, so its
    # square lands on the form itself, in the coset it has just opened
    monkeypatch.setattr(forms, "compose_forms", _squares_miss_the_principal_form(-260, 100))
    with pytest.raises(ArithmeticError, match="against the group law"):
        _group_structure(8, -260)


def _counted_compositions(monkeypatch):
    """Patch forms.compose_forms to count its calls; return the list of calls."""
    calls = []

    def counted(f1, f2, D):
        calls.append(f1)
        return compose_forms(f1, f2, D)

    monkeypatch.setattr(forms, "compose_forms", counted)
    return calls


def test_a_cyclic_sylow_subgroup_is_closed_in_about_h_compositions(monkeypatch):
    # -6611599 has the cyclic group of order 1024: the first prime form
    # generates it, one composition makes each element, and no element is
    # raised to any power afterwards
    D = -6611599
    h = count_reduced_forms(D)
    calls = _counted_compositions(monkeypatch)
    assert _group_structure(h, D) == (h,) == (1024,)
    assert len(calls) <= h + 2 * h.bit_length()


def test_structures_of_a_fixed_range_stay_within_their_composition_budget(monkeypatch):
    # the 3050 fundamental -110000 < D < -100000: 78811 compositions close
    # their Sylow subgroups (221303 when every listed form was raised to
    # h/l^e and every Sylow element to the l-th power)
    discs = [D for D in range(-100001, -110000, -1) if is_fundamental_discriminant(D)]
    assert len(discs) == 3050
    hs = [count_reduced_forms(D) for D in discs]
    calls = _counted_compositions(monkeypatch)
    for D, h in zip(discs, hs):
        assert math.prod(_group_structure(h, D)) == h
    assert len(calls) <= 78811


def test_group_structure_lists_no_forms(monkeypatch):
    def no_table(*args):
        raise AssertionError("_group_structure walked a root table")

    discs = (-260, -440, -3896, -2184, -6611599)
    hs = [count_reduced_forms(D) for D in discs]
    monkeypatch.setattr(forms, "_sqrt_table", no_table)
    for D, h in zip(discs, hs):
        assert math.prod(_group_structure(h, D)) == h


def test_a_norm_2_prime_form_exactly_when_2_is_not_inert():
    # 2 is inert exactly when D = 5 (mod 8); D = 4 (mod 8), as -84 and -260,
    # ramifies it; below |D| = 12 no prime reaches sqrt(|D|/3)
    assert -84 % 8 == -260 % 8 == 4
    for D in range(-12, -5000, -1):
        if is_fundamental_discriminant(D):
            twos = [f for f in _prime_forms(D) if f[0] == 2]
            assert len(twos) == (D % 8 != 5), D
            for f in twos:
                assert f[1] * f[1] - 8 * f[2] == D and _reduce_posdef(*f, D) == f, D


def test_the_prime_forms_generate_the_class_group():
    for D in range(-3, -5000, -1):
        if not is_fundamental_discriminant(D):
            continue
        group = {_principal_form(D)}
        for g in _prime_forms(D):
            grown = group
            while grown:
                grown = {compose_forms(f, g, D) for f in grown} - group
                group |= grown
        assert len(group) == count_reduced_forms(D), D


def test_broken_rho_raises(monkeypatch):
    monkeypatch.setattr(forms, "_rho", _merging_rho(60))
    with pytest.raises(ArithmeticError, match="rho left"):
        _narrow_class_number(60)
    # a map onto forms that are not reduced
    monkeypatch.setattr(forms, "_rho", lambda f, D, s: (f[2], f[1] + 2 * f[2], f[0]))
    with pytest.raises(ArithmeticError, match="rho left"):
        _narrow_class_number(60)


def test_broken_rho_raises_under_python_O():
    code = textwrap.dedent("""\
        import sys
        import test_forms
        from mqunits import forms
        for broken in (test_forms._merging_rho(60), test_forms._cross_rho(60, "merge"),
                       test_forms._cross_rho(60, "detour")):
            forms._rho = broken
            try:
                print("returned", forms._narrow_class_number(60))
            except ArithmeticError:
                print("raised", sys.flags.optimize)
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.dirname(__file__), env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "raised 1\n" * 3


def test_broken_count_or_discriminant_raises_under_python_O():
    code = textwrap.dedent("""\
        import sys
        import test_forms
        from mqunits import forms
        table, rho = forms._sqrt_table, forms._rho
        for name, broken in (("_rho", test_forms._off_discriminant_rho),
                             ("_sqrt_table", test_forms._miscounted_table(1)),
                             ("_sqrt_table", test_forms._miscounted_table(-1))):
            forms._sqrt_table, forms._rho = table, rho
            setattr(forms, name, broken)
            try:
                print("returned", forms._narrow_class_number(60))
            except ArithmeticError:
                print("raised", sys.flags.optimize)
        forms._sqrt_table, forms._rho = table, rho
        try:
            print("returned", forms._group_structure(16, -260))
        except ArithmeticError:
            print("raised", sys.flags.optimize)
        forms.compose_forms = test_forms._squares_miss_the_principal_form(-260, 100)
        try:
            print("returned", forms._group_structure(8, -260))
        except ArithmeticError:
            print("raised", sys.flags.optimize)
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.dirname(__file__), env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "raised 1\n" * 5


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
    assert sorted(_enumerate_posdef(-15)) == [(1, 1, 4), (2, 1, 2)]


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
    # odd primary parts above l, and several primes
    assert class_number_imaginary(-3299).group_structure == (3, 9)
    assert class_number_imaginary(-4027).group_structure == (3, 3)
    assert class_number_imaginary(-3896).group_structure == (3, 3, 4)
    assert class_number_imaginary(-4547).group_structure == (17,)


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
        forms = sorted(_enumerate_posdef(D))
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
    assert _narrow_class_number(40) == (2, True)
    # d=15: norm(eps)=+1, narrow is twice wide
    assert _narrow_class_number(60) == (4, False)


def test_cycle_flag_is_the_norm_of_the_fundamental_unit():
    # the unit side is only the oracle here: forms never computes a unit
    for d in range(2, 5001):
        if is_squarefree(d):
            shared = _narrow_class_number(disc_of_radicand(d))[1]
            assert shared == (quadratic.fundamental_unit(d).norm == -1), d


def test_real_class_numbers_need_no_fundamental_unit(monkeypatch):
    def refuse(d):
        raise AssertionError(f"fundamental_unit({d}) called")

    monkeypatch.setattr(quadratic, "fundamental_unit", refuse)
    monkeypatch.setattr(forms, "fundamental_unit", refuse)
    for d, h in KNOWN_REAL_H.items():
        assert class_number_real.__wrapped__(d).h == h, d


def test_huge_discriminants_hit_the_guard_before_any_squarefree_test():
    for D in (10**400 + 1, -(10**400) + 1):
        with pytest.raises(ValueError, match="exceeds the supported bound"):
            forms.supported_discriminant(D)
    with pytest.raises(ValueError, match="exceeds the supported bound"):
        count_reduced_forms(-(10**400) + 1)
    with pytest.raises(ValueError, match="exceeds the supported bound"):
        class_number_real(10**400 + 1)
    assert forms.supported_discriminant(-DISCRIMINANT_GUARD + 1) == -DISCRIMINANT_GUARD + 1


def test_disc_of_radicand():
    assert disc_of_radicand(5) == 5
    assert disc_of_radicand(3) == 12
    assert disc_of_radicand(-1) == -4
    assert disc_of_radicand(-55) == -55
    assert disc_of_radicand(10) == 40
    # the rule is unchecked: supported_discriminant rejects the D of a bad radicand
    for bad in (lambda: quadratic_h2(12), lambda: class_number_real(12), lambda: quadratic_h2(1)):
        with pytest.raises(ValueError):
            bad()


def test_class_number_reports_carry_the_fundamental_discriminant():
    assert class_number_real(3).discriminant == 12
    assert class_number_real(5).discriminant == 5
    assert quadratic_h2(-1).discriminant == -4
    assert class_number_imaginary(-20).discriminant == -20


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
