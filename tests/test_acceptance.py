"""End-to-end acceptance gate.

One test per acceptance criterion, each ending in a single printed PASS line
with its measured evidence.  Criteria that consume scan output share one
session-scoped run of `scan --max 200` through the real CLI.
"""

import hashlib
import json
import math
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations

import pytest

from mqunits.field import FieldBasis, embed_element, sqrt_in_field
from mqunits.forms import class_number_imaginary, class_number_real, disc_of_radicand
from mqunits.quadratic import DECOMPOSITION_TAGS, lemma_decompose
from mqunits.report import _unit_label, scan_pairs, validate_report_dict
from mqunits.units import fsu_biquadratic, theorem_real_exponents, wada_fsu


SCAN_MAX = 200
# SHA-256 of the stdout of `scan --max 200` with every "elapsed_ms":N cut out
SCAN_DIGEST = "73d6e7bdaf4d43de25534890aeebf2fe5ce9ab5b5ea3f6a63223d5a88f620fa3"
SCAN_BUDGET_S = 600
LEMMA_BUDGET_S = 60


@pytest.fixture(autouse=True)
def _verdict_passthrough(capsys):
    # the per-criterion verdict lines must reach the terminal under default capture
    yield
    out = capsys.readouterr().out
    if out:
        with capsys.disabled():
            sys.stdout.write(out)


@pytest.fixture(scope="session")
def scan_run(tmp_path_factory):
    cache = tmp_path_factory.mktemp("scan-cache")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "mqunits.cli", "scan", "--max", str(SCAN_MAX),
         "--cache", str(cache)],
        capture_output=True, text=True, timeout=SCAN_BUDGET_S + 60,
    )
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.splitlines()
    reports = {}
    for line in lines[:-1]:
        d = json.loads(line)
        reports[(d["p"], d["q"])] = d
    summary = json.loads(lines[-1]) if lines else {}
    return {"proc": proc, "elapsed": elapsed, "reports": reports, "summary": summary}


def _check(rep, cid):
    entry = next(c for c in rep["checks"] if c[0] == cid)
    return entry[1], entry[2]


def _split_by_cond(reports):
    cond1 = {k: v for k, v in reports.items() if v["condition"]["tag"] == "Cond1"}
    cond2 = {k: v for k, v in reports.items() if v["condition"]["tag"] == "Cond2"}
    return cond1, cond2


def _h2_of(rep, radicand):
    row = next(r for r in rep["h2_table"] if r["radicand"] == radicand)
    return row["h2"]


def _resquares(w):
    u = w.unit
    g2, rem = divmod(w.r1 * w.r2, u.d)
    g = math.isqrt(g2)
    if rem or g * g != g2:
        return False
    k = 2 if w.doubled else 1
    s = w.u1 * w.u1 * w.r1 + w.u2 * w.u2 * w.r2
    t = 2 * w.u1 * w.u2 * g
    return s * u.denom == k * u.x and t * u.denom == k * u.y


def test_criterion_01_lemma_suite_full_range():
    t0 = time.perf_counter()
    pairs = scan_pairs(SCAN_MAX)
    assert len(pairs) >= 40
    n = 0
    for p, q in pairs:
        for tag in DECOMPOSITION_TAGS:
            w = lemma_decompose(p, q, tag)
            assert _resquares(w), (p, q, tag)
            n += 1
    dt = time.perf_counter() - t0
    assert dt <= LEMMA_BUDGET_S
    print(f"\nPASS criterion 1: {n} decompositions over {len(pairs)} pairs "
          f"re-squared exactly in {dt:.1f}s (budget {LEMMA_BUDGET_S}s, single-threaded)")


def test_criterion_02_fsu_q_index_and_generators(scan_run):
    reports = scan_run["reports"]
    for (p, q), rep in reports.items():
        ok, detail = _check(rep, "wada_q_index")
        assert ok, (p, q, detail)
        assert rep["fsu_real"]["q_index_log2"] == 6
        ok, detail = _check(rep, "wada_generators")
        assert ok, (p, q, detail)
        tag = rep["condition"]["tag"]
        want = {_unit_label(quarters) for quarters in theorem_real_exponents(p, q, tag)}
        got = {g["label"] for g in rep["fsu_real"]["generators"]}
        assert got == want, (p, q, got ^ want)
        root4 = next(g for g in rep["fsu_real"]["generators"]
                     if g["label"].startswith("root4("))
        if tag == "Cond1":
            # sqrt(eps_2q) sits inside the fourth root
            assert root4["exponents"][str(2 * q)] == "1/4", (p, q)
        else:
            assert root4["exponents"] == {
                "2": "1/2", str(p): "1/2", str(q): "1/4",
                str(p * q): "1/4", str(2 * p * q): "1/4",
            }, (p, q)
    print(f"\nPASS criterion 2: q(K+) = 2^6 with theorem-matching generator labels "
          f"on all {len(reports)} pairs")


def test_criterion_03_azizi_square_every_pair(scan_run):
    reports = scan_run["reports"]
    for (p, q), rep in reports.items():
        ok, detail = _check(rep, "azizi_square")
        assert ok, (p, q, detail)
    # independent recomputation on one pair per condition
    for p, q in ((5, 11), (13, 11)):
        kplus = FieldBasis((2, p, q))
        u = kplus.surd(2) + kplus.from_rational(2)
        for g in fsu_biquadratic(2, q).generators:
            u = u * embed_element(g.witness, kplus)
        w = sqrt_in_field(u)
        assert w is not None and w * w == u
    print(f"\nPASS criterion 3: (2+sqrt2)*eps_2*sqrt(eps_q)*sqrt(eps_2q) has an "
          f"exact square root in K+ for all {len(reports)} pairs")


def test_criterion_04_kuroda_cond1(scan_run):
    cond1, _ = _split_by_cond(scan_run["reports"])
    assert cond1
    for (p, q), rep in cond1.items():
        assert rep["kuroda_results"]["h2_Kplus"] == 1, (p, q)
        assert rep["kuroda_results"]["h2_K"] == _h2_of(rep, -p * q), (p, q)
    rep = cond1[(5, 11)]
    assert rep["kuroda_results"]["h2_K"] == 4 == _h2_of(rep, -55)
    print(f"\nPASS criterion 4: Cond1 formula gives h2(K+) = 1 and h2(K) = h2(-pq) "
          f"on all {len(cond1)} pairs; (5,11) gives 4 on both routes")


def test_criterion_05_kuroda_cond2(scan_run):
    _, cond2 = _split_by_cond(scan_run["reports"])
    assert cond2
    for (p, q), rep in cond2.items():
        assert rep["kuroda_results"]["h2_Kplus"] == 1, (p, q)
        assert rep["kuroda_results"]["h2_K"] == 2, (p, q)
        assert _h2_of(rep, -p * q) == 2, (p, q)
        # the form-counting oracle agrees directly
        assert class_number_imaginary(disc_of_radicand(-p * q)).h2 == 2, (p, q)
    print(f"\nPASS criterion 5: Cond2 formula gives h2(K+) = 1, h2(K) = 2, confirmed "
          f"by the forms oracle on all {len(cond2)} pairs")


def test_criterion_06_quadratic_h2_table(scan_run):
    reports = scan_run["reports"]
    for (p, q), rep in reports.items():
        ok, detail = _check(rep, "quad_h2_table")
        assert ok, (p, q, detail)
        assert len(rep["h2_table"]) == 15
    assert class_number_imaginary(-120).h == 4
    assert class_number_imaginary(-440).h == 12
    assert class_number_imaginary(-440).h2 == 4
    assert class_number_real(55).h == 2
    print(f"\nPASS criterion 6: all 15 subfield 2-class numbers match on "
          f"{len(reports)} pairs; spot values h(-120) = 4, h(-440) = 12, h(55) = 2")


def test_criterion_07_norm_tables(scan_run):
    cond1, cond2 = _split_by_cond(scan_run["reports"])
    assert len(cond1) >= 3 and len(cond2) >= 3
    for (p, q), rep in scan_run["reports"].items():
        ok, detail = _check(rep, "norm_tables")
        assert ok, (p, q, detail)
    print(f"\nPASS criterion 7: norm tables consistent with zero mismatches on "
          f"{len(cond1)} Cond1 and {len(cond2)} Cond2 pairs")


def _random_element(rng, basis):
    return basis.element({
        r: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        for r in basis.radicands
    })


def _float_eval(u, signs):
    total = 0.0
    basis = u.basis
    for r, c in u.coords.items():
        m = basis.mask_of[r]
        s = 1
        for i, g in enumerate(basis.generators):
            if m >> i & 1:
                s *= signs[g]
        total += float(c) * s * math.sqrt(r)
    return total


def _det(rows, cols):
    mat = [[Fraction(vec.get(c, 0)) for c in cols] for vec in rows]
    n = len(mat)
    det = Fraction(1)
    for i in range(n):
        piv = next((r for r in range(i, n) if mat[r][i]), None)
        if piv is None:
            return Fraction(0)
        if piv != i:
            mat[i], mat[piv] = mat[piv], mat[i]
            det = -det
        det *= mat[i][i]
        inv = 1 / mat[i][i]
        for r in range(i + 1, n):
            f = mat[r][i] * inv
            if f:
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[i])]
    return det


def test_criterion_08_arithmetic_properties(scan_run):
    rng = random.Random(20260822)

    # ring axioms on 10^4 random triples across a real and a CM basis
    triples = 0
    for gens, count in (((2, 5, 11), 4000), ((2, 3, -1), 6000)):
        basis = FieldBasis(gens)
        for _ in range(count):
            u, v, w = (_random_element(rng, basis) for _ in range(3))
            assert (u + v) + w == u + (v + w)
            assert u * v == v * u
            assert (u * v) * w == u * (v * w)
            assert u * (v + w) == u * v + u * w
            triples += 1
    assert triples >= 10_000

    # exact square roots against a floating-point oracle
    checked = 0
    for p, q in ((5, 11), (13, 3)):
        basis = FieldBasis((2, p, q))
        gens = [embed_element(g.witness, basis)
                for fsu in (fsu_biquadratic(2, d) for d in (p, q, p * q))
                for g in fsu.generators]
        for _ in range(60):
            v = basis.one() if rng.random() < 0.5 else -basis.one()
            for g in gens:
                v = v * g ** rng.randint(0, 2)
            w = sqrt_in_field(v * v)
            assert w is not None and w * w == v * v
            for _ in range(2):
                signs = {g: rng.choice((1, -1)) for g in basis.generators}
                a, b = _float_eval(w, signs), _float_eval(v, signs)
                assert math.isclose(abs(a), abs(b), rel_tol=1e-9), (p, q, signs)
            checked += 1
        fsu = wada_fsu(basis, [fsu_biquadratic(2, d) for d in (p, q, p * q)])
        ws = [g.witness for g in fsu.generators]
        for _ in range(40):
            k = rng.randint(1, 7)
            sub = rng.sample(range(7), k)
            u = basis.one()
            for i in sub:
                u = u * ws[i]
            assert sqrt_in_field(u if rng.random() < 0.5 else -u) is None
            checked += 1
    assert checked >= 200

    # every scanned FSU exponent matrix is nonsingular with det +-2^-q_index_log2
    for rep in scan_run["reports"].values():
        for key in ("fsu_real", "fsu_cm"):
            fsu = rep[key]
            vecs = [{int(r): Fraction(e) for r, e in g["exponents"].items()}
                    for g in fsu["generators"]]
            cols = sorted({r for v in vecs for r in v})
            det = _det(vecs, cols)
            assert abs(det) == Fraction(1, 2 ** fsu["q_index_log2"]), (rep["p"], rep["q"], key)

    # wada output is saturated: no signed subset product is a square
    for p, q in ((5, 11), (13, 3)):
        basis = FieldBasis((2, p, q))
        fsu = wada_fsu(basis, [fsu_biquadratic(2, d) for d in (p, q, p * q)])
        ws = [g.witness for g in fsu.generators]
        for k in range(1, 8):
            for sub in combinations(range(7), k):
                u = basis.one()
                for i in sub:
                    u = u * ws[i]
                assert sqrt_in_field(u) is None and sqrt_in_field(-u) is None, sub
    print(f"\nPASS criterion 8: {triples} ring-axiom triples, {checked} sqrt-vs-oracle "
          f"units at 100%, {2 * len(scan_run['reports'])} nonsingular FSU matrices, "
          f"wada closure on both conditions")


def test_criterion_09_structure_predictions(scan_run):
    reports = scan_run["reports"]
    for (p, q), rep in reports.items():
        ok, detail = _check(rep, "structures")
        assert ok, (p, q, detail)
        m = rep["structures"]["m"]
        assert 2 ** (m + 1) == 2 * _h2_of(rep, -p * q), (p, q)
    rep = reports[(5, 3)]
    assert rep["structures"]["m"] == 1
    assert rep["structures"]["gal_F2"] == "Z/4" == rep["structures"]["cl2_F"]
    print(f"\nPASS criterion 9: structure labels m-consistent on all {len(reports)} "
          f"pairs; (5,3) collapses to Z/4")


def test_criterion_10_scan_cli(scan_run):
    proc = scan_run["proc"]
    assert proc.returncode == 0, proc.stderr
    assert scan_run["elapsed"] <= SCAN_BUDGET_S
    lines = proc.stdout.splitlines()
    expected_pairs = scan_pairs(SCAN_MAX)
    assert len(lines) == len(expected_pairs) + 1
    for line in lines[:-1]:
        validate_report_dict(json.loads(line))
    assert sorted(scan_run["reports"]) == expected_pairs
    summary = scan_run["summary"]
    assert summary["schema"] == "mqunits-scan/1"
    assert summary["pairs_examined"] == len(expected_pairs)
    assert summary["failures"] == []
    print(f"\nPASS criterion 10: scan --max {SCAN_MAX} exited 0 in "
          f"{scan_run['elapsed']:.1f}s (budget {SCAN_BUDGET_S}s) with "
          f"{len(expected_pairs)} schema-valid reports")


def test_scan_output_is_byte_identical(scan_run):
    assert scan_run["proc"].returncode == 0, scan_run["proc"].stderr
    stripped = re.sub(r'"elapsed_ms":[-+0-9.eE]+', "", scan_run["proc"].stdout)
    assert hashlib.sha256(stripped.encode()).hexdigest() == SCAN_DIGEST
    print(f"\nPASS scan --max {SCAN_MAX} output digest {SCAN_DIGEST[:8]}... unchanged")
