"""Per-pair verification reports and the range scanner.

verify_pair runs the full battery of checks for one pair (p, q): the Pell
decomposition lemmas, the biquadratic and degree-8 unit groups, the CM
extension, the norm tables, the quadratic class number table and the class
number formula instances, plus the predicted tower structures.  The result
is a PairReport whose fields are plain JSON-ready data with a fixed key
order, so serialization is deterministic and round-trips exactly.

Falsified and unexpected errors inside a check turn into a failed entry in
the report's check list; they never escape verify_pair.  A check whose
prerequisite failed is skipped, and a report with failed checks round-trips
like any other.

scan streams one report line per pair of a range and returns the
ScanSummary.  Of each pair it keeps only the line, the condition tag and
the failed check ids, whether the pair came from the cache, from this
process or from a pool worker.  A cached pair file holds a digest line
under the key of the code that wrote it, then the report line.
"""

import functools
import json
import os
import sys
import time
from contextlib import nullcontext
from fractions import Fraction

from . import claims
from ._record import Record
from .classnum import (
    claimed_h2,
    kuroda_h2,
    predict_structures,
    quadratic_h2,
    subfield_radicands,
)
from .errors import Falsified
from .field import FieldBasis, embed_element, serialize_element, sqrt_in_field
from .forms import DISCRIMINANT_GUARD, disc_of_radicand
from .intarith import is_prime, unlimited_int_digits
from .quadratic import COND1, COND2, UNSUPPORTED, ConditionClass, classify_pair, lemma_decompose
from .units import (
    _torsion_order,
    azizi_extend,
    exponent_level,
    fsu_biquadratic,
    norm_table,
    unit_index,
    wada_fsu,
)

REPORT_SCHEMA = "mqunits-report/1"
SCAN_SCHEMA = "mqunits-scan/1"

# The largest of the 15 subfield discriminants is disc(+-2pq) = 8pq, so the
# class-number checks stay inside the forms guard exactly when p*q <= MAX_PQ.
MAX_PQ = DISCRIMINANT_GUARD // 8

# the key order of a report line: the schema, then the PairReport fields
_REPORT_KEYS = ("schema", "p", "q", "condition", "lemma_witnesses", "fsu_real", "fsu_cm", "q_indices",
                "h2_table", "kuroda_results", "structures", "checks", "elapsed_ms")
_FIELDS = _REPORT_KEYS[1:]
_ARTIFACT_KEYS = _FIELDS[3:-2]  # lemma_witnesses to structures, the fields defaulting to None


class PairReport(Record):
    """All verification data for one pair, in JSON-native form.

    The fields defaulting to None are the check artifacts; an inapplicable
    pair leaves them all None.  checks defaults to a fresh list.  elapsed_ms
    is excluded from equality so a report compares equal to its
    round-tripped or re-computed self.
    """

    __slots__ = _FIELDS
    _uncompared = ("elapsed_ms",)

    def __init__(self, p: int, q: int, condition: dict, lemma_witnesses: list | None = None,
                 fsu_real: dict | None = None, fsu_cm: dict | None = None,
                 q_indices: dict | None = None, h2_table: list | None = None,
                 kuroda_results: dict | None = None, structures: dict | None = None,
                 checks: list | None = None, elapsed_ms: float = 0.0):
        super().__init__(p, q, condition, lemma_witnesses, fsu_real, fsu_cm, q_indices, h2_table,
                         kuroda_results, structures, [] if checks is None else checks, elapsed_ms)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


class ScanSummary(Record):
    """Totals of one scan run: the range, the counts and every failed check."""

    __slots__ = ("range", "pairs_examined", "cond1_count", "cond2_count", "failures")

    def __init__(self, range: list, pairs_examined: int, cond1_count: int, cond2_count: int,
                 failures: list):
        super().__init__(range, pairs_examined, cond1_count, cond2_count, failures)


# ---------------------------------------------------------------------------
# serialization


def _unit_label(quarters) -> str:
    s = exponent_level([quarters])
    inner = "*".join(f"eps_{r}" if n * s == 4 else f"eps_{r}^{n * s // 4}"
                     for r, n in sorted(quarters.items()))
    return {1: inner, 2: f"sqrt({inner})", 4: f"root4({inner})"}[s]


def _quarter_str(n: int) -> str:
    """The exponent n/4 in lowest terms, as str(Fraction(n, 4)) prints it."""
    return str(n >> 2) if n & 3 == 0 else f"{n >> 1}/2" if n & 1 == 0 else f"{n}/4"


def _unit_to_dict(g) -> dict:
    return {
        "label": _unit_label(g.quarters),
        "torsion_exponent": g.torsion_exponent,
        "exponents": {str(r): _quarter_str(n) for r, n in sorted(g.quarters.items())},
        "witness": serialize_element(g.witness),
    }


def _fsu_to_dict(fsu, gens=None) -> dict:
    """The FSU as JSON data, with gens as its generator entries if given."""
    return {
        "field": list(fsu.field.generators),
        "torsion": fsu.torsion,
        "q_index_log2": fsu.q_index_log2,
        "generators": [_unit_to_dict(g) for g in fsu.generators] if gens is None else gens,
    }


def _witness_to_dict(w) -> dict:
    return {
        "tag": w.radicand_tag,
        "case_id": w.case_id,
        "u1": w.u1,
        "u2": w.u2,
        "r1": w.r1,
        "r2": w.r2,
        "doubled": w.doubled,
        "unit": {"d": w.unit.d, "x": w.unit.x, "y": w.unit.y, "denom": w.unit.denom,
                 "norm": w.unit.norm},
    }


def report_to_dict(report: PairReport) -> dict:
    return {"schema": REPORT_SCHEMA, **{k: getattr(report, k) for k in _FIELDS}}


@unlimited_int_digits()
def report_to_json(report: PairReport) -> str:
    return json.dumps(report_to_dict(report), separators=(",", ":"))


def report_from_dict(d: dict) -> PairReport:
    validate_report_dict(d)
    kwargs = {k: d[k] for k in _FIELDS}
    kwargs["checks"] = [list(c) for c in d["checks"]]
    return PairReport(**kwargs)


@unlimited_int_digits()
def report_from_json(s: str) -> PairReport:
    try:
        return report_from_dict(json.loads(s))
    except RecursionError:  # json.loads on nesting deeper than the interpreter recurses
        raise _malformed("nesting too deep") from None


def report_emit(report: PairReport, format: str = "json") -> bytes:
    """Render a report as a byte stream, either canonical JSON or plain text.

    The JSON form is the single line report_to_json produces; it round-trips
    through report_from_json.  The text form is a header naming the pair and
    its condition class followed by one PASS/FAIL line per check.
    """
    if format == "json":
        return (report_to_json(report) + "\n").encode()
    if format == "text":
        cond = report.condition
        lines = [f"pair ({report.p}, {report.q}): {cond['tag']} ({cond['reason']})"]
        for cid, ok, detail in report.checks:
            lines.append(f"{'PASS' if ok else 'FAIL'} {cid}: {detail}")
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown report format {format!r}")


def _malformed(what: str) -> ValueError:
    return ValueError(f"malformed report: {what}")


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise _malformed(what)


def _is_fsu(v) -> bool:
    return (isinstance(v, dict) and set(v) == {"field", "torsion", "q_index_log2", "generators"}
            and isinstance(v["generators"], list)
            and len(v["generators"]) == len(claims.KPLUS_FSU))


def _has_keys(*keys):
    keys = set(keys)
    return lambda v: isinstance(v, dict) and set(v) == keys


# report field -> (the check that fills it, the shape it must have when set)
_ARTIFACT_FIELDS = {
    "fsu_real": ("wada_q_index", _is_fsu),
    "fsu_cm": ("cm_fsu", _is_fsu),
    "q_indices": ("cm_fsu", _has_keys("real_log2", "cm_log2")),
    "h2_table": ("quad_h2_table", lambda v: isinstance(v, list) and len(v) == 15),
    "kuroda_results": ("kuroda_deg8", _has_keys("h2_Kplus", "h2_K")),
    "structures": ("structures", _has_keys(
        "m", "cl2_genus_base", "cl2_L", "cl2_F", "cl2_K", "gal_F2", "gal_k2",
        "h2_Ln", "h2_Ln_plus", "iwasawa")),
}


_H2_ROW_KEYS = ("radicand", "discriminant", "h", "h2")
_NEG_PQ_ROW = claims.SUBFIELDS.index("-pq")


def validate_report_dict(d) -> None:
    """Check the fixed schema; raise ValueError on any deviation.

    Beyond key order and coarse types, the check list must agree with the
    prerequisite table: a check with a failed prerequisite reads
    "skipped: <first failed prerequisite> failed".  An artifact field must
    be well formed when the check that fills it passed, and may be null
    when that check failed; lemma_witnesses holds one entry per passed
    lemma check.  The stated class numbers must agree with each other: the
    h2_table rows follow subfield_radicands with h2 = h & -h, and a passed
    kuroda_deg16 or structures entry restates h2(-pq) as h2_K = 2^m.  No
    class number is recomputed, so an edited h with a consistent h2 passes.
    """
    _require(isinstance(d, dict) and tuple(d) == _REPORT_KEYS, "key set or order")
    _require(d["schema"] == REPORT_SCHEMA, "schema")
    _require(isinstance(d["p"], int) and isinstance(d["q"], int), "p, q")
    cond = d["condition"]
    _require(isinstance(cond, dict) and set(cond) == {"tag", "reason"}, "condition")
    checks = d["checks"]
    if cond["tag"] not in (COND1, COND2):
        _require(checks == [] and all(d[k] is None for k in _ARTIFACT_KEYS),
                 "an inapplicable pair has checks or artifacts")
        return
    _require(isinstance(checks, list) and len(checks) == len(CHECK_IDS), "check count")
    passed = set()
    # the loops below run once per cached report, so they raise without a
    # call or a formatted message per entry
    for cid, c in zip(CHECK_IDS, checks):
        if not (isinstance(c, list) and len(c) == 3 and c[0] == cid
                and isinstance(c[1], bool) and isinstance(c[2], str)):
            raise _malformed(f"check entry {cid}")
        skip = _skip_detail(cid, passed)
        if skip is not None and c[1:] != [False, skip]:
            raise _malformed(f"{cid} must read {skip!r}")
        if c[1]:
            passed.add(cid)
    witnesses = d["lemma_witnesses"]
    _require(isinstance(witnesses, list) and len(witnesses) == len(passed & _LEMMA_IDS),
             "lemma_witnesses")
    for key, (cid, well_formed) in _ARTIFACT_FIELDS.items():
        _require(well_formed(d[key]) if d[key] is not None else cid not in passed, key)
    table = d["h2_table"]
    if table is not None:
        for r, row in zip(subfield_radicands(d["p"], d["q"]), table):
            if type(row) is not dict or tuple(row) != _H2_ROW_KEYS:
                raise _malformed(f"h2_table row keys of {r}")
            radicand, discriminant, h, h2 = row.values()
            # type(x) is int: JSON true decodes to a bool, which isinstance counts as int
            if not (radicand == r and discriminant == (r if r % 4 == 1 else 4 * r)
                    and type(h) is int and h >= 1 and type(h2) is int and h2 == h & -h):
                raise _malformed(f"h2_table row of {r}")
    # kuroda_deg16 and structures run only after quad_h2_table passed
    if "kuroda_deg16" in passed:
        h2_K = d["kuroda_results"]["h2_K"]
        _require(type(h2_K) is int and h2_K == table[_NEG_PQ_ROW]["h2"], "kuroda_results.h2_K")
    if "structures" in passed:
        m = d["structures"]["m"]
        _require(type(m) is int and m >= 0 and 1 << m == table[_NEG_PQ_ROW]["h2"], "structures.m")


# ---------------------------------------------------------------------------
# the per-pair check battery


def _skip_detail(cid, passed):
    """The detail of a check whose prerequisite did not pass, else None."""
    for pre in _PREREQUISITES.get(cid, ()):
        if pre not in passed:
            return f"skipped: {pre} failed"
    return None


@unlimited_int_digits()
def verify_pair(p: int, q: int) -> PairReport:
    """Run every registered check for the pair and assemble its report.

    A check runs only when all of its prerequisites passed, and receives
    their artifacts in prerequisite order; otherwise its entry names the
    first failed prerequisite.  An inapplicable pair yields a
    condition-only report with no checks, and so does a pair beyond the
    supported range p*q <= MAX_PQ, tagged Unsupported before p and q are
    classified, so a huge input never reaches trial division.  A basis
    built here lives while something holds it: most go with the pair's
    artifacts, and the systems _one_prime_fsu keeps hold theirs for later
    pairs.
    """
    t0 = time.perf_counter()
    if p * q > MAX_PQ:
        cond = ConditionClass(UNSUPPORTED, f"p*q = {p * q} exceeds the supported limit {MAX_PQ}")
    else:
        cond = classify_pair(p, q)
    condition = {"tag": cond.tag, "reason": cond.reason}
    if not cond.is_applicable:
        return PairReport(p, q, condition,
                          elapsed_ms=round((time.perf_counter() - t0) * 1000, 3))

    rep = PairReport(p, q, condition, lemma_witnesses=[])
    artifacts = {}  # check id -> artifact, for the checks that passed
    for cid in CHECK_IDS:
        ok, detail = False, _skip_detail(cid, artifacts)
        if detail is None:
            inputs = [artifacts[pre] for pre in _PREREQUISITES.get(cid, ())]
            inputs += [artifacts.get(c) for c in _ALSO_READS.get(cid, ())]
            try:
                ok, detail, artifact = _CHECKS[cid](p, q, cond, rep, *inputs)
            except Falsified as exc:
                detail = f"falsified: {exc}"
            except Exception as exc:
                detail = f"error: {exc!r}"
            if ok:
                artifacts[cid] = artifact
        rep.checks.append([cid, ok, detail])
    rep.elapsed_ms = round((time.perf_counter() - t0) * 1000, 3)
    return rep


# Each check is called as check(p, q, cond, rep, *prerequisite artifacts, *those
# of _ALSO_READS) and returns (passed, detail, artifact); it fills its fields.


def _check_classify(p, q, cond, rep):
    return True, f"{cond.tag}: {cond.reason}", None


def _make_lemma_check(tag):
    def check(p, q, cond, rep):
        w = lemma_decompose(p, q, tag)
        rep.lemma_witnesses.append(_witness_to_dict(w))
        return True, f"case {w.case_id}: ({w.u1}*sqrt({w.r1}) + {w.u2}*sqrt({w.r2}))^2 = " \
                     f"{'2*' if w.doubled else ''}eps_{tag}", w
    return check


@functools.lru_cache(maxsize=None)
def _one_prime_fsu(d1, d2):
    """fsu_biquadratic(d1, d2) for the fields Q(sqrt2, sqrt p) and
    Q(sqrt2, sqrt q), all kept across pairs, about 4 KB each: a scan pairs
    every p with every q, p-major, so a smaller LRU bound would miss at
    every (2, q) lookup.  A kept result keeps its basis interned, so later
    pairs reuse that basis.  Every caller gets the same result and must
    not change it."""
    return fsu_biquadratic(d1, d2)


def _check_biquad_fsu_all(p, q, cond, rep):
    built = {}
    qs = []
    for field in claims.BIQUAD_FSU:
        d1, d2 = (claims.value(s, p, q) for s in field)
        fsu = (_one_prime_fsu if d1 == 2 and d2 in (p, q) else fsu_biquadratic)(d1, d2)
        want = claims.Q_LOG2[field]
        if fsu.q_index_log2 != want:
            return False, f"Q(sqrt{d1}, sqrt{d2}) has q_log2 {fsu.q_index_log2}, expected {want}", None
        built[(d1, d2)] = fsu
        qs.append(fsu.q_index_log2)
    return True, f"6 configurations, q_index_log2 = {qs}", built


def _check_wada_q_index(p, q, cond, rep, biquad, pq_witness=None):
    kplus = FieldBasis((2, p, q))
    root = None
    if pq_witness is not None:
        # (u1*sqrt(r1) + u2*sqrt(r2))^2 = eps_pq, or 2*eps_pq when doubled
        w, h = pq_witness, 2 if pq_witness.doubled else 1
        root = kplus.element({h * w.r1: Fraction(w.u1, h), h * w.r2: Fraction(w.u2, h)})
    fsu = wada_fsu(kplus, [biquad[(2, p)], biquad[(2, q)], biquad[(2, p * q)]], root)
    rep.fsu_real = _fsu_to_dict(fsu)
    want = claims.Q_LOG2[claims.K_PLUS]
    if fsu.q_index_log2 != want:
        return False, f"q_log2 = {fsu.q_index_log2}, expected {want}", None
    return True, f"q(K+) = 2^{want}, unit index {unit_index(fsu)}", fsu


def _check_wada_generators(p, q, cond, rep, fsu):
    named = claims.unit_rows(cond.tag)
    if not fsu.spans([named[name] for name in claims.KPLUS_FSU]):
        return False, "generator lattice differs from the theorem lattice", None
    other = COND2 if cond.tag == COND1 else COND1
    if fsu.contains(claims.unit_rows(other)[claims.F4]):
        return False, f"lattice does not separate {cond.tag} from {other}", None
    labels = [g["label"] for g in rep.fsu_real["generators"]]
    return True, "lattice matches theorem; generators " + ", ".join(labels), None


def _sqrt_from_subfield(u, big, p):
    """A square root in big = k(sqrt p) of u in k, or None: (s + t*sqrt p)^2
    with s, t in k lies in k only when s*t = 0, so the root is one of u in
    k, or one of p*u in k divided by sqrt p."""
    w = sqrt_in_field(u)
    if w is not None:
        return embed_element(w, big)
    w = sqrt_in_field(u * p)
    return None if w is None else embed_element(w, big) * big.surd(p) / p


def _check_azizi_square(p, q, cond, rep, biquad):
    # u lies in k = Q(sqrt2, sqrt q), so its root in K+ = k(sqrt p) is taken in k
    k = biquad[(2, q)]
    u = k.field.surd(2) + 2
    for g in k.generators:
        u = u * g.witness
    w = _sqrt_from_subfield(u, FieldBasis((2, p, q)), p)
    if w is None:
        return False, "(2+sqrt2)*eps_2*sqrt(eps_q)*sqrt(eps_2q) is not a square in K+", None
    return True, "(2+sqrt2)*eps_2*sqrt(eps_q)*sqrt(eps_2q) = w^2, w re-squared exactly", w


def _check_cm_fsu(p, q, cond, rep, fsu, azizi_root=None):
    cm = azizi_extend(fsu, FieldBasis((2, p, q, -1)), azizi_root)
    # a generator that azizi_extend only embedded keeps its fsu_real entry
    gens = [entry if c.torsion_exponent == 0 and c.quarters == g.quarters
            and c.witness == embed_element(g.witness, cm.field) else _unit_to_dict(c)
            for c, g, entry in zip(cm.generators, fsu.generators, rep.fsu_real["generators"])]
    rep.fsu_cm = _fsu_to_dict(cm, gens)
    rep.q_indices = {"real_log2": fsu.q_index_log2, "cm_log2": cm.q_index_log2}
    want_torsion = claims.CM_TORSION[q == 3]
    if cm.torsion != want_torsion:
        return False, f"torsion {cm.torsion}, expected {want_torsion}", None
    want = claims.Q_LOG2[claims.K_CM]
    if cm.q_index_log2 != want:
        return False, f"q_log2 = {cm.q_index_log2}, expected {want}", None
    named = claims.unit_rows(cond.tag)
    if not cm.spans([named[name] for name in claims.CM_FSU]):
        return False, "CM generator lattice differs from the theorem lattice", None
    twisted = [g for g in cm.generators if g.torsion_exponent]
    order = _torsion_order(cm.field)
    if len(twisted) != 1 or exponent_level([twisted[0].quarters]) != 4:
        return False, "expected exactly one generator twisted at the quartic level", None
    t = twisted[0].torsion_exponent
    if t % (order // 4) or (t // (order // 4)) % 2 == 0:
        return False, f"quartic twist is not +-i: exponent {t} of order {order}", None
    return True, f"torsion {cm.torsion}, q_index_log2 {want}, unit index {unit_index(cm)}", cm


def _check_norm_tables(p, q, cond, rep, fsu):
    rows = norm_table(fsu)
    n_entries = sum(e is not None for row in claims.NORM_TABLES[cond.tag].values() for e in row)
    return True, f"{len(rows)} rows, {n_entries} entries consistent", None


def _check_quad_h2_table(p, q, cond, rep):
    """Compute the 15 subfield class numbers once, compare each with its
    claim, and pass them on as {symbol: h2} to the checks that read them."""
    claimed = claims.H2_CLAIMS[cond.tag]
    table, h2, bad = [], {}, []
    for s, r in zip(claims.SUBFIELDS, subfield_radicands(p, q)):
        cr = quadratic_h2(r)
        table.append({"radicand": r, "discriminant": disc_of_radicand(r),
                      "h": cr.h, "h2": cr.h2})
        h2[s] = cr.h2
        if not claims.holds(claimed[s], cr.h2):
            rel, n = claimed[s]
            bad.append(f"h2({r}) {rel} {n}")
    rep.h2_table = table
    if bad:
        return False, "mismatched claims: " + "; ".join(bad), None
    return True, "15 subfield class numbers match the claimed table", h2


# The checks below read the computed h2 from the quad_h2_table artifact and
# the unit index of the FSU they are given, which for K counts its torsion.
# kuroda_deg4 and kuroda_deg8 expect what the formula gives over the claims;
# kuroda_deg16 expects the computed h2(-pq), of which Cond1 claims only a
# bound, and so compares the table's h2(-pq) with a product that contains it


def _check_kuroda_deg4(p, q, cond, rep, h2, biquad):
    val = kuroda_h2(claims.K_2P, h2, unit_index(biquad[(2, p)]))
    want = claimed_h2(claims.K_2P, cond.tag)
    if val != want:
        return False, f"h2(Q(sqrt2, sqrt{p})) = {val}, expected {want}", None
    return True, f"h2(Q(sqrt2, sqrt{p})) = {val}", None


def _check_kuroda_deg8(p, q, cond, rep, h2, fsu):
    val = kuroda_h2(claims.K_PLUS, h2, unit_index(fsu))
    rep.kuroda_results = {"h2_Kplus": val, "h2_K": None}
    want = claimed_h2(claims.K_PLUS, cond.tag)
    if val != want:
        return False, f"h2(K+) = {val}, expected {want}", None
    return True, f"h2(K+) = {val}", None


def _check_kuroda_deg16(p, q, cond, rep, h2, cm, deg8):
    val = kuroda_h2(claims.K_CM, h2, unit_index(cm))
    rep.kuroda_results["h2_K"] = val
    want = h2["-pq"]
    if val != want:
        return False, f"h2(K) = {val}, expected h2(-pq) = {want}", None
    return True, f"h2(K) = {val} = h2(-{p * q})", None


def _check_structures(p, q, cond, rep, h2):
    s = rep.structures = predict_structures(p, q, cond.tag, h2["-pq"])
    return True, (f"m = {s['m']}, Cl2(L) = Z/{s['cl2_L']}, Cl2(F) = {s['cl2_F']}, "
                  f"Gal(F2/F) = {s['gal_F2']}, Gal(k2/k) = {s['gal_k2']}"), None


_CHECKS = {
    "classify": _check_classify,
    "lemma_q": _make_lemma_check("q"),
    "lemma_2q": _make_lemma_check("2q"),
    "lemma_pq": _make_lemma_check("pq"),
    "lemma_2pq": _make_lemma_check("2pq"),
    "biquad_fsu_all": _check_biquad_fsu_all,
    "wada_q_index": _check_wada_q_index,
    "wada_generators": _check_wada_generators,
    "azizi_square": _check_azizi_square,
    "cm_fsu": _check_cm_fsu,
    "norm_tables": _check_norm_tables,
    "quad_h2_table": _check_quad_h2_table,
    "kuroda_deg4": _check_kuroda_deg4,
    "kuroda_deg8": _check_kuroda_deg8,
    "kuroda_deg16": _check_kuroda_deg16,
    "structures": _check_structures,
}
CHECK_IDS = tuple(_CHECKS)
_LEMMA_IDS = {cid for cid in CHECK_IDS if cid.startswith("lemma_")}

# check id -> the checks that must pass before it runs, in the order their
# artifacts are passed to it; a check not listed has none
_PREREQUISITES = {
    "wada_q_index": ("biquad_fsu_all",),
    "wada_generators": ("wada_q_index",),
    "azizi_square": ("biquad_fsu_all",),
    "cm_fsu": ("wada_q_index",),
    "norm_tables": ("wada_q_index",),
    "kuroda_deg4": ("quad_h2_table", "biquad_fsu_all"),
    "kuroda_deg8": ("quad_h2_table", "wada_q_index"),
    "kuroda_deg16": ("quad_h2_table", "cm_fsu", "kuroda_deg8"),
    "structures": ("quad_h2_table",),
}
# check id -> earlier checks whose artifacts it takes after those of its
# prerequisites, None for one that did not pass; they gate nothing: a known
# square root (the lemma_pq witness, the Azizi root) spares one descent
_ALSO_READS = {"wada_q_index": ("lemma_pq",), "cm_fsu": ("azizi_square",)}


# ---------------------------------------------------------------------------
# scanning a range


def scan_pairs(max_n: int):
    """Ordered (p, q) with p = 5 mod 8, q = 3 mod 8, both prime and <= max_n."""
    ps = [n for n in range(5, max_n + 1) if n % 8 == 5 and is_prime(n)]
    qs = [n for n in range(3, max_n + 1) if n % 8 == 3 and is_prime(n)]
    return sorted((p, q) for p in ps for q in qs)


def _pair_name(p, q):
    return f"pair_{p}_{q}.json"


def _sha256(data: bytes) -> str:
    import hashlib  # loads OpenSSL, a few ms that only a cached scan needs

    return hashlib.sha256(data).hexdigest()


def _code_key() -> str:
    """The key of the code that writes a cache: the SHA-256 hex over the
    report schema and the package sources (*.py, in sorted name order)."""
    pkg = os.path.dirname(os.path.abspath(__file__))
    parts = [f"{REPORT_SCHEMA}\0".encode()]
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src = fh.read()
            parts += [f"{name}\0{len(src)}\0".encode(), src]
    return _sha256(b"".join(parts))


def _open_cache(cache_dir) -> str:
    """Create cache_dir if needed and return the key of this code.  Raises
    ValueError when cache_dir exists but is not a directory."""
    try:
        os.makedirs(cache_dir, exist_ok=True)
    except FileExistsError:
        raise ValueError(f"cache path {cache_dir!r} exists and is not a directory") from None
    return _code_key()


def _atomic_write(path: str, data: bytes) -> None:
    import tempfile  # loads random, shutil and the compressors, which only a cached scan needs

    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _store(cache_dir, key, p, q, line: str) -> None:
    """Write the pair file atomically: the SHA-256 hex of key + line, a
    newline, then the report line."""
    data = line.encode()
    _atomic_write(os.path.join(cache_dir, _pair_name(p, q)),
                  _sha256(key.encode() + data).encode() + b"\n" + data)


def _outcome(rep: PairReport, line: str):
    """What scan keeps of a pair: (JSON line, condition tag, failed check ids)."""
    return line, rep.condition["tag"], [cid for cid, ok, _ in rep.checks if not ok]


def _load_cached(cache_dir, key, p, q):
    """The _outcome of the cached pair, or None for a miss.

    A pair file is reused only if its first line is the digest _store
    writes under this code's key for the rest of the file, and the rest
    still decodes and validates as a report.  The digest proves the text is
    the canonical line this code wrote, so scan prints it as it is, with no
    re-encoding.  A missing or unreadable file (a directory, one without
    read permission), a file written by other code or in another format, a
    hand edit, or a file that is not a report is a miss: the pair is
    recomputed."""
    try:
        with open(os.path.join(cache_dir, _pair_name(p, q)), "rb") as fh:
            digest, _, data = fh.read().partition(b"\n")
    except OSError:
        return None
    if digest != _sha256(key.encode() + data).encode():
        return None
    try:
        line = data.decode()
        return _outcome(report_from_json(line), line)
    except ValueError:  # UnicodeDecodeError and JSONDecodeError included
        return None


def _scan_pair(pair):
    """The _outcome of verify_pair on a fresh pair, in this process or in a
    pool worker."""
    rep = verify_pair(*pair)
    return _outcome(rep, report_to_json(rep))


def scan(max_n: int, jobs: int = 1, cache_dir: str | None = None, out=None) -> ScanSummary:
    """Verify every applicable pair up to max_n, emitting one report JSON line
    per pair in (p, q) order followed by a summary line.

    With a cache directory, finished pairs are reused and each newly
    computed one is written atomically as soon as it is done, so an
    interrupted scan keeps the pairs it finished.  A pair file that cannot
    be written is named in one line on stderr and left uncached; the scan
    goes on, and its output does not change.  A pair file is reused
    only if the digest it holds names this code and its bytes (see
    _load_cached); a reused pair is printed as the stored text, so a warm
    scan prints the bytes it checked.
    jobs > 1 distributes uncached pairs over at most that many worker
    processes, never more than there are uncached pairs; output order is
    unchanged.  jobs < 1 raises ValueError before anything is written.

    Returns the summary only; the reports are the lines written to out.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    pairs = scan_pairs(max_n)
    cached = {}
    if cache_dir:
        key = _open_cache(cache_dir)
        cached = {pair: _load_cached(cache_dir, key, *pair) for pair in pairs}
    todo = [pair for pair in pairs if cached.get(pair) is None]

    failures = []
    c1 = c2 = 0
    pool = nullcontext()
    if jobs > 1 and todo:
        # multiprocessing and its imports cost every other verb about 24 ms
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=min(jobs, len(todo)))
    with pool as executor:
        # yields the outcomes of todo in order, each as soon as it is done
        fresh = (executor.map if executor else map)(_scan_pair, todo)
        for pair in pairs:
            hit = cached.get(pair)
            line, tag, failed = hit or next(fresh)
            if hit is None and cache_dir:
                try:
                    _store(cache_dir, key, *pair, line)
                except OSError as exc:
                    print(f"mqunits: pair ({pair[0]}, {pair[1]}) left uncached: {exc}", file=sys.stderr)
            c1 += tag == COND1
            c2 += tag == COND2
            failures += [[*pair, cid] for cid in failed]
            if out is not None:
                out.write(line + "\n")
                out.flush()

    summary = ScanSummary(
        range=[1, max_n], pairs_examined=len(pairs),
        cond1_count=c1, cond2_count=c2, failures=failures,
    )
    if out is not None:
        out.write(summary_to_json(summary) + "\n")
    return summary


def summary_to_json(summary: ScanSummary) -> str:
    return json.dumps({
        "schema": SCAN_SCHEMA,
        "range": summary.range,
        "pairs_examined": summary.pairs_examined,
        "cond1_count": summary.cond1_count,
        "cond2_count": summary.cond2_count,
        "failures": summary.failures,
    }, separators=(",", ":"))

