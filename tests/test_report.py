import collections
import concurrent.futures
import gc
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from mqunits import field, forms, report, units
from mqunits.errors import Falsified
from mqunits.field import FieldBasis, embed_element, sqrt_in_field
from mqunits.forms import DISCRIMINANT_GUARD
from mqunits.intarith import is_squarefree
from mqunits.report import (
    CHECK_IDS,
    MAX_PQ,
    report_emit,
    report_from_json,
    report_to_dict,
    report_to_json,
    scan,
    scan_pairs,
    validate_report_dict,
    verify_pair,
)


# SHA-256 of report_to_json(verify_pair(p, q)) with "elapsed_ms":N cut out,
# for pairs near the top of the range, where the Pell units of the lemmas
# are largest and neither the scan --max 200 digest nor the benchmark
# references reach
LARGE_PAIR_DIGESTS = {
    (653, 347): "91e9e796d5b056115822c44ba16346f33e9cce3a11d6356d0808be9cd8fa0062",
    (1213, 1019): "926eecfa18679109906faad54ddfbb06b7c86a74510f9a76029a1be31cf505e7",
    (3181, 3011): "aed291885ea65c5884ccdd131e171a710db594759067e7a60f5e2e701742e4ce",
}


@pytest.mark.parametrize("pair", list(LARGE_PAIR_DIGESTS))
def test_large_pairs_print_the_pinned_bytes(pair):
    line = re.sub(r'"elapsed_ms":[-+0-9.eE]+', "", report_to_json(verify_pair(*pair)))
    assert hashlib.sha256(line.encode()).hexdigest() == LARGE_PAIR_DIGESTS[pair]


def test_verify_pair_all_checks_pass():
    rep = verify_pair(5, 11)
    assert [c[0] for c in rep.checks] == list(CHECK_IDS)
    assert rep.passed
    assert rep.condition["tag"] == "Cond1"
    assert rep.q_indices == {"real_log2": 6, "cm_log2": 7}
    assert rep.kuroda_results == {"h2_Kplus": 1, "h2_K": 4}
    assert rep.structures["m"] == 2
    assert rep.structures["gal_F2"] == "Q_3"
    assert len(rep.lemma_witnesses) == 4
    assert len(rep.h2_table) == 15
    assert rep.elapsed_ms > 0


@pytest.mark.parametrize("p, q", [
    (653, 347), (709, 739), (821, 827), (829, 811), (941, 947), (997, 907), (997, 947),
])
def test_verify_pair_needs_signs_beyond_400_digits(p, q):
    rep = verify_pair(p, q)
    assert [c[0] for c in rep.checks] == list(CHECK_IDS)
    assert rep.passed, [c for c in rep.checks if not c[1]]


def test_verify_pair_cond2():
    rep = verify_pair(13, 11)
    assert rep.passed
    assert rep.condition["tag"] == "Cond2"
    assert rep.kuroda_results == {"h2_Kplus": 1, "h2_K": 2}
    assert rep.structures["m"] == 1
    assert rep.structures["gal_F2"] == "Z/4"
    assert rep.structures["h2_Ln"] == "2^n"


def test_round_trip_and_elapsed_excluded():
    rep = verify_pair(5, 3)
    line = report_to_json(rep)
    back = report_from_json(line)
    assert back == rep
    back.elapsed_ms = rep.elapsed_ms + 1000.0
    assert back == rep  # elapsed_ms never participates in comparisons


def test_report_emit_formats():
    rep = verify_pair(5, 11)

    blob = report_emit(rep, "json")
    assert blob.endswith(b"\n")
    assert report_from_json(blob.decode()) == rep
    assert b'"q_index_log2":6' in blob

    text = report_emit(rep, "text").decode()
    lines = text.splitlines()
    assert lines[0].startswith("pair (5, 11): Cond1")
    assert len(lines) == 1 + len(CHECK_IDS)
    assert all(line.split()[0] in ("PASS", "FAIL") for line in lines[1:])
    assert [line.split()[1].rstrip(":") for line in lines[1:]] == list(CHECK_IDS)

    with pytest.raises(ValueError):
        report_emit(rep, "yaml")


def test_determinism_across_runs():
    a = report_to_dict(verify_pair(5, 11))
    b = report_to_dict(verify_pair(5, 11))
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert json.dumps(a) == json.dumps(b)


def test_not_applicable_report():
    rep = verify_pair(5, 7)
    assert rep.condition["tag"] == "NotApplicable"
    assert rep.checks == []
    assert rep.passed
    for key in ("lemma_witnesses", "fsu_real", "fsu_cm", "q_indices",
                "h2_table", "kuroda_results", "structures"):
        assert getattr(rep, key) is None
    validate_report_dict(report_to_dict(rep))


def test_validate_rejects_mangled_reports():
    good = json.dumps(report_to_dict(verify_pair(5, 3)))
    validate_report_dict(json.loads(good))
    for mangle in (
        lambda d: d["checks"].pop(),
        lambda d: d.pop("fsu_cm"),
        lambda d: d.update(checks=[["x", True, "y"]]),
        lambda d: d.update(fsu_cm=None),  # null although cm_fsu passed
        lambda d: d["lemma_witnesses"].pop(),
        # wada_q_index failed, but its dependents still read as run
        lambda d: d["checks"][6].__setitem__(slice(1, 3), [False, "falsified: x"]),
        # stated class numbers that contradict each other
        lambda d: d["kuroda_results"].update(h2_K=999),
        lambda d: d["kuroda_results"].update(h2_K=2.0),
        lambda d: d["structures"].update(m=2),
        lambda d: d["h2_table"][0].update(h2=2),
        lambda d: d["h2_table"][12].update(h=True, h2=True),
        lambda d: d["h2_table"][3].update(discriminant=20),
        lambda d: d["h2_table"].reverse(),
        lambda d: d["h2_table"][0].pop("discriminant"),
    ):
        bad = json.loads(good)
        mangle(bad)
        with pytest.raises(ValueError):
            validate_report_dict(bad)


@pytest.mark.parametrize("pair,mangle", [
    ((5, 7), lambda d: d.update(p=True)),
    ((5, 7), lambda d: d.update(q=False)),
    ((5, 7), lambda d: d["condition"].update(tag="Bogus")),
    ((5, 7), lambda d: d["condition"].update(reason=42)),
    ((5, 7), lambda d: d.update(elapsed_ms="abc")),
    ((5, 3), lambda d: d.update(elapsed_ms=None)),
    ((5, 3), lambda d: d.update(elapsed_ms=True)),
    ((5, 3), lambda d: d["condition"].update(reason=5)),
], ids=["p_bool", "q_bool", "tag_unknown", "reason_int_inapplicable", "elapsed_str", "elapsed_null",
        "elapsed_bool", "reason_int_cond1"])
def test_report_from_json_rejects_a_malformed_scalar_field(pair, mangle):
    rep = verify_pair(*pair)
    d = json.loads(report_to_json(rep))
    assert report_from_json(json.dumps(d)) == rep
    mangle(d)
    with pytest.raises(ValueError, match="malformed report"):
        report_from_json(json.dumps(d))


def test_scan_pairs_enumeration():
    assert scan_pairs(12) == [(5, 3), (5, 11)]
    pairs = scan_pairs(200)
    assert len(pairs) == 156
    assert all(p % 8 == 5 and q % 8 == 3 for p, q in pairs)
    assert pairs == sorted(pairs)


def test_scan_stream_and_summary():
    buf = io.StringIO()
    summary = scan(12, out=buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 3
    for line in lines[:2]:
        validate_report_dict(json.loads(line))
    assert [(json.loads(line)["p"], json.loads(line)["q"]) for line in lines[:2]] == [(5, 3), (5, 11)]
    assert json.loads(lines[2]) == {
        "schema": "mqunits-scan/1", "range": [1, 12], "pairs_examined": 2,
        "cond1_count": 1, "cond2_count": 1, "failures": [],
    }
    assert summary.pairs_examined == 2
    assert summary.cond1_count == 1 and summary.cond2_count == 1
    assert summary.failures == []


def test_scan_cache_round_trip(tmp_path):
    cache = str(tmp_path / "cache")
    cold_out = io.StringIO()
    cold_summary = scan(12, cache_dir=cache, out=cold_out)
    assert os.path.exists(os.path.join(cache, "pair_5_3.json"))
    assert os.path.exists(os.path.join(cache, "pair_5_11.json"))

    warm_out = io.StringIO()
    warm_summary = scan(12, cache_dir=cache, out=warm_out)
    assert warm_summary == cold_summary
    # warm output is byte-identical: cached reports keep their stored timings
    assert warm_out.getvalue() == cold_out.getvalue()
    assert sorted(os.listdir(cache)) == ["pair_5_11.json", "pair_5_3.json"]
    # a pair file is its digest line, then the report line exactly as printed
    for name, line in zip(["pair_5_3.json", "pair_5_11.json"], cold_out.getvalue().splitlines()):
        with open(os.path.join(cache, name)) as fh:
            digest, report_line = fh.read().split("\n")
        assert report_line == line
        assert digest == hashlib.sha256((report._code_key() + line).encode()).hexdigest()


def _pair_line(path):
    """The report line of a pair file, after its digest line."""
    with open(path) as fh:
        return fh.read().partition("\n")[2]


def _rewrite_digest(path, line=None):
    """Write line, by default the pair file's own report line, to the pair
    file under the digest scan would write with this code's key, so only
    decoding and validation can reject it."""
    if line is None:
        line = _pair_line(path)
    digest = hashlib.sha256((report._code_key() + line).encode()).hexdigest()
    with open(path, "w") as fh:
        fh.write(f"{digest}\n{line}")


def _digest_holds(cache, p, q):
    return report._load_cached(cache, report._code_key(), p, q) is not None


def _count_verify_calls(monkeypatch):
    calls = []

    def counted(p, q):
        calls.append((p, q))
        return verify_pair(p, q)

    monkeypatch.setattr(report, "verify_pair", counted)
    return calls


@pytest.mark.parametrize("stale", ["digest", "missing"])
def test_scan_cache_is_tied_to_the_code_that_wrote_it(tmp_path, monkeypatch, stale):
    cache = str(tmp_path / "cache")
    cold_out = io.StringIO()
    scan(12, cache_dir=cache, out=cold_out)
    calls = _count_verify_calls(monkeypatch)

    # the key matches: nothing is recomputed and the output is byte-identical
    warm_out = io.StringIO()
    scan(12, cache_dir=cache, out=warm_out)
    assert calls == [] and warm_out.getvalue() == cold_out.getvalue()

    # the same valid report line, as another version of the code would have
    # written it: under another key ("digest"), or bare, in the format of the
    # versions that kept the digests apart ("missing")
    path = os.path.join(cache, "pair_5_11.json")
    line = _pair_line(path)
    with open(path, "w") as fh:
        if stale == "digest":
            other = hashlib.sha256(("0" * 64 + line).encode()).hexdigest()
            fh.write(f"{other}\n{line}")
        else:
            fh.write(line)
    leftovers = {"pair_7_3.json": "outside the scanned range", "manifest.json": "{}",
                 "pairs.sha256": f"{'0' * 64}  pair_5_3.json\n"}
    for name, text in leftovers.items():
        (tmp_path / "cache" / name).write_text(text)
    summary = scan(12, cache_dir=cache)
    assert calls == [(5, 11)] and summary.failures == []
    assert _digest_holds(cache, 5, 11) and _digest_holds(cache, 5, 3)
    # files the scan does not own are neither read nor removed
    for name, text in leftovers.items():
        assert (tmp_path / "cache" / name).read_text() == text
    assert sorted(os.listdir(cache)) == [
        "manifest.json", "pair_5_11.json", "pair_5_3.json", "pair_7_3.json", "pairs.sha256"]


def test_scan_ignores_an_old_class_number_memo(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    memo = cache / "classnums.json"
    memo.write_text('{"-55": [8, 8]}')
    before = memo.stat()
    out = io.StringIO()
    summary = scan(12, cache_dir=str(cache), out=out)
    d = json.loads(out.getvalue().splitlines()[1])
    row = next(r for r in d["h2_table"] if r["radicand"] == -55)
    assert (d["p"], d["q"]) == (5, 11)
    assert (row["h"], row["h2"]) == (4, 4)
    assert d["kuroda_results"] == {"h2_Kplus": 1, "h2_K": 4}
    assert summary.failures == []
    assert memo.read_text() == '{"-55": [8, 8]}'
    assert memo.stat().st_mtime_ns == before.st_mtime_ns


def test_a_repeated_pair_tests_no_radicand_again(monkeypatch):
    # the class numbers are memoized on the radicand or the discriminant, and
    # supported_discriminant is the one squarefree test of a subfield radicand
    verify_pair(13, 3)
    calls = []

    def counted(n):
        calls.append(n)
        return is_squarefree(n)

    monkeypatch.setattr(forms, "is_squarefree", counted)
    assert verify_pair(13, 3).passed
    assert calls == []


def test_verify_pair_reads_no_group_structure():
    # a fresh interpreter, so no class number computed by another test is cached
    code = textwrap.dedent("""
        from mqunits import forms
        from mqunits.report import verify_pair

        def boom(*args):
            raise AssertionError("group structure computed on the verify path")

        forms._group_structure = boom
        rep = verify_pair(5, 11)
        assert len(rep.checks) == 16 and rep.passed, rep.checks
    """)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_scan_recovers_from_corrupt_cache(tmp_path):
    cache = str(tmp_path / "cache")
    scan(12, cache_dir=cache)
    path = os.path.join(cache, "pair_5_3.json")
    _rewrite_digest(path, "{ not json")
    summary = scan(12, cache_dir=cache)
    assert summary.failures == []
    validate_report_dict(json.loads(_pair_line(path)))
    assert _digest_holds(cache, 5, 3)


def test_scan_recomputes_a_cached_line_nested_too_deep_to_decode(tmp_path, monkeypatch):
    # json.loads raises RecursionError, which is no ValueError, on nesting this deep
    cache = str(tmp_path / "cache")
    scan(12, cache_dir=cache)
    path = os.path.join(cache, "pair_5_11.json")
    _rewrite_digest(path, "[" * 200000)
    with pytest.raises(ValueError, match="malformed report: nesting too deep"):
        report_from_json(_pair_line(path))
    calls = _count_verify_calls(monkeypatch)
    out = io.StringIO()
    summary = scan(12, cache_dir=cache, out=out)
    line = out.getvalue().splitlines()[1]
    assert calls == [(5, 11)] and summary.failures == []
    assert report_from_json(line).passed and _pair_line(path) == line


@pytest.mark.parametrize("mangle", [
    lambda d: None,
    lambda d: [1, 2],
    lambda d: {**d, "checks": None},
    lambda d: {**d, "checks": [[]]},
], ids=["null", "list", "checks-null", "empty-check"])
def test_scan_recomputes_a_cache_file_that_is_not_a_report(tmp_path, mangle):
    cache = str(tmp_path / "cache")
    cold_out = io.StringIO()
    cold = scan(12, cache_dir=cache, out=cold_out)
    path = os.path.join(cache, "pair_5_11.json")
    _rewrite_digest(path, json.dumps(mangle(json.loads(_pair_line(path)))))
    out = io.StringIO()
    summary = scan(12, cache_dir=cache, out=out)
    line = out.getvalue().splitlines()[1]
    assert summary == cold and report_from_json(line).passed
    assert _pair_line(path) == line
    assert report_from_json(line) == report_from_json(cold_out.getvalue().splitlines()[1])


def test_scan_recomputes_a_cached_report_that_contradicts_itself(tmp_path, monkeypatch):
    # the key and the digest still match: only the stated values give the edit away
    cache = str(tmp_path / "cache")
    scan(12, cache_dir=cache)
    path = os.path.join(cache, "pair_5_11.json")
    d = json.loads(_pair_line(path))
    d["kuroda_results"]["h2_K"] = 999
    _rewrite_digest(path, json.dumps(d))
    calls = _count_verify_calls(monkeypatch)
    warm_out = io.StringIO()
    summary = scan(12, cache_dir=cache, out=warm_out)
    assert calls == [(5, 11)] and summary.failures == []
    line = warm_out.getvalue().splitlines()[1]
    assert json.loads(line)["kuroda_results"] == {"h2_Kplus": 1, "h2_K": 4}
    assert _pair_line(path) == line


def test_scan_recomputes_a_hand_edit_that_validates(tmp_path, monkeypatch):
    # h2 = h & -h still holds, so only the digest line gives the edit away
    cache = str(tmp_path / "cache")
    scan(12, cache_dir=cache)
    path = os.path.join(cache, "pair_5_11.json")
    with open(path) as fh:
        digest, _, line = fh.read().partition("\n")
    d = json.loads(line)
    assert d["h2_table"][0] == {"radicand": -1, "discriminant": -4, "h": 1, "h2": 1}
    d["h2_table"][0]["h"] = 77
    edited = json.dumps(d, separators=(",", ":"))
    validate_report_dict(json.loads(edited))
    with open(path, "w") as fh:
        fh.write(f"{digest}\n{edited}")
    calls = _count_verify_calls(monkeypatch)
    warm_out = io.StringIO()
    summary = scan(12, cache_dir=cache, out=warm_out)
    assert calls == [(5, 11)] and summary.failures == []
    line = warm_out.getvalue().splitlines()[1]
    assert json.loads(line)["h2_table"][0]["h"] == 1
    assert _pair_line(path) == line
    # the recomputed file is reused
    scan(12, cache_dir=cache)
    assert calls == [(5, 11)] and _digest_holds(cache, 5, 11)


def test_scan_recomputes_a_digest_valid_pair_file_with_a_malformed_field(tmp_path, monkeypatch):
    cache = str(tmp_path / "cache")
    cold_out = io.StringIO()
    scan(12, cache_dir=cache, out=cold_out)
    path = os.path.join(cache, "pair_5_3.json")
    forged, n = re.subn(r'"elapsed_ms":[-+0-9.eE]+', '"elapsed_ms":"forged"', _pair_line(path))
    assert n == 1
    _rewrite_digest(path, forged)
    calls = _count_verify_calls(monkeypatch)
    warm_out = io.StringIO()
    scan(12, cache_dir=cache, out=warm_out)
    assert calls == [(5, 3)]

    def cut(text):
        return re.sub(r'"elapsed_ms":[-+0-9.eE]+', "", text)

    assert cut(warm_out.getvalue()) == cut(cold_out.getvalue())
    assert _digest_holds(cache, 5, 3)


def test_scan_reuses_a_pair_file_rewritten_with_equal_bytes(tmp_path, monkeypatch):
    cache = str(tmp_path / "cache")
    cold_out = io.StringIO()
    scan(12, cache_dir=cache, out=cold_out)
    path = os.path.join(cache, "pair_5_11.json")
    with open(path, "rb") as fh:
        data = fh.read()
    os.unlink(path)
    with open(path, "wb") as fh:
        fh.write(data)
    calls = _count_verify_calls(monkeypatch)
    warm_out = io.StringIO()
    scan(12, cache_dir=cache, out=warm_out)
    assert calls == [] and warm_out.getvalue() == cold_out.getvalue()


@pytest.mark.parametrize("damage,lost", [("missing", (5, 3)), ("torn", (5, 11))])
def test_scan_recomputes_only_the_pair_whose_digest_line_is_lost(tmp_path, monkeypatch,
                                                                 damage, lost):
    cache = str(tmp_path / "cache")
    cold_out = io.StringIO()
    scan(12, cache_dir=cache, out=cold_out)
    path = os.path.join(cache, report._pair_name(*lost))
    with open(path) as fh:
        digest, _, line = fh.read().partition("\n")
    with open(path, "w") as fh:
        # "missing" drops the digest line of pair_5_3.json; "torn" cuts that
        # of pair_5_11.json short
        fh.write(line if damage == "missing" else f"{digest[:40]}\n{line}")
    calls = _count_verify_calls(monkeypatch)
    warm_out = io.StringIO()
    scan(12, cache_dir=cache, out=warm_out)
    assert calls == [lost]
    kept = 1 - [(5, 3), (5, 11)].index(lost)
    assert warm_out.getvalue().splitlines()[kept] == cold_out.getvalue().splitlines()[kept]
    scan(12, cache_dir=cache)
    assert calls == [lost]
    assert _digest_holds(cache, 5, 3) and _digest_holds(cache, 5, 11)


def test_scan_treats_a_directory_named_like_a_pair_file_as_a_miss(tmp_path, capsys):
    cache = tmp_path / "cache"
    (cache / "pair_5_3.json").mkdir(parents=True)
    cold_out, out = io.StringIO(), io.StringIO()
    assert scan(12, out=cold_out) == scan(12, cache_dir=str(cache), out=out)
    assert _without_elapsed(out) == _without_elapsed(cold_out)
    # the directory cannot be replaced by a file: the pair is named and left uncached
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("mqunits: pair (5, 3) left uncached: ")
    assert (cache / "pair_5_3.json").is_dir() and _digest_holds(str(cache), 5, 11)


as_root = pytest.mark.skipif(os.name != "posix" or os.geteuid() == 0,
                             reason="root reads and writes past the permission bits")


@as_root
def test_scan_recomputes_an_unreadable_pair_file(tmp_path, monkeypatch):
    cache = str(tmp_path / "cache")
    cold_out = io.StringIO()
    scan(12, cache_dir=cache, out=cold_out)
    os.chmod(os.path.join(cache, "pair_5_3.json"), 0)
    calls = _count_verify_calls(monkeypatch)
    out = io.StringIO()
    scan(12, cache_dir=cache, out=out)
    assert calls == [(5, 3)] and _without_elapsed(out) == _without_elapsed(cold_out)
    # the fresh file replaced the unreadable one
    assert _digest_holds(cache, 5, 3)


@as_root
def test_scan_into_a_read_only_cache_prints_the_uncached_bytes(tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.mkdir()
    cache.chmod(0o555)
    try:
        cold_out, out = io.StringIO(), io.StringIO()
        assert scan(12, out=cold_out) == scan(12, cache_dir=str(cache), out=out)
    finally:
        cache.chmod(0o755)
    assert _without_elapsed(out) == _without_elapsed(cold_out)
    err = capsys.readouterr().err.splitlines()
    assert [line.partition(" left uncached: ")[0] for line in err] == [
        "mqunits: pair (5, 3)", "mqunits: pair (5, 11)"]
    assert os.listdir(cache) == []


def test_interrupted_scan_keeps_finished_pairs(tmp_path, monkeypatch):
    calls = []

    def interrupt_third(p, q):
        calls.append((p, q))
        if len(calls) == 3:
            raise KeyboardInterrupt
        return verify_pair(p, q)

    monkeypatch.setattr(report, "verify_pair", interrupt_third)
    cache = tmp_path / "cache"
    out = io.StringIO()
    with pytest.raises(KeyboardInterrupt):
        scan(20, cache_dir=str(cache), out=out)
    assert sorted(os.listdir(cache)) == ["pair_5_11.json", "pair_5_3.json"]
    assert [json.loads(line)["q"] for line in out.getvalue().splitlines()] == [3, 11]

    # the rerun reuses both finished pairs
    calls = _count_verify_calls(monkeypatch)
    summary = scan(20, cache_dir=str(cache))
    assert calls == [(5, 19), (13, 3), (13, 11), (13, 19)] and summary.failures == []


def _fail_wada_fsu_on_5_11(monkeypatch):
    wada_fsu = report.wada_fsu

    def failing(field, subfields, known=None):
        if field.generators == (2, 5, 11):
            raise Falsified("forced")
        return wada_fsu(field, subfields, known)

    monkeypatch.setattr(report, "wada_fsu", failing)


def _without_elapsed(out):
    return re.sub(r'"elapsed_ms":[-+0-9.eE]+', "", out.getvalue())


def test_scan_parallel_matches_sequential(monkeypatch):
    assert scan(12) == scan(12, jobs=2)
    # worker processes are forked, so they inherit the patched wada_fsu
    _fail_wada_fsu_on_5_11(monkeypatch)
    seq_out, par_out = io.StringIO(), io.StringIO()
    seq = scan(12, out=seq_out)
    par = scan(12, jobs=2, out=par_out)
    assert seq == par and seq.failures
    assert _without_elapsed(seq_out) == _without_elapsed(par_out)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in
    this process, so no worker is ever started."""

    def __init__(self, seen, max_workers):
        seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def _record_pools(monkeypatch):
    seen = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: _RecordingPool(seen, max_workers))
    return seen


def test_scan_pool_never_exceeds_the_uncached_pairs(tmp_path, monkeypatch):
    seen = _record_pools(monkeypatch)
    seq = scan(12)
    assert seen == []
    par = scan(12, jobs=64, cache_dir=str(tmp_path))
    assert par == seq and seen == [2]  # (5, 3) and (5, 11)
    os.unlink(tmp_path / "pair_5_11.json")
    assert scan(12, jobs=64, cache_dir=str(tmp_path)) == seq and seen == [2, 1]
    # every pair cached: no pool at all
    assert scan(12, jobs=64, cache_dir=str(tmp_path)) == seq and seen == [2, 1]


def test_scan_decodes_no_fresh_report_in_the_parent(tmp_path, monkeypatch):
    # a pool worker hands back the line it encoded; the parent only prints it
    seen = _record_pools(monkeypatch)
    decoded = []

    def counted(line):
        decoded.append(line)
        return report_from_json(line)

    monkeypatch.setattr(report, "report_from_json", counted)
    out = io.StringIO()
    summary = scan(12, jobs=2, cache_dir=str(tmp_path), out=out)
    assert seen == [2] and decoded == [] and summary.failures == []
    assert len(out.getvalue().splitlines()) == 3
    # a warm scan decodes each cached report once, to validate it
    scan(12, jobs=2, cache_dir=str(tmp_path))
    assert seen == [2] and len(decoded) == 2


def test_scan_rejects_jobs_below_one():
    for jobs in (0, -3):
        out = io.StringIO()
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            scan(12, jobs=jobs, out=out)
        assert out.getvalue() == ""


def test_bases_live_while_held(tmp_path):
    # with the cyclic collector off, refcounting alone frees every basis a
    # pair builds but those of the one-prime systems that
    # report._one_prime_fsu keeps, with their subfields; a basis the caller
    # holds keeps its identity
    basis = FieldBasis((2, 5))
    gc.disable()
    try:
        before = set(field._BASES)
        verify_pair(5, 11)
        scan(12, cache_dir=str(tmp_path))
        scan(12, cache_dir=str(tmp_path))  # warm: verifies nothing
        one_prime = {(2, 3), (2, 5), (2, 11), (2,), ()}
        assert set(field._BASES) <= before | one_prime
        assert FieldBasis((2, 5)) is basis
    finally:
        gc.enable()


def test_verify_pair_leaves_no_cycles():
    # nothing kept on a basis holds an element of it, so refcounting alone
    # frees what a pair built
    verify_pair(13, 3)  # fills the per-process caches
    gc.collect()
    gc.disable()
    try:
        verify_pair(13, 11)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_failed_checks_never_raise(monkeypatch):
    _fail_wada_fsu_on_5_11(monkeypatch)
    rep = verify_pair(5, 11)
    checks = {cid: (ok, detail) for cid, ok, detail in rep.checks}
    assert checks["wada_q_index"] == (False, "falsified: forced")
    for cid in ("wada_generators", "cm_fsu", "norm_tables", "kuroda_deg8"):
        assert checks[cid] == (False, "skipped: wada_q_index failed")
    assert checks["kuroda_deg16"] == (False, "skipped: cm_fsu failed")
    for cid in ("classify", "lemma_q", "lemma_2q", "lemma_pq", "lemma_2pq",
                "biquad_fsu_all", "azizi_square", "quad_h2_table", "kuroda_deg4", "structures"):
        assert checks[cid][0], cid
    assert rep.fsu_real is rep.fsu_cm is rep.kuroda_results is None
    assert report_from_json(report_to_json(rep)) == rep


def _checks_with(monkeypatch, cid, p, q):
    """{check id: (passed, detail)} of verify_pair(p, q) with cid forced to fail."""
    def failing(*args):
        raise Falsified("forced")
    with monkeypatch.context() as mp:
        mp.setitem(report._CHECKS, cid, failing)
        return {c: (ok, detail) for c, ok, detail in verify_pair(p, q).checks}


def test_a_failed_lemma_skips_the_biquadratic_systems(monkeypatch):
    # biquad_fsu_all forms its roots from the four lemma witnesses, so it
    # runs only when all four passed, and the unit checks wait for it
    checks = _checks_with(monkeypatch, "lemma_pq", 13, 3)
    assert checks["lemma_pq"] == (False, "falsified: forced")
    assert checks["biquad_fsu_all"] == (False, "skipped: lemma_pq failed")
    for cid in ("wada_q_index", "azizi_square", "kuroda_deg4"):
        assert checks[cid] == (False, "skipped: biquad_fsu_all failed"), cid
    for cid in ("classify", "lemma_q", "lemma_2q", "lemma_2pq", "quad_h2_table", "structures"):
        assert checks[cid][0], cid


def test_a_failed_azizi_square_skips_cm_fsu(monkeypatch):
    # cm_fsu twists the root that azizi_square took, and takes none of its own
    checks = _checks_with(monkeypatch, "azizi_square", 13, 3)
    assert checks["azizi_square"] == (False, "falsified: forced")
    assert checks["cm_fsu"] == (False, "skipped: azizi_square failed")
    assert checks["kuroda_deg16"] == (False, "skipped: cm_fsu failed")
    assert [cid for cid, (ok, _) in checks.items() if not ok] == ["azizi_square", "cm_fsu", "kuroda_deg16"]


@pytest.mark.parametrize("p,q", [(13, 3), (5, 11)])
def test_the_azizi_root_taken_in_k_is_the_root_in_k_plus(monkeypatch, p, q):
    # u lies in k = Q(sqrt2, sqrt q): its root taken in k and embedded is,
    # up to sign, the root that the descent in K+ = k(sqrt p) finds
    seen = []
    check = report._CHECKS["azizi_square"]

    def kept(p, q, cond, rep, biquad):
        out = check(p, q, cond, rep, biquad)
        seen.append((biquad[0][(2, q)], out[2]))
        return out
    monkeypatch.setitem(report._CHECKS, "azizi_square", kept)
    assert verify_pair(p, q).passed
    ((k, got),) = seen
    u = k.field.surd(2) + 2
    for g in k.generators:
        u = u * g.witness
    want = sqrt_in_field(embed_element(u, FieldBasis((2, p, q))))
    assert got.basis is want.basis and got in (want, -want)


def test_pair_beyond_the_discriminant_guard_round_trips():
    # p*q = 10061503 > 10^7: the class numbers of +-8pq are out of range, so
    # the pair is decided up front and no check runs
    rep = verify_pair(3181, 3163)
    assert rep.condition == {
        "tag": "Unsupported",
        "reason": "p*q = 10061503 exceeds the supported limit 10000000",
    }
    assert rep.checks == [] and rep.passed
    assert all(getattr(rep, k) is None for k in ("lemma_witnesses", "fsu_real", "h2_table"))
    validate_report_dict(report_to_dict(rep))
    assert report_from_json(report_to_json(rep)) == rep
    assert MAX_PQ * 8 == DISCRIMINANT_GUARD
    inside = verify_pair(3181, 3011)  # p*q = 9577991
    assert inside.condition["tag"] == "Cond2" and inside.passed


def test_huge_pair_is_unsupported_before_trial_division():
    # 10^400 + 1 is far past any sieve; the product alone decides the pair
    p = 10**400 + 1
    rep = verify_pair(p, 3)
    assert rep.condition == {
        "tag": "Unsupported",
        "reason": f"p*q = {3 * p} exceeds the supported limit {MAX_PQ}",
    }
    assert rep.checks == []
    assert report_from_json(report_to_json(rep)) == rep


def test_optimized_interpreter_recomputes_an_edited_cache_file(tmp_path):
    # validation must not rest on assert statements, which python -O strips
    cache = str(tmp_path / "cache")
    scan(11, cache_dir=cache)
    path = os.path.join(cache, "pair_5_11.json")
    d = json.loads(_pair_line(path))
    d["checks"] = [["x", True, "y"]]
    d["kuroda_results"]["h2_K"] = 999
    _rewrite_digest(path, json.dumps(d))
    res = subprocess.run([sys.executable, "-O", "-m", "mqunits.cli", "scan", "--max", "11",
                          "--cache", cache], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    line = json.loads(res.stdout.splitlines()[1])
    assert line["kuroda_results"]["h2_K"] == 4 and len(line["checks"]) == len(CHECK_IDS)
    assert report_from_json(_pair_line(path)) == report_from_json(json.dumps(line))


def test_a_unit_over_the_digit_limit_round_trips_in_process():
    # the fundamental unit of Q(sqrt(12001999)) has 4459-digit coefficients;
    # the library lifts the int <-> str limit itself, and puts it back
    from mqunits.field import parse_element
    from mqunits.units import fsu_quadratic

    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    fsu = fsu_quadratic(12001999)
    text = json.dumps(report._fsu_to_dict(fsu))
    (g,) = json.loads(text)["generators"]
    assert parse_element(g["witness"], fsu.field) == fsu.generators[0].witness
    if limit is not None:
        assert max(map(len, g["witness"].replace("/", " ").replace("*", " ").split())) > limit
        assert sys.get_int_max_str_digits() == limit


def test_each_check_follows_its_prerequisites():
    # validate_report_dict looks for a skipped entry only after the first
    # failed check, which is sound only in this order
    for cid, pres in report._PREREQUISITES.items():
        assert all(CHECK_IDS.index(pre) < CHECK_IDS.index(cid) for pre in pres), cid
