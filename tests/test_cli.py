import json
import re
import subprocess
import sys

from mqunits.report import CHECK_IDS, validate_report_dict


def run_cli(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "mqunits.cli", *args],
        capture_output=True, text=True, **kw,
    )


def test_verify_text_output():
    res = run_cli("verify", "--p", "5", "--q", "11")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0].startswith("pair (5, 11): Cond1")
    assert len(lines) == 1 + len(CHECK_IDS)
    assert all(line.startswith("PASS ") for line in lines[1:])


def test_verify_json_output():
    res = run_cli("verify", "--p", "13", "--q", "3", "--json")
    assert res.returncode == 0
    d = json.loads(res.stdout)
    validate_report_dict(d)
    assert d["condition"]["tag"] == "Cond1"


def test_verify_not_applicable():
    res = run_cli("verify", "--p", "5", "--q", "7")
    assert res.returncode == 0
    assert "NotApplicable" in res.stdout


def test_verify_unsupported_pair_exits_2():
    res = run_cli("verify", "--p", "3181", "--q", "3163")
    assert res.returncode == 2
    assert res.stdout == ("pair (3181, 3163): Unsupported "
                          "(p*q = 10061503 exceeds the supported limit 10000000)\n")


def test_huge_inputs_exit_2_without_a_traceback():
    big = 10**400 + 1
    res = run_cli("verify", "--p", str(big), "--q", "3")
    assert res.returncode == 2
    assert res.stdout.startswith(f"pair ({big}, 3): Unsupported (p*q = {3 * big} exceeds")
    for disc in (big, -(10**400) + 1):
        res = run_cli("classnum", "--disc", str(disc))
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == f"mqunits: error: |{disc}| exceeds the supported bound 80000000\n"


def test_huge_radicand_exits_2_without_a_traceback():
    big = 10**400 + 1
    res = run_cli("fsu", "--radicands", f"2,{big}")
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr == f"mqunits: error: radicand {big} exceeds the supported bound 80000000\n"


def test_import_needs_only_the_standard_library():
    # -S leaves site-packages off the path, so a third-party import would fail
    code = "import sys, mqunits.cli; print(' '.join(sorted({m.partition('.')[0] for m in sys.modules})))"
    res = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    allowed = set(sys.stdlib_module_names) | {"mqunits", "__main__", "__mp_main__"}
    tops = set(res.stdout.split())
    assert "mqunits" in tops and tops <= allowed, sorted(tops - allowed)
    # the process pool is imported by a scan with --jobs above 1 only
    assert not tops & {"concurrent", "multiprocessing"}


def test_usage_errors_exit_2():
    assert run_cli("verify", "--p", "5").returncode == 2
    assert run_cli("frobnicate").returncode == 2
    assert run_cli().returncode == 2
    assert run_cli("classnum", "--disc", "20").returncode == 2
    assert run_cli("fsu", "--radicands", "7,11").returncode == 2
    assert run_cli("fsu", "--radicands", "2,21,3").returncode == 2  # composite p


def test_scan_emits_reports_and_summary(tmp_path):
    cache = str(tmp_path / "cache")
    res = run_cli("scan", "--max", "12", "--cache", cache)
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert len(lines) == 3
    for line in lines[:2]:
        validate_report_dict(json.loads(line))
    summary = json.loads(lines[2])
    assert summary["schema"] == "mqunits-scan/1"
    assert summary["pairs_examined"] == 2
    assert summary["failures"] == []

    warm = run_cli("scan", "--max", "12", "--cache", cache)
    assert warm.returncode == 0
    assert warm.stdout == res.stdout


def test_scan_cache_path_not_a_directory_exits_2(tmp_path):
    cache = tmp_path / "cache"
    cache.write_text("not a directory\n")
    res = run_cli("scan", "--max", "12", "--cache", str(cache))
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("mqunits: error: ")
    assert str(cache) in res.stderr


def test_scan_with_jobs():
    res = run_cli("scan", "--max", "12", "--jobs", "2")
    assert res.returncode == 0
    assert len(res.stdout.splitlines()) == 3


def test_scan_jobs_below_one_is_a_usage_error():
    res = run_cli("scan", "--max", "12", "--jobs", "0")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == "mqunits: error: jobs must be at least 1, got 0\n"


def test_fsu_biquadratic():
    res = run_cli("fsu", "--radicands", "2,5")
    assert res.returncode == 0
    d = json.loads(res.stdout)
    assert d["field"] == [2, 5]
    assert d["q_index_log2"] == 1
    assert d["unit_index"] == 2
    assert [g["label"] for g in d["generators"]] == \
        ["eps_2", "eps_5", "sqrt(eps_2*eps_5*eps_10)"]


def test_fsu_quadratic_and_cm():
    res = run_cli("fsu", "--radicands", "5")
    assert json.loads(res.stdout)["generators"][0]["label"] == "eps_5"

    res = run_cli("fsu", "--radicands", "2", "--cm")
    d = json.loads(res.stdout)
    assert d["torsion"] == "zeta8"
    assert d["unit_index"] == 2


def test_fsu_degree8_cm():
    res = run_cli("fsu", "--radicands", "2,5,11", "--cm")
    assert res.returncode == 0
    d = json.loads(res.stdout)
    assert d["field"] == [2, 5, 11, -1]
    assert d["torsion"] == "zeta8"
    assert d["q_index_log2"] == 7
    assert d["unit_index"] == 256
    assert len(d["generators"]) == 7


def test_fsu_prints_a_unit_over_the_default_digit_limit():
    # the fundamental unit of Q(sqrt(12001999)) has 4459-digit coefficients
    res = run_cli("fsu", "--radicands", "12001999")
    assert res.returncode == 0, res.stderr
    (g,) = json.loads(res.stdout)["generators"]
    assert max(map(len, re.findall(r"\d+", g["witness"]))) > 4300


def test_classnum_verb():
    res = run_cli("classnum", "--disc", "-440")
    d = json.loads(res.stdout)
    assert d["h"] == 12 and d["h2"] == 4
    assert d["group_structure"] is not None

    for disc in ("-3", "-163"):
        d = json.loads(run_cli("classnum", "--disc", disc).stdout)
        assert (d["h"], d["two_rank"], d["group_structure"]) == (1, 0, [])

    res = run_cli("classnum", "--disc", "40")
    d = json.loads(res.stdout)
    assert d["radicand"] == 10 and d["h"] == 2
    assert d["group_structure"] is None
