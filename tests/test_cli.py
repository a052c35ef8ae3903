import hashlib
import json
import re
import subprocess
import sys

import pytest

from mqunits import cli
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


@pytest.mark.parametrize("radicands, product", [
    ("79999973,79999987", 79999973 * 79999987),
    ("2,5,10000019", 2 * 5 * 10000019),
])
def test_fsu_refuses_a_product_radicand_past_the_guard(radicands, product):
    # every given radicand is below the guard; a radicand of the field they
    # generate is not, and must be refused before any unit is computed
    res = run_cli("fsu", "--radicands", radicands, timeout=30)
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr == f"mqunits: error: radicand {product} exceeds the supported bound 80000000\n"


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


def test_scan_with_a_directory_for_a_pair_file_prints_the_cold_bytes(tmp_path):
    cache = tmp_path / "cache"
    (cache / "pair_5_3.json").mkdir(parents=True)
    res = run_cli("scan", "--max", "12", "--cache", str(cache))
    cold = run_cli("scan", "--max", "12")
    assert res.returncode == cold.returncode == 0

    def without_elapsed(out):
        return re.sub(r'"elapsed_ms":[-+0-9.eE]+', "", out)
    assert without_elapsed(res.stdout) == without_elapsed(cold.stdout)
    assert res.stderr.startswith("mqunits: pair (5, 3) left uncached: ") and res.stderr.count("\n") == 1


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


# SHA-256 of the stdout of `fsu --radicands R` and `fsu --radicands R --cm`.
# The CM fields reach the torsion zeta4 (5), zeta8 (2,5 and 2,5,11), zeta12
# (5,3 and 13,3) and zeta24 (2,3 and 2,13,3); 5,3 and 13,3 extend a
# biquadratic system, whose saturation a scan never runs.
FSU_DIGESTS = {
    "5": ("2f5cb9a17160bbf3f9bdf47a9c074642f3dcbca0a27abba6f78ab8bfe17b483c",
          "f8bb8e2dab2d1a9c42eb9a90d03b841d4db71092607ea6cb85d4bfe432af3a53"),
    "2,5": ("a9613dedd4a7a1c75c91e0b5808786fb4a6be278e3c4b5ca67799aa2aa6df8b6",
            "1b5ea5a06b40a318fabbde751f716c698ad34cb3f0ac7689cd2f30140b6a168a"),
    "2,3": ("cec00d99d5e4480ed471496590f04b24dc6dd44817ad18c01d39ca270443ab1f",
            "3b7d2ca4da9dbc2198041bcd659fbf22b735dfdee1ec0bc0c11cc4240accc5f6"),
    "5,3": ("5eba5e09ec76ed2ae0c190ca4e7839703de7e7250a2f86b4360b9273d6735865",
            "bb520b385036beb5ddf3f66a2f323211872959bcff24dfb51858dc946574af9b"),
    "13,3": ("8bed7ca14c92ba669d2b168ec77c106fc40ed9805090bf96011382c617dc0838",
             "af0eac1ded4ed9de28bdb90b3061eb14a5cc89f07dd1e3c818d5caec4e117179"),
    "2,5,11": ("6b10a4c53c51ccc5a24e06568515def1d119958312ef322ae06d6904dc18cfce",
               "bfaf74020e26af1390a389916549f863e180f9b60dfcd6df92c5754cc19ca757"),
    "2,13,3": ("a74b5b6a83431aff2b6cb80f30b0bc3a1696450c53a9e5e5226ffb34287d7b79",
               "66f70861e0adf2bc77e733cf8b1c94c500bc791ac1440728895bca2a27c5bf9c"),
    "2,29,19": ("4674a070967c2ead5d1594e255ff2b6a6109bef8a1c437a1e462591954bb8238",
                "f669bb4a95c59d7ad630245ece8ca8c429154cd2ba7c5e611a1f9f488ebe3709"),
}


@pytest.mark.parametrize("cm", [False, True])
@pytest.mark.parametrize("radicands", list(FSU_DIGESTS))
def test_fsu_prints_the_pinned_bytes(capsys, radicands, cm):
    # in process, so that a run under python -O reaches the CM paths with -O
    assert cli.main(["fsu", "--radicands", radicands] + ["--cm"] * cm) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == FSU_DIGESTS[radicands][cm]


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


@pytest.mark.parametrize("disc, radicand", [("40", 10), ("-440", None)])
def test_classnum_tests_its_discriminant_squarefree_once(disc, radicand, monkeypatch, capsys):
    # the class-number entry validates D; the verb only refuses a D that no
    # radicand gives, such as 20, which needs no squarefree test
    from mqunits import forms

    for entry in (forms.class_number_imaginary, forms.count_reduced_forms, forms.class_number_real):
        entry.cache_clear()
    calls = []

    def counted(n):
        calls.append(n)
        return is_squarefree(n)

    is_squarefree = forms.is_squarefree
    monkeypatch.setattr(forms, "is_squarefree", counted)
    assert cli.main(["classnum", "--disc", disc]) == 0
    assert json.loads(capsys.readouterr().out)["radicand"] == radicand
    assert len(calls) == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["classnum", "--disc", "20"])
    assert exc.value.code == 2 and "20 is not a fundamental discriminant" in capsys.readouterr().err
    assert len(calls) == 1
