"""The traced run: wrapping must not change any output, spans must nest, and
the warm pass of scan200 must read the cache instead of recomputing."""

import json
import os
import shutil
import subprocess
import sys

import refs
import run
import tracing
from mqunits import classnum, cli, field, forms, quadratic, report, units


def test_every_binding_is_wrapped_and_restored():
    bindings = [
        (field, "sqrt_in_field"), (units, "sqrt_in_field"), (report, "sqrt_in_field"),
        (field, "sign_at_embedding"), (units, "sign_at_embedding"),
        (forms, "class_number_imaginary"), (classnum, "class_number_imaginary"),
        (cli, "class_number_imaginary"), (forms, "class_number_real"),
        (classnum, "class_number_real"), (cli, "class_number_real"),
        (quadratic, "fundamental_unit"), (units, "fundamental_unit"),
        (forms, "fundamental_unit"),
    ]
    before = [getattr(mod, attr) for mod, attr in bindings]
    mul, checks = field.FieldElement.__mul__, dict(report._CHECKS)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (mod, attr), orig in zip(bindings, before):
            assert getattr(mod, attr).__wrapped__ is orig, f"{mod.__name__}.{attr}"
        assert field.FieldElement.__mul__ is field.FieldElement.__rmul__
        assert field.FieldElement.__mul__.__wrapped__ is mul
        assert all(report._CHECKS[c].__wrapped__ is checks[c] for c in checks)
    finally:
        tracer.uninstall()
    assert [getattr(mod, attr) for mod, attr in bindings] == before
    assert field.FieldElement.__mul__ is mul and report._CHECKS == checks


def test_wrapping_keeps_a_report_byte_identical():
    ref = refs.load(refs.REPORTS_PATH)["reports"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op("5,11")
        line = report.report_to_json(report.verify_pair(5, 11))
    finally:
        tracer.uninstall()
    assert refs.digest_line(line) == ref["5,11"]
    calls = tracer.calls()
    assert calls["report.verify_pair"] == 1 and calls["field.mul"] > 0
    assert all(calls[f"report.check.{c}"] == 1 for c in tracing.CHECK_IDS)
    # spans nest: every child lies inside its parent
    for i, parent in enumerate(tracer.span_parent):
        if parent >= 0:
            assert tracer.span_start[parent] <= tracer.span_start[i]
            assert tracer.span_end[i] <= tracer.span_end[parent]


def test_traced_scan200_run(workdir):
    """The traced run of scan200 through run.py, end to end (about a minute)."""
    out = os.path.join(workdir, "scan200.json")
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "scan200",
         "--seed", "1", "--seconds", "15", "--trace", "1", "--out", out],
        capture_output=True, text=True, timeout=300, cwd=run.ROOT)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    with open(out) as fh:
        rec = json.load(fh)
    # every report of the untraced and the traced run matched its reference
    assert last["correct"] and last["failed"] == 0 and rec["mismatches"] == []
    assert list(last["metrics"]) == list(tracing.PER_LAYER)
    details = rec["details"]
    assert details["phases"]["cold"]["self_s"] <= details["traced_wall_s"]
    cold = details["phases"]["cold"]["calls"]
    warm = details["phases"]["warm"]["calls"]
    assert cold["report.verify_pair"] == 156
    assert warm["report.report_from_json"] == 156
    assert warm["report.verify_pair"] == 0
    assert os.path.exists(os.path.join(run.ROOT, details["spans_file"]))


def test_run_refuses_a_directory_without_the_program(workdir):
    shutil.copytree(run.HERE, os.path.join(workdir, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), workdir)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide", "--seed", "1",
         "--seconds", "15", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=workdir)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
