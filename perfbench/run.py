"""The mqunits benchmark: one workload, one run, one line of JSON.

    python3 perfbench/run.py --workload scan200 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; mqunits is imported from src/.  Each run
generates its inputs from --seed, measures `python3 -c "import mqunits"`
several times (setup_s), then runs the workload in a fresh interpreter
(worker.py), which times every operation and checks every output against
refs/.  With --trace 1 it runs the workload twice, untraced and traced, and
reports the per-layer metrics instead.

The result, with the environment it ran in, is written to
perfbench/out/<workload>_seed<seed>_trace<0|1>.json (or --out); a traced run
also writes its spans next to it.  The last line on stdout is
{"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import inputs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("scan200", "wide", "classnum")
END_TO_END = {
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "warm_wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_SPAWNS = 9
# scan200: two cold scans, each in a fresh interpreter, so that the run
# samples the machine over as long a stretch as the other workloads; after
# each, warm passes repeat for WARM_BOX_S seconds, at least WARM_MIN times.
# wide, classnum: each cold operation is followed by WARM_REPS warm ones.
COLD_PASSES = {"scan200": 2, "wide": 1, "classnum": 1}
WARM_MIN, WARM_BOX_S, WARM_REPS = 10, 8.0, 3
RUN_LIMIT_S = 170


def workload_inputs(name: str, seed: int, seconds: int) -> list:
    if name == "scan200":
        return inputs.scan_pairs(200)
    if name == "wide":
        return inputs.wide_inputs(seed, seconds)
    return inputs.classnum_inputs(seed, seconds)


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = dirty = None
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
            status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                     "--untracked-files=no"],
                                    capture_output=True, text=True, timeout=10)
            dirty = bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "git_commit": commit,
        "git_dirty": dirty,
        "seed": seed,
    }


def measure_setup() -> list:
    """Seconds to start an interpreter and import mqunits, SETUP_SPAWNS times,
    after one unmeasured start that writes the bytecode caches.  No timeout:
    Popen.wait with a timeout polls, which would round the times up."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-c", "import mqunits"]
    times = []
    for i in range(SETUP_SPAWNS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        if i:
            times.append(time.perf_counter() - t0)
    return times


def run_worker(spec: dict, tmp: str, deadline: float) -> dict:
    os.makedirs(tmp)
    spec = dict(spec, tmp=tmp, src=SRC, result=os.path.join(tmp, "result.json"))
    spec_path = os.path.join(tmp, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path],
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    with open(spec["result"]) as fh:
        return json.load(fh)


def tail(values: list) -> tuple:
    """(percentile, value, samples beyond): the highest of a fixed ladder of
    percentiles with at least ten samples beyond it, by nearest rank."""
    s = sorted(values)
    n = len(s)
    for pct in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return pct, s[rank - 1], n - rank
    return 50, statistics.median(s), n // 2


def merge(results: list) -> dict:
    """One result from the cold passes of one run: wall_s is their median,
    operation and warm-pass times are pooled."""
    return {
        "wall_s": statistics.median(r["wall_s"] for r in results),
        "op_s": [t for r in results for t in r["op_s"]],
        "warm_s": [t for r in results for t in r["warm_s"]],
        "rss_kb": max(r["rss_kb"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "mismatches": [m for r in results for m in r["mismatches"]],
    }


def end_to_end(res: dict, setup: list) -> tuple:
    pct, tail_s, beyond = tail(res["op_s"])
    metrics = {
        "wall_s": res["wall_s"],
        "op_ms_p50": statistics.median(res["op_s"]) * 1000,
        "op_ms_tail": tail_s * 1000,
        "warm_wall_s": statistics.median(res["warm_s"]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": res["rss_kb"] / 1024,
    }
    extra = {
        "op_count": len(res["op_s"]),
        "op_ms_tail_percentile": pct,
        "op_ms_tail_samples_beyond": beyond,
        "warm_passes": len(res["warm_s"]),
        "setup_samples_s": setup,
        "fail_ratio": res["failed"] / res["attempted"],
    }
    return metrics, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="mqunits benchmark, one workload per run")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="result file (default perfbench/out/...)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mqunits", "__init__.py")):
        print(f"perfbench: no mqunits package under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    out_path = args.out or os.path.join(OUT, stem + ".json")
    runner = "scan" if args.workload == "scan200" else args.workload
    # a traced run does an untraced and a traced pass, so it takes half the
    # inputs to stay within the time limit of one run
    size_s = args.seconds // 2 if args.trace else args.seconds
    work = dict(runner=runner, inputs=workload_inputs(args.workload, args.seed, max(1, size_s)))
    tmp = os.path.join(OUT, f"tmp-{stem}-{os.getpid()}")
    try:
        if args.trace:
            spans = os.path.splitext(out_path)[0] + ".spans.jsonl.gz"
            once = dict(work, warm_min=1, warm_box_s=0, warm_reps=1)
            base = run_worker(dict(once, trace=False), tmp + "-base", deadline)
            res = run_worker(dict(once, trace=True, spans=spans), tmp, deadline)
            tr = res.pop("trace")
            metrics = tracing.per_layer_metrics(tr["snapshot"], res["wall_s"], base["wall_s"])
            units = tracing.PER_LAYER
            extra = {"untraced_wall_s": base["wall_s"], "traced_wall_s": res["wall_s"],
                     "phases": tr["phases"], "spans_file": os.path.relpath(spans, ROOT),
                     "fail_ratio": (res["failed"] + base["failed"])
                     / (res["attempted"] + base["attempted"])}
            for key in ("attempted", "failed"):
                res[key] += base[key]
            res["mismatches"] += base["mismatches"]
        else:
            setup = measure_setup()
            spec = dict(work, trace=False, warm_min=WARM_MIN, warm_box_s=WARM_BOX_S,
                        warm_reps=WARM_REPS)
            res = merge([run_worker(spec, f"{tmp}-{i}", deadline)
                         for i in range(COLD_PASSES[args.workload])])
            metrics, extra = end_to_end(res, setup)
            units = END_TO_END
    finally:
        for i in range(COLD_PASSES[args.workload]):
            shutil.rmtree(f"{tmp}-{i}", ignore_errors=True)
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(tmp + "-base", ignore_errors=True)

    correct = res["failed"] == 0
    result = {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "benchmark": "perfbench",
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "inputs": work["inputs"],
        **result,
        "details": extra,
        "mismatches": res["mismatches"],
    }
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    for name, m in result["metrics"].items():
        print(f"{args.workload:14s} {name:40s} {m['value']:14.6g} {m['unit']}")
    print(f"{args.workload:14s} {'fail_ratio':40s} {extra['fail_ratio']:14.6g} ratio"
          f"  ({res['failed']} of {res['attempted']})")
    if not args.trace:
        print(f"{args.workload:14s} op_ms_tail is p{extra['op_ms_tail_percentile']:g} of"
              f" {extra['op_count']} operations, {extra['op_ms_tail_samples_beyond']} beyond it")
    for m in res["mismatches"]:
        print(f"{args.workload:14s} MISMATCH {m}")
    print(f"{args.workload:14s} result file {os.path.relpath(out_path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
