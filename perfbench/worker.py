"""One measured pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json

SPEC is written by run.py.  It names the workload, its generated inputs, the
source directory to import mqunits from, a scratch directory, whether to
trace, and the warm-pass settings.  The worker times every operation itself,
checks every output against refs/, and writes its raw measurements as JSON
to SPEC["result"].
"""

import io
import json
import os
import resource
import statistics
import sys
import time

import refs
import tracing

clock = time.perf_counter


class Outcome:
    """Operation times and output checks of one worker."""

    def __init__(self):
        self.op_s = []
        self.attempted = 0
        self.failed = 0
        self.mismatches = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.mismatches) < 10:
                self.mismatches.append(what)


def run_scan(spec, out: Outcome, tracer, phase_end) -> dict:
    """`scan --max 200 --cache DIR` through cli.main, cold and then warm.

    The warm pass repeats for warm_box_s seconds, at least warm_min times."""
    from mqunits import cli, report

    ref = refs.load(refs.REPORTS_PATH)
    keys = [refs.pair_key(p, q) for p, q in spec["inputs"]]
    argv = ["scan", "--max", "200", "--cache", os.path.join(spec["tmp"], "cache")]
    verify_pair = report.verify_pair

    def timed(p, q):
        if tracer is not None:
            tracer.begin_op(refs.pair_key(p, q))
        t0 = clock()
        rep = verify_pair(p, q)
        out.op_s.append(clock() - t0)
        return rep

    report.verify_pair = timed

    def scan_once(label):
        buf = io.StringIO()
        saved, sys.stdout = sys.stdout, buf
        try:
            t0 = clock()
            rc = cli.main(argv)
            dt = clock() - t0
        finally:
            sys.stdout = saved
        *lines, summary = buf.getvalue().splitlines() or [""]
        out.check(rc == 0 and summary == ref["scan200_summary"],
                  f"{label}: exit {rc} or summary differs")
        if len(lines) != len(keys):
            out.check(False, f"{label}: {len(lines)} report lines, expected {len(keys)}")
        for key, line in zip(keys, lines):
            out.check(refs.digest_line(line) == ref["reports"][key], f"{label}: report {key} differs")
        return dt

    wall_s = scan_once("cold")
    phase_end("cold")
    cold_ops = len(out.op_s)
    if tracer is not None:
        tracer.begin_op("warm")
    warm = []
    t0 = clock()
    while len(warm) < spec["warm_min"] or clock() - t0 < spec["warm_box_s"]:
        warm.append(scan_once("warm"))
    out.check(len(out.op_s) == cold_ops,
              f"warm passes recomputed {len(out.op_s) - cold_ops} pairs")
    del out.op_s[cold_ops:]
    return {"wall_s": wall_s, "warm_s": warm}


def _interleaved(spec, out: Outcome, tracer, items, label, cold_op, warm_op, same) -> dict:
    """Each cold operation is followed by warm_reps warm repetitions on the
    same item, so that the warm pass is sampled across the whole run.

    wall_s is the sum of the cold operation times; the one warm pass is the
    sum, over items, of the median warm repetition."""
    cold, warm_s = [], 0.0
    for item in items:
        if tracer is not None:
            tracer.begin_op(label(item))
        t0 = clock()
        value = cold_op(item)
        out.op_s.append(clock() - t0)
        cold.append(value)
        reps = []
        for _ in range(spec["warm_reps"]):
            t0 = clock()
            again = warm_op(item)
            reps.append(clock() - t0)
            out.check(same(value, again), f"warm answer for {label(item)} differs")
        warm_s += statistics.median(reps)
    return {"wall_s": sum(out.op_s), "warm_s": [warm_s], "cold": cold}


def run_wide(spec, out: Outcome, tracer, phase_end) -> dict:
    """verify_pair on each pair, its report written with report_to_json; the
    warm pass reads each report back with report_from_json."""
    from mqunits import report

    ref = refs.load(refs.REPORTS_PATH)["reports"]
    pairs = [tuple(pq) for pq in spec["inputs"]]

    def path(pq):
        return os.path.join(spec["tmp"], f"pair_{pq[0]}_{pq[1]}.json")

    def cold_op(pq):
        rep = report.verify_pair(*pq)
        line = report.report_to_json(rep)
        with open(path(pq), "w") as fh:
            fh.write(line)
        return rep, line

    def warm_op(pq):
        with open(path(pq)) as fh:
            return report.report_from_json(fh.read())

    res = _interleaved(spec, out, tracer, pairs, lambda pq: refs.pair_key(*pq),
                       cold_op, warm_op, lambda value, again: again == value[0])
    phase_end("cold")
    for pq, (_, line) in zip(pairs, res.pop("cold")):
        out.check(refs.digest_line(line) == ref[refs.pair_key(*pq)],
                  f"report {refs.pair_key(*pq)} differs")
    return res


def run_classnum(spec, out: Outcome, tracer, phase_end) -> dict:
    """The public class number functions; the warm pass asks again."""
    from mqunits import forms

    ref = refs.load(refs.CLASSNUM_PATH)

    def solve(D):
        if D < 0:
            return forms.class_number_imaginary(D)
        return forms.class_number_real(D if D % 4 == 1 else D // 4)

    discs = spec["inputs"]
    res = _interleaved(spec, out, tracer, discs, lambda D: f"D={D}", solve, solve,
                       lambda value, again: again == value)
    phase_end("cold")
    for D, rep in zip(discs, res.pop("cold")):
        rec = refs.classnum_record(rep)
        out.check(rec == ref[str(D)], f"class number data of {D} differs: {rec}")
    return res


RUNNERS = {"scan": run_scan, "wide": run_wide, "classnum": run_classnum}


def main(spec_path: str) -> None:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import mqunits  # noqa: F401  (loads every layer module before wrapping)
    import mqunits.cli  # noqa: F401

    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
    phases = {}

    def phase_end(name):
        if tracer is not None:
            phases[name] = {"calls": tracer.calls(), "self_s": tracer.self_s_total()}

    out = Outcome()
    result = RUNNERS[spec["runner"]](spec, out, tracer, phase_end)
    result.update(op_s=out.op_s, attempted=out.attempted, failed=out.failed,
                  mismatches=out.mismatches,
                  rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if tracer is not None:
        tracer.uninstall()
        cold = phases["cold"]
        phases["warm"] = {
            "calls": {k: v - cold["calls"][k] for k, v in tracer.calls().items()},
            "self_s": tracer.self_s_total() - cold["self_s"],
        }
        result["trace"] = {"snapshot": tracer.snapshot(), "phases": phases}
        tracer.write_spans(spec["spans"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
