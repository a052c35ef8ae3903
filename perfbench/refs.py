"""Reference outputs of the benchmark workloads, and how they are recorded.

refs/reports.json holds, for every pair of `scan --max 200` and every pair of
the `wide` pool, the SHA-256 of its report line with `elapsed_ms` dropped,
plus the scan summary line.  refs/classnum.json holds h, h2, the 2-rank and
the group structure of every discriminant in the `classnum` pool.
refs/costs.json holds the milliseconds each pool input took while recording;
inputs.py sorts the pools by it to stratify samples.

Record them again only when a change is meant to alter the outputs:

    PYTHONPATH=src python3 perfbench/refs.py [--jobs 2]

Recording cross-checks the class numbers against an independent route
(spot values and the analytic class number formula) before writing.
"""

import argparse
import hashlib
import io
import json
import os
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
REF_DIR = os.path.join(HERE, "refs")
REPORTS_PATH = os.path.join(REF_DIR, "reports.json")
CLASSNUM_PATH = os.path.join(REF_DIR, "classnum.json")
COSTS_PATH = os.path.join(REF_DIR, "costs.json")

_ELAPSED_RE = re.compile(r',"elapsed_ms":[-+0-9.eE]+\}$')

# h of two imaginary fields, stated independently of any computation here
SPOT_CLASS_NUMBERS = {-120: 4, -440: 12}
ANALYTIC_LIMIT = 10**5


def digest_line(line: str) -> str:
    """SHA-256 of one report line, byte for byte, with elapsed_ms removed."""
    stripped, n = _ELAPSED_RE.subn("}", line.rstrip("\n"))
    if n != 1:
        raise ValueError("report line without a trailing elapsed_ms field")
    return hashlib.sha256(stripped.encode()).hexdigest()


def pair_key(p: int, q: int) -> str:
    return f"{p},{q}"


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def classnum_record(rep) -> list:
    gs = rep.group_structure
    return [rep.h, rep.h2, rep.two_rank, list(gs) if gs else None]


# ---------------------------------------------------------------------------
# independent cross-check of imaginary class numbers


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n) for n >= 1."""
    result = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def analytic_class_number(D: int) -> int:
    """h(D) = -(1/|D|) * sum_{0<a<|D|} (D/a) * a, for fundamental D < -4."""
    if D >= -4:
        raise ValueError("the formula is stated for D < -4")
    n = -D
    total = sum(kronecker(D, a) * a for a in range(1, n))
    h, rem = divmod(-total, n)
    if rem:
        raise ArithmeticError(f"non-integral analytic class number for {D}")
    return h


def two_part(h: int) -> int:
    return h & -h


def crosscheck_classnum(table: dict) -> list[str]:
    """Problems found in a {D: [h, h2, two_rank, structure]} table."""
    bad = []
    for key, (h, h2, rank, structure) in table.items():
        D = int(key)
        if h2 != two_part(h):
            bad.append(f"{D}: h2 {h2} is not the 2-part of h {h}")
        if D < 0:
            prod = 1
            for n in structure:
                prod *= n
            if prod != h or rank != sum(1 for n in structure if n % 2 == 0):
                bad.append(f"{D}: group structure {structure} disagrees with h {h}, rank {rank}")
            if -ANALYTIC_LIMIT <= D < -4 and analytic_class_number(D) != h:
                bad.append(f"{D}: h {h} differs from the analytic class number formula")
        elif structure is not None or rank is not None:
            bad.append(f"{D}: real field with group structure data")
    return bad


# ---------------------------------------------------------------------------
# recording


def _report_line(pair):
    from mqunits.report import report_to_json, verify_pair

    t0 = time.perf_counter()
    rep = verify_pair(*pair)
    ms = (time.perf_counter() - t0) * 1000
    if not rep.passed:
        raise RuntimeError(f"pair {pair} does not pass at this commit")
    return report_to_json(rep), ms


def _classnum(D):
    from mqunits.forms import class_number_imaginary, class_number_real

    t0 = time.perf_counter()
    rep = class_number_imaginary(D) if D < 0 else class_number_real(D if D % 4 == 1 else D // 4)
    return classnum_record(rep), (time.perf_counter() - t0) * 1000


def _write_lines(path: str, mapping: dict) -> None:
    """A JSON object with one key per line."""
    with open(path, "w") as fh:
        fh.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                     for k, v in mapping.items()) + "\n}\n")


def record(jobs: int) -> None:
    import inputs
    from mqunits import cli

    out = io.StringIO()
    saved, sys.stdout = sys.stdout, out
    try:
        rc = cli.main(["scan", "--max", "200"])
    finally:
        sys.stdout = saved
    if rc != 0:
        raise RuntimeError(f"scan --max 200 exited with {rc}")
    *lines, summary = out.getvalue().splitlines()
    if len(lines) != len(inputs.scan_pairs(200)):
        raise RuntimeError("scan --max 200 printed an unexpected number of reports")
    reports = {}
    for line in lines:
        d = json.loads(line)
        reports[pair_key(d["p"], d["q"])] = digest_line(line)

    wide = inputs.wide_pool()
    pool = inputs.classnum_pool()
    costs = {}
    classnums = {}
    with ProcessPoolExecutor(max_workers=jobs) as ex:
        for pair, (line, ms) in zip(wide, ex.map(_report_line, wide, chunksize=4)):
            reports[pair_key(*pair)] = digest_line(line)
            costs[pair_key(*pair)] = round(ms, 3)
        for D, (rec, ms) in zip(pool, ex.map(_classnum, pool, chunksize=8)):
            classnums[str(D)] = rec
            costs[str(D)] = round(ms, 3)
    for D in SPOT_CLASS_NUMBERS:
        classnums[str(D)] = _classnum(D)[0]

    for D, h in SPOT_CLASS_NUMBERS.items():
        if classnums[str(D)][0] != h:
            raise RuntimeError(f"h({D}) = {classnums[str(D)][0]}, expected {h}")
    bad = crosscheck_classnum(classnums)
    if bad:
        raise RuntimeError("class number cross-check failed:\n" + "\n".join(bad))

    os.makedirs(REF_DIR, exist_ok=True)
    with open(REPORTS_PATH, "w") as fh:
        json.dump({"scan200_summary": summary, "reports": reports}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    _write_lines(CLASSNUM_PATH, classnums)
    _write_lines(COSTS_PATH, costs)
    print(f"recorded {len(reports)} report digests and {len(classnums)} class numbers")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", type=int, default=1)
    record(ap.parse_args().jobs)
