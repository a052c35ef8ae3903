"""Command line front end.

Verbs: `verify` runs the full check battery for one pair, `scan` sweeps all
pairs up to a bound, `fsu` prints a fundamental system of units for a field
given by its radicands, `classnum` prints the class number data of one
quadratic field.  Exit code 0 means every check passed, 1 means a check
failed, a claim was falsified or the computation contradicted itself, 2
means the invocation was malformed or the pair is beyond the supported range.
"""

import argparse
import json
import math
import sys

from .errors import Falsified
from .field import FieldBasis
from .forms import (DISCRIMINANT_GUARD, class_number_imaginary, class_number_real, disc_of_radicand,
                    supported_discriminant)
from .intarith import unlimited_int_digits
from .quadratic import UNSUPPORTED
from .report import (
    _fsu_to_dict,
    report_emit,
    scan,
    verify_pair,
)
from .units import azizi_extend, fsu_biquadratic, fsu_quadratic, unit_index, wada_fsu


def _cmd_verify(args) -> int:
    rep = verify_pair(args.p, args.q)
    sys.stdout.buffer.write(report_emit(rep, "json" if args.json else "text"))
    if rep.condition["tag"] == UNSUPPORTED:
        return 2
    return 0 if rep.passed else 1


def _cmd_scan(args) -> int:
    summary = scan(args.max, jobs=args.jobs, cache_dir=args.cache, out=sys.stdout)
    return 0 if not summary.failures else 1


def _build_fsu(radicands, cm):
    rads = sorted(set(radicands))
    if -1 in rads:
        rads.remove(-1)
        cm = True
    if any(r < 2 for r in rads):
        raise ValueError("radicands must be squarefree integers > 1, optionally with -1")
    if not 1 <= len(rads) <= 3:
        raise ValueError("supported fields have 1 to 3 real radicands")
    # every radicand of the field, products included, as FieldBasis forms them
    field_rads = [1]
    for g in rads:
        field_rads += [r * g // math.gcd(r, g) ** 2 for r in field_rads]
    for r in sorted(field_rads):
        if r > DISCRIMINANT_GUARD:
            raise ValueError(f"radicand {r} exceeds the supported bound {DISCRIMINANT_GUARD}")
    if len(rads) == 1:
        fsu = fsu_quadratic(rads[0])
    elif len(rads) == 2:
        fsu = fsu_biquadratic(rads[0], rads[1])
    else:
        if 2 not in rads:
            raise ValueError("degree-8 fields must include radicand 2")
        odd = [r for r in rads if r != 2]
        p = next((r for r in odd if r % 8 == 5), None)
        q = next((r for r in odd if r % 8 == 3), None)
        if p is None or q is None:
            raise ValueError("degree-8 fields need one radicand = 5 and one = 3 (mod 8)")
        field = FieldBasis((2, p, q))
        fsu = wada_fsu(field, [fsu_biquadratic(2, d) for d in (p, q, p * q)])
    return azizi_extend(fsu) if cm else fsu


def _cmd_fsu(args) -> int:
    try:
        radicands = [int(x) for x in args.radicands.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse radicand list {args.radicands!r}")
    fsu = _build_fsu(radicands, args.cm)
    out = _fsu_to_dict(fsu)
    out["unit_index"] = unit_index(fsu)
    print(json.dumps(out, separators=(",", ":")))
    return 0


def _cmd_classnum(args) -> int:
    D = args.disc
    radicand = None if D < 0 else D if D % 4 == 1 else D // 4
    if radicand is not None and (radicand <= 1 or disc_of_radicand(radicand) != D):
        supported_discriminant(D)  # raises: D is not fundamental, or 20 would be answered for 5
    # the entries validate the discriminant they count for, so D is tested once
    rep = class_number_imaginary(D) if radicand is None else class_number_real(radicand)
    # a tuple prints as a JSON list
    fields = {k: getattr(rep, k) for k in ("h", "h2", "two_rank", "group_structure")}
    print(json.dumps({"discriminant": D, "radicand": radicand, **fields}, separators=(",", ":")))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mqunits",
        description="exact verification of unit groups and 2-class numbers "
                    "of multiquadratic fields built from primes p = 5, q = 3 (mod 8)",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    v = sub.add_parser("verify", help="run all checks for one pair (p, q)")
    v.add_argument("--p", type=int, required=True)
    v.add_argument("--q", type=int, required=True)
    v.add_argument("--json", action="store_true", help="emit one report JSON line")
    v.set_defaults(run=_cmd_verify)

    s = sub.add_parser("scan", help="verify every pair with both primes <= max")
    s.add_argument("--max", type=int, required=True)
    s.add_argument("--jobs", type=int, default=1)
    s.add_argument("--cache", default=None, help="directory of reusable pair reports")
    s.set_defaults(run=_cmd_scan)

    f = sub.add_parser("fsu", help="fundamental system of units of one field")
    f.add_argument("--radicands", required=True, help="comma-separated, e.g. 2,5,11")
    f.add_argument("--cm", action="store_true", help="adjoin i and extend the system")
    f.set_defaults(run=_cmd_fsu)

    c = sub.add_parser("classnum", help="class number of one quadratic field")
    c.add_argument("--disc", type=int, required=True, help="fundamental discriminant")
    c.set_defaults(run=_cmd_classnum)

    args = parser.parse_args(argv)
    # a fundamental unit inside the supported range can have more digits than
    # the default int <-> str limit, so the limit is lifted while the verb
    # runs; arguments were parsed under it
    try:
        with unlimited_int_digits():
            return args.run(args)
    except Falsified as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:  # a contradiction in our own computation, not in a claim
        print(f"error: {exc!r}", file=sys.stderr)
        return 1
    except ValueError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    raise SystemExit(main())
