"""Per-layer spans recorded from outside the program.

Tracer.install() replaces the public functions of each mqunits layer by
wrappers that record one span per call: name, start, end, parent span and
operation id.  A function imported with `from .x import y` has one binding
in every importing module, so each binding is replaced, found by identity
across all loaded mqunits modules.  FieldElement.__mul__, __rmul__ and
inverse are wrapped on the class.  The 16 check functions of the battery
are wrapped inside the report module's check registry.

Spans stay in memory; write_spans() writes them out at the end.  Self time
is a span's duration minus the time its child spans cover; `ms` metrics are
inclusive times of outermost calls, so recursion is not counted twice.
"""

import gzip
import json
import sys
import time
from array import array

# layer name -> (module, attribute); the module holds the defining binding
FUNCTIONS = {
    "field.sqrt_in_field": ("mqunits.field", "sqrt_in_field"),
    "field.sign_at_embedding": ("mqunits.field", "sign_at_embedding"),
    "intarith.sqrt_interval": ("mqunits.intarith", "sqrt_interval"),
    "units.fsu_biquadratic": ("mqunits.units", "fsu_biquadratic"),
    "units.wada_fsu": ("mqunits.units", "wada_fsu"),
    "units.azizi_extend": ("mqunits.units", "azizi_extend"),
    "units.norm_table": ("mqunits.units", "norm_table"),
    "units.lattice_equal": ("mqunits.units", "lattice_equal"),
    "units.vector_in_lattice": ("mqunits.units", "vector_in_lattice"),
    "forms.class_number_imaginary": ("mqunits.forms", "class_number_imaginary"),
    "forms.class_number_real": ("mqunits.forms", "class_number_real"),
    "classnum.quadratic_h2": ("mqunits.classnum", "quadratic_h2"),
    "quadratic.fundamental_unit": ("mqunits.quadratic", "fundamental_unit"),
    "quadratic.lemma_decompose": ("mqunits.quadratic", "lemma_decompose"),
    "report.verify_pair": ("mqunits.report", "verify_pair"),
    "report.report_from_json": ("mqunits.report", "report_from_json"),
    "report.report_to_json": ("mqunits.report", "report_to_json"),
    "report.scan": ("mqunits.report", "scan"),
}
METHODS = {
    "field.mul": ("__mul__", "__rmul__"),
    "field.inverse": ("inverse",),
}
# functools.lru_cache functions whose misses are reported
CACHED = ("forms.class_number_imaginary", "forms.class_number_real",
          "quadratic.fundamental_unit")

CHECK_IDS = (
    "classify", "lemma_q", "lemma_2q", "lemma_pq", "lemma_2pq", "biquad_fsu_all",
    "wada_q_index", "wada_generators", "azizi_square", "cm_fsu", "norm_tables",
    "quad_h2_table", "kuroda_deg4", "kuroda_deg8", "kuroda_deg16", "structures",
)

# every per-layer metric, in BENCHMARK.json order: name -> unit
PER_LAYER = {
    "field.mul.calls": "count",
    "field.mul.self_ms": "ms",
    "field.mul.us_per_call": "us",
    "field.inverse.calls": "count",
    "field.inverse.self_ms": "ms",
    "field.sqrt_in_field.calls": "count",
    "field.sqrt_in_field.self_ms": "ms",
    "field.sqrt_in_field.hit_ratio": "ratio",
    "field.sign_at_embedding.calls": "count",
    "field.sign_at_embedding.self_ms": "ms",
    "intarith.sqrt_interval.calls": "count",
    "intarith.sqrt_interval.calls_per_sign": "ratio",
    "field.max_coeff_bits": "bits",
    "units.fsu_biquadratic.ms": "ms",
    "units.wada_fsu.ms": "ms",
    "units.azizi_extend.ms": "ms",
    "units.norm_table.ms": "ms",
    "units.lattice_equal.ms": "ms",
    "units.vector_in_lattice.calls": "count",
    "forms.class_number_imaginary.calls": "count",
    "forms.class_number_imaginary.misses": "count",
    "forms.class_number_imaginary.self_ms": "ms",
    "forms.class_number_real.calls": "count",
    "forms.class_number_real.misses": "count",
    "forms.class_number_real.self_ms": "ms",
    "classnum.quadratic_h2.calls": "count",
    "classnum.quadratic_h2.ms": "ms",
    "classnum.quadratic_h2.memo_hit_ratio": "ratio",
    "quadratic.fundamental_unit.misses": "count",
    "quadratic.fundamental_unit.ms": "ms",
    "quadratic.lemma_decompose.ms": "ms",
    **{f"report.check.{cid}.ms": "ms" for cid in CHECK_IDS},
    "report.report_from_json.calls": "count",
    "report.report_from_json.ms": "ms",
    "report.report_to_json.ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def _max_coeff_bits(u) -> int:
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for c in u.coords.values()), default=0)


class Tracer:
    """Spans and per-layer totals of one process, from wrappers it installs."""

    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.op_labels = []
        self.op = -1
        self._stack = []  # [span index, time covered by children] per open span
        self.stats = {}  # name -> [calls, self seconds, outermost inclusive seconds, depth]
        self.counts = {"sqrt_hits": 0, "h2_memo_hits": 0, "max_coeff_bits": 0}
        self._undo = []
        self._cache_base = {}

    def begin_op(self, label: str) -> None:
        self.op = len(self.op_labels)
        self.op_labels.append(label)

    def wrap(self, name, fn, before=None, after=None):
        name_id = len(self.names)
        self.names.append(name)
        stat = self.stats[name] = [0, 0.0, 0.0, 0]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_op.append(self.op)
            frame = [idx, 0.0]
            stack.append(frame)
            stat[3] += 1
            t0 = clock()
            self.span_start.append(t0)
            self.span_end.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.span_end[idx] = t1
                stack.pop()
                stat[3] -= 1
                dur = t1 - t0
                stat[0] += 1
                stat[1] += dur - frame[1]
                if not stat[3]:
                    stat[2] += dur
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _replace_everywhere(self, original, wrapper) -> int:
        n = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "mqunits" or modname.startswith("mqunits.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))
                    n += 1
        return n

    def install(self) -> None:
        """Wrap every layer function; mqunits and its modules must be imported."""
        from mqunits import classnum, field, report

        def count_hit(result):
            self.counts["sqrt_hits"] += result is not None

        def coeff_bits(args):
            bits = _max_coeff_bits(args[0])
            if bits > self.counts["max_coeff_bits"]:
                self.counts["max_coeff_bits"] = bits

        def memo_hit(args):
            self.counts["h2_memo_hits"] += args[0] in getattr(classnum, "_H2_MEMO", ())

        hooks = {
            "field.sqrt_in_field": (None, count_hit),
            "field.sign_at_embedding": (coeff_bits, None),
            "classnum.quadratic_h2": (memo_hit, None),
        }
        for name, (modname, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[modname], attr)
            if name in CACHED:
                self._cache_base[name] = (original, original.cache_info().misses)
            before, after = hooks.get(name, (None, None))
            if not self._replace_everywhere(original, self.wrap(name, original, before, after)):
                raise RuntimeError(f"no binding of {modname}.{attr} found")
        for name, attrs in METHODS.items():
            original = getattr(field.FieldElement, attrs[0])
            wrapper = self.wrap(name, original)
            for attr in attrs:
                self._undo.append((field.FieldElement, attr, getattr(field.FieldElement, attr)))
                setattr(field.FieldElement, attr, wrapper)
        checks = report._CHECKS
        if tuple(checks) != CHECK_IDS:
            raise RuntimeError(f"check registry changed: {tuple(checks)}")
        for cid in CHECK_IDS:
            self._undo.append((checks, cid, checks[cid]))
            checks[cid] = self.wrap(f"report.check.{cid}", checks[cid])

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._undo.clear()

    def calls(self) -> dict:
        return {name: s[0] for name, s in self.stats.items()}

    def self_s_total(self) -> float:
        return sum(s[1] for s in self.stats.values())

    def snapshot(self) -> dict:
        """Everything the per-layer metrics are computed from, as plain data."""
        misses = {name: fn.cache_info().misses - base
                  for name, (fn, base) in self._cache_base.items()}
        return {"stats": {name: s[:3] for name, s in self.stats.items()},
                "counts": dict(self.counts), "misses": misses}

    def write_spans(self, path: str) -> None:
        """Gzipped JSON lines: a header with names and operation labels, then
        one [name, start_s, end_s, parent, op] row per span."""
        with gzip.open(path, "wt", compresslevel=3) as fh:
            fh.write(json.dumps({"names": self.names, "ops": self.op_labels}) + "\n")
            for row in zip(self.span_name, self.span_start, self.span_end,
                           self.span_parent, self.span_op):
                fh.write("[%d,%.9f,%.9f,%d,%d]\n" % row)


def per_layer_metrics(snap: dict, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """The PER_LAYER metrics from one Tracer.snapshot()."""
    stats, counts, misses = snap["stats"], snap["counts"], snap["misses"]

    def calls(name):
        return stats[name][0]

    def self_ms(name):
        return stats[name][1] * 1000

    def ms(name):
        return stats[name][2] * 1000

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "field.mul.calls": calls("field.mul"),
        "field.mul.self_ms": self_ms("field.mul"),
        "field.mul.us_per_call": ratio(self_ms("field.mul") * 1000, calls("field.mul")),
        "field.inverse.calls": calls("field.inverse"),
        "field.inverse.self_ms": self_ms("field.inverse"),
        "field.sqrt_in_field.calls": calls("field.sqrt_in_field"),
        "field.sqrt_in_field.self_ms": self_ms("field.sqrt_in_field"),
        "field.sqrt_in_field.hit_ratio": ratio(counts["sqrt_hits"], calls("field.sqrt_in_field")),
        "field.sign_at_embedding.calls": calls("field.sign_at_embedding"),
        "field.sign_at_embedding.self_ms": self_ms("field.sign_at_embedding"),
        "intarith.sqrt_interval.calls": calls("intarith.sqrt_interval"),
        "intarith.sqrt_interval.calls_per_sign": ratio(calls("intarith.sqrt_interval"),
                                                       calls("field.sign_at_embedding")),
        "field.max_coeff_bits": counts["max_coeff_bits"],
    }
    for fn in ("fsu_biquadratic", "wada_fsu", "azizi_extend", "norm_table", "lattice_equal"):
        out[f"units.{fn}.ms"] = ms(f"units.{fn}")
    out["units.vector_in_lattice.calls"] = calls("units.vector_in_lattice")
    for kind in ("imaginary", "real"):
        name = f"forms.class_number_{kind}"
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.misses"] = misses[name]
        out[f"{name}.self_ms"] = self_ms(name)
    out["classnum.quadratic_h2.calls"] = calls("classnum.quadratic_h2")
    out["classnum.quadratic_h2.ms"] = ms("classnum.quadratic_h2")
    out["classnum.quadratic_h2.memo_hit_ratio"] = ratio(counts["h2_memo_hits"],
                                                        calls("classnum.quadratic_h2"))
    out["quadratic.fundamental_unit.misses"] = misses["quadratic.fundamental_unit"]
    out["quadratic.fundamental_unit.ms"] = ms("quadratic.fundamental_unit")
    out["quadratic.lemma_decompose.ms"] = ms("quadratic.lemma_decompose")
    for cid in CHECK_IDS:
        out[f"report.check.{cid}.ms"] = ms(f"report.check.{cid}")
    out["report.report_from_json.calls"] = calls("report.report_from_json")
    out["report.report_from_json.ms"] = ms("report.report_from_json")
    out["report.report_to_json.ms"] = ms("report.report_to_json")
    out["trace.overhead_ratio"] = traced_wall_s / untraced_wall_s
    assert list(out) == list(PER_LAYER)
    return out

