"""Spans and counters around the calls into each beammodes layer.

Each public function is wrapped under the name its caller looks it up
by: the `from ... import` bindings in the calling module, or the module
attribute that the benchmark's own operations call.  A span records its
name, start, end, parent span and the operation it belongs to; spans stay
in memory until the run writes them out.  Integrations additionally count
accepted steps and right-hand-side calls (through a wrapped `system`).
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from time import perf_counter

# scipy's DOP853 spends 12 RHS calls per step attempt (11 new stages plus
# the end-point derivative, reused as the next first stage) and 2 before
# the first step (the initial derivative and the step-size probe).  Every
# call beyond those of the accepted steps belongs to a rejected attempt.
DOP853_CALLS_PER_ATTEMPT = 12
DOP853_START_CALLS = 2

# (module holding the binding, attribute, span name)
WRAPPED = (
    ("beammodes.duffing", "elliptic_k", "special.elliptic_k"),
    ("beammodes.duffing", "period_of", "duffing.period_of"),
    ("beammodes.hill", "orbit_from_energy", "duffing.orbit_from_energy"),
    ("beammodes.hill", "integrate", "integrate.hill"),
    ("beammodes.twomode", "integrate", "integrate.twomode"),
    ("beammodes.regime", "find_zero_crossing", "integrate.find_zero_crossing"),
    ("beammodes.atlas", "classify_stability", "hill.classify_stability"),
    ("beammodes.hill", "criteria_report", "hill.criteria_report"),
    ("beammodes.hill", "monodromy", "hill.monodromy"),
    ("beammodes.hill", "classify_matrix", "hill.classify_matrix"),
    ("beammodes.atlas", "cazenave_limit_classify", "regime.cazenave_limit_classify"),
    ("beammodes.atlas", "sweep", "atlas.sweep"),
    ("beammodes.atlas", "find_thresholds", "atlas.find_thresholds"),
    ("beammodes.twomode", "simulate", "twomode.simulate"),
)

# Span fields: id, name, start, end, parent id, operation id, details.
ID, NAME, START, END, PARENT, OP, INFO = range(7)


class Tracer:
    """Installs the wrappers, collects spans, and restores the bindings."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op = None

    # -- recording --------------------------------------------------------
    def open(self, name: str, info: dict | None = None) -> list:
        span = [len(self.spans), name, perf_counter(), math.nan,
                self._stack[-1] if self._stack else None, self.op, info]
        self.spans.append(span)
        self._stack.append(span[ID])
        return span

    def close(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        tracer = self
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        def traced(*args, **kwargs):
            span = tracer.open(name)
            if before is not None:
                args = before(span, args)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[INFO] = {**(span[INFO] or {}), "error": type(exc).__name__}
                raise
            finally:
                tracer.close(span)
            if after is not None:
                after(span, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = sys.modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "op", "info")
        with open(path, "w") as stream:
            for span in self.spans:
                stream.write(json.dumps(dict(zip(keys, span))) + "\n")


# -- per-function hooks ----------------------------------------------------
def _count_rhs(span, args):
    counter = [0]
    system = args[0]

    def counted(t, y):
        counter[0] += 1
        return system(t, y)

    span[INFO] = {"rhs": counter}
    return (counted, *args[1:])


def _integration_done(span, args, trajectory):
    info = span[INFO]
    rhs = info["rhs"][0]
    steps = len(trajectory.times) - 1
    dense_extra = 3 * steps if trajectory.sol is not None else 0
    info.update(rhs=rhs, steps=steps, rejected=(
        rhs - DOP853_START_CALLS - dense_extra
        - DOP853_CALLS_PER_ATTEMPT * steps) / DOP853_CALLS_PER_ATTEMPT)


def _period_branch(span, args):
    span[INFO] = {"E": float(args[1])}
    return args


def _matrix_quality(span, args):
    matrix = args[0]
    det = float(matrix[0, 0] * matrix[1, 1] - matrix[0, 1] * matrix[1, 0])
    span[INFO] = {"det": det, "trace": float(matrix[0, 0] + matrix[1, 1])}
    return args


_BEFORE = {
    "integrate.hill": _count_rhs,
    "integrate.twomode": _count_rhs,
    "duffing.period_of": _period_branch,
    "hill.classify_matrix": _matrix_quality,
}
_AFTER = {
    "integrate.hill": _integration_done,
    "integrate.twomode": _integration_done,
}


# -- per-layer metrics -----------------------------------------------------
def _dur(span) -> float:
    return span[END] - span[START]


def _mean(values, scale=1.0) -> float:
    values = list(values)
    return scale * statistics.fmean(values) if values else math.nan


def layer_metrics(spans: list[list]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of one traced pass over the
    workloads, as {name: (value, unit)}."""
    by_name: dict[str, list[list]] = {}
    children: dict[int, list[list]] = {}
    for span in spans:
        by_name.setdefault(span[NAME], []).append(span)
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(span)

    def named(name):
        return by_name.get(name, [])

    def self_time(span, names) -> float:
        return _dur(span) - sum(_dur(c) for c in children.get(span[ID], ())
                                if c[NAME] in names)

    def under(span, name) -> int:
        count = 0
        for child in children.get(span[ID], ()):
            count += (child[NAME] == name) + under(child, name)
        return count

    def in_periods(name):
        # atlas cells call period_of too, to set up their orbits; the L0
        # metrics count the periods workload's own operations only
        return [s for s in named(name) if str(s[OP]).startswith("periods:")]

    out: dict[str, tuple[float, str]] = {}
    elliptic = in_periods("special.elliptic_k")
    out["special.elliptic_k.calls"] = (len(elliptic), "count")
    out["special.elliptic_k.us"] = (_mean(map(_dur, elliptic), 1e6), "us")

    periods = in_periods("duffing.period_of")
    out["duffing.period_of.calls"] = (len(periods), "count")
    out["duffing.period_of.positive_us"] = (
        _mean((_dur(s) for s in periods if s[INFO]["E"] > 0.0), 1e6), "us")
    out["duffing.period_of.well_us"] = (
        _mean((_dur(s) for s in periods if s[INFO]["E"] < 0.0), 1e6), "us")
    out["duffing.orbit_from_energy.us"] = (
        _mean(map(_dur, named("duffing.orbit_from_energy")), 1e6), "us")

    for layer in ("hill", "twomode"):
        runs = [s for s in named(f"integrate.{layer}") if "steps" in s[INFO]]
        steps = sum(s[INFO]["steps"] for s in runs)
        if layer == "hill":
            out["integrate.hill.calls"] = (len(runs), "count")
        out[f"integrate.{layer}.steps"] = (steps, "count")
        out[f"integrate.{layer}.rhs_calls"] = (
            sum(s[INFO]["rhs"] for s in runs), "count")
        out[f"integrate.{layer}.rejected_steps"] = (
            sum(s[INFO]["rejected"] for s in runs), "count")
        out[f"integrate.{layer}.us_per_step"] = (
            1e6 * sum(map(_dur, runs)) / steps if steps else math.nan, "us")

    crossings = named("integrate.find_zero_crossing")
    out["integrate.find_zero_crossing.calls"] = (len(crossings), "count")
    out["integrate.find_zero_crossing.ms"] = (_mean(map(_dur, crossings), 1e3), "ms")

    cells = named("hill.classify_stability")
    out["hill.classify_stability.calls"] = (len(cells), "count")
    out["hill.classify_stability.ms"] = (_mean(map(_dur, cells), 1e3), "ms")
    out["hill.criteria_report.ms"] = (
        _mean(map(_dur, named("hill.criteria_report")), 1e3), "ms")
    out["hill.monodromy.ms"] = (_mean(map(_dur, named("hill.monodromy")), 1e3), "ms")
    out["hill.integrations_per_cell"] = (
        len(named("integrate.hill")) / len(cells) if cells else math.nan, "count")
    matrices = named("hill.classify_matrix")
    passed = [s[INFO] for s in matrices if "error" not in s[INFO]]
    out["hill.quality_failures"] = (
        sum(s[INFO].get("error") == "NumericalQualityError" for s in matrices), "count")
    out["hill.det_err_max"] = (
        max((abs(i["det"] - 1.0) for i in passed), default=math.nan), "1")
    out["hill.trace_margin_min"] = (
        min((abs(abs(i["trace"]) - 2.0) for i in passed), default=math.nan), "1")

    limits = named("regime.cazenave_limit_classify")
    out["regime.cazenave_limit_classify.calls"] = (len(limits), "count")
    out["regime.cazenave_limit_classify.ms"] = (_mean(map(_dur, limits), 1e3), "ms")

    cell_names = {"hill.classify_stability", "regime.cazenave_limit_classify"}
    sweeps = named("atlas.sweep")
    searches = named("atlas.find_thresholds")
    atlas_cells = sum(under(s, n) for s in sweeps + searches for n in cell_names)
    atlas_time = sum(map(_dur, sweeps + searches))
    out["atlas.cells"] = (atlas_cells, "count")
    out["atlas.cells_per_s"] = (atlas_cells / atlas_time if atlas_time else math.nan, "1/s")
    out["atlas.sweep.self_ms"] = (
        _mean((self_time(s, cell_names) for s in sweeps), 1e3), "ms")
    out["atlas.find_thresholds.cells_per_call"] = (
        _mean(under(s, "hill.classify_stability") for s in searches), "count")

    sims = named("twomode.simulate")
    out["twomode.simulate.ms"] = (_mean(map(_dur, sims), 1e3), "ms")
    out["twomode.post_ms"] = (
        _mean((self_time(s, {"integrate.twomode"}) for s in sims), 1e3), "ms")
    return out
