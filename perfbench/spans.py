"""Layer spans for the benchmark's traced runs.

A traced run swaps each public entry point in ``WRAPPED`` for a timing
wrapper, under the module attribute by which its caller looks it up, and
puts every original back when the operation ends.  Untraced operations
run with no wrapper installed at all.

Notes on what the spans can and cannot see:

* ``reduction.default_prefix_packer`` is bound as the default value of
  ``reduce_and_pack``'s ``prefix_packer`` argument when the module loads,
  so no module-level wrapper can reach it.  The ``meir_moser_pack`` calls
  it makes therefore show up directly under ``glue_pack`` (case b) and
  under ``reduce_and_pack`` (case c).
* ``cli.cli_dispatch``, ``reduction.reduce_and_pack``,
  ``geometry.verify_packing`` and ``constants.build_report`` are the
  harness's own entry points; the harness calls them through their
  modules so that the same wrappers time them.
* ``feasible_midpoint_region`` and ``region_lexicomin`` live in
  ``geometry`` but are counted in the whitespace layer, whose cost they
  are.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional


@dataclass
class Span:
    name: str
    op: Optional[int]
    parent: Optional[int]
    start: float = 0.0
    end: float = 0.0
    failed: bool = False
    counts: dict = field(default_factory=dict)
    # Objects kept for the summary (the whitespace job, returned regions),
    # so that derived numbers are computed after the run, outside every span.
    keep: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _count_squares(span: Span, args: tuple, result: object) -> None:
    span.counts["squares"] = len(args[0])


def _count_placements(span: Span, args: tuple, result: object) -> None:
    span.counts["placements"] = len(args[0].placements)


def _count_terms(span: Span, args: tuple, result: object) -> None:
    lo, hi = args[0], args[1]
    span.counts["terms"] = max(0, hi - lo + 1)


def _keep_job(span: Span, args: tuple, result: object) -> None:
    span.keep["job"] = args[0]


def _count_region(span: Span, args: tuple, result: object) -> None:
    span.counts["obstacles"] = len(args[1])
    span.keep["side"] = args[2]
    if result is not None:
        span.counts["parts"] = len(result.parts)
        span.keep["region"] = result


Counter = Optional[Callable[[Span, tuple, object], None]]

#: (module, attribute, layer, counter).  The layer is the one whose cost
#: the call is; see the module docstring for the entries that are not
#: defined in the module named here.
WRAPPED: tuple[tuple[str, str, str, Counter], ...] = (
    ("moserpack.cli", "cli_dispatch", "cli", None),
    ("moserpack.cli", "instance_from_dict", "geometry", None),
    ("moserpack.cli", "reduce_and_pack", "reduction", None),
    ("moserpack.cli", "result_to_dict", "geometry", None),
    ("moserpack.cli", "packing_from_dict", "geometry", None),
    ("moserpack.cli", "verify_packing", "geometry", _count_placements),
    ("moserpack.reduction", "reduce_and_pack", "reduction", None),
    ("moserpack.reduction", "glue_pack", "reduction", None),
    ("moserpack.reduction", "meir_moser_pack", "shelf", _count_squares),
    ("moserpack.reduction", "small_s1_pack", "shelf", _count_squares),
    ("moserpack.reduction", "find_small_index", "reduction", None),
    ("moserpack.reduction", "whitespace_pack", "whitespace", _keep_job),
    ("moserpack.whitespace", "feasible_midpoint_region", "whitespace", _count_region),
    ("moserpack.whitespace", "region_lexicomin", "whitespace", None),
    ("moserpack.geometry", "verify_packing", "geometry", _count_placements),
    ("moserpack.constants", "build_report", "constants", None),
    ("moserpack.constants", "n0_simple", "constants", None),
    ("moserpack.constants", "n0_integral", "constants", None),
    ("moserpack.constants", "derive_N", "constants", None),
    ("moserpack.constants", "harmonic_range_sum", "constants", _count_terms),
)

LAYERS = ("cli", "geometry", "reduction", "shelf", "whitespace", "constants")
_LAYER_OF = {f"{m.rsplit('.', 1)[1]}.{a}": layer for m, a, layer, _ in WRAPPED}

_WIRE = {"cli.instance_from_dict", "cli.result_to_dict", "cli.packing_from_dict"}
_SHELF = {"reduction.meir_moser_pack", "reduction.small_s1_pack"}
_VERIFY = {"cli.verify_packing", "geometry.verify_packing"}
_REDUCE = {"cli.reduce_and_pack", "reduction.reduce_and_pack",
           "reduction.glue_pack", "reduction.find_small_index"}
_FLOORS = {"constants.n0_simple", "constants.n0_integral", "constants.derive_N"}


class Tracer:
    """Collects spans in memory; ``op`` tags every span with the current operation."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: Optional[int] = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, counter: Counter) -> Callable:
        def wrapper(*args, **kwargs):
            span = Span(name, self.op, self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            result = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if counter is not None:
                    counter(span, args, result)

        return wrapper

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        The program is single-threaded, so the children of one span are
        disjoint and their durations add up.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.duration
        return [s.duration - c for s, c in zip(self.spans, child)]


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Install every wrapper in ``WRAPPED``; restore the originals on exit."""
    saved = []
    try:
        for module_name, attr, _layer, counter in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            name = f"{module_name.rsplit('.', 1)[1]}.{attr}"
            setattr(module, attr, tracer.wrap(name, original, counter))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


#: Unit of every per-layer metric, in the order the benchmark reports them.
UNITS = {
    "cli.self_s": "s", "cli.json_bytes": "count",
    "geometry.wire_s": "s",
    "reduction.self_s": "s",
    "shelf.busy_s": "s", "shelf.calls": "count", "shelf.failed_calls": "count",
    "shelf.useful_ratio": "ratio", "shelf.squares": "count",
    "whitespace.busy_s": "s", "whitespace.steps": "count",
    "whitespace.region_s": "s", "whitespace.lexicomin_s": "s",
    "whitespace.obstacles_mean": "count", "whitespace.region_parts_mean": "count",
    "whitespace.region_parts_max": "count", "whitespace.margin_min": "area",
    "geometry.verify_s": "s", "geometry.verify_placements": "count",
    "geometry.verify_placements_per_s": "1/s",
    "constants.harmonic_s": "s", "constants.harmonic_terms": "count",
    "constants.floor_s": "s", "constants.self_s": "s",
    "bench.trace_overhead_frac": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def op_metrics(tracer: Tracer, op: int, op_s: float, json_bytes: int) -> dict:
    """Per-layer metrics of one traced operation taking ``op_s`` seconds."""
    from moserpack.geometry import region_area
    from moserpack.whitespace import midpoint_area_bound

    self_s = tracer.self_times()
    idx = [i for i, s in enumerate(tracer.spans) if s.op == op]
    spans = tracer.spans

    def busy(names: set) -> float:
        return math.fsum(spans[i].duration for i in idx if spans[i].name in names)

    def own(names: set) -> float:
        return math.fsum(self_s[i] for i in idx if spans[i].name in names)

    shelf = [spans[i] for i in idx if spans[i].name in _SHELF]
    shelf_ok = sum(1 for s in shelf if not s.failed)
    regions = [i for i in idx if spans[i].name == "whitespace.feasible_midpoint_region"]
    parts = [spans[i].counts.get("parts", 0) for i in regions]
    margins = []
    for i in regions:
        span = spans[i]
        if span.keep.get("side", 0.0) <= 0.0 or "region" not in span.keep:
            continue
        job = spans[span.parent].keep["job"]
        n = len(job.base.placements)
        margins.append(region_area(span.keep["region"])
                       - midpoint_area_bound(job.F, n, job.c, span.keep["side"]))
    verify_s = busy(_VERIFY)
    verified = sum(spans[i].counts["placements"] for i in idx if spans[i].name in _VERIFY)

    metrics = {
        "cli.self_s": own({"cli.cli_dispatch"}),
        "cli.json_bytes": json_bytes,
        "geometry.wire_s": busy(_WIRE),
        "reduction.self_s": own(_REDUCE),
        "shelf.busy_s": busy(_SHELF),
        "shelf.calls": len(shelf),
        "shelf.failed_calls": len(shelf) - shelf_ok,
        "shelf.useful_ratio": _ratio(shelf_ok, len(shelf)),
        "shelf.squares": sum(s.counts["squares"] for s in shelf),
        "whitespace.busy_s": busy({"reduction.whitespace_pack"}),
        "whitespace.steps": len(regions),
        "whitespace.region_s": busy({"whitespace.feasible_midpoint_region"}),
        "whitespace.lexicomin_s": busy({"whitespace.region_lexicomin"}),
        "whitespace.obstacles_mean": _ratio(
            sum(spans[i].counts["obstacles"] for i in regions), len(regions)),
        "whitespace.region_parts_mean": _ratio(sum(parts), len(parts)),
        "whitespace.region_parts_max": max(parts, default=0),
        # No whitespace step ran: reported as 0.0, which the checks ignore.
        "whitespace.margin_min": min(margins, default=0.0),
        "geometry.verify_s": verify_s,
        "geometry.verify_placements": verified,
        "geometry.verify_placements_per_s": _ratio(verified, verify_s),
        "constants.harmonic_s": busy({"constants.harmonic_range_sum"}),
        "constants.harmonic_terms": sum(
            spans[i].counts["terms"] for i in idx
            if spans[i].name == "constants.harmonic_range_sum"),
        "constants.floor_s": own(_FLOORS),
        "constants.self_s": own({"constants.build_report"}),
    }
    shares = {layer: _ratio(math.fsum(self_s[i] for i in idx
                                if _LAYER_OF[spans[i].name] == layer), op_s)
              for layer in LAYERS}
    shares["bench"] = 1.0 - sum(shares.values())
    return {"metrics": metrics, "shares": shares, "shelf_base": (shelf_ok, len(shelf)),
            "margin_steps": len(margins)}


def combine(per_op: list[dict]) -> dict:
    """Median of each metric over the traced operations (min/max for extremes)."""
    out = {}
    for name in per_op[0]["metrics"]:
        values = [m["metrics"][name] for m in per_op]
        if name == "whitespace.margin_min":
            out[name] = min(values)
        elif name == "whitespace.region_parts_max":
            out[name] = max(values)
        else:
            out[name] = statistics.median(values)
    return out


def check_nesting(tracer: Tracer, tol: float = 1e-9) -> list[str]:
    """Problems with the span tree: negative self time, child outside parent."""
    problems = []
    for i, (span, own) in enumerate(zip(tracer.spans, tracer.self_times())):
        if not math.isfinite(own) or own < -tol:
            problems.append(f"span {i} {span.name}: self time {own}")
        if span.parent is not None:
            parent = tracer.spans[span.parent]
            if span.start < parent.start or span.end > parent.end or span.op != parent.op:
                problems.append(f"span {i} {span.name} escapes parent {parent.name}")
    return problems
