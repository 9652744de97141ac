"""Run one benchmark workload for one seed and print its metrics.

    python3 perfbench/run.py --workload glue_b8k --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and never from an installed copy.  Operations
run in a closed loop (one at a time, no threads) for ``--seconds``, and
every output is checked.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The lines before it repeat every number with its unit,
together with the placement digest and the machine.  The exit code is 1
if any operation failed, 2 if the checkout holds no package source.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

#: Fresh interpreters timed per run for the import part of ``setup_s``.
IMPORT_SAMPLES = 3
#: Times the inputs are generated and prepared per run for ``setup_s``.
INPUT_SAMPLES = 3

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import moserpack\n"
    "print(repr(time.perf_counter() - t))\n"
)


#: Seconds one probe (``probe_once``) took on the 2-core Xeon where the
#: benchmark was defined, in one of its fast phases.  ``op_s_norm`` is an
#: operation's time scaled by this over the probe time measured around it.
PROBE_REF_S = 0.015
#: Share of an operation's time spent probing right after it.
PROBE_SHARE = 0.1
_PROBE_N = 1_000_000


def probe_once() -> tuple:
    """Seconds for one fixed slice of interpreted work and one of numpy work.

    The slices do what the package's layers do: build and compare tuples
    of floats in a Python loop (whitespace, shelf), and allocate and reduce
    a numpy array larger than the caches (verifier, harmonic sum).  Their
    work never changes, so their times track only the speed the host
    grants at that moment.
    """
    import numpy as np

    t0 = time.perf_counter()
    boxes = []
    acc = 0.0
    for i in range(6000):
        x = (i * 0.6180339887) % 1.0
        b = (x, 0.5 * x, x + 0.25, 0.5 * x + 0.25)
        boxes.append(b)
        acc += max(b[0], b[1]) - min(b[2], b[3])
    boxes.sort()
    t1 = time.perf_counter()
    acc += float(np.reciprocal(np.arange(1, _PROBE_N + 1, dtype=np.float64)).sum())
    return t1 - t0, time.perf_counter() - t1


def probe(budget: float) -> tuple:
    """Median (interpreted, numpy) ``probe_once`` times over ``budget`` seconds."""
    samples = []
    t0 = time.perf_counter()
    while not samples or time.perf_counter() - t0 < budget:
        samples.append(probe_once())
    return (statistics.median(py for py, _ in samples),
            statistics.median(nd for _, nd in samples))


def fresh_import_s() -> float:
    """Seconds a new interpreter spends in ``import moserpack`` from ``src/``."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC], check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def tail(samples: list) -> tuple:
    """(value, percentile): the highest percentile with ten samples beyond it.

    Below 21 samples that percentile would not even reach the median, so
    the maximum (p100) is reported instead, and the printed sample count
    says so.
    """
    xs = sorted(samples)
    if len(xs) >= 21:
        i = len(xs) - 11
        return xs[i], 100.0 * (i + 1) / len(xs)
    return xs[-1], 100.0


def machine() -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def measure(workload, prepared, seconds: float, tracer) -> list:
    """Closed loop of operations that fits in ``seconds``.

    The next operation starts only if one more of the longest seen so far
    (with its probe) still ends within ``seconds``, so a run lasts about
    ``seconds`` however long one operation takes.  At least one operation
    runs; with a tracer, every second operation runs with the wrappers
    installed and at least one untraced and one traced operation run.
    After each operation the host's speed is probed for a tenth of its
    time.  Each entry is ``{"result": OpResult or None if it raised,
    "traced", "problems", "probe_s"}``, where ``probe_s`` is the mean of
    the probes just before and just after the operation.
    """
    ops: list = []
    start = time.perf_counter()
    longest = 0.0
    before = probe(0.05)
    while True:
        traced = tracer is not None and len(ops) % 2 == 1
        op_start = time.perf_counter()
        gc.collect()
        result = None
        try:
            if traced:
                tracer.op = len(ops)
                with spans.installed(tracer):
                    result = workload.run(prepared)
            else:
                result = workload.run(prepared)
            problems = list(result.problems)
        # One operation is the boundary: an operation that raises counts as
        # failed, its traceback goes to stderr, and the loop goes on.
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            problems = [f"raised {type(exc).__name__}: {exc}"]
        after = probe(PROBE_SHARE * (time.perf_counter() - op_start))
        ops.append({"result": result, "traced": traced, "problems": problems,
                    "probe_py_s": 0.5 * (before[0] + after[0]),
                    "probe_np_s": 0.5 * (before[1] + after[1]),
                    "probe_s": 0.5 * (sum(before) + sum(after))})
        before = after
        now = time.perf_counter()
        longest = max(longest, now - op_start)
        if now - start + longest > seconds and (tracer is None or len(ops) >= 2):
            return ops


def norm_s(ops: list) -> float:
    """Median operation time at the probe's reference speed (``op_s_norm``)."""
    return _median([op["result"].op_s / op["probe_s"] * PROBE_REF_S for op in ops])


def _median(values: list) -> float:
    return statistics.median(values) if values else float("nan")


def end_to_end(workload, setup_s: float, ops: list) -> dict:
    """End-to-end metrics over the untraced operations, printed as they go.

    ``op_s_norm`` is the timing that ``BENCHMARK.json`` bounds: each
    operation's wall time over the probe time around it, times
    ``PROBE_REF_S``, and the median of that over the run.  The host's
    speed moves both alike, so their ratio holds still where the wall
    time swings by up to 1.8x (see README.md, "Steadiness").  The wall
    times themselves are printed beside it.
    """
    untraced = [op for op in ops if op["result"] is not None and not op["traced"]]
    if not untraced:
        return {}
    done = [op["result"] for op in untraced]
    times = [r.op_s for r in done]
    op_s_norm = norm_s(untraced)
    op_s = _median(times)
    tail_s, pct = tail(times)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probes = [op["probe_s"] for op in untraced]
    print(f"op_s_norm {op_s_norm!r} s  (median of {len(times)} operations, each scaled "
          f"by {PROBE_REF_S} s over its probe; probe median {_median(probes)!r} s, "
          f"range {min(probes):.4f} to {max(probes):.4f})")
    print("samples (op_s, probe_py_s, probe_np_s): " + "; ".join(
        f"{op['result'].op_s:.5g} {op['probe_py_s']:.5g} {op['probe_np_s']:.5g}"
        for op in untraced))
    print(f"op_s {op_s!r} s  (median wall time of {len(times)} untraced operations: "
          + ", ".join(f"{t:.4f}" for t in times) + ")")
    print(f"op_s_min {min(times)!r} s  (fastest of {len(times)})")
    print(f"op_s_tail {tail_s!r} s  (p{pct:.4g} of {len(times)} samples"
          + ("; fewer than 21, so the maximum)" if len(times) < 21 else ")"))
    for step in ("reduce_s", "verify_s"):
        values = [r.steps[step] for r in done if step in r.steps]
        if values:
            print(f"{step} {_median(values)!r} s  (median of {len(values)})")
    if workload.placements:
        print(f"squares_per_s {workload.placements / op_s!r} 1/s  "
              f"({workload.placements} placements / op_s)")
    print(f"peak_rss_mb {rss!r} MiB")
    return {"setup_s": (setup_s, "s"), "op_s_norm": (op_s_norm, "s"),
            "peak_rss_mb": (rss, "MiB")}


def per_layer(workload, tracer, ops: list) -> dict:
    """Per-layer metrics over the traced operations; adds trace problems to ``ops``."""
    nesting = spans.check_nesting(tracer)
    per_op = []
    for i, op in enumerate(ops):
        if not op["traced"] or op["result"] is None:
            continue
        m = spans.op_metrics(tracer, i, op["result"].op_s, op["result"].json_bytes)
        per_op.append(m)
        op["problems"].extend(nesting)
        if workload.checks_margin and not (m["margin_steps"]
                                           and m["metrics"]["whitespace.margin_min"] > 0):
            op["problems"].append(
                f"whitespace margin {m['metrics']['whitespace.margin_min']} not > 0")
    untraced = [op for op in ops if op["result"] and not op["traced"]]
    traced = [op for op in ops if op["result"] and op["traced"]]
    if not per_op or not untraced:
        return {}
    base, with_spans = norm_s(untraced), norm_s(traced)
    values = spans.combine(per_op)
    values["bench.trace_overhead_frac"] = (with_spans - base) / base
    print(f"traced op_s_norm {with_spans!r} s over {len(traced)}, "
          f"untraced op_s_norm {base!r} s over {len(untraced)}")
    ok, calls = per_op[0]["shelf_base"]
    print(f"shelf.useful_ratio base: {ok} successful of {calls} shelf calls")
    print("self-time shares of op_s: " + ", ".join(
        f"{k} {v:.4f}" for k, v in sorted(per_op[0]["shares"].items(),
                                          key=lambda kv: -kv[1])))
    out = {}
    for name, value in values.items():
        print(f"{name} {value!r} {spans.UNITS[name]}")
        out[name] = (value, spans.UNITS[name])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "moserpack", "__init__.py")):
        print(f"no package source at {SRC}; run from a moserpack checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    workdir = os.path.join(WORK, f"{workload.name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        import_s = [fresh_import_s() for _ in range(IMPORT_SAMPLES)]
        input_s = []
        for _ in range(INPUT_SAMPLES):
            t0 = time.perf_counter()
            prepared = workload.prepare(workload.make_inputs(args.seed), workdir)
            input_s.append(time.perf_counter() - t0)
        setup_s = _median(import_s) + _median(input_s)
        ops = measure(workload, prepared, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(WORK)

    print(f"workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("machine: " + json.dumps(machine(), sort_keys=True))
    print(f"setup_s {setup_s!r} s  (median import {_median(import_s)!r} s of "
          f"{len(import_s)} fresh interpreters + median inputs {_median(input_s)!r} s "
          f"of {len(input_s)})")
    done = [op for op in ops if op["result"] is not None]
    digests = [op["result"].digest for op in done]
    for op in done[1:]:
        if op["result"].digest != digests[0]:
            op["problems"].append("placement digest differs from the first operation")
    if done:
        print(f"digest sha256={digests[0]} "
              f"({len(set(digests))} distinct over {len(done)} operations)")

    metrics = end_to_end(workload, setup_s, ops)
    if tracer is not None:
        metrics = per_layer(workload, tracer, ops)
    failed = sum(1 for op in ops if op["problems"])
    print(f"fail_frac {failed / len(ops)!r} ratio  ({failed} of {len(ops)} operations)")
    for i, op in enumerate(ops):
        for problem in op["problems"]:
            print(f"operation {i} failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
