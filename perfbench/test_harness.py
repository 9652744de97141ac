"""Self-tests of the benchmark harness.

Run from the repository root:

    python3 -m pytest -q perfbench/test_harness.py

They sit outside the package's ``testpaths``, so the package's own suite
does not collect them.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import moserpack  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from run import PROBE_REF_S, norm_s, tail  # noqa: E402


@pytest.fixture
def workdir():
    path = os.path.join(ROOT, ".perfbench_work", f"selftest-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    if not os.listdir(os.path.dirname(path)):
        os.rmdir(os.path.dirname(path))


@pytest.fixture(scope="module")
def traced_equal():
    """One traced whitespace_equal operation: (tracer, OpResult, originals)."""
    originals = {(m, a): getattr(importlib.import_module(m), a)
                 for m, a, _layer, _count in spans.WRAPPED}
    wl = workloads.WORKLOADS["whitespace_equal"]
    prepared = wl.prepare(wl.make_inputs(1), "")
    tracer = spans.Tracer()
    tracer.op = 0
    with spans.installed(tracer):
        result = wl.run(prepared)
    return tracer, result, originals


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    wl = workloads.WORKLOADS[name]
    assert wl.make_inputs(7) == wl.make_inputs(7)


def test_seeds_change_order_and_mixed_sides():
    glue = workloads.WORKLOADS["glue_b8k"]
    a, b = glue.make_inputs(1), glue.make_inputs(2)
    assert a["instance"]["sides"] != b["instance"]["sides"]
    assert sorted(a["instance"]["sides"]) == sorted(b["instance"]["sides"])
    mixed = workloads.WORKLOADS["whitespace_mixed"]
    assert sorted(mixed.make_inputs(1)["sides"]) != sorted(mixed.make_inputs(2)["sides"])
    equal = workloads.WORKLOADS["whitespace_equal"]
    assert sorted(equal.make_inputs(1)["sides"]) == sorted(equal.make_inputs(2)["sides"])


def test_glue_takes_case_b_at_4(workdir):
    wl = workloads.WORKLOADS["glue_b8k"]
    paths = wl.prepare(wl.make_inputs(3), workdir)
    rc = moserpack.cli.cli_dispatch(
        ["reduce", "--instance", paths["instance"], "--F", "novotny",
         "--toy-params", paths["params"], "-o", paths["result"]])
    with open(paths["result"], encoding="utf-8") as fh:
        result = json.load(fh)
    assert rc == 0
    assert (result["case"], result["split_index"]) == (wl.case, wl.split) == ("b", 4)
    assert len(result["packing"]["placements"]) == wl.placements


def test_whitespace_mixed_takes_case_c_at_201():
    wl = workloads.WORKLOADS["whitespace_mixed"]
    result = wl.run(wl.prepare(wl.make_inputs(5), ""))
    assert result.problems == []
    assert (wl.case, wl.split, result.placements) == ("c", 201, 400)


def test_traced_operation_passes_its_checks(traced_equal):
    _tracer, result, _originals = traced_equal
    assert result.problems == []
    assert result.placements == 400


def test_every_wrapped_name_is_restored(traced_equal):
    _tracer, _result, originals = traced_equal
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original
    assert moserpack.reduction.meir_moser_pack is moserpack.shelf.meir_moser_pack
    assert moserpack.cli.verify_packing is moserpack.geometry.verify_packing


def test_names_are_restored_when_the_operation_raises():
    before = moserpack.reduction.whitespace_pack
    with pytest.raises(RuntimeError):
        with spans.installed(spans.Tracer()):
            assert moserpack.reduction.whitespace_pack is not before
            raise RuntimeError("boom")
    assert moserpack.reduction.whitespace_pack is before


def test_self_times_and_nesting(traced_equal):
    tracer, result, _originals = traced_equal
    assert tracer.spans
    assert spans.check_nesting(tracer) == []
    # Only the rounding of clock differences may push a self time below 0.
    assert all(t >= -1e-9 for t in tracer.self_times())
    for span in tracer.spans:
        if span.parent is not None:
            parent = tracer.spans[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
    m = spans.op_metrics(tracer, 0, result.op_s, 0)
    assert m["metrics"]["whitespace.steps"] == 199
    assert m["metrics"]["whitespace.margin_min"] > 0
    assert m["metrics"]["whitespace.busy_s"] <= result.op_s


def test_tail_percentile_has_ten_samples_beyond():
    samples = [float(i) for i in range(40)]
    value, pct = tail(samples)
    assert sum(1 for s in samples if s > value) == 10
    assert pct == pytest.approx(75.0)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert tail([float(i) for i in range(20)]) == (19.0, 100.0)


def test_norm_s_divides_out_a_uniform_slowdown():
    def ops(times, probes):
        return [{"result": workloads.OpResult(t, {}, 0, ""), "probe_s": p}
                for t, p in zip(times, probes)]

    fast = ops([0.30, 0.32, 0.31], [0.015, 0.016, 0.015])
    slow = ops([0.54, 0.576, 0.558], [0.027, 0.0288, 0.027])
    assert norm_s(slow) == pytest.approx(norm_s(fast))
    assert norm_s(ops([0.3], [PROBE_REF_S])) == pytest.approx(0.3)


def test_per_layer_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    assert declared == spans.UNITS
