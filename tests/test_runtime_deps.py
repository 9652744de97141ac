"""The runtime imports numpy only on first use; scipy and mpmath are test-time dependencies.

`import moserpack`, the constants path and a case-b or case-c `reduce`
load no numpy module; numpy is imported on the first call of
`verify_packing` or of the test oracle `harmonic_range_sum`.  No command
loads mpmath: the certified constants are integer brackets, and mpmath is
the tests' oracle.  `import moserpack` loads no `decimal` or `fractions`
either; a numeric factor spec imports them on first use.  Neither
`import moserpack` nor `import moserpack.cli` loads `dataclasses` or
`inspect`: the value types are plain classes.  Each check runs
in a fresh interpreter, so modules that other tests (or hypothesis)
already imported into this process cannot hide an import.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import moserpack

SRC = str(Path(moserpack.__file__).resolve().parents[1])

BLOCKED_SCIPY_RUN = """
import json, sys, tempfile
from pathlib import Path

sys.modules["scipy"] = None  # any `import scipy...` now raises ImportError

import moserpack
import moserpack.cli
from moserpack.cli import cli_dispatch

plain = moserpack.build_report("novotny")
integral = moserpack.build_report("novotny", use_integral_n0=True)

with tempfile.TemporaryDirectory() as tmp:
    inst = Path(tmp, "inst.json")
    inst.write_text(json.dumps({"sides": [0.1] * 100}))
    result, report = Path(tmp, "result.json"), Path(tmp, "report.json")
    codes = [
        cli_dispatch(["reduce", "--instance", str(inst), "--F", "novotny",
                      "-o", str(result)]),
        cli_dispatch(["verify", "--packing", str(result), "-o", str(report)]),
    ]
    reduced = json.loads(result.read_text())
    verified = json.loads(report.read_text())

print(json.dumps({
    "plain": [plain.N0_simple, plain.N0_integral, plain.N1, plain.N],
    "integral": [integral.N1, integral.N],
    "codes": codes,
    "case": reduced["case"],
    "placements": len(reduced["packing"]["placements"]),
    "valid": verified["valid"],
}))
"""

BLOCKED_MPMATH_RUN = """
import contextlib, io, json, sys, tempfile
from pathlib import Path

sys.modules["mpmath"] = None  # any `import mpmath...` now raises ImportError

import moserpack
from moserpack import PackParams
from moserpack.cli import cli_dispatch

plain = moserpack.build_report("novotny")
integral = moserpack.build_report("novotny", use_integral_n0=True)
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli_dispatch(["constants", "--F", "novotny", "--refined"])
params = PackParams.certified(use_integral_n0=True)
with tempfile.TemporaryDirectory() as tmp:
    inst = Path(tmp, "inst.json")
    inst.write_text(json.dumps({"sides": [0.1] * 100}))
    result = Path(tmp, "result.json")
    reduce_code = cli_dispatch(["reduce", "--instance", str(inst), "--F", "novotny",
                                "--integral-n0", "-o", str(result)])
    reduced = json.loads(result.read_text())

print(json.dumps({
    "plain": [plain.N0_simple, plain.N0_integral, plain.N1, plain.N],
    "integral": [integral.N1, integral.N],
    "cli": [code, json.loads(out.getvalue())["N"]],
    "params": [params.N0, params.N1, params.N, params.c],
    "reduce": [reduce_code, reduced["case"], reduced["params"]["N"]],
}))
"""

NUMPY_ON_FIRST_USE = """
import contextlib, io, json, sys
from array import array

import moserpack
import moserpack.cli
from moserpack import Packing, Rectangle, verify_packing
from moserpack.cli import cli_dispatch

plain = moserpack.build_report("novotny")
integral = moserpack.build_report("novotny", use_integral_n0=True)
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli_dispatch(["constants", "--F", "novotny"])
numpy_before = sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy."))

rect = Rectangle(1.0, 1.0)
sides, ys = array("d", [0.5, 0.5]), array("d", [0.0, 0.0])
disjoint = Packing(rect, sides, array("d", [0.0, 0.5]), ys)
overlapping = Packing(rect, sides, array("d", [0.0, 0.25]), ys)

print(json.dumps({
    "numpy_before": numpy_before,
    "N": [plain.N, integral.N, json.loads(out.getvalue())["N"]],
    "code": code,
    "valid": [verify_packing(disjoint).valid, verify_packing(overlapping).valid],
    "numpy_after": "numpy" in sys.modules,
}))
"""

REDUCE_B_AND_C = """
import json, math, sys, tempfile
from pathlib import Path

from moserpack.cli import cli_dispatch

c = 0.0725632659982174  # float(compute_c((2 + 3 ** 0.5) / 3)), written out
tail = [(0.375 / 8000) ** 0.5] * 8000
# the whitespace workloads' case c: 200 base squares and 200 equal tail squares
ws_tail = [math.sqrt(0.99 * c * c / 200)] * 200
ws_base = [math.sqrt((1.0 - math.fsum(s * s for s in ws_tail)) / 200)] * 200
runs = {}
with tempfile.TemporaryDirectory() as tmp:
    def write(name, data):
        Path(tmp, name).write_text(json.dumps(data))
        return str(Path(tmp, name))

    for case, sides, toy in [
        ("b", [0.5, 0.5, 0.25, 0.25] + tail, {"c": c, "N0": 4, "N1": 158, "N": 1167}),
        ("c", ws_base + ws_tail, {"c": c, "N0": 4, "N1": 200, "N": 1477, "s1_threshold": 0.04}),
    ]:
        result = Path(tmp, "result.json")
        code = cli_dispatch(["reduce", "--instance", write("inst.json", {"sides": sides}),
                             "--F", "novotny", "--toy-params", write("toy.json", toy),
                             "-o", str(result)])
        reduced = json.loads(result.read_text())
        runs[case] = [code, reduced["case"], reduced.get("split_index"),
                      len(reduced["packing"]["placements"])]

print(json.dumps({
    "runs": runs,
    "numpy": sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy.")),
    "mpmath": sorted(m for m in sys.modules if m.startswith("mpmath")),
}))
"""

MPMATH_NEVER_LOADED = """
import contextlib, io, json, math, sys, tempfile
from pathlib import Path

def mpmath_loaded():
    return sorted(m for m in sys.modules if m.startswith("mpmath"))

import moserpack
from moserpack.cli import cli_dispatch

loaded = {"import": mpmath_loaded()}
codes = {}
c = 0.0725632659982174  # float(compute_c((2 + 3 ** 0.5) / 3)), written out
root_F = math.sqrt((2 + math.sqrt(3)) / 3)
base_side = math.sqrt((1 - c * c) / 158)
tail = [(0.375 / 8000) ** 0.5] * 8000
with tempfile.TemporaryDirectory() as tmp:
    def path(name):
        return str(Path(tmp, name))

    def write(name, data):
        Path(tmp, name).write_text(json.dumps(data))
        return path(name)

    def run(step, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            codes[step] = cli_dispatch(argv)
        loaded[step] = mpmath_loaded()

    run("pack", ["pack", "--mode", "meir-moser", "--rect", "0.8x1.0",
                 "--instance", write("inst.json", {"sides": [0.4, 0.3, 0.3, 0.2]}),
                 "-o", path("packed.json")])
    run("verify", ["verify", "--packing", path("packed.json")])
    run("render", ["render", "--packing", path("packed.json"), "--scale", "100",
                   "-o", path("packed.svg")])
    run("base", ["pack", "--mode", "meir-moser", "--rect", f"{root_F!r}x{root_F!r}",
                 "--instance", write("base.json", {"sides": [base_side] * 158}),
                 "-o", path("base_packed.json")])
    run("whitespace", ["whitespace", "--base", path("base_packed.json"), "--c", repr(c),
                       "--tail", write("tail.json", {"sides": [c / math.sqrt(158) * 0.9] * 20}),
                       "--F", "novotny", "-o", path("full.json")])
    run("reduce", ["reduce", "--F", "novotny",
                   "--instance", write("b.json", {"sides": [0.5, 0.5, 0.25, 0.25] + tail}),
                   "--toy-params", write("toy.json", {"c": c, "N0": 4, "N1": 158, "N": 1167}),
                   "-o", path("result.json")])
    placements = {name: len(json.loads(Path(tmp, name).read_text())["placements"])
                  for name in ("packed.json", "full.json")}
    case = json.loads(Path(tmp, "result.json").read_text())["case"]

plain = moserpack.build_report("novotny")
print(json.dumps({
    "loaded": loaded,
    "codes": codes,
    "placements": placements,
    "case": case,
    "report": [plain.N0_simple, plain.N],
    "after_report": "mpmath" in sys.modules,
}))
"""

PLAIN_IMPORT = """
import sys
import moserpack
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""

# Each of these cost about a millisecond to import, which would show in the
# benchmark's setup time.
IMPORT_LOADS_NO_NUMBER_MODULES = """
import json, sys
import moserpack
print(json.dumps(sorted(m for m in ("decimal", "fractions", "mpmath") if m in sys.modules)))
"""

# The modules each import adds, so that a module a `site` hook loaded first
# cannot mask one.
IMPORT_ADDS = """
import json, sys
added = {}
for name in ("moserpack", "moserpack.cli"):
    before = set(sys.modules)
    __import__(name)
    added[name] = sorted(set(sys.modules) - before)
print(json.dumps(added))
"""


def run_fresh(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_pipeline_and_cli_run_with_scipy_blocked():
    out = json.loads(run_fresh(BLOCKED_SCIPY_RUN))
    assert out["plain"] == [93_752_341, 491_225, 93_752_341, 692_741_307]
    assert out["integral"] == [491_225, 3_629_689]
    assert out["codes"] == [0, 0]
    assert out["case"] == "a"
    assert out["placements"] == 100
    assert out["valid"] is True


def test_plain_import_loads_no_scipy_module():
    assert run_fresh(PLAIN_IMPORT).strip() == "[]"


def test_constants_and_certified_reduce_run_with_mpmath_blocked():
    out = json.loads(run_fresh(BLOCKED_MPMATH_RUN))
    assert out["plain"] == [93_752_341, 491_225, 93_752_341, 692_741_307]
    assert out["integral"] == [491_225, 3_629_689]
    assert out["cli"] == [0, 692_741_307]
    assert out["params"] == [491_225, 491_225, 3_629_689, 0.07256326599821739]
    assert out["reduce"] == [0, "a", 3_629_689]


def test_plain_import_loads_no_decimal_fractions_or_mpmath():
    assert json.loads(run_fresh(IMPORT_LOADS_NO_NUMBER_MODULES)) == []


def test_import_loads_no_dataclasses_or_inspect():
    added = json.loads(run_fresh(IMPORT_ADDS))
    assert "moserpack.geometry" in added["moserpack"]
    assert "moserpack.cli" in added["moserpack.cli"]
    for modules in added.values():
        assert [m for m in modules if m in ("dataclasses", "inspect")] == []


def test_import_and_constants_load_no_numpy_until_the_verifier_runs():
    out = json.loads(run_fresh(NUMPY_ON_FIRST_USE))
    assert out["numpy_before"] == []
    assert out["N"] == [692_741_307, 3_629_689, 692_741_307]
    assert out["code"] == 0
    assert out["valid"] == [True, False]
    assert out["numpy_after"] is True


def test_case_b_reduce_loads_no_numpy():
    # The shelf engine, the glue and the whitespace packer write stdlib
    # ``array`` columns, and case c's index scan is a plain loop.
    out = json.loads(run_fresh(REDUCE_B_AND_C))
    assert out["runs"] == {"b": [0, "b", 4, 8_004], "c": [0, "c", 201, 400]}
    assert out["numpy"] == []
    assert out["mpmath"] == []


def test_import_and_geometry_commands_load_no_mpmath_until_constants_run():
    out = json.loads(run_fresh(MPMATH_NEVER_LOADED))
    steps = ["import", "pack", "verify", "render", "base", "whitespace", "reduce"]
    assert out["loaded"] == {step: [] for step in steps}
    assert out["codes"] == {step: 0 for step in steps[1:]}
    assert out["placements"] == {"packed.json": 4, "full.json": 178}
    assert out["case"] == "b"
    assert out["report"] == [93_752_341, 692_741_307]
    # the certified constants are integer brackets: mpmath is never loaded
    assert out["after_report"] is False
