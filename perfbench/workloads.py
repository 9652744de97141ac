"""The benchmark's workloads: seeded inputs, one operation, its checks.

Each workload makes its inputs from the seed alone (``make_inputs``),
writes or builds what its operation reads (``prepare``), and runs one
operation (``run``) that returns its timings, its placement digest and the
list of failed checks.  The package only ever sees the generated inputs.

The harness calls into the package through module attributes
(``cli.cli_dispatch``, ``reduction.reduce_and_pack``, ...), looked up at
call time, so that a traced run's wrappers see these calls too.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import time
from dataclasses import dataclass, field

from moserpack import cli, constants, geometry, reduction

#: Area factor (2 + sqrt(3)) / 3, as the acceptance tests spell it.
F_NOVOTNY = (2 + math.sqrt(3)) / 3


def _c() -> float:
    return float(constants.compute_c(F_NOVOTNY))


def digest(data: dict) -> str:
    """sha256 of a dict's canonical JSON (sorted keys, no whitespace, repr floats)."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class OpResult:
    op_s: float
    steps: dict  # step name -> seconds (reduce_s, verify_s)
    placements: int
    digest: str
    problems: list = field(default_factory=list)
    json_bytes: int = 0


def _expect(problems: list, ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


class GlueB8k:
    """Case b through the CLI: reduce, copy ``packing``, verify.

    The instance is acceptance case b's shape at a quarter of its tail
    area: prefix (0.5, 0.5, 0.25, 0.25), the same 2:2:1:1 squares, so the
    shelf aspect scan makes the same 28 attempts (26 failed), plus 8,000
    equal tail squares of total area 0.375.  8,000 is close to the
    fewest that pass glue_pack's edge bound at that area (about 7,000),
    so one operation takes about a second and a run holds a few dozen.

    ``moserpack reduce`` writes ``{case, packing, params, split_index}``
    while ``moserpack verify`` reads a bare packing, so the harness copies
    the ``packing`` object into its own file between the two calls.  The
    copy is timed in ``op_s`` but in neither ``reduce_s`` nor ``verify_s``.
    """

    name = "glue_b8k"
    case, split, placements = "b", 4, 8_004
    checks_margin = False

    def make_inputs(self, seed: int) -> dict:
        sides = [0.5, 0.5, 0.25, 0.25] + [math.sqrt(0.375 / 8_000)] * 8_000
        random.Random(seed).shuffle(sides)
        return {"instance": {"sides": sides},
                "params": {"c": _c(), "N0": 4, "N1": 158, "N": 1167}}

    def prepare(self, inputs: dict, workdir: str) -> dict:
        paths = {k: os.path.join(workdir, f"{k}.json")
                 for k in ("instance", "params", "result", "packing", "verdict")}
        for key in ("instance", "params"):
            with open(paths[key], "w", encoding="utf-8") as fh:
                json.dump(inputs[key], fh)
        return paths

    def run(self, paths: dict) -> OpResult:
        t0 = time.perf_counter()
        rc_reduce = cli.cli_dispatch(
            ["reduce", "--instance", paths["instance"], "--F", "novotny",
             "--toy-params", paths["params"], "-o", paths["result"]])
        t1 = time.perf_counter()
        with open(paths["result"], encoding="utf-8") as fh:
            result = json.load(fh)
        with open(paths["packing"], "w", encoding="utf-8") as fh:
            json.dump(result["packing"], fh)
        t2 = time.perf_counter()
        rc_verify = cli.cli_dispatch(
            ["verify", "--packing", paths["packing"], "-o", paths["verdict"]])
        t3 = time.perf_counter()

        with open(paths["verdict"], encoding="utf-8") as fh:
            verdict = json.load(fh)
        packing = result["packing"]
        rect = packing["rect"]
        problems: list = []
        _expect(problems, rc_reduce == 0, f"reduce exit code {rc_reduce}")
        _expect(problems, rc_verify == 0, f"verify exit code {rc_verify}")
        _expect(problems, verdict.get("valid") is True, "verify says not valid")
        _expect(problems, result["case"] == self.case, f"case {result['case']}")
        _expect(problems, result.get("split_index") == self.split,
                f"split {result.get('split_index')}")
        _expect(problems, abs(rect["w"] * rect["h"] - F_NOVOTNY) <= 1e-12,
                f"rectangle area {rect['w'] * rect['h']}")
        _expect(problems, len(packing["placements"]) == self.placements,
                f"{len(packing['placements'])} placements")
        # reduce reads instance + params and writes result; verify reads
        # packing and writes verdict.
        json_bytes = sum(os.path.getsize(paths[k]) for k in
                         ("instance", "params", "result", "packing", "verdict"))
        return OpResult(t3 - t0, {"reduce_s": t1 - t0, "verify_s": t3 - t2},
                        len(packing["placements"]), digest(packing), problems,
                        json_bytes)


class Whitespace:
    """Case c: 200 base squares, then a 200-square tail whitespace-packed.

    Toy parameters N0 = 4, N1 = 200, N = floor(e^2 * 200) = 1477 and
    ``s1_threshold`` = 0.04 send the instance to case c at index 201, so
    the base packing holds 201 squares and 199 go through
    ``whitespace_pack``.
    """

    case, split, placements = "c", 201, 400
    #: A traced run also requires every whitespace step's region area to
    #: exceed the certified bound.
    checks_margin = True

    def __init__(self, name: str, mixed: bool) -> None:
        self.name = name
        self.mixed = mixed

    def make_inputs(self, seed: int) -> dict:
        c = _c()
        rng = random.Random(seed)
        if self.mixed:
            # A randomly shifted lattice on [0.5, 1) * cap: one shift per
            # seed, no two sides equal.  Independent draws made the work
            # itself differ by +-12 % between seeds; the lattice keeps that
            # near +-3 %, so the seed does not swamp the timing.
            cap = 0.999 * c / math.sqrt(201)
            shift = rng.random()
            tail = [(0.5 + 0.5 * (i + shift) / 200) * cap for i in range(200)]
        else:
            tail = [math.sqrt(0.99 * c * c / 200)] * 200
        base = math.sqrt((1.0 - math.fsum(s * s for s in tail)) / 200)
        sides = [base] * 200 + tail
        rng.shuffle(sides)
        return {"sides": sides, "c": c}

    def prepare(self, inputs: dict, workdir: str) -> dict:
        return {
            "instance": geometry.Instance(tuple(inputs["sides"])),
            "params": reduction.PackParams.toy_params(
                F=F_NOVOTNY, c=inputs["c"], N0=4, N1=200, N=1477, s1_threshold=0.04),
        }

    def run(self, inputs: dict) -> OpResult:
        t0 = time.perf_counter()
        result = reduction.reduce_and_pack(inputs["instance"], inputs["params"])
        t1 = time.perf_counter()
        report = geometry.verify_packing(result.packing)
        t2 = time.perf_counter()

        n = len(result.packing.placements)
        problems: list = []
        _expect(problems, report.valid, "verify_packing says not valid")
        _expect(problems, result.case == self.case, f"case {result.case}")
        _expect(problems, result.split_index == self.split, f"split {result.split_index}")
        _expect(problems, n == self.placements, f"{n} placements")
        return OpResult(t2 - t0, {"reduce_s": t1 - t0, "verify_s": t2 - t1}, n,
                        digest(geometry.packing_to_dict(result.packing)), problems)


class ConstantsNovotny:
    """``build_report`` for F = novotny on both N0 routes, as ``test_c1`` runs it.

    The seed changes nothing here: the certified-constants path has no
    input but the factor.  Its digest covers both reports.
    """

    name = "constants_novotny"
    placements = 0
    checks_margin = False
    published = {"N0_simple": 93_752_341, "N1": 93_752_341, "N": 692_741_307}
    published_integral = {"N0_integral": 491_225, "N1": 491_225, "N": 3_629_689}

    def make_inputs(self, seed: int) -> dict:
        return {"F": "novotny"}

    def prepare(self, inputs: dict, workdir: str) -> dict:
        return inputs

    def run(self, inputs: dict) -> OpResult:
        t0 = time.perf_counter()
        simple = constants.build_report(inputs["F"])
        integral = constants.build_report(inputs["F"], use_integral_n0=True)
        t1 = time.perf_counter()

        problems: list = []
        for report, want in ((simple, self.published), (integral, self.published_integral)):
            for key, value in want.items():
                got = getattr(report, key)
                _expect(problems, got == value, f"{key} = {got}, published {value}")
        data = [constants.report_to_dict(simple), constants.report_to_dict(integral)]
        return OpResult(t1 - t0, {}, 0, digest({"reports": data}), problems)


WORKLOADS = {w.name: w for w in (
    GlueB8k(),
    Whitespace("whitespace_equal", mixed=False),
    Whitespace("whitespace_mixed", mixed=True),
    ConstantsNovotny(),
)}
