"""Acceptance gate: every headline capability, one pass/fail line each.

Each test prints ``ACCEPTANCE <n> <label>: PASS`` (or FAIL) so the suite
doubles as a checklist; run with ``pytest tests/test_acceptance.py -s``
to see the lines directly.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from moserpack import (
    Instance,
    PackParams,
    Packing,
    Placement,
    Rectangle,
    WhitespaceJob,
    build_report,
    compute_c,
    delta_simple,
    meir_moser_pack,
    midpoint_area_bound,
    moon_moser_pack,
    reduce_and_pack,
    verify_packing,
    whitespace_pack,
)
from moserpack.constants import harmonic_range_sum, two_square_worst_case
from moserpack.geometry import feasible_midpoint_region, region_area
from conftest import (
    grid_region_area,
    random_meir_moser_case,
    random_midpoint_config,
    random_moon_moser_case,
)

F_REF = (2 + math.sqrt(3)) / 3
C_REF = float(compute_c(F_REF))


def report(n: int, label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {n} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {n} ({label}) failed"


def test_c1_constants_pipeline_integers():
    t0 = time.perf_counter()
    rep = build_report("novotny")
    rep_i = build_report("novotny", use_integral_n0=True)
    elapsed = time.perf_counter() - t0
    ok = (
        rep.N0_simple == 93_752_341
        and rep.N0_integral == 491_225
        and rep.N1 == 93_752_341
        and rep.N == 692_741_307
        and rep_i.N1 == 491_225
        and rep_i.N == 3_629_689
        and all(rep.floor_certificates.values())
        and elapsed < 10.0
    )
    report(1, f"certified index chain in {elapsed:.2f}s", ok)


def test_c2_published_constants():
    c = float(compute_c("novotny"))
    d = float(delta_simple("novotny"))
    ok = abs(c - 0.0725632659982174) <= 5e-6 and abs(d - 1.0327826613e-4) <= 1e-9
    report(2, "c and delta match published decimals", ok)


def test_c3_area_bound_vanishes_at_worst_side():
    ok = True
    for n in (158, 1_000, 1_000_000):
        bound = midpoint_area_bound(F_REF, n, C_REF, C_REF / math.sqrt(n))
        ok = ok and abs(bound) <= 1e-12
    report(3, "whitespace area bound is zero at c/sqrt(n)", ok)


def test_c4_reference_fixture():
    big = 1 / math.sqrt(2)
    small = math.sqrt(1 / 6)
    rect = Rectangle(big + 2 * small, 2 * small)
    packing = Packing(
        rect,
        [
            Placement(big, 0.0, 0.0),
            Placement(small, big, 0.0),
            Placement(small, big, small),
            Placement(small, big + small, 0.0),
        ],
    )
    res = verify_packing(packing, tol=1e-12)
    ok = res.valid and abs(rect.area - F_REF) <= 1e-12
    report(4, "reference fixture verifies and has area F", ok)


def test_c5_two_square_worst_case():
    s, area = two_square_worst_case()
    ok = (
        abs(area - (1 + math.sqrt(2)) / 2) <= 1e-6
        and abs(s - math.cos(math.pi / 8)) <= 1e-4
    )
    report(5, "two-square worst case at cos(pi/8)", ok)


def test_c6_packer_soundness_randomized():
    rng = np.random.default_rng(20250815)
    t0 = time.perf_counter()
    failures = 0
    for _ in range(10_000):
        inst, rect = random_moon_moser_case(rng)
        if not verify_packing(moon_moser_pack(inst, rect)).valid:
            failures += 1
    for _ in range(10_000):
        inst, rect = random_meir_moser_case(rng)
        if not verify_packing(meir_moser_pack(inst, rect)).valid:
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 60.0
    report(6, f"2x10^4 randomized shelf packs in {elapsed:.1f}s, {failures} failures", ok)


def test_c7_whitespace_end_to_end():
    t0 = time.perf_counter()
    base_side = math.sqrt((1 - C_REF * C_REF) / 158)
    base = meir_moser_pack(
        Instance((base_side,) * 158),
        Rectangle(math.sqrt(F_REF), F_REF / math.sqrt(F_REF)),
    )
    tail = Instance((C_REF / math.sqrt(158),) * 158)
    margins: list[float] = []
    job = WhitespaceJob(base=base, tail=tail, c=C_REF, F=F_REF)
    packing = whitespace_pack(job, on_step=lambda k, s, a, b: margins.append(a - b))
    res = verify_packing(packing)
    elapsed = time.perf_counter() - t0
    ok = (
        res.valid
        and len(packing.placements) == 158 + len(tail)
        and min(margins) > 0.0
        and elapsed < 30.0
    )
    report(7, f"158+{len(tail)} whitespace packing in {elapsed:.2f}s", ok)


def test_c8_region_area_against_grid_oracle():
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(100):
        rect, obstacles, s = random_midpoint_config(rng)
        exact = region_area(feasible_midpoint_region(rect, obstacles, s))
        approx = grid_region_area(rect, obstacles, s, samples=1_000_000)
        denom = max(exact, 1e-3 * rect.area)
        worst = max(worst, abs(exact - approx) / denom)
    ok = worst <= 1e-3
    report(8, f"region areas vs 10^6-sample grid, worst rel err {worst:.2e}", ok)


def test_c9_driver_cases_and_harmonic_certificates():
    toy = PackParams.toy_params(F=F_REF, c=C_REF, N0=4, N1=158, N=1167)
    toy_c = PackParams.toy_params(F=F_REF, c=C_REF, N0=4, N1=158, N=1167,
                                  s1_threshold=0.07)

    r_a = reduce_and_pack(Instance((0.1,) * 100), toy)
    ok_a = r_a.case == "a" and verify_packing(r_a.packing).valid

    tiny = math.sqrt(0.1 / 30_000)
    r_b = reduce_and_pack(Instance((0.6, 0.6, 0.3, 0.3) + (tiny,) * 30_000), toy)
    ok_b = (
        r_b.case == "b"
        and r_b.split_index == 4
        and abs(r_b.packing.rect.area - F_REF) <= 1e-12
        and verify_packing(r_b.packing).valid
    )

    big = math.sqrt((1 - 0.99 * C_REF**2) / 158)
    small = math.sqrt(0.99 * C_REF**2 / 160)
    r_c = reduce_and_pack(Instance((big,) * 158 + (small,) * 160), toy_c)
    ok_c = (
        r_c.case == "c"
        and r_c.split_index == 159
        and verify_packing(r_c.packing).valid
    )

    toy_sum = harmonic_range_sum(159, 1167)
    real_sum = harmonic_range_sum(93_752_342, 692_741_307)
    ok_h = toy_sum >= 1.0 and real_sum >= 1.0

    report(9, f"driver cases a/b/c + harmonic sums {toy_sum:.3f}, {real_sum:.6f}",
           ok_a and ok_b and ok_c and ok_h)
