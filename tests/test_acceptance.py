"""Acceptance gate: every headline capability, one pass/fail line each.

Each test prints ``ACCEPTANCE <n> <label>: PASS`` (or FAIL) so the suite
doubles as a checklist; run with ``pytest tests/test_acceptance.py -s``
to see the lines directly.
"""

from __future__ import annotations

import hashlib
import math
import time

import numpy as np
import pytest

from moserpack import (
    Instance,
    PackParams,
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
from moserpack.constants import harmonic_range_sum
from moserpack.reduction import default_prefix_packer
from moserpack.geometry import feasible_midpoint_region, region_area
from conftest import (
    grid_region_area,
    packing_of,
    random_meir_moser_case,
    random_midpoint_config,
    random_moon_moser_case,
    two_square_worst_case,
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
    packing = packing_of(
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


def test_c10_case_b_at_paper_scale():
    """The certified integral chain (N0 = N1 = 491,225) on 1 + 10^6 squares.

    One square of 1/2 and 10^6 equal squares of total area 3/4: the area
    past N1 is far above c^2, so the instance splits at N0 into a prefix
    of 491,225 squares and a tail of 508,776, each a run of equal sides
    the shelf engine places in bulk.  The sha256 pins every placement's
    (side, x, y) as little-endian doubles, as computed when each square
    was a separate ``Placement``.
    """
    n = 10**6
    inst = Instance((0.5,) + (math.sqrt(0.75 / n),) * n)
    params = PackParams.certified(use_integral_n0=True)
    assert (params.N0, params.N1) == (491_225, 491_225)
    start = time.perf_counter()
    result = reduce_and_pack(inst, params)
    pack_s = time.perf_counter() - start
    packing = result.packing
    rows = np.column_stack([np.frombuffer(c) for c in (packing.sides, packing.xs, packing.ys)])
    digest = hashlib.sha256(rows.astype("<f8").tobytes()).hexdigest()
    report_ = verify_packing(packing)
    ok = (
        result.case == "b"
        and result.split_index == 491_225
        and len(packing.sides) == n + 1
        and abs(packing.rect.area - params.F) <= 1e-12
        and report_.valid
        and digest == "65be89e4ae2df59fcb9f47901a6e8bffdea847d346f0cac2f522758832d9ba19"
    )
    report(10, f"case b at 10^6 squares under the integral chain, packed in {pack_s:.2f} s", ok)


def test_c11_case_c_at_paper_scale():
    """The certified integral chain on a case-c instance with a whitespace tail.

    One square of 1/2, 491,224 equal squares, and 10^4 squares of side
    10^-4: the area past N1 = 491,225 is 10^-4, below c^2, and the first
    index past N1 with edge below c/sqrt(n) is 491,226.  So the first
    491,226 squares form the base and the other 9,999 go into its
    whitespace.  The sha256 pins every placement's (side, x, y) as
    little-endian doubles, as in ``test_c10``.  The job is then rebuilt
    from the driver's own steps to watch every step's margin (region area
    minus ``midpoint_area_bound``) through ``on_step``.
    """
    n, k, s = 491_224, 10**4, 1e-4
    inst = Instance((0.5,) + (math.sqrt((0.75 - k * s * s) / n),) * n + (s,) * k)
    params = PackParams.certified(use_integral_n0=True)
    start = time.perf_counter()
    result = reduce_and_pack(inst, params)
    pack_s = time.perf_counter() - start
    packing = result.packing
    split = result.split_index
    rows = np.column_stack([np.frombuffer(c) for c in (packing.sides, packing.xs, packing.ys)])
    digest = hashlib.sha256(rows.astype("<f8").tobytes()).hexdigest()

    prefix = Instance(inst.sides[:split])
    base = default_prefix_packer(prefix, params.F / prefix.total_area)
    margins: list[float] = []
    job = WhitespaceJob(base, Instance(inst.sides[split:]), params.c, params.F)
    rebuilt = whitespace_pack(job, on_step=lambda i, side, a, b: margins.append(a - b))
    ok = (
        result.case == "c"
        and split == 491_226
        and sorted(packing.sides, reverse=True) == list(inst.sides)
        and verify_packing(packing).valid
        and digest == "156eeb4f3c180222841ae8fa264ca2c13268148010f02349fefe3d3aca2f05ea"
        and len(margins) == k - 1
        and min(margins) >= 0.0
        and rebuilt == packing
    )
    report(11, f"case c at 491,226 + {k - 1} squares under the integral chain, packed in "
               f"{pack_s:.2f} s, smallest margin {min(margins):.3f}", ok)
