"""Shared oracles and instance generators for the test suite."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from moserpack import (
    Instance,
    PackFailure,
    PackParams,
    Packing,
    Placement,
    Rectangle,
    ReduceResult,
    VerificationReport,
    Violation,
    WhitespaceJob,
    reduce_and_pack,
    whitespace_pack,
)
from moserpack.constants import find_small_index, harmonic_range_sum
from moserpack.geometry import EPS_GEOM, RectilinearRegion, _subtract_part, region_lexicomin
from moserpack.reduction import default_prefix_packer


def region_subtract(region: RectilinearRegion, cut) -> RectilinearRegion:
    """Closure of ``region`` minus the interior of ``cut``.

    ``cut`` is anything with ``x``, ``y``, ``x2`` and ``y2`` edges.
    Zero-area residue (boundary segments of a fully covered part) is
    dropped by normalization, so the returned area always equals
    ``area(region) - area(region ∩ cut)``.
    """
    c = (cut.x, cut.y, cut.x2, cut.y2)
    out: list = []
    for part in region.parts:
        _subtract_part(part, c, out)
    return RectilinearRegion(tuple(out))


def grid_region_area(rect: Rectangle, obstacles, s: float, samples: int = 1_000_000,
                     seed: int = 0) -> float:
    """Independent area estimate of the feasible-midpoint region.

    Stratified sampling: one uniform point per grid cell, tested for
    whether a side-``s`` square centered there stays inside the rectangle
    and interior-disjoint from every obstacle.  The membership test is
    written directly from the definition, not from the region algebra
    under test.  Jittering (instead of cell centers) removes the
    alignment bias of a plain midpoint grid; only boundary-crossing cells
    contribute variance, so the estimate is far inside 1e-3 relative at
    1e6 samples.
    """
    rng = np.random.default_rng(seed)
    nx = max(1, int(round(math.sqrt(samples * rect.width / rect.height))))
    ny = max(1, int(round(samples / nx)))
    XX = rect.x + (np.arange(nx)[:, None] + rng.random((nx, ny))) * (rect.width / nx)
    YY = rect.y + (np.arange(ny)[None, :] + rng.random((nx, ny))) * (rect.height / ny)
    half = s / 2.0
    ok = (
        (XX - half >= rect.x)
        & (XX + half <= rect.x2)
        & (YY - half >= rect.y)
        & (YY + half <= rect.y2)
    )
    for ob in obstacles:
        if ob.side <= 0:
            continue
        apart = (
            (XX + half <= ob.x)
            | (XX - half >= ob.x2)
            | (YY + half <= ob.y)
            | (YY - half >= ob.y2)
        )
        ok &= apart
    return float(ok.mean()) * rect.area


class Cut(NamedTuple):
    """The four edges :func:`region_subtract` reads from its cut.

    A :class:`Rectangle` would recompute ``x2 = x + width`` and could land
    one ulp away from the inflated obstacle's own edge, so the oracle
    passes the edges themselves.
    """

    x: float
    y: float
    x2: float
    y2: float


def reference_midpoint_region(rect: Rectangle, obstacles, s: float) -> RectilinearRegion:
    """Feasible-midpoint region rebuilt one ``region_subtract`` per obstacle."""
    half = s / 2.0
    region = RectilinearRegion(
        ((rect.x + half, rect.y + half, rect.x2 - half, rect.y2 - half),)
    )
    for ob in obstacles:
        if ob.side <= 0:
            continue
        cut = Cut(max(ob.x - half, rect.x), max(ob.y - half, rect.y),
                  min(ob.x2 + half, rect.x2), min(ob.y2 + half, rect.y2))
        if cut.x2 > cut.x and cut.y2 > cut.y:
            region = region_subtract(region, cut)
    return region


def reference_whitespace_pack(job) -> Packing:
    """Whitespace packing that rebuilds the region from scratch at every step.

    The same greedy rule as :func:`moserpack.whitespace_pack` (largest
    first, lexicomin midpoint, zero sides parked on the rectangle's
    lower-left corner), with none of its region reuse.
    """
    rect = job.base.rect
    placed = list(job.base.placements)
    for s in job.tail.sides:
        if s <= 0.0:
            placed.append(Placement(0.0, rect.x, rect.y))
            continue
        point = region_lexicomin(reference_midpoint_region(rect, placed, s))
        placed.append(Placement(s, point[0] - s / 2.0, point[1] - s / 2.0))
    return Packing(rect, tuple(placed))


def padded_reduce_and_pack(inst: Instance, params: PackParams) -> ReduceResult:
    """The driver as it was when case c padded a short prefix with zero sides.

    Cases a and b go to :func:`moserpack.reduce_and_pack`.  In case c an
    instance of m < n squares becomes a prefix of n squares, the last
    n - m of side zero, and its packing goes through :func:`whitespace_pack`
    with whatever tail is left.  An oracle for the unpadded driver, whose
    packing must equal this one with the zero-side placements dropped.
    """
    sides = inst.sides
    late_area = math.fsum(s * s for s in sides[params.N1:])
    if sides[0] <= params.s1_threshold + 1e-15 or late_area >= params.c * params.c:
        return reduce_and_pack(inst, params)
    n = find_small_index(inst, params.c, params.N1, params.N)
    prefix = Instance(sides[:n] + (0.0,) * (n - len(sides[:n])))
    base = default_prefix_packer(prefix, params.F / prefix.total_area)
    if base.rect.min_edge < max(sides[0], 0.1) - 1e-12:
        raise PackFailure(f"prefix packing smaller edge {base.rect.min_edge} too small")
    job = WhitespaceJob(base, Instance(sides[n:]), params.c, params.F)
    return ReduceResult("c", whitespace_pack(job), params, split_index=n)


def reference_shelf_positions(sides, a1: float, a2: float):
    """First-fit decreasing shelf positions, every open shelf scanned per square.

    The same contract as :func:`moserpack.shelf._shelf_positions`
    (lower-left corners in input order, or None on a failed fit), without
    its skipping of shelves too full for any remaining square.
    """
    coords = []
    shelf_y: list[float] = []
    shelf_used: list[float] = []
    top = 0.0
    for s in sides:
        if s <= 0.0:
            coords.append((0.0, 0.0))
            continue
        if s > a1 + EPS_GEOM:
            return None
        for k in range(len(shelf_y)):
            if shelf_used[k] + s <= a1 + EPS_GEOM:
                coords.append((shelf_used[k], shelf_y[k]))
                shelf_used[k] += s
                break
        else:
            if top + s > a2 + EPS_GEOM:
                return None
            coords.append((0.0, top))
            shelf_y.append(top)
            shelf_used.append(s)
            top += s
    return coords


# Near 1e308 edges and overlaps overflow to inf, and a pair apart on one
# axis then scores 0 * inf = nan, which is no overlap either.
@np.errstate(over="ignore", invalid="ignore")
def reference_verify_packing(packing: Packing, tol: float = 1e-12,
                             cap: int = 10_000) -> VerificationReport:
    """Dense O(n^2) verifier: every pair of placements is tested.

    Out-of-bounds placements first, by index, then overlapping pairs in
    row-major (i, j) order, cut at ``cap`` entries, exactly the report
    :func:`moserpack.verify_packing` promises.  Rows are tested in blocks
    of at most about 4e6 pairs, each row against itself and every later
    placement.
    """
    pls = packing.placements
    n = len(pls)
    violations: list[Violation] = []
    r = packing.rect
    for i, p in enumerate(pls):
        excess = max(r.x - p.x, r.y - p.y, p.x2 - r.x2, p.y2 - r.y2)
        if excess > tol:
            violations.append(Violation("outside", i, None, excess))

    xs = np.array([p.x for p in pls])
    ys = np.array([p.y for p in pls])
    ss = np.array([p.side for p in pls])
    x2 = xs + ss
    y2 = ys + ss
    chunk = max(1, int(4e6 // max(n, 1)))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        ox = np.minimum(x2[lo:hi, None], x2[None, lo:]) - np.maximum(
            xs[lo:hi, None], xs[None, lo:]
        )
        oy = np.minimum(y2[lo:hi, None], y2[None, lo:]) - np.maximum(
            ys[lo:hi, None], ys[None, lo:]
        )
        np.clip(ox, 0.0, None, out=ox)
        np.clip(oy, 0.0, None, out=oy)
        ox *= oy
        ii, jj = np.nonzero(ox > tol)
        for a_i, b_j in zip(ii, jj):
            if b_j <= a_i:  # the diagonal and below: each unordered pair once
                continue
            violations.append(
                Violation("overlap", lo + int(a_i), lo + int(b_j), float(ox[a_i, b_j]))
            )
            if len(violations) > cap:
                break
        if len(violations) > cap:
            break

    truncated = len(violations) > cap
    if truncated:
        violations = violations[:cap]
    return VerificationReport(not violations, tuple(violations), truncated)


def two_square_ternary_search(steps: int = 200) -> tuple[float, float]:
    """(argmax, max) of g(s) = s (s + sqrt(1 - s^2)) on [1/sqrt(2), 1] by ternary search.

    Assumes only that g is unimodal there; an oracle for the closed form
    of :func:`moserpack.constants.two_square_worst_case`.
    """
    a, b = 1 / math.sqrt(2), 1.0

    def g(s: float) -> float:
        return s * (s + math.sqrt(max(0.0, 1.0 - s * s)))

    for _ in range(steps):
        m1 = a + (b - a) / 3
        m2 = b - (b - a) / 3
        if g(m1) <= g(m2):
            a = m1
        else:
            b = m2
    s = (a + b) / 2
    return s, g(s)


def harmonic_bounds(n: int) -> tuple[float, float, float]:
    """(ln(n+1), H_n, ln(n) + 1): the harmonic number with its log bounds."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return (math.log(n + 1), harmonic_range_sum(1, n), math.log(n) + 1.0)


class KSample(NamedTuple):
    """A point of the feasibility set K with its threshold value f(V, H)."""

    V: float
    H: float
    fval: float


def k_sample_grid(F: float, count: int, c2: float) -> list[KSample]:
    """Members of K on a float grid of [c^2, 1] x [sqrt(F c^2), 10 F].

    About ``count`` grid points, of which those in K are kept: c^2 <= V <= 1,
    sqrt(F V) <= H <= 10 F and a non-negative discriminant, with f(V, H) the
    smaller root q - sqrt(q^2 - (F - 1) V / 2), q = (H + F V / H)/4.  An
    oracle for the closed form of :func:`moserpack.delta_refined` that
    assumes nothing about where the minimum lies.
    """
    side = max(2, int(math.isqrt(count)))
    V, H = np.meshgrid(np.linspace(c2, 1.0, side),
                       np.linspace(math.sqrt(F * c2), 10 * F, side), indexing="ij")
    q = (H + F * V / H) / 4
    disc = q * q - (F - 1) * V / 2
    ok = (V >= 0) & (H >= np.sqrt(F * V)) & (H <= 10 * F) & (disc >= 0)
    f = q - np.sqrt(np.maximum(disc, 0.0))
    return [KSample(float(V[i, j]), float(H[i, j]), float(f[i, j]))
            for i, j in zip(*np.nonzero(ok))]


def random_midpoint_config(rng: np.random.Generator):
    """A random rectangle, obstacle set, and new-square side."""
    W = float(rng.uniform(0.8, 2.0))
    H = float(rng.uniform(0.8, 2.0))
    rect = Rectangle(W, H)
    n_obs = int(rng.integers(0, 7))
    obstacles = []
    for _ in range(n_obs):
        side = float(rng.uniform(0.05, 0.35) * min(W, H))
        # obstacles may poke out of the rectangle or overlap each other
        x = float(rng.uniform(-0.1 * W, W - 0.5 * side))
        y = float(rng.uniform(-0.1 * H, H - 0.5 * side))
        obstacles.append(Placement(side, x, y))
    s = float(rng.uniform(0.04, 0.25) * min(W, H))
    return rect, obstacles, s


def random_moon_moser_case(rng: np.random.Generator):
    """Instance and rectangle satisfying the doubled-area criterion snugly."""
    k = int(rng.integers(1, 40))
    sides = rng.uniform(0.05, 1.0, size=k)
    if rng.random() < 0.2:
        sides = np.concatenate([sides, np.zeros(int(rng.integers(1, 4)))])
    inst = Instance(tuple(float(s) for s in sides))
    V = inst.total_area
    x = inst.max_side
    area = 2.0 * V / 0.99
    ratio = float(rng.uniform(1.0, 4.0))
    a1 = math.sqrt(area / ratio)
    if a1 < x:
        a1 = x
    a2 = area / a1
    return inst, Rectangle(a1, a2)


def random_meir_moser_case(rng: np.random.Generator):
    """Instance and rectangle sitting just inside the meir-moser bound."""
    k = int(rng.integers(1, 40))
    sides = rng.uniform(0.05, 1.0, size=k)
    if rng.random() < 0.2:
        sides = np.concatenate([sides, np.zeros(int(rng.integers(1, 4)))])
    inst = Instance(tuple(float(s) for s in sides))
    V = inst.total_area
    x = inst.max_side
    a1 = x * (1.0 + float(rng.uniform(0.02, 2.0)))
    a2 = x + (V - x * x) / ((a1 - x) * 0.97)
    return inst, Rectangle(a1, a2)
