"""Shared oracles and instance generators for the test suite."""

from __future__ import annotations

import math
from array import array
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np
from mpmath import iv, mp

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
from moserpack import constants
from moserpack.constants import harmonic_range_sum
from moserpack.geometry import (
    EPS_GEOM,
    RectilinearRegion,
    feasible_midpoint_region,
    region_lexicomin,
    split_free_rectangles,
)
from moserpack.reduction import default_prefix_packer, find_small_index


def packing_of(rect: Rectangle, placements) -> Packing:
    """The packing in ``rect`` of the given :class:`Placement` objects, in order."""
    placements = tuple(placements)
    return Packing(rect, array("d", [p.side for p in placements]),
                   array("d", [p.x for p in placements]), array("d", [p.y for p in placements]))


def _subtract_part(part, cut, out: list) -> None:
    """Append ``part`` minus the interior of ``cut`` onto ``out``, as disjoint pieces."""
    x0, y0, x1, y1 = part
    cx0, cy0, cx1, cy1 = cut
    # Touching edges do not count as overlap.
    if x1 <= cx0 or cx1 <= x0 or y1 <= cy0 or cy1 <= y0:
        out.append(part)
        return
    # Vertical slabs left and right of the cut, then the middle strips.
    if cx0 > x0:
        out.append((x0, y0, cx0, y1))
    if cx1 < x1:
        out.append((cx1, y0, x1, y1))
    mx0 = x0 if cx0 < x0 else cx0
    mx1 = x1 if cx1 > x1 else cx1
    if cy0 > y0:
        out.append((mx0, y0, mx1, cy0))
    if cy1 < y1:
        out.append((mx0, cy1, mx1, y1))


def region_subtract(region: RectilinearRegion, cut) -> RectilinearRegion:
    """Closure of ``region`` minus the interior of ``cut``.

    ``cut`` is anything with ``x``, ``y``, ``x2`` and ``y2`` edges.
    Parts of zero area are dropped, so the returned area always equals
    ``area(region) - area(region ∩ cut)``.
    """
    return RectilinearRegion(_positive(_cut_parts(region.parts, (cut.x, cut.y, cut.x2, cut.y2))))


def _positive(parts) -> tuple:
    """The parts of positive width and height."""
    return tuple(p for p in parts if p[2] > p[0] and p[3] > p[1])


def _cut_parts(parts, cut) -> list:
    """Every part minus the interior of ``cut``; parts it misses are kept as they are."""
    cx0, cy0, cx1, cy1 = cut
    out: list = []
    for part in parts:
        if part[2] <= cx0 or cx1 <= part[0] or part[3] <= cy0 or cy1 <= part[1]:
            out.append(part)
        else:
            _subtract_part(part, cut, out)
    return out


def split_square(free, side: float, x: float, y: float, min_edge: float = 0.0) -> list:
    """``free`` split by the square of edge ``side`` at (x, y), passed as its box.

    A square of side <= 0 has an empty interior and leaves the list as it
    is, as every caller of ``split_free_rectangles`` drops it.
    """
    if side <= 0:
        return list(free)
    return split_free_rectangles(free, x, y, x + side, y + side, min_edge)


def free_rectangles(rect: Rectangle, obstacles, min_edge: float = 0.0) -> list:
    """``[rect]`` split by each obstacle in turn, square by square."""
    free = [(0.0, 0.0, rect.width, rect.height)]
    for ob in obstacles:
        free = split_square(free, ob.side, ob.x, ob.y, min_edge)
    return free


def abutting_runs(packing: Packing) -> list:
    """Boxes (x0, y0, x1, y1) of the maximal runs of abutting equal squares.

    A run is consecutive squares of one positive side s laid edge to edge
    in a row (equal y, each x the previous x + s) or in a column (equal x,
    each y the previous y + s), compared as floats.  Its box ends at the
    last square's x + s (or y + s).  Squares of side <= 0 are skipped and
    end a run.
    """
    boxes: list = []
    run = None  # (side, "row" / "column" / None) of the open run
    for s, x, y in zip(packing.sides, packing.xs, packing.ys):
        if s > 0 and run is not None and run[0] == s:
            x0, y0, x1, y1 = boxes[-1]
            if run[1] != "column" and y == y0 and x == x1:
                boxes[-1], run = (x0, y0, x + s, y1), (s, "row")
                continue
            if run[1] != "row" and x == x0 and y == y1:
                boxes[-1], run = (x0, y0, x1, y + s), (s, "column")
                continue
        if s > 0:
            boxes.append((x, y, x + s, y + s))
            run = (s, None)
        else:
            run = None
    return boxes


def box_free_rectangles(rect: Rectangle, boxes, min_edge: float = 0.0) -> list:
    """``[rect]`` split by each box in turn with ``split_free_rectangles``."""
    free = [(0.0, 0.0, rect.width, rect.height)]
    for box in boxes:
        free = split_free_rectangles(free, *box, min_edge)
    return free


def per_square_whitespace_pack(job) -> Packing:
    """:func:`moserpack.whitespace_pack` with the base split square by square.

    The base free list is :func:`free_rectangles` of the base placements;
    the tail steps are the packer's own: the lexicomin of the region that
    list gives, then one split by the placed square.
    """
    rect = job.base.rect
    smallest = min((s for s in job.tail.sides if s > 0.0), default=math.inf)
    free = free_rectangles(rect, job.base.placements, smallest)
    placed = list(job.base.placements)
    for s in job.tail.sides:
        if s <= 0.0:
            placed.append(Placement(0.0, 0.0, 0.0))
            continue
        point = region_lexicomin(feasible_midpoint_region(rect, (), s, start=free))
        x, y = point[0] - s / 2.0, point[1] - s / 2.0
        free = split_square(free, s, x, y, smallest)
        placed.append(Placement(s, x, y))
    return packing_of(rect, placed)


def reference_split_free_rectangles(free, square: Placement, min_edge: float = 0.0) -> list:
    """``geometry.split_free_rectangles`` with every piece compared to every other.

    No side grouping: a piece is dropped when it lies inside a free
    rectangle the square misses or inside any other piece, and of equal
    pieces the first is kept.
    """
    side = square.side
    if side <= 0:
        return list(free)
    x0 = square.x
    y0 = square.y
    x1 = x0 + side
    y1 = y0 + side
    missed: list = []
    pieces: list = []
    for fx0, fy0, fx1, fy1 in free:
        if fx1 <= x0 or x1 <= fx0 or fy1 <= y0 or y1 <= fy0:
            missed.append((fx0, fy0, fx1, fy1))
            continue
        if x0 > fx0:
            pieces.append((fx0, fy0, x0, fy1))
        if x1 < fx1:
            pieces.append((x1, fy0, fx1, fy1))
        if y0 > fy0:
            pieces.append((fx0, fy0, fx1, y0))
        if y1 < fy1:
            pieces.append((fx0, y1, fx1, fy1))

    def inside(a, b) -> bool:
        return b[0] <= a[0] and b[1] <= a[1] and a[2] <= b[2] and a[3] <= b[3]

    kept = [
        p for i, p in enumerate(pieces)
        if p[2] - p[0] >= min_edge and p[3] - p[1] >= min_edge
        and not any(inside(p, g) for g in missed)
        and not any(inside(p, q) and (q != p or j < i)
                    for j, q in enumerate(pieces) if j != i)
    ]
    return missed + kept


def container_first_split(free, side: float, x: float, y: float, min_edge: float = 0.0) -> list:
    """``geometry.split_free_rectangles`` with one holder list and a sort key function.

    The missed rectangles that touch the square on the side they miss on
    are holders of every side; each side's pieces are built as rectangles,
    sorted by ``(x0, y0, -x1, -y1)`` and compared on all four edges with
    every holder, and a kept piece becomes a holder.  The result lists the
    untouched rectangles, then the kept pieces left, right, below and
    above, each side in sort order: the same list, in the same order.
    """
    if side <= 0:
        return list(free)
    x0, y0 = x, y
    x1 = x0 + side
    y1 = y0 + side
    out: list = []
    holders: list = []
    left: list = []
    right: list = []
    below: list = []
    above: list = []
    for f in free:
        fx0, fy0, fx1, fy1 = f
        if fx1 <= x0:
            if fx1 == x0:
                holders.append(f)
        elif x1 <= fx0:
            if x1 == fx0:
                holders.append(f)
        elif fy1 <= y0:
            if fy1 == y0:
                holders.append(f)
        elif y1 <= fy0:
            if y1 == fy0:
                holders.append(f)
        else:
            if fy1 - fy0 >= min_edge:
                if x0 > fx0 and x0 - fx0 >= min_edge:
                    left.append((fx0, fy0, x0, fy1))
                if x1 < fx1 and fx1 - x1 >= min_edge:
                    right.append((x1, fy0, fx1, fy1))
            if fx1 - fx0 >= min_edge:
                if y0 > fy0 and y0 - fy0 >= min_edge:
                    below.append((fx0, fy0, fx1, y0))
                if y1 < fy1 and fy1 - y1 >= min_edge:
                    above.append((fx0, y1, fx1, fy1))
            continue
        out.append(f)
    for pieces in (left, right, below, above):
        pieces.sort(key=_container_first)
        for p in pieces:
            a0, b0, a1, b1 = p
            for c0, d0, c1, d1 in holders:
                if c0 <= a0 and d0 <= b0 and a1 <= c1 and b1 <= d1:
                    break
            else:
                holders.append(p)
                out.append(p)
    return out


def _container_first(p) -> tuple:
    return (p[0], p[1], -p[2], -p[3])


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
    XX = (np.arange(nx)[:, None] + rng.random((nx, ny))) * (rect.width / nx)
    YY = (np.arange(ny)[None, :] + rng.random((nx, ny))) * (rect.height / ny)
    half = s / 2.0
    ok = (
        (XX - half >= 0.0)
        & (XX + half <= rect.width)
        & (YY - half >= 0.0)
        & (YY + half <= rect.height)
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

    The edges are passed as they are: recomputing ``x2`` as ``x + width``
    could land one ulp away from the inflated obstacle's own edge.
    """

    x: float
    y: float
    x2: float
    y2: float


def reference_midpoint_region(rect: Rectangle, obstacles, s: float) -> RectilinearRegion:
    """Feasible-midpoint region: the centered rectangle minus one cut per obstacle.

    Each cut is the obstacle inflated by s/2 and clipped to ``rect``.  The
    parts are pairwise interior-disjoint, so their areas add up.  Pieces
    of zero area only descend from parts of zero area, so dropping them
    once at the end gives the parts a ``region_subtract`` per obstacle
    would.
    """
    half = s / 2.0
    parts = [(half, half, rect.width - half, rect.height - half)]
    for ob in obstacles:
        if ob.side <= 0:
            continue
        cut = Cut(max(ob.x - half, 0.0), max(ob.y - half, 0.0),
                  min(ob.x2 + half, rect.width), min(ob.y2 + half, rect.height))
        if cut.x2 > cut.x and cut.y2 > cut.y:
            parts = _cut_parts(parts, cut)
    return RectilinearRegion(_positive(parts))


def reference_whitespace_pack(job) -> Packing:
    """Whitespace packing that rebuilds the region from scratch at every step.

    The same greedy rule as :func:`moserpack.whitespace_pack` (largest
    first, lexicomin midpoint, zero sides parked at the origin), with
    none of its region reuse.
    """
    rect = job.base.rect
    placed = list(job.base.placements)
    for s in job.tail.sides:
        if s <= 0.0:
            placed.append(Placement(0.0, 0.0, 0.0))
            continue
        point = region_lexicomin(reference_midpoint_region(rect, placed, s))
        placed.append(Placement(s, point[0] - s / 2.0, point[1] - s / 2.0))
    return packing_of(rect, placed)


def reference_find_small_index(inst: Instance, c: float, N1: int, N: int):
    """:func:`moserpack.reduction.find_small_index` as one vectorized pass.

    numpy compares every side of the window (N1, min(N, m)] with
    ``c / np.sqrt(n)`` and takes the first hit; with no hit it falls
    through to the same index or None.  An oracle for the early-exit loop.
    """
    sides = inst.sides
    m = len(sides)
    hi = min(N, m)
    if N1 + 1 <= hi:
        idx = np.arange(N1 + 1, hi + 1, dtype=np.float64)
        vals = np.asarray(sides[N1:hi], dtype=np.float64)
        hits = np.nonzero(vals < c / np.sqrt(idx))[0]
        if hits.size:
            return N1 + 1 + int(hits[0])
    if m < N:
        return max(N1 + 1, m + 1)
    return None


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
        excess = max(0.0 - p.x, 0.0 - p.y, p.x2 - r.width, p.y2 - r.height)
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


def two_square_worst_case() -> tuple[float, float]:
    """Worst pair of squares with total area 1 for a snug rectangle.

    For s1 in (1/sqrt(2), 1) the two squares s1 >= s2 = sqrt(1 - s1^2)
    must stand side by side, needing area g = s1 (s1 + s2).  Returns
    (argmax, max) = (cos(pi/8), (1 + sqrt(2))/2) in closed form: with
    s1 = cos t for t in (0, pi/4), s2 = sin t and
    g = cos^2 t + cos t sin t = (1 + cos 2t + sin 2t)/2
      = (1 + sqrt(2) sin(2t + pi/4))/2,
    which is largest, at (1 + sqrt(2))/2, where 2t + pi/4 = pi/2, i.e. t = pi/8.
    """
    return math.cos(math.pi / 8), (1 + math.sqrt(2)) / 2


def two_square_ternary_search(steps: int = 200) -> tuple[float, float]:
    """(argmax, max) of g(s) = s (s + sqrt(1 - s^2)) on [1/sqrt(2), 1] by ternary search.

    Assumes only that g is unimodal there; an oracle for the closed form
    of :func:`two_square_worst_case`.
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


def circumference_admits(F: float, V: float, C: float, x: float) -> bool:
    """True when x <= (F - 1) V / C.

    Any instance of total area V and maximal edge x passing this test
    satisfies the meir-moser inequality on every rectangle of area F V
    whose half-circumference a1 + a2 is at most C (with both edges >= x).
    The tail rectangle W x (F V / W) of ``glue_pack`` has its larger edge
    at most 10 F, so its half-circumference is at most C = 10 F + V/10,
    where the cutoff (F - 1) V / C is delta(V): an oracle for the edge
    bound ``glue_pack`` checks.
    """
    if not 1 < F < math.inf:
        raise ValueError(f"area factor must be finite and exceed 1, got F={F}")
    if not (0 < V < math.inf and 0 < C < math.inf):
        raise ValueError(f"V and C must be positive and finite, got V={V}, C={C}")
    if not 0 <= x < math.inf:
        raise ValueError(f"max edge must be finite and >= 0, got x={x}")
    return x <= (F - 1) * V / C


def paper_count_floor(F: float, c: float) -> float:
    """The paper's whitespace base count max((10F + 1/10)^2, 100 c^2), in floats."""
    return max((10 * F + 0.1) ** 2, 100 * c * c)


def harmonic_bounds(n: int) -> tuple[float, float, float]:
    """(ln(n+1), H_n, ln(n) + 1): the harmonic number with its log bounds."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return (math.log(n + 1), harmonic_range_sum(1, n), math.log(n) + 1.0)


def _harmonic_lower(a: int, b: int):
    """Certified lower bound on sum_{i=a}^{b} 1/i for 1 <= a <= b.

    Each term satisfies 1/i >= integral of dx/x over [i, i + 1], so the sum
    is at least ln((b + 1)/a); the result is the lower endpoint of an
    outward-rounded enclosure of that logarithm at the working precision.
    """
    return mp.mpf(iv.log(iv.mpf(b + 1) / a).a)


# --- the certified constants' interval oracle --------------------------------
# The package brackets its constants in integers over 2^p.  The oracle below
# derives them in mpmath's outward-rounded interval arithmetic, with its own
# formulas and its own precision schedule, so that it checks that arithmetic.


@contextmanager
def workdps(dps: int):
    """Both mpmath contexts, ``mp`` and ``iv``, at ``dps`` digits."""
    old = mp.dps, iv.dps
    mp.dps = iv.dps = dps
    try:
        yield
    finally:
        mp.dps, iv.dps = old


def oracle_chain(spec) -> tuple:
    """(F, e, c, c^2) of a factor spec below 9 as ``iv`` intervals at the working precision.

    c = x / (sqrt((3/10)^2 + x) + 3/10) with x = (F - 1)/5, so that nothing
    cancels when F - 1 is small; F - 1 comes from the spec's exact value.
    """
    if constants._named(spec):
        root3 = iv.sqrt(3)
        F, e = (2 + root3) / 3, (root3 - 1) / 3
    else:
        exact = constants._rational(spec)
        den = exact.denominator
        F, e = iv.mpf(exact.numerator) / den, iv.mpf(exact.numerator - den) / den
    x = e / 5
    c = x / (iv.sqrt(iv.mpf(9) / 100 + x) + iv.mpf(3) / 10)
    return F, e, c, c * c


def oracle_values(spec) -> dict:
    """Enclosures of the chain's values, by name, at the working precision of
    both ``iv`` and ``mp``."""
    F, e, c, c2 = oracle_chain(spec)
    d = 10 * e * c2 / (100 * F + c2)
    q = (10 * F + c2 / 10) / 4
    a = e * c2 / 2
    f = a / (q + iv.sqrt(q * q - a))
    inv_c2, cap = 1 / c2, c2 / 10
    refined = [min(mp.mpf(f.a), mp.mpf(cap.a)), min(mp.mpf(f.b), mp.mpf(cap.b))]
    return {
        "F": F, "w": 1 / e, "u": 1 / c, "u2": inv_c2, "c": c,
        "inv_delta": 1 / d, "delta_refined": iv.mpf(refined),
        "ln_u2": iv.log(inv_c2), "exp2": iv.exp(2),
        "n0_simple": 1 / (d * d),
        "n0_integral": (100 * F * F * (inv_c2 - 1) + 2 * F * iv.log(inv_c2) + (1 - c2) / 100)
                       / (e * e),
    }


def _oracle_floor(val):
    """The floor of an enclosure, or None where it straddles an integer."""
    lo, hi = mp.floor(mp.mpf(val.a)), mp.floor(mp.mpf(val.b))
    return int(lo) if lo == hi else None


def oracle_floors(spec, use_integral_n0: bool = False) -> tuple:
    """(N0_simple, N0_integral, N1, N) by the interval oracle.

    It starts at 50 digits and doubles until every floor is decided.  N1's
    (10F + 1/10)^2 is floored exactly for a numeric spec, where it can be an
    integer, and from its enclosure for ``"novotny"``, where it is irrational.
    """
    dps = 50
    while dps <= 4000:
        with workdps(dps):
            vals = oracle_values(spec)
            n0s, n0i = _oracle_floor(vals["n0_simple"]), _oracle_floor(vals["n0_integral"])
            if constants._named(spec):
                F = vals["F"]
                square = _oracle_floor((10 * F + iv.mpf(1) / 10) ** 2)
            else:
                square = int((100 * constants._rational(spec) + 1) ** 2 // 100)
            if None not in (n0s, n0i, square):
                n0s, n0i = max(1, n0s), 1 + n0i
                N1 = max(n0i if use_integral_n0 else n0s, square)
                N = _oracle_floor(iv.exp(2) * N1)
                if N is not None:
                    return n0s, n0i, N1, N
        dps *= 2
    raise AssertionError(f"the oracle cannot decide the floors of {spec!r}")


def reference_floor(lo: int, hi: int, q: int):
    """The floors of both ends of [lo, hi] / 2^q through ``mp.floor``, exactly."""
    with mp.workprec(max(lo.bit_length(), hi.bit_length(), 1) + 10):
        return int(mp.floor(mp.ldexp(lo, -q))), int(mp.floor(mp.ldexp(hi, -q)))


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
