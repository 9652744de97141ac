"""Axis-parallel rectangles, packings, and rectilinear region algebra.

Everything downstream (shelf packers, whitespace packing, the reduction
driver) is built on the primitives in this module.  All geometry is
axis-parallel and uses one global absolute tolerance ``EPS_GEOM``:
touching edges count as disjoint, and verification accepts overlap or
boundary excess up to the tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import PreconditionViolated

#: Global absolute geometric tolerance.
EPS_GEOM = 1e-12

# A region part is a plain (x0, y0, x1, y1) tuple; keeping the hot loops on
# tuples instead of dataclass instances is a large constant-factor win.
_Part = tuple[float, float, float, float]


@dataclass(frozen=True)
class Rectangle:
    """Axis-parallel rectangle with positive extent.

    The origin is the lower-left corner and defaults to (0, 0).
    """

    width: float
    height: float
    x: float = 0.0
    y: float = 0.0

    def __post_init__(self) -> None:
        if not (0 < self.width < math.inf and 0 < self.height < math.inf):
            raise ValueError(
                f"rectangle sides must be positive and finite, got {self.width} x {self.height}"
            )
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"rectangle origin must be finite, got ({self.x}, {self.y})")

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def x2(self) -> float:
        return self.x + self.width

    @property
    def y2(self) -> float:
        return self.y + self.height

    @property
    def min_edge(self) -> float:
        return min(self.width, self.height)


@dataclass(frozen=True)
class Placement:
    """A square of edge ``side`` whose lower-left corner sits at (x, y)."""

    side: float
    x: float
    y: float

    def __post_init__(self) -> None:
        if not 0 <= self.side < math.inf:
            raise ValueError(f"placement side must be finite and >= 0, got {self.side}")
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"placement corner must be finite, got ({self.x}, {self.y})")

    @property
    def x2(self) -> float:
        return self.x + self.side

    @property
    def y2(self) -> float:
        return self.y + self.side

    @property
    def area(self) -> float:
        return self.side * self.side


@dataclass(frozen=True)
class Instance:
    """A multiset of square edge lengths, stored sorted non-increasingly.

    Construction sorts the sides, so zero sides can only appear as a
    trailing run.  Negative and non-finite sides are rejected.  When
    ``declared_total_area`` is given it must match the actual total within
    ``AREA_DECL_TOL``.
    """

    sides: tuple[float, ...]
    declared_total_area: Optional[float] = None

    AREA_DECL_TOL = 1e-9

    def __post_init__(self) -> None:
        sides = tuple(sorted((float(s) for s in self.sides), reverse=True))
        bad = [s for s in sides if not 0 <= s < math.inf]
        if bad:
            raise ValueError(f"instance sides must be finite and >= 0, got {bad[0]}")
        object.__setattr__(self, "sides", sides)
        if self.declared_total_area is not None:
            actual = self.total_area
            if not abs(actual - self.declared_total_area) <= self.AREA_DECL_TOL:
                raise ValueError(
                    f"declared total area {self.declared_total_area} differs from "
                    f"actual {actual} by more than {self.AREA_DECL_TOL}"
                )

    @property
    def total_area(self) -> float:
        return math.fsum(s * s for s in self.sides)

    @property
    def max_side(self) -> float:
        return self.sides[0] if self.sides else 0.0

    def __len__(self) -> int:
        return len(self.sides)


@dataclass(frozen=True)
class Packing:
    """A target rectangle together with one placement per input square."""

    rect: Rectangle
    placements: tuple[Placement, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "placements", tuple(self.placements))

    @property
    def total_placed_area(self) -> float:
        return math.fsum(p.area for p in self.placements)


@dataclass(frozen=True)
class Violation:
    """One verification defect: a placement out of bounds or an overlapping pair."""

    kind: str  # "outside" | "overlap"
    index: int
    partner: Optional[int] = None
    measure: float = 0.0


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of :func:`verify_packing`.

    ``pairs_examined`` counts the candidate pairs the overlap sweep
    tested; it describes the work done, not the verdict, so report
    equality ignores it.
    """

    valid: bool
    violations: tuple[Violation, ...] = ()
    truncated: bool = False
    pairs_examined: int = field(default=0, compare=False)


@dataclass(frozen=True)
class RectilinearRegion:
    """A finite union of pairwise interior-disjoint axis-parallel rectangles.

    Parts are (x0, y0, x1, y1) tuples.  Normalization drops zero-area
    parts; disjointness is not checked: :func:`feasible_midpoint_region`
    maintains it by construction, splitting each part it cuts into
    disjoint pieces.
    """

    parts: tuple[_Part, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        kept = tuple(p for p in self.parts if p[2] > p[0] and p[3] > p[1])
        object.__setattr__(self, "parts", kept)


def _subtract_part(part: _Part, cut: _Part, out: list) -> None:
    """Append ``part`` minus the interior of ``cut`` onto ``out``."""
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


def region_area(region: RectilinearRegion) -> float:
    return math.fsum((x1 - x0) * (y1 - y0) for (x0, y0, x1, y1) in region.parts)


def region_lexicomin(region: RectilinearRegion) -> Optional[tuple[float, float]]:
    """Lexicographically smallest point of the region (min x, then min y).

    Returns ``None`` on an empty region.  Parts whose left edges agree
    within ``EPS_GEOM`` are treated as tied in x and the smallest bottom
    edge among them wins; the returned point is always an exact part
    corner, hence exactly inside the region.
    """
    if not region.parts:
        return None
    min_x = min(p[0] for p in region.parts)
    best = min(
        (p for p in region.parts if p[0] <= min_x + EPS_GEOM),
        key=lambda p: (p[1], p[0]),
    )
    return (best[0], best[1])


def feasible_midpoint_region(
    rect: Rectangle,
    obstacles: Sequence[Placement],
    s: float,
    start: Optional[RectilinearRegion] = None,
) -> RectilinearRegion:
    """Region of valid midpoints for a new square of side ``s``.

    A point p is in the result exactly when the square of side ``s``
    centered at p lies inside ``rect`` and is interior-disjoint from every
    obstacle.  Geometrically this is the centered (W-s) x (H-s) rectangle
    minus each obstacle inflated by s/2 on all four sides (clipped to the
    enclosing rectangle).  Obstacles with side 0 have empty interiors and
    impose no constraint, so they are skipped rather than inflated.

    ``start``, when given, must be this function's result for the same
    ``rect`` and ``s`` against some earlier obstacles; the cuts then begin
    from it instead of from the centered rectangle.  The cuts are made in
    the same order either way, so ``feasible_midpoint_region(rect, b, s,
    start=feasible_midpoint_region(rect, a, s))`` has exactly the parts of
    ``feasible_midpoint_region(rect, a + b, s)``.

    Each cut box is computed with the same float expressions as the
    one-cut-per-obstacle oracle in the tests (``max(x - s/2, rect.x)``,
    ``min(x + side + s/2, rect.x2)`` and likewise in y), written as plain
    comparisons, so the parts and their order match it exactly.
    """
    if s < 0:
        raise ValueError(f"square side must be >= 0, got {s}")
    if s > rect.min_edge:
        raise PreconditionViolated(
            f"side {s} exceeds the smaller enclosing edge {rect.min_edge}"
        )
    half = s / 2.0
    if start is not None:
        parts = list(start.parts)
    else:
        inner = (rect.x + half, rect.y + half, rect.x2 - half, rect.y2 - half)
        parts = [inner] if inner[2] > inner[0] and inner[3] > inner[1] else []
    rx0, ry0, rx1, ry1 = rect.x, rect.y, rect.x2, rect.y2
    for ob in obstacles:
        side = ob.side
        if side <= 0:
            continue
        # max()/min() and the x2/y2 properties spelled out as plain
        # comparisons: the same floats, without a call per bound.
        x = ob.x
        y = ob.y
        cx0 = x - half
        if cx0 < rx0:
            cx0 = rx0
        cx1 = x + side + half
        if cx1 > rx1:
            cx1 = rx1
        cy0 = y - half
        if cy0 < ry0:
            cy0 = ry0
        cy1 = y + side + half
        if cy1 > ry1:
            cy1 = ry1
        if cx1 <= cx0 or cy1 <= cy0:
            continue
        cut = (cx0, cy0, cx1, cy1)
        out: list[_Part] = []
        for part in parts:
            # Most parts miss the cut (touching edges do not count); only
            # the ones it overlaps are split.
            if part[2] <= cx0 or cx1 <= part[0] or part[3] <= cy0 or cy1 <= part[1]:
                out.append(part)
            else:
                _subtract_part(part, cut, out)
        parts = out
    # Splitting a part of positive area only yields pieces of positive
    # area, so the parts need no normalization until the end.
    return RectilinearRegion(tuple(parts))


#: Most violations a report lists; ``truncated`` says whether more exist.
_MAX_REPORTED = 10_000
#: Most candidate pairs the overlap sweep expands at once.
_PAIR_CHUNK = 1 << 18
#: Fewest candidate pairs per square at which the sweep tries strips:
#: building them costs about as much as expanding 12 to 16 candidates per
#: square (shelf packings of 400 to 3,000 squares, 2-core Xeon).
_STRIP_MIN_PAIRS = 16


def verify_packing(packing: Packing, tol: float = EPS_GEOM) -> VerificationReport:
    """Check containment and pairwise interior-disjointness of a packing.

    A placement may stick out of the rectangle by at most ``tol`` per
    side, and a pair of placements may share at most ``tol`` of overlap
    area; ``tol`` must be finite and >= 0.  Out-of-bounds placements come
    first, by index, then overlapping pairs ``(i, j)``, ``i < j``, in
    lexicographic order, up to a cap of 10000 entries (``truncated`` is
    set if the cap is hit).

    Overlaps are found by a strip sweep, a sort-and-sweep (Bentley & Wood,
    1980) run within strips.  The squares are ranked by their lower edge
    along the sweep axis, the one whose spans hold fewer lower edges.  The
    other axis is cut into strips of height h, the mean side or 1/(4n) of
    the span if that is larger, and each square gets one copy in every
    strip from the one holding its lower edge to the one holding its upper
    edge.  Within a strip, a square is paired only with the later squares
    whose lower edge lies strictly inside its span on the sweep axis, and
    a pair is kept only in its owner strip, the one holding the larger of
    the two lower edges on the other axis.  Two overlapping squares both
    reach that strip, so each overlapping pair is found exactly once, and
    the candidates get the exact overlap test.  ``pairs_examined`` counts
    the candidates, each pair once.  A shelf packing then examines about
    one pair per square (30,741 for the 30,004 squares of case b) where a
    single sweep examines one per square and row-mate (1,140,043).  When
    the single sweep has few candidates, at most 16 per square, or when
    strips would leave no fewer, the whole axis is one strip.
    """
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    # numpy is imported where it is used, so that `import moserpack` and
    # the constants path never pay for loading it.
    import numpy as np

    pls = packing.placements
    x = np.array([p.x for p in pls], dtype=float)
    y = np.array([p.y for p in pls], dtype=float)
    side = np.array([p.side for p in pls], dtype=float)
    r = packing.rect
    # Finite placements near 1e308 may have upper edges, spans and overlap
    # areas that round to inf.  Those infinities compare correctly, so
    # overflow is expected here; invalid operations still warn.
    with np.errstate(over="ignore"):
        x2 = x + side
        y2 = y + side
        excess = np.maximum(np.maximum(r.x - x, r.y - y), np.maximum(x2 - r.x2, y2 - r.y2))
        outside = np.flatnonzero(excess > tol)
        first, second, area, hits, examined = _overlapping_pairs(
            x, y, x2, y2, tol, max(_MAX_REPORTED - len(outside), 0)
        )
    violations = [Violation("outside", int(i), None, float(excess[i]))
                  for i in outside[:_MAX_REPORTED]]
    violations += [Violation("overlap", int(i), int(j), float(a))
                   for i, j, a in zip(first, second, area)]
    truncated = len(outside) + hits > _MAX_REPORTED
    return VerificationReport(not violations, tuple(violations), truncated, examined)


def _overlapping_pairs(x, y, x2, y2, tol: float, keep: int):
    """Pairs ``i < j`` whose squares share more than ``tol`` of area.

    Returns the ``keep`` lexicographically smallest pairs as index arrays
    ``first`` and ``second`` with their overlap areas, the number of
    overlapping pairs in all, and the number of candidate pairs examined.
    Candidates are expanded at most ``_PAIR_CHUNK`` at a time, and only the
    ``keep`` smallest hits are carried from one chunk to the next, so
    memory stays bounded however many pairs overlap.
    """
    import numpy as np

    n = len(x)
    # Sweep along the axis whose spans hold fewer lower edges: a shelf row
    # is cheap to sweep across, a column of stacked squares along its height.
    best = None
    for lo, hi in ((x, x2), (y, y2)):
        order = np.argsort(lo, kind="stable")
        # the square of rank k pairs with ranks k+1 .. ends[k]-1
        ends = np.searchsorted(lo[order], hi[order], "left")
        counts = np.maximum(ends - np.arange(1, n + 1), 0)
        total = int(counts.sum())
        if best is None or total < best[0]:
            best = (total, order, ends, counts, lo is x)
    total, order, ends, counts, along_x = best

    # The sweep runs over copies of the squares, sorted by strip and then
    # by rank.  With one strip, copy k is the square of rank k.
    square, strip = order, None
    if total > _STRIP_MIN_PAIRS * n:
        # Cut the other axis into strips of height h, at most 4n + 1 of
        # them, and give each square one copy per strip from the one that
        # holds its lower edge to the one that holds its upper edge: with
        # h at least the mean side, that is at most 3n copies.
        lo, hi = (y, y2) if along_x else (x, x2)
        lo, hi = lo[order], hi[order]
        bottom = float(lo.min())
        span = float(hi.max()) - bottom
        sides = hi - lo
        sides = sides[sides > 0]
        # the mean side, scaled by the largest so that the sum cannot
        # overflow and equal sides give their own value exactly
        top = float(sides.max(initial=0.0))
        mean = top * float(np.mean(sides / top)) if 0 < top < math.inf else top
        h = max(mean, span / (4 * n))
        if 0 < h < math.inf:
            lowest = np.floor((lo - bottom) / h).astype(np.int64)
            copies = np.floor((hi - bottom) / h).astype(np.int64) - lowest + 1
            rank = np.repeat(np.arange(n), copies)
            first_copy = np.repeat(np.cumsum(copies) - copies, copies)
            copy_strip = lowest[rank] + np.arange(len(rank)) - first_copy
            key = copy_strip * (n + 1) + rank
            by_key = np.argsort(key)
            rank, copy_strip, key = rank[by_key], copy_strip[by_key], key[by_key]
            # a copy pairs with the later copies in its strip whose rank
            # is below its square's ends[rank]
            strip_ends = np.searchsorted(key, copy_strip * (n + 1) + ends[rank], "left")
            strip_counts = np.maximum(strip_ends - np.arange(1, len(rank) + 1), 0)
            strip_total = int(strip_counts.sum())
            # Squares stacked at one point meet in every strip they span;
            # then one strip is cheaper.
            if strip_total < total:
                total, counts, square, strip = strip_total, strip_counts, order[rank], copy_strip
                lowest_strip = np.empty(n, dtype=np.int64)
                lowest_strip[order] = lowest

    cum = np.cumsum(counts)
    keys = np.empty(0, dtype=np.int64)
    areas = np.empty(0)
    hits = examined = 0
    pos = 0
    while pos < len(square) and total:
        base = int(cum[pos - 1]) if pos else 0
        stop = max(int(np.searchsorted(cum, base + _PAIR_CHUNK, "right")), pos + 1)
        c = counts[pos:stop]
        rows = np.arange(pos, stop)
        m = int(cum[stop - 1]) - base
        # copy k's candidates are copies k + 1, k + 2, ...: candidate t of
        # the chunk belongs to copy k and sits at k + 1 + (t - start[k])
        start = cum[pos:stop] - c - base
        row = np.repeat(rows, c)
        i = square[row]
        j = square[np.arange(m) + np.repeat(rows + 1 - start, c)]
        pos = stop

        if strip is not None:
            # A pair is tested only in its owner strip, the one holding the
            # larger of the two lower edges.  Both squares reach it when
            # they overlap, and strips grow with the edge, so it is the
            # larger of their lowest strips.
            own = np.maximum(lowest_strip[i], lowest_strip[j]) == strip[row]
            i, j = i[own], j[own]
        examined += len(i)
        # A pair apart or touching on either axis shares no area and, with
        # tol >= 0, never counts.  Its overlap on the other axis may have
        # overflowed to inf, so the product is formed only where both
        # overlaps are positive: 0 * inf would be nan.
        ox = np.minimum(x2[i], x2[j]) - np.maximum(x[i], x[j])
        oy = np.minimum(y2[i], y2[j]) - np.maximum(y[i], y[j])
        a = np.multiply(ox, oy, out=np.zeros_like(ox), where=(ox > 0) & (oy > 0))
        sel = a > tol
        i, j = i[sel], j[sel]
        hits += len(i)
        keys = np.concatenate((keys, np.minimum(i, j) * n + np.maximum(i, j)))
        areas = np.concatenate((areas, a[sel]))
        if len(keys) > keep:
            smallest = np.argpartition(keys, keep)[:keep]
            keys, areas = keys[smallest], areas[smallest]

    ranked = np.argsort(keys)
    first, second = np.divmod(keys[ranked], max(n, 1))
    return first, second, areas[ranked], hits, examined


# --- wire formats -----------------------------------------------------------


def packing_to_dict(packing: Packing) -> dict:
    """Serialize a packing; the rectangle is normalized to origin (0, 0)."""
    r = packing.rect
    return {
        "rect": {"w": r.width, "h": r.height},
        "placements": [
            {"side": p.side, "x": p.x - r.x, "y": p.y - r.y} for p in packing.placements
        ],
    }


def packing_from_dict(data: dict) -> Packing:
    rect = Rectangle(float(data["rect"]["w"]), float(data["rect"]["h"]))
    placements = tuple(
        Placement(float(p["side"]), float(p["x"]), float(p["y"]))
        for p in data["placements"]
    )
    return Packing(rect, placements)


def instance_to_dict(inst: Instance) -> dict:
    out: dict = {"sides": list(inst.sides)}
    if inst.declared_total_area is not None:
        out["total_area"] = inst.declared_total_area
    return out


def instance_from_dict(data: dict) -> Instance:
    """Read an instance; sides are sorted non-increasingly, negatives rejected."""
    return Instance(tuple(float(s) for s in data["sides"]), data.get("total_area"))
