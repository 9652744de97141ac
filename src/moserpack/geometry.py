"""Axis-parallel rectangles, packings, and rectilinear region algebra.

Everything downstream (shelf packers, whitespace packing, the reduction
driver) is built on the primitives in this module.  All geometry is
axis-parallel and uses one global absolute tolerance ``EPS_GEOM``:
touching edges count as disjoint, and verification accepts overlap or
boundary excess up to the tolerance.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

from .errors import PreconditionViolated

#: Global absolute geometric tolerance.
EPS_GEOM = 1e-12

# A region part is a plain (x0, y0, x1, y1) tuple; keeping the hot loops on
# tuples instead of dataclass instances is a large constant-factor win.
_Part = tuple[float, float, float, float]


@dataclass(frozen=True)
class Rectangle:
    """The box [0, width] x [0, height]: positive, finite edges at the origin."""

    width: float
    height: float

    def __post_init__(self) -> None:
        if not (0 < self.width < math.inf and 0 < self.height < math.inf):
            raise ValueError(
                f"rectangle sides must be positive and finite, got {self.width} x {self.height}"
            )

    @property
    def area(self) -> float:
        return self.width * self.height

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
        sides = tuple(sorted(map(float, self.sides), reverse=True))
        # Once no side is NaN the order holds, so the last side is the least.
        if not (_finite(sides) and (not sides or sides[-1] >= 0)):
            bad = next(s for s in sides if not 0 <= s < math.inf)
            raise ValueError(f"instance sides must be finite and >= 0, got {bad}")
        object.__setattr__(self, "sides", sides)
        if self.declared_total_area is not None:
            actual = self.total_area
            if not abs(actual - self.declared_total_area) <= self.AREA_DECL_TOL:
                raise ValueError(
                    f"declared total area {self.declared_total_area} differs from "
                    f"actual {actual} by more than {self.AREA_DECL_TOL}"
                )

    @cached_property
    def total_area(self) -> float:
        """The exactly rounded sum of the squared sides, computed once."""
        return math.fsum(map(operator.mul, self.sides, self.sides))

    @property
    def max_side(self) -> float:
        return self.sides[0] if self.sides else 0.0

    def __len__(self) -> int:
        return len(self.sides)


def _finite(column: Sequence[float]) -> bool:
    """True when every value of ``column`` is finite."""
    # A sum with an inf or nan term is not finite; only a sum that
    # overflowed needs the check value by value.
    return math.isfinite(sum(column)) or all(map(math.isfinite, column))


@dataclass
class Packing:
    """A target rectangle and one square per input square, as three columns.

    Square i has edge ``sides[i]`` and its lower-left corner at ``(xs[i],
    ys[i])``.  Each column is an ``array('d')``, kept as given, not copied;
    construction checks once per column that every value is finite and
    every side >= 0.  ``placements`` is the same squares as a tuple of
    :class:`Placement`, built from the columns on each use.  Two packings
    are equal when their rectangles and columns are.
    """

    rect: Rectangle
    sides: array
    xs: array
    ys: array

    def __post_init__(self) -> None:
        sides, xs, ys = self.sides, self.xs, self.ys
        if not all(isinstance(c, array) and c.typecode == "d" for c in (sides, xs, ys)):
            raise TypeError("packing columns must be array('d')")
        if not len(sides) == len(xs) == len(ys):
            raise ValueError(f"columns differ in length: {len(sides)}, {len(xs)}, {len(ys)}")
        if not (_finite(xs) and _finite(ys)):
            raise ValueError("placement corners must be finite")
        if not _finite(sides) or min(sides, default=0.0) < 0:
            raise ValueError("placement sides must be finite and >= 0")

    @property
    def placements(self) -> tuple[Placement, ...]:
        return tuple(map(Placement, self.sides, self.xs, self.ys))

    @property
    def total_placed_area(self) -> float:
        return math.fsum(map(operator.mul, self.sides, self.sides))


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
    """A finite union of axis-parallel rectangles, which may overlap.

    Parts are (x0, y0, x1, y1) tuples.
    """

    parts: tuple[_Part, ...] = field(default_factory=tuple)


def region_area(region: RectilinearRegion) -> float:
    """Area of the union of the parts.

    An x-slab sweep (Bentley, 1977): between two consecutive part edges in
    x, the covered height is the union of the y-spans of the parts that
    span the slab, so overlapping parts count once.
    """
    parts = sorted(region.parts)
    xs = sorted({p[0] for p in parts} | {p[2] for p in parts})
    active: list[_Part] = []
    terms = []
    i = 0
    for xa, xb in zip(xs, xs[1:]):
        while i < len(parts) and parts[i][0] <= xa:
            active.append(parts[i])
            i += 1
        # every right edge is in xs, so a part still open at xa spans the slab
        active = [p for p in active if p[2] > xa]
        # spans by bottom edge: each adds what it reaches above the last top
        covered = []
        top = -math.inf
        for y0, y1 in sorted((p[1], p[3]) for p in active):
            if y1 > top:
                covered.append(y1 - (y0 if y0 > top else top))
                top = y1
        terms.append((xb - xa) * math.fsum(covered))
    return math.fsum(terms)


def region_lexicomin(region: RectilinearRegion) -> Optional[tuple[float, float]]:
    """Lexicographically smallest point of the region (min x, then min y).

    Returns ``None`` on an empty region.  Parts whose left edges agree
    within ``EPS_GEOM`` are treated as tied in x and the smallest bottom
    edge among them wins; the returned point is always an exact part
    corner, hence exactly inside the region.

    The point depends only on the union, not on how the parts cover it,
    so overlapping and disjoint covers of one set give the same point.
    With x* the leftmost x of the union and band the points with x <=
    x* + EPS_GEOM: a part in the band holds its lower-left corner, and a
    point of the union in the band lies in a part whose corner is below
    and left of it, so the smallest bottom edge y* in the band is the
    lowest y of the union's band.  Likewise the smallest left edge among
    the band's parts with bottom y* is the leftmost x of the union on the
    line y = y* within the band.  x* is the left edge of the smallest part
    as a tuple, a ``min`` that compares tuples without a list of edges.
    """
    parts = region.parts
    if not parts:
        return None
    band = min(parts)[0] + EPS_GEOM
    y, x = min([(p[1], p[0]) for p in parts if p[0] <= band])
    return (x, y)


def split_free_rectangles(
    free: Sequence[_Part], x0: float, y0: float, x1: float, y1: float, min_edge: float = 0.0
) -> list[_Part]:
    """The free rectangles left once the box [x0, x1] x [y0, y1] is placed (MaxRects).

    Each free rectangle that the box overlaps (touching edges do not
    count) splits into up to four full-extent pieces: left of, right of,
    below and above the box.  A piece that lies inside a free rectangle
    the box misses, or inside another piece, is dropped; of equal
    pieces one is kept.  Pieces with an edge shorter than ``min_edge`` are
    dropped too.  Every empty rectangle inside a free rectangle before the
    split lies inside a piece or an untouched free rectangle after it,
    since it lies wholly to one side of the box; so when ``free`` holds
    a container for every empty rectangle, so does the result, for every
    one with both edges at least ``min_edge`` (Jylänki, "A Thousand Ways
    to Pack the Bin", 2010).

    A piece can lie only inside a piece on its own side of the box.  A
    left piece ``(fx0, fy0, x0, fy1)`` of a free rectangle f that the
    box overlaps has ``fx0 < x1``, ``fy0 < y1`` and ``fy1 > y0``; a
    right piece starts at ``x1 > fx0``, a below piece ends at ``y0 < fy1``
    and an above piece starts at ``y1 > fy0``, so none of them holds it.
    The other three sides follow in the same way.

    A missed rectangle g can hold a piece only if it touches the box on
    that piece's side.  If g holds the left piece above, it spans [fy0,
    fy1], which overlaps the box's y-span, and it reaches from ``fx0 <
    x1`` to at least ``x0``; so it misses the box only by ending at
    ``x0``, and with its right edge ``>= x0`` that edge is exactly ``x0``.
    Likewise g holds a right piece only with left edge ``x1``, a below
    piece only with top ``y0``, and an above piece only with bottom
    ``y1``; a g that holds a below or above piece overlaps the box's
    x-span, so it misses neither on the left nor on the right.  So the
    miss test, which tries left, right, below and above in turn, keeps as
    holders the missed rectangles whose edge equals the box's on the
    first side they miss on, each under that side.

    Each side keeps its own holders: the missed rectangles that touch the
    box on that side, then the side's kept pieces.  A piece is stored
    as its sort key, ``(x0, y0, -x1, -y1)`` without the edge every piece
    of the side shares with the box: ``(fx0, fy0, -fy1)`` on the left,
    ``(fy0, -fx1, -fy1)`` on the right, ``(fx0, fy0, -fx1)`` below and
    ``(fx0, -fx1, -fy1)`` above.  Left out, that edge ties every pair, so
    a plain sort of the keys gives the full key's order, which puts every
    container before what it holds and equal pieces together (equal keys
    are equal pieces).  A piece is rebuilt only when it is kept; negating
    twice gives back every float bit for bit, ``-0.0`` included.  Every
    holder of a side has the shared edge too, so the containment test
    compares the other three edges.  A piece is dropped when a holder
    holds it.  A container that was dropped lies inside a holder, which
    holds the piece too, or fails ``min_edge``, which the piece inside it
    then fails as well (a rounded difference of nested edges is no
    larger).  So a piece inside a missed rectangle or another piece is
    dropped, and of equal pieces the first is kept.  Per-side lists pay
    because the keys are built with the pieces: the sort calls no key
    function, and a piece meets only its own side's holders, each with one
    comparison fewer.  The
    arguments compare floats and do no arithmetic beyond the edge
    differences, so they hold for every free list.  The result lists the
    untouched rectangles, then the kept pieces side by side (left, right,
    below, above), each side in key order.

    Nothing above uses ``x1 - x0 == y1 - y0``.  A square of side s at
    (x, y) is the box ``x, y, x + s, y + s``, the floats the midpoint
    shrink adds s/2 to.  Callers drop squares of side <= 0; a positive side
    that rounds away (``x + s == x``) still splits.
    """
    out: list[_Part] = []
    left_holders: list[_Part] = []
    right_holders: list[_Part] = []
    below_holders: list[_Part] = []
    above_holders: list[_Part] = []
    left: list[tuple[float, float, float]] = []
    right: list[tuple[float, float, float]] = []
    below: list[tuple[float, float, float]] = []
    above: list[tuple[float, float, float]] = []
    for f in free:
        fx0, fy0, fx1, fy1 = f
        if fx1 <= x0:
            if fx1 == x0:
                left_holders.append(f)
        elif x1 <= fx0:
            if x1 == fx0:
                right_holders.append(f)
        elif fy1 <= y0:
            if fy1 == y0:
                below_holders.append(f)
        elif y1 <= fy0:
            if y1 == fy0:
                above_holders.append(f)
        else:
            # Each difference is the one the piece's own edges give.
            if fy1 - fy0 >= min_edge:
                if x0 > fx0 and x0 - fx0 >= min_edge:
                    left.append((fx0, fy0, -fy1))
                if x1 < fx1 and fx1 - x1 >= min_edge:
                    right.append((fy0, -fx1, -fy1))
            if fx1 - fx0 >= min_edge:
                if y0 > fy0 and y0 - fy0 >= min_edge:
                    below.append((fx0, fy0, -fx1))
                if y1 < fy1 and fy1 - y1 >= min_edge:
                    above.append((fx0, -fx1, -fy1))
            continue
        out.append(f)
    # One block per side: a key holds its far edges negated, and each test
    # leaves out the edge that the side's holders share.
    if left:
        left.sort()
        for a0, b0, b1 in left:
            b1 = -b1
            for c0, d0, _, d1 in left_holders:
                if c0 <= a0 and d0 <= b0 and b1 <= d1:
                    break
            else:
                p = (a0, b0, x0, b1)
                left_holders.append(p)
                out.append(p)
    if right:
        right.sort()
        for b0, a1, b1 in right:
            a1 = -a1
            b1 = -b1
            for _, d0, c1, d1 in right_holders:
                if d0 <= b0 and a1 <= c1 and b1 <= d1:
                    break
            else:
                p = (x1, b0, a1, b1)
                right_holders.append(p)
                out.append(p)
    if below:
        below.sort()
        for a0, b0, a1 in below:
            a1 = -a1
            for c0, d0, c1, _ in below_holders:
                if c0 <= a0 and d0 <= b0 and a1 <= c1:
                    break
            else:
                p = (a0, b0, a1, y0)
                below_holders.append(p)
                out.append(p)
    if above:
        above.sort()
        for a0, a1, b1 in above:
            a1 = -a1
            b1 = -b1
            for c0, _, c1, d1 in above_holders:
                if c0 <= a0 and a1 <= c1 and b1 <= d1:
                    break
            else:
                p = (a0, y1, a1, b1)
                above_holders.append(p)
                out.append(p)
    return out


def feasible_midpoint_region(
    rect: Rectangle,
    obstacles: Sequence[Placement],
    s: float,
    start: Optional[Sequence[_Part]] = None,
) -> RectilinearRegion:
    """Region of valid midpoints for a new square of side ``s``.

    A point p is in the result exactly when the square of side ``s``
    centered at p lies inside ``rect`` and is interior-disjoint from every
    obstacle, up to sets of zero area.  The free rectangles of ``rect``
    minus the obstacles are found by one :func:`split_free_rectangles` per
    obstacle, starting from ``rect`` itself; the region is their union
    shrunk by s/2 on all four sides, keeping the parts of positive width
    and height.  Obstacles with side 0 have empty interiors and are
    skipped.  The parts may overlap.

    ``start``, when given, is the list the splits begin from in place of
    ``[rect]``.  It must stand for ``rect`` minus some earlier obstacles a:
    every entry is empty, that is inside ``rect`` and interior-disjoint
    from a, and every empty rectangle with both edges at least some t <= s
    lies inside an entry.  ``[rect]`` split by each of a in turn, or by
    each run of abutting equal squares of a as one box, with
    :func:`split_free_rectangles` and a ``min_edge`` of t is such a list.
    The region of ``feasible_midpoint_region(rect, b, s, start=start)`` is
    then that of ``feasible_midpoint_region(rect, a + b, s)``.

    Each part edge is one of ``s/2``, ``rect.width - s/2``,
    ``ob.x - s/2`` and ``(ob.x + ob.side) + s/2`` (likewise in y), the
    same floats as the edges of the one-cut-per-obstacle oracle in the
    tests, so the two regions are the same set and have the same
    :func:`region_lexicomin`.
    """
    if not s >= 0:
        raise ValueError(f"square side must be >= 0, got {s}")
    if s > rect.min_edge:
        raise PreconditionViolated(
            f"side {s} exceeds the smaller enclosing edge {rect.min_edge}"
        )
    free = [(0.0, 0.0, rect.width, rect.height)] if start is None else start
    for ob in obstacles:
        if ob.side > 0:
            free = split_free_rectangles(free, ob.x, ob.y, ob.x + ob.side, ob.y + ob.side)
    half = s / 2.0
    parts = []
    for x0, y0, x1, y1 in free:
        px0 = x0 + half
        px1 = x1 - half
        if px1 > px0:
            py0 = y0 + half
            py1 = y1 - half
            if py1 > py0:
                parts.append((px0, py0, px1, py1))
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
    area; ``tol`` must be finite and >= 0.  A column that holds a value
    that is not finite, or a negative side, raises ``ValueError``: the
    columns can change after the packing checked them.  Out-of-bounds
    placements come first, by index, then overlapping pairs ``(i, j)``,
    ``i < j``, in lexicographic order, up to a cap of 10000 entries
    (``truncated`` is set if the cap is hit).

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

    # Views of the columns, not copies: nothing below writes to them.
    x = np.frombuffer(packing.xs, dtype=float)
    y = np.frombuffer(packing.ys, dtype=float)
    side = np.frombuffer(packing.sides, dtype=float)
    # The columns are mutable, so the checks the packing made when it
    # was built are made again here.
    if not len(x) == len(y) == len(side):
        raise ValueError(f"columns differ in length: {len(side)}, {len(x)}, {len(y)}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("placement corners must be finite")
    if not (np.isfinite(side).all() and (side >= 0).all()):
        raise ValueError("placement sides must be finite and >= 0")
    r = packing.rect
    # Finite placements near 1e308 may have upper edges, spans and overlap
    # areas that round to inf.  Those infinities compare correctly, so
    # overflow is expected here; invalid operations still warn.
    with np.errstate(over="ignore"):
        x2 = x + side
        y2 = y + side
        excess = np.maximum(np.maximum(-x, -y), np.maximum(x2 - r.width, y2 - r.height))
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
    """Serialize a packing: the rectangle's edges and every square's corner.

    The API's dict form and the oracle of the CLI, which does not call it:
    the CLI spells the same text straight from the columns."""
    r = packing.rect
    return {
        "rect": {"w": r.width, "h": r.height},
        "placements": [
            {"side": s, "x": x, "y": y}
            for s, x, y in zip(packing.sides, packing.xs, packing.ys)
        ],
    }


def _numbers(values: list, key: str) -> list:
    """``values``, each checked to be a JSON number, or a ValueError naming ``key``.

    ``float()`` would read ``true`` as 1.0 and ``"0.5"`` as 0.5.
    """
    if not {int, float}.issuperset(map(type, values)):
        bad = next(v for v in values if type(v) not in (int, float))
        raise ValueError(f"{key}: expected a JSON number, got {bad!r}")
    return values


def _number(value, key: str) -> float:
    return float(_numbers([value], key)[0])


def packing_from_dict(data: dict) -> Packing:
    rect = data["rect"]
    pls = data["placements"]
    return Packing(
        Rectangle(_number(rect["w"], "rect.w"), _number(rect["h"], "rect.h")),
        array("d", _numbers([p["side"] for p in pls], "side")),
        array("d", _numbers([p["x"] for p in pls], "x")),
        array("d", _numbers([p["y"] for p in pls], "y")),
    )


def instance_to_dict(inst: Instance) -> dict:
    out: dict = {"sides": list(inst.sides)}
    if inst.declared_total_area is not None:
        out["total_area"] = inst.declared_total_area
    return out


def instance_from_dict(data: dict) -> Instance:
    """Read an instance; sides are sorted non-increasingly, negatives rejected.

    ``sides`` must be a JSON array: a string or an object would otherwise
    be read character by character or key by key.
    """
    sides = data["sides"]
    if not isinstance(sides, list):
        raise ValueError(f"instance sides must be a JSON array, got {type(sides).__name__}")
    total = data.get("total_area")
    if total is not None:
        total = _number(total, "total_area")
    return Instance(tuple(_numbers(sides, "sides")), total)
