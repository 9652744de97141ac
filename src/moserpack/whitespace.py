"""Greedy whitespace packing of a small-square tail into an existing packing.

Given a base packing of n squares inside a W x H rectangle of area F and
a tail of squares no larger than c / sqrt(n) with total area at most c^2,
every tail square (largest first) is centered on the lexicographically
smallest feasible midpoint.  The maximal empty rectangles of the base
rectangle minus the placed squares do not depend on the side, so one list
of them is kept from start to end: it starts as the base rectangle, each
run of abutting equal base squares splits it once as one box, each placed
tail square splits it once, and each step shrinks it by half its side to
get its feasible-midpoint region (MaxRects, Jylänki 2010; bottom-left,
Chazelle 1983).  A tail of n distinct sides therefore costs one split per
step, not a rebuild from all placed squares per side.

The guarantee that the region never empties comes from an area count: the
midpoints lost to the boundary frame and to the inflation frames of the
placed squares total at most 1 + 4c^2 + 3 sqrt(n) s_k + n s_k^2, which
:func:`midpoint_area_bound` subtracts from F.  The constant c is chosen to
make the bound exactly zero at the worst admissible side c / sqrt(n).
"""

from __future__ import annotations

import math
from array import array
from typing import Callable, Optional

from ._value import Frozen
from .errors import EmptyRegionError, PreconditionViolated
from .geometry import (
    EPS_GEOM,
    Instance,
    Packing,
    feasible_midpoint_region,
    region_area,
    region_lexicomin,
    split_free_rectangles,
)


class WhitespaceJob(Frozen):
    """A validated whitespace-packing request.

    Invariants (checked by :meth:`validate`):

    * the base rectangle has 1/10 <= W <= H and W * H = F within ``EPS_GEOM``,
    * base total placed area is at most 1,
    * n = number of base placements satisfies n >= (10F + 1/10)^2, which
      exceeds the paper's other term 100 c^2 as c < 1 < F,
    * tail max side <= c / sqrt(n) and tail total area <= c^2.
    """

    base: Packing
    tail: Instance
    c: float
    F: float

    def validate(self) -> None:
        problems: list[str] = []
        if not (0 < self.c < 1):
            problems.append(f"c must lie in (0, 1), got {self.c}")
        if not 1 < self.F < math.inf:
            problems.append(f"area factor must be finite and exceed 1, got {self.F}")
        r = self.base.rect
        W, H = sorted((r.width, r.height))
        if W < 0.1 - EPS_GEOM:
            problems.append(f"smaller base edge {W} below 1/10")
        if abs(W * H - self.F) > EPS_GEOM:
            problems.append(f"base rectangle area {W * H} != F = {self.F}")
        if self.base.total_placed_area > 1.0 + EPS_GEOM:
            problems.append(f"base placed area {self.base.total_placed_area} exceeds 1")
        n = len(self.base.sides)
        n_floor = (10 * self.F + 0.1) ** 2
        if n < n_floor:
            problems.append(f"base count {n} below required {n_floor}")
        if self.tail.sides:
            # With no base square the count check has failed already, and
            # the cap c/sqrt(n) is unbounded.
            cap = self.c / math.sqrt(n) if n else math.inf
            if self.tail.max_side > cap + EPS_GEOM:
                problems.append(f"tail max side {self.tail.max_side} exceeds c/sqrt(n) = {cap}")
            if self.tail.total_area > self.c * self.c + EPS_GEOM:
                problems.append(
                    f"tail area {self.tail.total_area} exceeds c^2 = {self.c * self.c}"
                )
        if problems:
            raise PreconditionViolated("; ".join(problems))


def midpoint_area_bound(F: float, n: int, c: float, s_k: float) -> float:
    """Lower bound on the feasible-midpoint area for a side-s_k square.

    Equals F - 1 - 4 c^2 - 3 sqrt(n) s_k - n s_k^2, which is
    non-negative for all s_k <= c / sqrt(n) once n >= (10F + 1/10)^2 (the
    paper's other term, 100 c^2 < 20 (F - 1), is smaller), and exactly zero
    at s_k = c / sqrt(n).
    """
    if n < 1:
        raise ValueError(f"base count must be >= 1, got {n}")
    if not (math.isfinite(F) and math.isfinite(c)):
        raise ValueError(f"F and c must be finite, got F={F}, c={c}")
    if not 0 <= s_k < math.inf:
        raise ValueError(f"side must be finite and >= 0, got {s_k}")
    return F - 1 - 4 * c * c - 3 * math.sqrt(n) * s_k - n * s_k * s_k


def whitespace_pack(
    job: WhitespaceJob,
    on_step: Optional[Callable[[int, float, float, float], None]] = None,
) -> Packing:
    """Place every tail square of ``job`` into the base packing's whitespace.

    Squares go largest-first onto the lexicographically smallest feasible
    midpoint of the region left by everything placed so far.  The result
    is a copy of the base columns with each tail square's side and corner
    appended in tail order.  The free rectangles start as the base
    rectangle, split by each run of abutting equal base squares as one box
    and then by each tail square as it is placed.  Sides are
    non-increasing, so a free rectangle with an edge shorter than the
    smallest positive tail side can hold no tail square, and the splits
    drop it.  ``on_step(k, side, region_area, bound)`` is invoked once per
    positive tail square with the area of the full region, mostly so tests
    can watch the region-vs-bound margin.
    Raises :class:`EmptyRegionError` if a region comes up empty, which
    cannot happen while the job invariants hold.
    """
    job.validate()
    base = job.base
    rect = base.rect
    n = len(base.sides)
    # With no positive side no free rectangle is needed, and the splits keep none.
    smallest = min((s for s in job.tail.sides if s > 0.0), default=math.inf)
    free = [(0.0, 0.0, rect.width, rect.height)]
    sides, xs, ys = base.sides, base.xs, base.ys
    k = 0
    while k < n:
        s, x0, y0 = sides[k], xs[k], ys[k]
        k += 1
        if s <= 0.0:
            continue
        x1, y1 = x0 + s, y0 + s
        # A run of equal squares abutting in a row or a column covers
        # exactly its box, so it splits the list once.
        row = column = True
        while k < n and sides[k] == s:
            if row and ys[k] == y0 and xs[k] == x1:
                x1, column = xs[k] + s, False
            elif column and xs[k] == x0 and ys[k] == y1:
                y1, row = ys[k] + s, False
            else:
                break
            k += 1
        free = split_free_rectangles(free, x0, y0, x1, y1, smallest)
    sides, xs, ys = array("d", sides), array("d", xs), array("d", ys)
    for k, s in enumerate(job.tail.sides):
        if s <= 0.0:
            # Zero squares influence nothing; park them at the origin, as
            # the shelf engine does.
            s, x, y = 0.0, 0.0, 0.0
        else:
            region = feasible_midpoint_region(rect, (), s, start=free)
            if on_step is not None:
                on_step(k, s, region_area(region), midpoint_area_bound(job.F, n, job.c, s))
            point = region_lexicomin(region)
            if point is None:
                raise EmptyRegionError(
                    f"feasible-midpoint region empty at tail square {k} (side {s})"
                )
            x = point[0] - s / 2.0
            y = point[1] - s / 2.0
            free = split_free_rectangles(free, x, y, x + s, y + s, smallest)
        sides.append(s)
        xs.append(x)
        ys.append(y)
    return Packing(rect, sides, xs, ys)
