"""Greedy whitespace packing of a small-square tail into an existing packing.

Given a base packing of n squares inside a W x H rectangle of area F and
a tail of squares no larger than c / sqrt(n) with total area at most c^2,
every tail square (largest first) is centered on the lexicographically
smallest feasible midpoint.  The tail arrives sorted non-increasingly,
so equal sides form one consecutive run.  Within a run the
feasible-midpoint region of the previous step is carried forward and only
the square placed since is cut from it; a new side rebuilds the region
from all placed squares.  An equal tail therefore costs one cut per step
instead of one per placed square.

The guarantee that the region never empties comes from an area count: the
midpoints lost to the boundary frame and to the inflation frames of the
placed squares total at most 1 + 4c^2 + 3 sqrt(n) s_k + n s_k^2, which
:func:`midpoint_area_bound` subtracts from F.  The constant c is chosen to
make the bound exactly zero at the worst admissible side c / sqrt(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import EmptyRegionError, PreconditionViolated
from .geometry import (
    EPS_GEOM,
    Instance,
    Packing,
    Placement,
    RectilinearRegion,
    feasible_midpoint_region,
    region_area,
    region_lexicomin,
)


@dataclass(frozen=True)
class WhitespaceJob:
    """A validated whitespace-packing request.

    Invariants (checked by :meth:`validate`):

    * the base rectangle has 1/10 <= W <= H and W * H = F within ``EPS_GEOM``,
    * base total placed area is at most 1,
    * n = number of base placements satisfies n >= max((10F + 1/10)^2, 100 c^2),
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
        if self.F <= 1:
            problems.append(f"area factor must exceed 1, got {self.F}")
        r = self.base.rect
        W, H = sorted((r.width, r.height))
        if W < 0.1 - EPS_GEOM:
            problems.append(f"smaller base edge {W} below 1/10")
        if abs(W * H - self.F) > EPS_GEOM:
            problems.append(f"base rectangle area {W * H} != F = {self.F}")
        if self.base.total_placed_area > 1.0 + EPS_GEOM:
            problems.append(f"base placed area {self.base.total_placed_area} exceeds 1")
        n = len(self.base.placements)
        n_floor = max((10 * self.F + 0.1) ** 2, 100 * self.c * self.c)
        if n < n_floor:
            problems.append(f"base count {n} below required {n_floor}")
        if self.tail.sides:
            cap = self.c / math.sqrt(n)
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
    non-negative for all s_k <= c / sqrt(n) once n >= max((10F + 1/10)^2,
    100 c^2), and exactly zero at s_k = c / sqrt(n).
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
    midpoint of the region left by everything placed so far.  The region
    of the previous step is kept as ``(side, placed count, region)``;
    when the next side equals it, only the placements added since are cut
    from it, which yields exactly the parts a rebuild would.  Only that
    one region is kept, never one per side.  ``on_step(k, side,
    region_area, bound)`` is invoked once per positive tail square with
    the area of the full region, mostly so tests can watch the
    region-vs-bound margin.  Raises :class:`EmptyRegionError` if a region
    comes up empty, which cannot happen while the job invariants hold.
    """
    job.validate()
    rect = job.base.rect
    n = len(job.base.placements)
    placed: list[Placement] = list(job.base.placements)
    carried: Optional[tuple[float, int, RectilinearRegion]] = None
    for k, s in enumerate(job.tail.sides):
        if s <= 0.0:
            # Zero squares influence nothing; park them on the rectangle's
            # lower-left corner, as the shelf engine does.
            placed.append(Placement(0.0, rect.x, rect.y))
            continue
        if carried is not None and carried[0] == s:
            region = feasible_midpoint_region(
                rect, placed[carried[1]:], s, start=carried[2]
            )
        else:
            region = feasible_midpoint_region(rect, placed, s)
        carried = (s, len(placed), region)
        if on_step is not None:
            on_step(k, s, region_area(region), midpoint_area_bound(job.F, n, job.c, s))
        point = region_lexicomin(region)
        if point is None:
            raise EmptyRegionError(
                f"feasible-midpoint region empty at tail square {k} (side {s})"
            )
        placed.append(Placement(s, point[0] - s / 2.0, point[1] - s / 2.0))
    return Packing(rect, tuple(placed))
