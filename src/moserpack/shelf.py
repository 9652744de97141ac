"""Constructive shelf packers for the classical area criteria.

Three entry points:

* :func:`moon_moser_pack`  -- packs when twice the total area is at most
  the rectangle area and the largest square fits the smaller edge.
* :func:`meir_moser_pack`  -- packs when total area is at most
  x^2 + (a1 - x)(a2 - x) with x the largest square edge.
* :func:`small_s1_pack`    -- packs a total-area-1 instance whose largest
  edge is at most 1/10 into the square of area F.

All three share one first-fit decreasing shelf engine: the rectangle is
normalized so a1 <= a2, shelves span the shorter edge a1 and stack along
a2, each shelf is as tall as its first square, and every square goes into
the first shelf with room (a new shelf opens only when none has).
Coordinates are mapped back to the caller's orientation afterwards.
The two area criteria are the predicates :func:`moon_moser_holds` and
:func:`meir_moser_holds`.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from typing import Optional

from .errors import PackFailure, PreconditionViolated
from .geometry import EPS_GEOM, Instance, Packing, Placement, Rectangle


def moon_moser_holds(V: float, x: float, a1: float, a2: float) -> bool:
    """True when min(a1, a2) >= x and 2 V <= a1 a2, both up to ``EPS_GEOM``."""
    return min(a1, a2) >= x - EPS_GEOM and 2 * V <= a1 * a2 + EPS_GEOM


def meir_moser_holds(V: float, x: float, a1: float, a2: float) -> bool:
    """True when min(a1, a2) >= x and V <= x^2 + (a1 - x)(a2 - x), up to ``EPS_GEOM``."""
    bound = x * x + (a1 - x) * (a2 - x)
    return min(a1, a2) >= x - EPS_GEOM and V <= bound + EPS_GEOM


def circumference_admits(F: float, V: float, C: float, x: float) -> bool:
    """True when x <= (F - 1) V / C.

    Any instance of total area V and maximal edge x passing this test
    satisfies the meir-moser inequality on every rectangle of area F V
    whose half-circumference a1 + a2 is at most C (with both edges >= x).
    """
    if not 1 < F < math.inf:
        raise ValueError(f"area factor must be finite and exceed 1, got F={F}")
    if not (0 < V < math.inf and 0 < C < math.inf):
        raise ValueError(f"V and C must be positive and finite, got V={V}, C={C}")
    if not 0 <= x < math.inf:
        raise ValueError(f"max edge must be finite and >= 0, got x={x}")
    return x <= (F - 1) * V / C


def _smallest_positive(sides: tuple[float, ...]) -> float:
    """The smallest positive side of non-increasing ``sides``, or 0.0 if none.

    It is the last positive side, found by bisection on the negated
    sides, which are non-decreasing.
    """
    positive = bisect_left(sides, 0.0, key=operator.neg)
    return sides[positive - 1] if positive else 0.0


def _shelf_positions(sides: tuple[float, ...], a1: float, a2: float) -> Optional[list[tuple[float, float]]]:
    """First-fit decreasing shelf placement inside a1 (width) x a2 (height).

    ``sides`` must be sorted non-increasingly.  Returns lower-left corners
    in input order, or None when some square does not fit.  Zero-side
    squares are placed nominally at the origin.

    Shelves before ``live`` are dead: they have no room even for the
    smallest positive side, hence for no later square, so the first-fit
    scan starts at ``live`` and picks the same shelf a full scan would.
    """
    coords: list[tuple[float, float]] = []
    shelf_y: list[float] = []
    shelf_used: list[float] = []
    top = 0.0
    room = a1 + EPS_GEOM
    s_min = _smallest_positive(sides)
    live = 0
    for s in sides:
        if s <= 0.0:
            coords.append((0.0, 0.0))
            continue
        if s > room:
            return None
        for k in range(live, len(shelf_y)):
            if shelf_used[k] + s <= room:
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
        while live < len(shelf_used) and shelf_used[live] + s_min > room:
            live += 1
    return coords


def _run_shelves(inst: Instance, rect: Rectangle) -> Packing:
    """Run the shelf engine in normalized orientation, map back, offset."""
    swap = rect.width > rect.height
    a1, a2 = (rect.height, rect.width) if swap else (rect.width, rect.height)
    coords = _shelf_positions(inst.sides, a1, a2)
    if coords is None:
        raise PackFailure(
            f"shelf placement failed for {len(inst)} squares in "
            f"{rect.width} x {rect.height}"
        )
    placements = []
    for s, (u, v) in zip(inst.sides, coords):
        x, y = (v, u) if swap else (u, v)
        placements.append(Placement(s, rect.x + x, rect.y + y))
    return Packing(rect, tuple(placements))


def moon_moser_pack(inst: Instance, rect: Rectangle) -> Packing:
    """Pack squares whose doubled total area fits the rectangle.

    Precondition: min edge >= max square and 2 V <= a1 a2.
    """
    V, x = inst.total_area, inst.max_side
    if not moon_moser_holds(V, x, rect.width, rect.height):
        raise PreconditionViolated(
            f"moon-moser inequality fails for V={V}, x={x}, "
            f"rect {rect.width} x {rect.height}"
        )
    return _run_shelves(inst, rect)


def meir_moser_pack(inst: Instance, rect: Rectangle, *,
                    require_precondition: bool = True) -> Packing:
    """Pack squares under the V <= x^2 + (a1 - x)(a2 - x) criterion."""
    V, x = inst.total_area, inst.max_side
    if require_precondition and not meir_moser_holds(V, x, rect.width, rect.height):
        raise PreconditionViolated(
            f"meir-moser inequality fails for V={V}, x={x}, "
            f"rect {rect.width} x {rect.height}"
        )
    return _run_shelves(inst, rect)


def small_s1_pack(inst: Instance, F: float) -> Packing:
    """Pack a total-area-1 instance with max edge <= 1/10 into sqrt(F) x sqrt(F).

    Works for any F >= (2 + sqrt(3))/3 because then sqrt(F) > 11/10, which
    makes the meir-moser inequality hold on the square:
    s1^2 + (sqrt(F) - s1)^2 > 1 whenever s1 <= 1/10.
    """
    if F < (2 + math.sqrt(3)) / 3 - EPS_GEOM:
        raise PreconditionViolated(f"area factor {F} below (2 + sqrt(3))/3")
    V = inst.total_area
    s1 = inst.max_side
    if not (s1 <= 0.1 + EPS_GEOM and abs(V - 1.0) <= 1e-9):
        raise PreconditionViolated(
            f"small-s1 needs total area 1 and max edge <= 1/10, got V={V}, s1={s1}"
        )
    a = math.sqrt(F)
    assert a > 1.1  # sqrt(F) > 11/10 underpins the inequality below
    assert s1 * s1 + (a - s1) * (a - s1) > V - 1e-9
    return meir_moser_pack(inst, Rectangle(a, a))
