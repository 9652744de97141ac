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
from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate, repeat, takewhile
from typing import Optional

from .errors import PackFailure, PreconditionViolated
from .geometry import EPS_GEOM, Instance, Packing, Rectangle


def moon_moser_holds(V: float, x: float, a1: float, a2: float) -> bool:
    """True when min(a1, a2) >= x and 2 V <= a1 a2, both up to ``EPS_GEOM``."""
    return min(a1, a2) >= x - EPS_GEOM and 2 * V <= a1 * a2 + EPS_GEOM


def meir_moser_holds(V: float, x: float, a1: float, a2: float) -> bool:
    """True when min(a1, a2) >= x and V <= x^2 + (a1 - x)(a2 - x), up to ``EPS_GEOM``."""
    bound = x * x + (a1 - x) * (a2 - x)
    return min(a1, a2) >= x - EPS_GEOM and V <= bound + EPS_GEOM


def _smallest_positive(sides: tuple[float, ...]) -> float:
    """The smallest positive side of non-increasing ``sides``, or 0.0 if none.

    It is the last positive side, found by bisection on the negated
    sides, which are non-decreasing.
    """
    positive = bisect_left(sides, 0.0, key=operator.neg)
    return sides[positive - 1] if positive else 0.0


def _shelf_positions(sides: tuple[float, ...], a1: float,
                     a2: float) -> Optional[tuple[array, array]]:
    """First-fit decreasing shelf placement inside a1 (width) x a2 (height).

    ``sides`` must be sorted non-increasingly.  Returns the columns of
    lower-left corners along a1 and along a2, in input order, or None
    when some square does not fit.  Zero-side squares are placed
    nominally at the origin.

    Each run of equal sides is placed at once.  A shelf that has no room
    for one square of the run has none for the rest, so the run fills
    the open shelves in order, each as far as it goes, and then new
    shelves.  Square j of a new shelf sits at edge j of 0, s, s + s,
    (s + s) + s, ... and fits while edge j + 1 <= room, so every new
    shelf of the run takes the same edges, made once with
    ``itertools.accumulate``.  That is where first fit puts the squares
    one at a time, and every edge is the same sum of one ``+=`` per
    square.  An open shelf takes its squares one at a time: it has less
    room than a new one, and a run of one square, common when the sides
    are distinct, then costs no more than the placement of one square.

    Shelves before ``live`` are dead: they have no room even for the
    smallest positive side, hence for no later square, so the first-fit
    scan starts at ``live`` and picks the same shelf a full scan would.
    """
    us = array("d")
    vs = array("d")
    shelf_y: list[float] = []
    shelf_used: list[float] = []
    top = 0.0
    room = a1 + EPS_GEOM
    s_min = _smallest_positive(sides)
    live = 0
    i, n = 0, len(sides)
    while i < n:
        s = sides[i]
        if s <= 0.0:
            # zero sides are a trailing run
            us += array("d", [0.0]) * (n - i)
            vs += array("d", [0.0]) * (n - i)
            break
        if s > room:
            return None
        end = i + 1
        if end < n and sides[end] == s:
            end = bisect_right(sides, -s, end, n, key=operator.neg)
        left = end - i
        i = end
        for k in range(live, len(shelf_y)):
            used = shelf_used[k]
            if used + s <= room:
                y = shelf_y[k]
                while left and used + s <= room:
                    us.append(used)
                    vs.append(y)
                    used += s
                    left -= 1
                shelf_used[k] = used
                if not left:
                    break
        if left:
            # The edges 0, s, s + s, ... up to the room, the same on each new shelf.
            edges = array("d", takewhile(room.__ge__, accumulate(repeat(s, left), initial=0.0)))
            per_shelf = len(edges) - 1
            while left:
                if top + s > a2 + EPS_GEOM:
                    return None
                placed = min(per_shelf, left)
                us += edges[:placed]
                vs += array("d", [top]) * placed
                shelf_y.append(top)
                shelf_used.append(edges[placed])
                top += s
                left -= placed
        while live < len(shelf_used) and shelf_used[live] + s_min > room:
            live += 1
    return us, vs


def _run_shelves(inst: Instance, rect: Rectangle) -> Packing:
    """Run the shelf engine in normalized orientation and map back."""
    swap = rect.width > rect.height
    a1, a2 = (rect.height, rect.width) if swap else (rect.width, rect.height)
    columns = _shelf_positions(inst.sides, a1, a2)
    if columns is None:
        raise PackFailure(
            f"shelf placement failed for {len(inst)} squares in "
            f"{rect.width} x {rect.height}"
        )
    us, vs = columns
    xs, ys = (vs, us) if swap else (us, vs)
    return Packing(rect, array("d", inst.sides), xs, ys)


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
