"""Rectangle model, region algebra, feasible regions, and verification."""

from __future__ import annotations

import math
import struct
import tracemalloc
import warnings
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moserpack import (
    Instance,
    PackParams,
    Packing,
    Placement,
    PreconditionViolated,
    Rectangle,
    WhitespaceJob,
    compute_c,
    geometry,
    instance_from_dict,
    instance_to_dict,
    meir_moser_pack,
    moon_moser_pack,
    packing_from_dict,
    packing_to_dict,
    reduce_and_pack,
    verify_packing,
    whitespace_pack,
)
from moserpack.geometry import (
    EPS_GEOM,
    RectilinearRegion,
    feasible_midpoint_region,
    region_area,
    region_lexicomin,
    split_free_rectangles,
)
from conftest import (
    Cut,
    abutting_runs,
    box_free_rectangles,
    container_first_split,
    free_rectangles,
    grid_region_area,
    packing_of,
    random_meir_moser_case,
    random_midpoint_config,
    random_moon_moser_case,
    reference_midpoint_region,
    reference_split_free_rectangles,
    reference_verify_packing,
    region_subtract,
    split_square,
)


def _region(r: Rectangle) -> RectilinearRegion:
    """The one-part region covering ``r``."""
    return RectilinearRegion(((0.0, 0.0, r.width, r.height),))


def reference_packing() -> Packing:
    """Hand-built packing of unit total area in a rectangle of area (2+sqrt(3))/3.

    One square of side 1/sqrt(2) next to a 2x2-ish block of three squares of
    side 1/sqrt(6); every coordinate is exact in floating point arithmetic.
    """
    big = 1 / math.sqrt(2)
    small = math.sqrt(1 / 6)
    rect = Rectangle(big + 2 * small, 2 * small)
    placements = [
        Placement(big, 0.0, 0.0),
        Placement(small, big, 0.0),
        Placement(small, big, small),
        Placement(small, big + small, 0.0),
    ]
    return packing_of(rect, placements)


class TestRectangle:
    def test_basic_accessors(self):
        r = Rectangle(2.0, 3.0)
        assert r.area == 6.0
        assert r.min_edge == 2.0

    def test_has_no_origin(self):
        with pytest.raises(TypeError):
            Rectangle(1, 1, x=0.5)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Rectangle(0.0, 1.0)
        with pytest.raises(ValueError):
            Rectangle(1.0, -2.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Rectangle(math.inf, 1.0)
        with pytest.raises(ValueError):
            Rectangle(1.0, math.nan)


class TestPlacement:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Placement(math.nan, 0.0, 0.0)
        with pytest.raises(ValueError):
            Placement(0.1, -math.inf, 0.0)


class TestPackingColumns:
    def test_columns_follow_the_placements(self):
        p = reference_packing()
        assert isinstance(p.xs, array)
        assert list(p.sides) == [q.side for q in p.placements]
        assert list(p.xs) == [q.x for q in p.placements]
        assert list(p.ys) == [q.y for q in p.placements]

    def test_placements_are_built_from_the_columns(self):
        p = reference_packing()
        q = Packing(p.rect, array("d", p.sides), array("d", p.xs), array("d", p.ys))
        assert q == p
        assert q.placements == p.placements

    def test_equality_compares_rectangle_and_columns(self):
        p = reference_packing()
        assert p == packing_of(p.rect, list(p.placements))
        assert p != packing_of(p.rect, p.placements[:-1])
        assert p != packing_of(Rectangle(5, 5), p.placements)
        moved = Packing(p.rect, array("d", p.sides), array("d", p.xs), array("d", p.ys))
        moved.ys[0] = 1e-3
        assert p != moved

    def test_total_placed_area(self):
        assert reference_packing().total_placed_area == pytest.approx(1.0, abs=1e-15)
        assert packing_of(Rectangle(1, 1), ()).total_placed_area == 0.0

    @pytest.mark.parametrize("column, value", [
        ("sides", math.nan), ("sides", math.inf), ("sides", -0.25),
        ("xs", math.nan), ("xs", -math.inf), ("ys", math.inf),
    ])
    def test_from_columns_rejects_bad_values(self, column, value):
        cols = {"sides": array("d", [0.5, 0.5]), "xs": array("d", [0.0, 0.5]),
                "ys": array("d", [0.0, 0.0])}
        cols[column][1] = value
        with pytest.raises(ValueError):
            Packing(Rectangle(1, 1), cols["sides"], cols["xs"], cols["ys"])

    def test_from_columns_accepts_values_whose_sum_overflows(self):
        big = array("d", [1.5e308, 1.5e308])
        p = Packing(Rectangle(1, 1), array("d", [0.0, 0.0]), big, big)
        assert list(p.xs) == [1.5e308, 1.5e308]

    def test_from_columns_takes_float_arrays_only(self):
        for bad in ([0.5], array("f", [0.5])):
            with pytest.raises(TypeError):
                Packing(Rectangle(1, 1), bad, array("d", [0.0]), array("d", [0.0]))

    def test_from_columns_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="length"):
            Packing(Rectangle(1, 1), array("d", [0.5]), array("d"), array("d"))


class TestInstance:
    def test_sorts_non_increasing(self):
        inst = Instance((0.2, 0.5, 0.3))
        assert inst.sides == (0.5, 0.3, 0.2)
        assert inst.max_side == 0.5
        assert len(inst) == 3

    def test_zero_sides_allowed(self):
        inst = Instance((0.0, 0.1, 0.0))
        assert inst.sides == (0.1, 0.0, 0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Instance((0.1, -0.1))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Instance((math.nan, 0.5))
        with pytest.raises(ValueError):
            Instance((0.5, math.inf))
        with pytest.raises(ValueError):
            Instance((0.5,), declared_total_area=math.nan)

    @pytest.mark.parametrize("sides, bad", [
        ((0.7, 0.5, math.nan, 0.3, 0.1), "nan"),
        ((0.5, -0.1, 0.2), "-0.1"),
        ((0.5, math.inf), "inf"),
        ((0.3, -math.inf, 0.2), "-inf"),
    ], ids=["nan-mid", "negative", "inf", "minus-inf"])
    def test_rejection_names_the_first_bad_side(self, sides, bad):
        with pytest.raises(ValueError) as err:
            Instance(sides)
        assert str(err.value) == f"instance sides must be finite and >= 0, got {bad}"

    def test_sides_that_overflow_the_area_sum_are_accepted(self):
        assert Instance((1e308, 1e308)).sides == (1e308, 1e308)

    def test_numeric_strings_are_converted(self):
        assert Instance(("0.25", "0.5", 0.125)).sides == (0.5, 0.25, 0.125)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats() | st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308]),
                    max_size=12))
    def test_check_matches_a_side_by_side_scan(self, sides):
        ordered = tuple(sorted(sides, reverse=True))
        bad = [s for s in ordered if not 0 <= s < math.inf]
        if bad:
            with pytest.raises(ValueError) as err:
                Instance(tuple(sides))
            assert str(err.value).endswith(f"got {bad[0]}")
        else:
            assert Instance(tuple(sides)).sides == ordered

    def test_total_area_compensated(self):
        sides = (0.1,) * 100
        inst = Instance(sides)
        assert inst.total_area == math.fsum(s * s for s in sides)

    def test_total_area_computed_once_bit_for_bit(self):
        sides = (0.3, 0.1, 1e-9, 0.7, 0.0) + (1 / 3,) * 50
        inst = Instance(sides)
        first = inst.total_area
        assert first.hex() == math.fsum(s * s for s in inst.sides).hex()
        # cached on the instance: the same float object, and equality and
        # hashing still see the fields alone
        assert inst.total_area is first
        assert inst == Instance(sides) and hash(inst) == hash(Instance(sides))
        declared = Instance(sides, declared_total_area=first)
        assert declared.total_area.hex() == first.hex()

    def test_declared_area_checked(self):
        Instance((0.5,), declared_total_area=0.25)
        with pytest.raises(ValueError):
            Instance((0.5,), declared_total_area=0.26)


class TestRegionAlgebra:
    def test_subtract_half(self):
        a = _region(Rectangle(1, 1))
        d = region_subtract(a, Cut(0.0, 0.0, 0.5, 1.0))
        assert region_area(d) == pytest.approx(0.5, abs=1e-12)

    def test_subtract_disjoint_keeps_area(self):
        a = _region(Rectangle(1, 1))
        assert region_area(region_subtract(a, Cut(2.0, 0.0, 3.0, 1.0))) == pytest.approx(1.0)

    def test_touching_edges_do_not_subtract(self):
        a = _region(Rectangle(1, 1))
        assert region_area(region_subtract(a, Cut(1.0, 0.0, 2.0, 1.0))) == pytest.approx(1.0)

    def test_interior_hole(self):
        a = _region(Rectangle(3, 3))
        d = region_subtract(a, Cut(1.0, 1.0, 2.0, 2.0))
        assert region_area(d) == pytest.approx(8.0, abs=1e-12)
        # parts stay pairwise disjoint
        parts = d.parts
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                x0, y0, x1, y1 = parts[i]
                u0, v0, u1, v1 = parts[j]
                assert x1 <= u0 or u1 <= x0 or y1 <= v0 or v1 <= y0

    def test_area_additivity_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            base = Rectangle(float(rng.uniform(0.5, 2)), float(rng.uniform(0.5, 2)))
            cw = float(rng.uniform(0.1, 2.5))
            ch = float(rng.uniform(0.1, 2.5))
            cx = float(rng.uniform(-1, 2))
            cy = float(rng.uniform(-1, 2))
            cut = Cut(cx, cy, cx + cw, cy + ch)
            a = _region(base)
            remaining = region_area(region_subtract(a, cut))
            ix = max(0.0, min(base.width, cut.x2) - max(0.0, cut.x))
            iy = max(0.0, min(base.height, cut.y2) - max(0.0, cut.y))
            assert remaining + ix * iy == pytest.approx(base.area, abs=1e-12)

    def test_bigger_cut_nests(self):
        """Subtracting a superset cut leaves a subset region."""
        rng = np.random.default_rng(11)
        for _ in range(100):
            base = Rectangle(1.0, 1.0)
            cx = float(rng.uniform(-0.5, 1.0))
            cy = float(rng.uniform(-0.5, 1.0))
            small = Cut(cx, cy, cx + 0.4, cy + 0.3)
            big = Cut(cx - 0.1, cy - 0.1, (cx - 0.1) + 0.6, (cy - 0.1) + 0.5)
            r = _region(base)
            after_small = region_subtract(r, small)
            after_big = region_subtract(r, big)
            # after_big minus after_small must be empty
            diff = after_big
            for part in after_small.parts:
                diff = region_subtract(diff, Cut(*part))
            assert region_area(diff) == pytest.approx(0.0, abs=1e-12)


class TestLexicomin:
    def test_empty_region(self):
        assert region_lexicomin(RectilinearRegion(parts=())) is None

    def test_leftmost_then_lowest(self):
        r = RectilinearRegion(parts=((0.5, 0.7, 1.0, 1.0), (0.5, 0.0, 0.9, 0.2)))
        assert region_lexicomin(r) == (0.5, 0.0)

    def test_single_part_corner(self):
        r = RectilinearRegion(parts=((0.25, 0.125, 1.0, 1.0),))
        assert region_lexicomin(r) == (0.25, 0.125)


class TestOverlappingParts:
    """Parts may overlap: the area is the union's, the lexicomin the set's."""

    def test_two_overlapping_unit_squares(self):
        r = RectilinearRegion(((0.0, 0.0, 1.0, 1.0), (0.5, 0.5, 1.5, 1.5)))
        assert region_area(r) == 1.75
        assert region_lexicomin(r) == (0.0, 0.0)

    def test_nested_and_duplicate_parts(self):
        nested = RectilinearRegion(((0.0, 0.0, 2.0, 2.0), (0.5, 0.5, 1.0, 1.0)))
        assert region_area(nested) == 4.0
        twice = RectilinearRegion(((0.25, 0.5, 1.25, 1.5),) * 2)
        assert region_area(twice) == 1.0
        assert region_lexicomin(twice) == (0.25, 0.5)

    def test_zero_area_parts(self):
        r = RectilinearRegion(((0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 1.0, 0.0),
                               (0.5, 0.0, 1.0, 1.0)))
        assert region_area(r) == 0.5
        assert region_area(RectilinearRegion(((0.0, 0.0, 0.0, 0.0),))) == 0.0

    def test_cover_matches_its_disjoint_split(self):
        """Rectangles on a 1/8 grid, some nudged by 1e-13 into the EPS_GEOM band."""
        rng = np.random.default_rng(41)
        for _ in range(300):
            k = int(rng.integers(1, 8))
            lo = rng.integers(0, 12, (k, 2)) / 8 + np.where(rng.random((k, 2)) < 0.3, 1e-13, 0.0)
            size = rng.integers(1, 8, (k, 2)) / 8
            cover = [(float(a), float(b), float(a + w), float(b + h))
                     for (a, b), (w, h) in zip(lo, size)]
            # each rectangle minus the ones before it: a disjoint split of the union
            split: list = []
            for i, part in enumerate(cover):
                rest = RectilinearRegion((part,))
                for q in cover[:i]:
                    rest = region_subtract(rest, Cut(*q))
                split += rest.parts
            union = RectilinearRegion(tuple(cover))
            assert region_lexicomin(union) == region_lexicomin(RectilinearRegion(tuple(split)))
            exact = math.fsum((x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in split)
            assert region_area(union) == pytest.approx(exact, abs=1e-12)


class TestFeasibleMidpointRegion:
    def test_no_obstacles_is_centered_frame(self):
        rect = Rectangle(2.0, 1.0)
        region = feasible_midpoint_region(rect, [], 0.5)
        assert region_area(region) == pytest.approx(1.5 * 0.5, abs=1e-12)
        assert region_lexicomin(region) == (0.25, 0.25)

    def test_square_side_equal_to_edge(self):
        # a square exactly as wide as the rectangle leaves a segment, area 0
        rect = Rectangle(1.0, 2.0)
        region = feasible_midpoint_region(rect, [], 1.0)
        assert region_area(region) == pytest.approx(0.0, abs=1e-12)

    def test_side_exceeding_edge_rejected(self):
        for s in (1.0 + 1e-6, math.inf):
            with pytest.raises(PreconditionViolated, match="exceeds the smaller enclosing edge"):
                feasible_midpoint_region(Rectangle(1.0, 2.0), [], s)

    def test_negative_side_rejected(self):
        with pytest.raises(ValueError):
            feasible_midpoint_region(Rectangle(1.0, 1.0), [], -0.1)
        # nan fails both comparisons, so it must be caught explicitly
        with pytest.raises(ValueError, match="square side must be >= 0, got nan"):
            feasible_midpoint_region(Rectangle(1.0, 1.0), [], math.nan)

    def test_zero_side_obstacles_ignored(self):
        rect = Rectangle(1.0, 1.0)
        with_zero = feasible_midpoint_region(rect, [Placement(0.0, 0.5, 0.5)], 0.2)
        without = feasible_midpoint_region(rect, [], 0.2)
        assert region_area(with_zero) == pytest.approx(region_area(without))

    def test_interior_obstacle_removes_inflated_square(self):
        rect = Rectangle(3.0, 3.0)
        ob = Placement(0.5, 1.25, 1.25)  # deep interior
        s = 0.3
        region = feasible_midpoint_region(rect, [ob], s)
        expected = (3 - s) ** 2 - (0.5 + s) ** 2
        assert region_area(region) == pytest.approx(expected, abs=1e-12)

    def test_placements_at_lexicomin_are_valid(self):
        """Placing the square with midpoint at the region corner never clashes."""
        rng = np.random.default_rng(101)
        checked = 0
        for _ in range(300):
            rect, obstacles, s = random_midpoint_config(rng)
            region = feasible_midpoint_region(rect, obstacles, s)
            pt = region_lexicomin(region)
            if pt is None:
                continue
            checked += 1
            cx, cy = pt
            x, y = cx - s / 2, cy - s / 2
            assert x >= 0.0 - EPS_GEOM and y >= 0.0 - EPS_GEOM
            assert x + s <= rect.width + EPS_GEOM and y + s <= rect.height + EPS_GEOM
            for ob in obstacles:
                if ob.side <= 0:
                    continue
                assert (
                    x + s <= ob.x + EPS_GEOM
                    or ob.x2 <= x + EPS_GEOM
                    or y + s <= ob.y + EPS_GEOM
                    or ob.y2 <= y + EPS_GEOM
                )
        assert checked >= 150  # most random configs should be feasible

    def test_area_against_grid_oracle(self):
        rng = np.random.default_rng(202)
        for _ in range(5):
            rect, obstacles, s = random_midpoint_config(rng)
            region = feasible_midpoint_region(rect, obstacles, s)
            exact = region_area(region)
            approx = grid_region_area(rect, obstacles, s, samples=1_000_000)
            assert abs(exact - approx) <= 1e-3 * max(exact, rect.area * 1e-3)


@st.composite
def midpoint_configs(draw):
    """A rectangle, obstacles (some of side 0, some sticking out), a new side.

    Obstacles may stick out past any of the rectangle's four edges or lie
    wholly outside it.
    """
    W = draw(st.floats(0.8, 2.0))
    H = draw(st.floats(0.8, 2.0))
    edge = min(W, H)
    raw = draw(st.lists(
        st.tuples(st.floats(0.0, 0.35), st.floats(-0.3, 1.1), st.floats(-0.3, 1.1)),
        max_size=12,
    ))
    obstacles = [Placement(f * edge, x * W, y * H) for f, x, y in raw]
    s = draw(st.floats(0.0, 1.0)) * edge
    return Rectangle(W, H), obstacles, s


@st.composite
def split_configs(draw):
    """An arbitrary free list, a square and a ``min_edge``, on a 1/4 grid.

    The free rectangles may overlap, repeat, nest and touch the square;
    some are drawn around the square, so that it hits many of them.
    Edges are nudged by 1e-13 at times, and the square may have side 0
    or miss every rectangle.
    """
    nudge = st.sampled_from([0.0, 0.0, 0.0, 1e-13, -1e-13])

    def grid(top):
        return st.builds(lambda i, d: i / 4 + d, st.integers(0, top), nudge)

    coord = grid(16)
    square = Placement(abs(draw(grid(8))), draw(coord), draw(coord))

    def span(lo, hi):
        return (min(lo, hi), max(lo, hi))

    free = []
    for a, b, c, d in draw(st.lists(st.tuples(coord, coord, coord, coord), max_size=8)):
        (x0, x1), (y0, y1) = span(a, b), span(c, d)
        free.append((x0, y0, x1, y1))
    # rectangles around the square: each reaches past it by 0 to 1 per side
    reach = grid(4)
    for a, b, c, d in draw(st.lists(st.tuples(reach, reach, reach, reach), max_size=6)):
        free.append((square.x - a, square.y - b, square.x2 + c, square.y2 + d))
    # rectangles the square misses that share one of its edges' lines:
    # only these can hold a piece
    x0, y0, x1, y1 = square.x, square.y, square.x2, square.y2
    for k, a, b, c in draw(st.lists(st.tuples(st.integers(0, 3), reach, reach, reach),
                                    max_size=4)):
        free.append([(x0 - a - c, y0 - b, x0, y1 + c), (x1, y0 - b, x1 + a + c, y1 + c),
                     (x0 - a, y0 - b - c, x1 + c, y0), (x0 - a, y1, x1 + c, y1 + b + c)][k])
    if free:
        free += [free[i] for i in draw(st.lists(st.integers(0, len(free) - 1), max_size=3))]
    free = draw(st.permutations(free))
    min_edge = draw(st.one_of(st.just(0.0), st.sampled_from([0.25, 0.5, 1.0]),
                              st.floats(0.0, 2.0)))
    return free, square, min_edge


class TestSplitFreeRectangles:
    @staticmethod
    def _inside(a, b) -> bool:
        return b[0] <= a[0] and b[1] <= a[1] and a[2] <= b[2] and a[3] <= b[3]

    @settings(max_examples=150, deadline=None)
    @given(midpoint_configs())
    def test_free_rectangles_are_empty_and_none_holds_another(self, config):
        rect, obstacles, _ = config
        free = free_rectangles(rect, obstacles)
        for i, f in enumerate(free):
            assert 0.0 <= f[0] < f[2] <= rect.width and 0.0 <= f[1] < f[3] <= rect.height
            for ob in obstacles:
                if ob.side > 0:
                    assert (f[2] <= ob.x or ob.x + ob.side <= f[0]
                            or f[3] <= ob.y or ob.y + ob.side <= f[1])
            assert not any(self._inside(f, g) for j, g in enumerate(free) if j != i)

    def test_equal_pieces_kept_once(self):
        # two copies of one free rectangle give two copies of each piece
        free = [(0.0, 0.0, 4.0, 4.0)] * 2
        out = split_square(free, 1.0, 1.0, 1.0)
        assert sorted(out) == [(0.0, 0.0, 1.0, 4.0), (0.0, 0.0, 4.0, 1.0),
                               (0.0, 2.0, 4.0, 4.0), (2.0, 0.0, 4.0, 4.0)]
        # interleaved copies of two rectangles, one of whose pieces nests
        a, b = (0.0, 0.0, 4.0, 4.0), (1.0, 1.5, 5.0, 3.5)
        square = Placement(1.0, 2.0, 2.0)
        out = split_square([a, b, a, b], square.side, square.x, square.y)
        assert len(out) == len(set(out)) == 7
        assert sorted(out) == sorted(reference_split_free_rectangles([a, b, a, b], square))

    def test_min_edge_drops_narrow_pieces(self):
        out = split_square([(0.0, 0.0, 4.0, 4.0)], 1.0, 0.5, 2.0, 1.0)
        # the piece left of the square is 0.5 wide
        assert sorted(out) == [(0.0, 0.0, 4.0, 2.0), (0.0, 3.0, 4.0, 4.0),
                               (1.5, 0.0, 4.0, 4.0)]

    def test_missed_and_zero_squares_leave_the_list(self):
        free = [(0.0, 0.0, 1.0, 1.0)]
        assert split_free_rectangles(free, 1.0, 0.0, 2.0, 1.0) == free
        # the split takes a box; its callers drop squares of side 0
        rect = Rectangle(1.0, 1.0)
        assert split_square(free, 0.0, 0.5, 0.5) == free
        assert free_rectangles(rect, [Placement(0.0, 0.5, 0.5)]) == free
        zero = Placement(0.0, 0.25, 0.5)
        assert (feasible_midpoint_region(rect, [zero], 0.5)
                == feasible_midpoint_region(rect, [], 0.5))

    def test_side_that_rounds_away_still_splits(self):
        # a positive side is no zero square even when x + s == x: its box,
        # the point (1, 1), splits the rectangle around it
        assert 1.0 + 1e-17 == 1.0
        out = split_square([(0.0, 0.0, 4.0, 4.0)], 1e-17, 1.0, 1.0)
        assert out == [(0.0, 0.0, 1.0, 4.0), (1.0, 0.0, 4.0, 4.0),
                       (0.0, 0.0, 4.0, 1.0), (0.0, 1.0, 4.0, 4.0)]

    def test_nested_left_pieces_keep_the_widest(self):
        # three hit rectangles whose left pieces nest; the other sides'
        # pieces of the first two do not, so they all stay
        free = [(0.0, 0.0, 3.5, 4.0), (0.5, 1.0, 4.0, 3.0), (1.0, 1.5, 2.5, 2.5)]
        square = Placement(1.0, 2.0, 1.5)
        out = split_square(free, square.side, square.x, square.y)
        assert [p for p in out if p[2] == square.x] == [(0.0, 0.0, 2.0, 4.0)]
        assert sorted(out) == [
            (0.0, 0.0, 2.0, 4.0), (0.0, 0.0, 3.5, 1.5), (0.0, 2.5, 3.5, 4.0),
            (0.5, 1.0, 4.0, 1.5), (0.5, 2.5, 4.0, 3.0),
            (3.0, 0.0, 3.5, 4.0), (3.0, 1.0, 4.0, 3.0),
        ]
        assert sorted(out) == sorted(reference_split_free_rectangles(free, square))

    @staticmethod
    def _split(free, square, min_edge=0.0):
        out = split_square(free, square.side, square.x, square.y, min_edge)
        assert sorted(out) == sorted(reference_split_free_rectangles(free, square, min_edge))
        return out

    @pytest.mark.parametrize("where", ["left", "right", "below", "above"])
    def test_touching_missed_rectangle_holds_its_piece(self, where):
        # edges that are not dyadic: x1 = 0.30000000000000004, y1 = 0.8999999999999999
        square = Placement(0.2, 0.1, 0.7)
        x0, y0, x1, y1 = square.x, square.y, square.x2, square.y2
        hit = (0.0, 0.0, 1.0, 1.5)
        piece, touching, moved = {
            "left": ((0.0, 0.0, x0, 1.5), (-1.0, -1.0, x0, 2.0),
                     (-1.0, -1.0, math.nextafter(x0, -math.inf), 2.0)),
            "right": ((x1, 0.0, 1.0, 1.5), (x1, -1.0, 2.0, 2.0),
                      (math.nextafter(x1, math.inf), -1.0, 2.0, 2.0)),
            "below": ((0.0, 0.0, 1.0, y0), (-1.0, -1.0, 2.0, y0),
                      (-1.0, -1.0, 2.0, math.nextafter(y0, -math.inf))),
            "above": ((0.0, y1, 1.0, 1.5), (-1.0, y1, 2.0, 2.0),
                      (-1.0, math.nextafter(y1, math.inf), 2.0, 2.0)),
        }[where]
        out = self._split([hit, touching], square)
        assert touching in out and piece not in out
        # one ulp away the rectangle still misses the square but no longer holds the piece
        out = self._split([hit, moved], square)
        assert moved in out and piece in out

    def test_container_arriving_last_is_sorted_first(self):
        # every piece of the first rectangle lies in the second one's piece
        # on the same side, and differs from it only in x1 or y1
        small, big = (0.0, 0.0, 3.5, 3.5), (0.0, 0.0, 4.0, 4.0)
        square = Placement(1.0, 2.0, 2.0)
        out = self._split([small, big], square)
        assert sorted(out) == [(0.0, 0.0, 2.0, 4.0), (0.0, 0.0, 4.0, 2.0),
                               (0.0, 3.0, 4.0, 4.0), (3.0, 0.0, 4.0, 4.0)]

    def test_container_failing_min_edge_drops_what_it_holds(self):
        # the big rectangle's left and above pieces are one ulp too narrow;
        # the small one's lie inside them, so they are too narrow as well
        big, small = (0.0, 0.0, 5.0, 5.0), (0.0, 1.0, 5.0, 4.0)
        square = Placement(0.5, 2.0, 2.5)
        out = self._split([small, big], square, math.nextafter(2.0, math.inf))
        assert sorted(out) == [(0.0, 0.0, 5.0, 2.5), (2.5, 0.0, 5.0, 5.0)]

    @settings(max_examples=400, deadline=None)
    @given(split_configs())
    def test_matches_all_pairs_oracle(self, config):
        free, square, min_edge = config
        out = split_square(free, square.side, square.x, square.y, min_edge)
        assert sorted(out) == sorted(reference_split_free_rectangles(free, square, min_edge))

    @staticmethod
    def _bits(rects) -> list:
        """Each rectangle's edges as bytes, so that ``-0.0`` and ``0.0`` differ."""
        return [struct.pack("<4d", *r) for r in rects]

    def _ordered(self, free, square, min_edge=0.0):
        """The split, checked float for float and in order against the oracle."""
        out = split_square(free, square.side, square.x, square.y, min_edge)
        expected = container_first_split(free, square.side, square.x, square.y, min_edge)
        assert self._bits(out) == self._bits(expected)
        return out

    @settings(max_examples=200, deadline=None)
    @given(split_configs())
    def test_matches_container_first_oracle_in_order(self, config):
        self._ordered(*config)

    def test_corner_touching_rectangle_holds_only_left_pieces(self):
        # g ends at the square's x0 and tops out at its y0: the miss test
        # files it on the left, and it holds no piece below
        square = Placement(1.0, 1.0, 1.0)
        hit = (0.0, 0.0, 3.0, 3.0)
        corner = (-1.0, -1.0, 1.0, 1.0)
        out = self._ordered([hit, corner], square)
        assert out == [corner, (0.0, 0.0, 1.0, 3.0), (2.0, 0.0, 3.0, 3.0),
                       (0.0, 0.0, 3.0, 1.0), (0.0, 2.0, 3.0, 3.0)]
        # taller, it holds the left piece, and still none below
        tall = (-1.0, -1.0, 1.0, 4.0)
        out = self._ordered([hit, tall], square)
        assert out == [tall, (2.0, 0.0, 3.0, 3.0), (0.0, 0.0, 3.0, 1.0),
                       (0.0, 2.0, 3.0, 3.0)]

    def test_negative_zero_edges_keep_their_signs(self):
        # near edges and far edges of -0.0: a key negates the far ones
        # once and the kept piece negates them back
        square = Placement(1.0, -3.0, -3.0)
        out = self._ordered([(-4.0, -4.0, -0.0, -0.0)], square)
        assert self._bits(out) == self._bits([
            (-4.0, -4.0, -3.0, -0.0), (-2.0, -4.0, -0.0, -0.0),
            (-4.0, -4.0, -0.0, -3.0), (-4.0, -2.0, -0.0, -0.0),
        ])
        square = Placement(1.0, 1.0, 1.0)
        out = self._ordered([(-0.0, -0.0, 3.0, 3.0)], square)
        assert self._bits(out) == self._bits([
            (-0.0, -0.0, 1.0, 3.0), (2.0, -0.0, 3.0, 3.0),
            (-0.0, -0.0, 3.0, 1.0), (-0.0, 2.0, 3.0, 3.0),
        ])

    def test_equal_pieces_of_two_rectangles_kept_once(self):
        # both left pieces are (0, 0, 1, 4); the first in the list is kept,
        # down to the sign of its zero
        square = Placement(1.0, 1.0, 1.0)
        first, second = (0.0, 0.0, 3.0, 4.0), (-0.0, 0.0, 4.0, 4.0)
        out = self._ordered([first, second], square)
        left = [p for p in out if p[2] == square.x]
        assert self._bits(left) == self._bits([(0.0, 0.0, 1.0, 4.0)])
        out = self._ordered([second, first], square)
        left = [p for p in out if p[2] == square.x]
        assert self._bits(left) == self._bits([(-0.0, 0.0, 1.0, 4.0)])


@st.composite
def shelf_run_packings(draw):
    """A shelf packing with runs of equal sides, in a tall or a wide rectangle.

    Sides come from a few values, most not dyadic, each 1 to 40 times;
    the rectangle has twice their area and aspect 1 to 3, so the shelf
    engine packs them, laying rows when it is tall and columns when it
    is wide.
    """
    values = draw(st.lists(st.sampled_from([0.1, 0.07, 0.0625, 0.2 / 3, 0.05, 0.03, 0.011]),
                           min_size=1, max_size=4, unique=True))
    sides = []
    for v in sorted(values, reverse=True):
        sides += [v] * draw(st.integers(1, 40))
    inst = Instance(tuple(sides))
    aspect = draw(st.floats(1.0, 3.0))
    short = max(math.sqrt(2 * inst.total_area / aspect), inst.max_side)
    long = max(2 * inst.total_area / short, short)
    rect = Rectangle(long, short) if draw(st.booleans()) else Rectangle(short, long)
    packing = meir_moser_pack(inst, rect, require_precondition=False)
    min_edge = draw(st.sampled_from([0.0, 0.01, min(values), 0.06]))
    return packing, min_edge


class TestSplitByRuns:
    """A run of abutting equal squares splits the free list once, as its box.

    The run's union is exactly the box, so the split keeps the same
    maximal empty rectangles, maybe in another order.
    """

    @settings(max_examples=120, deadline=None)
    @given(shelf_run_packings())
    def test_run_boxes_split_like_their_squares(self, config):
        packing, min_edge = config
        rect = packing.rect
        boxes = abutting_runs(packing)
        assert len(boxes) <= len(packing.sides)
        assert (sorted(box_free_rectangles(rect, boxes, min_edge))
                == sorted(free_rectangles(rect, packing.placements, min_edge)))

    @pytest.mark.parametrize("wide", [False, True])
    def test_tall_rectangles_have_rows_and_wide_ones_columns(self, wide):
        inst = Instance((0.1,) * 30 + (0.07,) * 40)
        rect = Rectangle(2.0, 1.0) if wide else Rectangle(1.0, 2.0)
        packing = meir_moser_pack(inst, rect)
        boxes = abutting_runs(packing)
        long = [(x1 - x0, y1 - y0) for x0, y0, x1, y1 in boxes]
        assert len(boxes) < 10
        assert all((w < h) if wide else (w > h) for w, h in long)
        for min_edge in (0.0, 0.07):
            assert (sorted(box_free_rectangles(rect, boxes, min_edge))
                    == sorted(free_rectangles(rect, packing.placements, min_edge)))

    @staticmethod
    def _apart(rect, placements, merged_box) -> list:
        """Squares that form no run: the split by the box that would join them differs."""
        packing = packing_of(rect, placements)
        boxes = abutting_runs(packing)
        assert len(boxes) == len(placements)
        free = free_rectangles(rect, placements)
        assert sorted(box_free_rectangles(rect, boxes)) == sorted(free)
        assert sorted(box_free_rectangles(rect, [merged_box])) != sorted(free)
        return free

    def test_one_ulp_gap_ends_a_run(self):
        s = 0.1
        x = math.nextafter(s, math.inf)
        free = self._apart(Rectangle(1.0, 1.0), [Placement(s, 0.0, 0.0), Placement(s, x, 0.0)],
                           (0.0, 0.0, x + s, s))
        # the gap stays free, one ulp wide
        assert (s, 0.0, x, 1.0) in free

    def test_unequal_side_ends_a_run(self):
        self._apart(Rectangle(1.0, 1.0), [Placement(0.1, 0.0, 0.0), Placement(0.07, 0.1, 0.0)],
                    (0.0, 0.0, 0.17, 0.1))

    def test_next_shelf_starts_a_new_run(self):
        # five squares of 0.3 in a 1 x 1 square: three on the first shelf, two on the next
        rect = Rectangle(1.0, 1.0)
        packing = meir_moser_pack(Instance((0.3,) * 5), rect)
        third, fourth = packing.placements[2:4]
        assert (third.y, fourth.x, fourth.y) == (0.0, 0.0, 0.3)
        boxes = abutting_runs(packing)
        assert [(y0, y1) for _, y0, _, y1 in boxes] == [(0.0, 0.3), (0.3, 0.6)]
        assert (sorted(box_free_rectangles(rect, boxes))
                == sorted(free_rectangles(rect, packing.placements)))


@st.composite
def grid_midpoint_configs(draw):
    """A midpoint configuration on a 1/8 grid.

    Obstacles touch, repeat and line up with the rectangle's edges, and
    corners nudged by 1e-13 put part edges within ``EPS_GEOM`` of each
    other, so the lexicomin's tie band decides between them.
    """
    W, H = (draw(st.sampled_from([1.0, 1.25, 1.5, 2.0])) for _ in range(2))
    cell = st.integers(-2, 17).map(lambda i: i / 8)
    nudge = st.sampled_from([0.0, 0.0, 1e-13, -1e-13])
    raw = draw(st.lists(
        st.tuples(st.sampled_from([0.0, 0.125, 0.25, 0.375]), cell, cell, nudge, nudge),
        max_size=12,
    ))
    obstacles = [Placement(f, x + dx, y + dy) for f, x, y, dx, dy in raw]
    s = draw(st.sampled_from([0.0, 0.125, 0.25, 0.5])) + abs(draw(nudge))
    return Rectangle(W, H), obstacles, s


class TestIncrementalRegion:
    """The region is the oracle's point set, from scratch and resumed.

    Parts overlap by design, so they are compared as sets: the same
    lexicomin, and the union's area within 1e-12 of the oracle's.  The
    resumed regions start from the free rectangles of the first m
    obstacles split with a ``min_edge`` t <= s, which drops only free
    rectangles no side-s square fits in.
    """

    @staticmethod
    def _check(rect, obstacles, s):
        oracle = reference_midpoint_region(rect, obstacles, s)
        point = region_lexicomin(oracle)
        area = math.fsum((x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in oracle.parts)
        full = feasible_midpoint_region(rect, obstacles, s)
        assert region_lexicomin(full) == point
        assert region_area(full) == pytest.approx(area, abs=1e-12)
        for m in range(len(obstacles) + 1):
            for t in (0.0, s / 2, s):
                start = free_rectangles(rect, obstacles[:m], t)
                resumed = feasible_midpoint_region(rect, obstacles[m:], s, start=start)
                assert region_lexicomin(resumed) == point
                assert region_area(resumed) == pytest.approx(area, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(midpoint_configs())
    def test_start_region_matches_rebuild_at_every_split(self, config):
        self._check(*config)

    @settings(max_examples=150, deadline=None)
    @given(grid_midpoint_configs())
    def test_grid_ties_match_rebuild_at_every_split(self, config):
        self._check(*config)


@st.composite
def verify_cases(draw):
    """A packing of 0 to 150 placements in a 2 x 2 square, and a tolerance.

    Corners and sides on a 1/8 grid make touching and exactly repeated
    squares common, grid corners nudged by 1e-13 overlap by less than the
    larger tolerances, and corners below 0 or sides reaching past 2 stick
    out.  Hypothesis draws the size, the mix and a seed; numpy draws the
    coordinates, which keeps a 150-square example cheap.
    """
    n = draw(st.one_of(st.integers(0, 12), st.integers(0, 150)))
    on_grid, nudged, zero = (draw(st.sampled_from([0.0, 0.5, 1.0])) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    corners = np.where(rng.random((2, n)) < on_grid,
                       rng.integers(-2, 17, (2, n)) / 8, rng.uniform(-0.25, 2.0, (2, n)))
    corners += np.where(rng.random((2, n)) < nudged, 1e-13, 0.0)
    sides = np.where(rng.random(n) < on_grid,
                     rng.choice([0.125, 0.25, 0.5, 1.0], n), rng.uniform(0.0, 0.6, n))
    sides[rng.random(n) < zero / 4] = 0.0
    placements = [Placement(float(s), float(x), float(y))
                  for s, x, y in zip(sides, corners[0], corners[1])]
    if n:
        for src, dst in rng.integers(0, n, (draw(st.integers(0, 10)), 2)):
            placements[dst] = placements[src]
    tol = draw(st.sampled_from([0.0, 1e-12, 1e-3]))
    return packing_of(Rectangle(2, 2), placements), tol


@st.composite
def strip_cases(draw):
    """A packing of 0 to 80 placements shaped to stress the sweep's strips.

    - ``big``: one square of side 0.5 to 2 among tiny ones, so that it
      spans many strips;
    - ``grid``: sides and corners on a dyadic grid whose step is the mean
      side, so that strip boundaries fall exactly on edges, with corners
      nudged by one ulp, by 1e-13 or by half a step to straddle them;
    - ``zero``: half or all of the sides zero;
    - ``huge``: corners and sides up to 1e300, 1e307 or 1.5e308; at the
      last, spans and upper edges overflow to inf.
    """
    n = draw(st.integers(0, 80))
    kind = draw(st.sampled_from(["big", "grid", "zero", "huge"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "big":
        corners = rng.uniform(-0.1, 2.0, (2, n))
        sides = rng.uniform(0.0, 0.05, n)
        if n:
            sides[0] = rng.uniform(0.5, 2.0)
    elif kind == "grid":
        step = float(rng.choice([1 / 16, 1 / 8, 1 / 4]))
        corners = rng.integers(-1, int(2 / step) + 1, (2, n)) * step
        corners += rng.choice([0.0, 0.0, 1e-13, -1e-13, step / 2], (2, n))
        ulp = rng.integers(-1, 2, (2, n))
        corners = np.where(ulp, np.nextafter(corners, np.where(ulp > 0, np.inf, -np.inf)),
                           corners)
        odd = rng.random(n) < draw(st.sampled_from([0.0, 0.2]))
        sides = np.where(odd, rng.choice([0.0, step / 2, 2 * step], n), step)
    elif kind == "zero":
        corners = rng.integers(0, 9, (2, n)) / 4
        sides = np.where(rng.random(n) < draw(st.sampled_from([0.5, 1.0])), 0.0,
                         rng.choice([0.25, 0.5], n))
    else:
        scale = draw(st.sampled_from([1e300, 1e307, 1.5e308]))
        corners = rng.uniform(-1.0, 1.0, (2, n)) * scale
        sides = rng.uniform(0.0, 1.0, n) * scale
    placements = [Placement(float(s), float(x), float(y))
                  for s, x, y in zip(sides, corners[0], corners[1])]
    if n:
        for src, dst in rng.integers(0, n, (draw(st.integers(0, 10)), 2)):
            placements[dst] = placements[src]
    tol = draw(st.sampled_from([0.0, 1e-12, 1e-3]))
    return packing_of(Rectangle(2, 2), placements), tol


class TestVerifyPacking:
    def test_valid_fixture(self):
        report = verify_packing(reference_packing())
        assert report.valid
        assert report.violations == ()

    def test_overlap_detected(self):
        p = packing_of(Rectangle(2, 2), [Placement(1, 0, 0), Placement(1, 0.5, 0.5)])
        report = verify_packing(p)
        assert not report.valid
        kinds = {v.kind for v in report.violations}
        assert "overlap" in kinds
        worst = max(v.measure for v in report.violations if v.kind == "overlap")
        assert worst == pytest.approx(0.25)  # 0.5 x 0.5 of shared interior

    def test_out_of_bounds_detected(self):
        p = packing_of(Rectangle(1, 1), [Placement(0.5, 0.8, 0.1)])
        report = verify_packing(p)
        assert not report.valid
        assert report.violations[0].kind == "outside"
        assert report.violations[0].measure == pytest.approx(0.3)

    def test_touching_squares_pass(self):
        p = packing_of(Rectangle(2, 1), [Placement(1, 0, 0), Placement(1, 1, 0)])
        assert verify_packing(p).valid

    def test_tolerance_honored(self):
        # overlap smaller than the tolerance is forgiven
        p = packing_of(Rectangle(2, 1), [Placement(1, 0, 0), Placement(1, 1 - 1e-13, 0)])
        assert verify_packing(p).valid
        assert not verify_packing(p, tol=1e-14).valid

    def test_tolerance_must_be_finite_and_non_negative(self):
        p = packing_of(Rectangle(2, 2), [Placement(1, 0, 0), Placement(1, 0.5, 0.5)])
        for tol in (math.nan, math.inf, -math.inf, -1e-12):
            with pytest.raises(ValueError, match="tol"):
                verify_packing(p, tol=tol)
        assert verify_packing(p, tol=0.0).violations == verify_packing(p).violations

    @pytest.mark.parametrize("column, value", [
        ("xs", math.nan), ("xs", math.inf), ("ys", -math.inf), ("ys", math.nan),
        ("sides", math.nan), ("sides", math.inf), ("sides", -0.5),
    ])
    def test_column_set_after_construction_is_never_valid(self, column, value):
        # The columns are mutable arrays: a value written after the packing
        # checked them must not pass the verifier.
        p = reference_packing()
        getattr(p, column)[1] = value
        with pytest.raises(ValueError, match="finite"):
            verify_packing(p)

    def test_columns_unchanged_by_verification(self):
        # The verifier reads the columns through views that share their memory.
        p = _case_b_shaped(8_000)
        before = [bytes(col) for col in (p.sides, p.xs, p.ys)]
        assert verify_packing(p).valid
        assert [bytes(col) for col in (p.sides, p.xs, p.ys)] == before
        # No view outlives the call: a column can still grow.
        p.xs.append(0.0)

    @settings(max_examples=200, deadline=None)
    @given(verify_cases(), st.sampled_from([1, 7, None]), st.sampled_from([5, None]))
    def test_matches_dense_oracle(self, case, chunk, cap):
        # Tiny sweep chunks and a small report cap drive the chunk merge and
        # the truncation at sizes hypothesis can shrink.
        packing, tol = case
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                mp.setattr(geometry, "_PAIR_CHUNK", chunk)
            if cap is not None:
                mp.setattr(geometry, "_MAX_REPORTED", cap)
            got = verify_packing(packing, tol)
        want = reference_verify_packing(packing, tol, cap=cap or 10_000)
        assert got.valid == want.valid
        assert got.violations == want.violations
        assert got.truncated == want.truncated

    @settings(max_examples=200, deadline=None)
    @given(strip_cases(), st.sampled_from([1, 7, None]), st.sampled_from([5, None]))
    def test_strips_match_dense_oracle(self, case, chunk, cap):
        # With no threshold the sweep tries strips on any packing that has
        # a candidate pair, and keeps them whenever they leave fewer.
        packing, tol = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "_STRIP_MIN_PAIRS", 0)
            if chunk is not None:
                mp.setattr(geometry, "_PAIR_CHUNK", chunk)
            if cap is not None:
                mp.setattr(geometry, "_MAX_REPORTED", cap)
            with warnings.catch_warnings():
                # overflow near 1e308 is expected and silenced; nothing else warns
                warnings.simplefilter("error", RuntimeWarning)
                got = verify_packing(packing, tol)
        want = reference_verify_packing(packing, tol, cap=cap or 10_000)
        assert got.valid == want.valid
        assert got.violations == want.violations
        assert got.truncated == want.truncated

    def test_touching_pair_with_overflowing_overlap(self):
        # The point square 3 lies on square 0's left edge, so the pair is a
        # candidate with overlap 0 in x, while its overlap in y,
        # -8e307 - 1.2e308, overflows to -inf: the area 0 * -inf is nan,
        # which numpy warns about.  The pair shares no area.
        packing = packing_of(Rectangle(1, 1), [
            Placement(1.2e308, -1.6e308, 1.2e308),
            Placement(1.2e308, 1.2e308, -1.6e308),
            Placement(0.0, 1.2e308, -8e307),
            Placement(0.0, -1.6e308, -8e307),
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = verify_packing(packing)
        want = reference_verify_packing(packing)
        assert got == want
        assert [v.kind for v in got.violations] == ["outside"] * 4

    def test_lower_edge_rounded_onto_a_strip_boundary(self):
        # Strips across y of height 0.25 from y = -0.25.  The second row
        # sits one ulp below y = 0.25 and overlaps the first by 2^-55, but
        # its lower edge minus -0.25 rounds up to the boundary 0.5, where
        # the first row's upper edges end exactly: the pairs meet only
        # because each square keeps a copy in the strip of its upper edge.
        # The last square, which sets the strips' start, sticks out below.
        below = math.nextafter(0.25, 0.0)
        placements = ([Placement(0.25, 0.25 * k, 0.0) for k in range(4)]
                      + [Placement(0.25, 0.1 + 0.25 * k, below) for k in range(4)]
                      + [Placement(0.25, 0.05 + 0.25 * k, 1.0) for k in range(4)]
                      + [Placement(0.25, 1.5, -0.25)])
        packing = packing_of(Rectangle(2, 2), placements)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "_STRIP_MIN_PAIRS", 0)
            report = verify_packing(packing, tol=0.0)
        assert report == reference_verify_packing(packing, tol=0.0)
        assert [v.kind for v in report.violations] == ["outside"] + ["overlap"] * 7
        # the strips leave 7 of the plain sweep's 21 candidate pairs
        assert report.pairs_examined == 7

    def test_violation_cap(self):
        # everything at the origin: quadratic pair count gets truncated
        placements = [Placement(0.5, 0, 0) for _ in range(200)]
        packing = packing_of(Rectangle(1, 1), placements)
        report = verify_packing(packing)
        assert not report.valid
        assert report.truncated
        assert len(report.violations) == 10_000
        assert report == reference_verify_packing(packing)

    def test_outside_placements_come_before_capped_overlaps(self):
        # 150 stacked squares sticking out, then 150 stacked inside:
        # 150 outside entries and 2 x 11,175 overlapping pairs
        placements = [Placement(0.5, 0.8, 0.0)] * 150 + [Placement(0.5, 0.0, 0.0)] * 150
        packing = packing_of(Rectangle(1, 1), placements)
        report = verify_packing(packing)
        assert report.truncated
        assert [v.kind for v in report.violations[:150]] == ["outside"] * 150
        assert report == reference_verify_packing(packing)

    def test_cap_counts_outside_placements(self):
        # six disjoint squares, all sticking out: a cap of 5 truncates
        packing = packing_of(Rectangle(1, 1), [Placement(0.1, 2.0 + k, 0.0) for k in range(6)])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "_MAX_REPORTED", 5)
            report = verify_packing(packing)
        assert report.truncated and len(report.violations) == 5
        assert report == reference_verify_packing(packing, cap=5)

    def test_stacked_squares_truncate_in_bounded_memory(self):
        # 3,000 equal squares at one point: 4,498,500 overlapping pairs.
        # Chunked expansion peaks near 20 MiB; all pairs at once, near 240 MiB.
        packing = packing_of(Rectangle(1, 1), [Placement(0.5, 0.0, 0.0)] * 3000)
        tracemalloc.start()
        try:
            report = verify_packing(packing)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report == reference_verify_packing(packing)
        assert report.truncated and len(report.violations) == 10_000
        assert report.pairs_examined == 3000 * 2999 // 2
        assert peak < 64 * 2**20

    def test_pairs_examined_counts_candidates(self):
        overlapping = packing_of(Rectangle(2, 2), [Placement(1, 0, 0), Placement(1, 0.5, 0.5)])
        touching = packing_of(Rectangle(2, 1), [Placement(1, 0, 0), Placement(1, 1, 0)])
        assert verify_packing(overlapping).pairs_examined == 1
        assert verify_packing(touching).pairs_examined == 0
        assert verify_packing(packing_of(Rectangle(1, 1), ())).pairs_examined == 0

    def test_column_is_swept_along_its_height(self):
        # 1,000 touching squares stacked in one column share their x-span;
        # sweeping along y finds no candidate pair at all
        side = 2.0**-6  # dyadic, so every edge sum is exact
        packing = packing_of(Rectangle(side, 1000 * side),
                          [Placement(side, 0.0, k * side) for k in range(1000)])
        report = verify_packing(packing)
        assert report.valid
        assert report.pairs_examined == 0

    def test_shelf_packing_examines_few_pairs(self):
        rng = np.random.default_rng(11)
        inst = Instance(tuple(float(s) for s in rng.uniform(0.005, 0.03, 1000)))
        edge = math.sqrt(2 * inst.total_area / 0.99)
        packing = moon_moser_pack(inst, Rectangle(edge, edge))
        report = verify_packing(packing)
        assert report.valid
        assert report.pairs_examined < 1000 * 999 // 2 // 20


_F_REF = (2 + math.sqrt(3)) / 3
_C_REF = float(compute_c(_F_REF))


def _toy_params(**kw) -> PackParams:
    return PackParams.toy_params(F=_F_REF, c=_C_REF, N0=4, N1=158, N=1167, **kw)


def _shelf_cases():
    """Every tenth of the 2 x 10^4 seeded shelf cases, in generation order."""
    rng = np.random.default_rng(20250815)
    moon = [random_moon_moser_case(rng) for _ in range(10_000)]
    meir = [random_meir_moser_case(rng) for _ in range(10_000)]
    return moon[::10], meir[::10]


def _whitespace_fixture() -> Packing:
    base_side = math.sqrt((1 - _C_REF * _C_REF) / 158)
    base = meir_moser_pack(Instance((base_side,) * 158),
                           Rectangle(math.sqrt(_F_REF), _F_REF / math.sqrt(_F_REF)))
    tail = Instance((_C_REF / math.sqrt(158),) * 158)
    return whitespace_pack(WhitespaceJob(base, tail, c=_C_REF, F=_F_REF))


def _case_b_fixture() -> Packing:
    tiny = math.sqrt(0.1 / 30_000)
    return reduce_and_pack(Instance((0.6, 0.6, 0.3, 0.3) + (tiny,) * 30_000),
                           _toy_params()).packing


def _case_c_fixture() -> Packing:
    big = math.sqrt((1 - 0.99 * _C_REF**2) / 158)
    small = math.sqrt(0.99 * _C_REF**2 / 160)
    return reduce_and_pack(Instance((big,) * 158 + (small,) * 160),
                           _toy_params(s1_threshold=0.07)).packing


#: The packings ``test_acceptance.py`` verifies, built the same way; every
#: tenth randomized shelf case stands in for the 2 x 10^4 it packs.
_ACCEPTANCE_FIXTURES = {
    "c4_reference": lambda: [reference_packing()],
    "c6_moon_moser": lambda: [moon_moser_pack(*case) for case in _shelf_cases()[0]],
    "c6_meir_moser": lambda: [meir_moser_pack(*case) for case in _shelf_cases()[1]],
    "c7_whitespace": lambda: [_whitespace_fixture()],
    "c9_case_a": lambda: [reduce_and_pack(Instance((0.1,) * 100), _toy_params()).packing],
    "c9_case_b": lambda: [_case_b_fixture()],
    "c9_case_c": lambda: [_case_c_fixture()],
}


@pytest.mark.parametrize("label", sorted(_ACCEPTANCE_FIXTURES))
def test_acceptance_fixtures_match_dense_oracle(label):
    for packing in _ACCEPTANCE_FIXTURES[label]():
        report = verify_packing(packing)
        assert report.valid
        assert report == reference_verify_packing(packing)


def _case_b_shaped(tail: int) -> Packing:
    """Prefix (0.5, 0.5, 0.25, 0.25) plus ``tail`` equal squares of total area 0.375."""
    side = math.sqrt(0.375 / tail)
    result = reduce_and_pack(Instance((0.5, 0.5, 0.25, 0.25) + (side,) * tail), _toy_params())
    assert result.case == "b"
    return result.packing


@pytest.mark.parametrize("build", [
    pytest.param(lambda: _case_b_shaped(8_000), id="tail-8000"),
    pytest.param(lambda: _case_b_shaped(32_000), id="tail-32000"),
    pytest.param(_case_b_fixture, id="c9_case_b"),
])
def test_shelf_rows_examine_at_most_2n_pairs(build):
    # Each shelf row shares one lower edge, so sweeping along either axis
    # alone examines about n * (row length) / 2 pairs: 360,010 for the
    # 8,004 squares of the first packing and 1,140,043 for c9's case b.
    packing = build()
    report = verify_packing(packing)
    assert report.valid
    assert report.pairs_examined <= 2 * len(packing.placements)


class TestSerialization:
    def test_packing_round_trip(self):
        p = reference_packing()
        d = packing_to_dict(p)
        q = packing_from_dict(d)
        assert q.rect.width == pytest.approx(p.rect.width)
        assert q.rect.height == pytest.approx(p.rect.height)
        assert len(q.placements) == len(p.placements)
        for a, b in zip(p.placements, q.placements):
            assert (a.side, a.x, a.y) == (b.side, b.x, b.y)

    def test_instance_round_trip(self):
        inst = Instance((0.3, 0.5, 0.0))
        d = instance_to_dict(inst)
        assert instance_from_dict(d).sides == inst.sides

    def test_instance_from_dict_rejects_negative(self):
        with pytest.raises(ValueError):
            instance_from_dict({"sides": [0.5, -0.1]})
