"""Rectangle model, region algebra, feasible regions, and verification."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moserpack import (
    EPS_GEOM,
    Instance,
    Packing,
    Placement,
    PreconditionViolated,
    Rectangle,
    RectilinearRegion,
    feasible_midpoint_region,
    instance_from_dict,
    instance_to_dict,
    packing_from_dict,
    packing_to_dict,
    region_area,
    region_lexicomin,
    region_subtract,
    region_union,
    verify_packing,
)
from conftest import grid_region_area, random_midpoint_config, reference_midpoint_region


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
    return Packing(rect, placements)


class TestRectangle:
    def test_basic_accessors(self):
        r = Rectangle(2.0, 3.0, x=1.0, y=-1.0)
        assert r.area == 6.0
        assert r.x2 == 3.0
        assert r.y2 == 2.0
        assert r.min_edge == 2.0
        assert r.max_edge == 3.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Rectangle(0.0, 1.0)
        with pytest.raises(ValueError):
            Rectangle(1.0, -2.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Rectangle(math.inf, 1.0)
        with pytest.raises(ValueError):
            Rectangle(1.0, 1.0, x=math.nan)


class TestPlacement:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Placement(math.nan, 0.0, 0.0)
        with pytest.raises(ValueError):
            Placement(0.1, -math.inf, 0.0)


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

    def test_total_area_compensated(self):
        sides = (0.1,) * 100
        inst = Instance(sides)
        assert inst.total_area == math.fsum(s * s for s in sides)

    def test_declared_area_checked(self):
        Instance((0.5,), declared_total_area=0.25)
        with pytest.raises(ValueError):
            Instance((0.5,), declared_total_area=0.26)


class TestRegionAlgebra:
    def test_union_inclusion_exclusion(self):
        # two unit squares overlapping in a 0.5 x 1 strip: area 1.5
        u = RectilinearRegion.from_rectangles([Rectangle(1, 1), Rectangle(1, 1, x=0.5)])
        assert region_area(u) == pytest.approx(1.5, abs=1e-12)

    def test_union_is_idempotent(self):
        a = RectilinearRegion.from_rectangles([Rectangle(1, 1)])
        again = region_union(a, Rectangle(1, 1))
        assert region_area(again) == pytest.approx(1.0, abs=1e-12)

    def test_subtract_half(self):
        a = RectilinearRegion.from_rectangles([Rectangle(1, 1)])
        d = region_subtract(a, Rectangle(0.5, 1))
        assert region_area(d) == pytest.approx(0.5, abs=1e-12)

    def test_subtract_disjoint_keeps_area(self):
        a = RectilinearRegion.from_rectangles([Rectangle(1, 1)])
        assert region_area(region_subtract(a, Rectangle(1, 1, x=2.0))) == pytest.approx(1.0)

    def test_touching_edges_do_not_subtract(self):
        a = RectilinearRegion.from_rectangles([Rectangle(1, 1)])
        assert region_area(region_subtract(a, Rectangle(1, 1, x=1.0))) == pytest.approx(1.0)

    def test_interior_hole(self):
        a = RectilinearRegion.from_rectangles([Rectangle(3, 3)])
        d = region_subtract(a, Rectangle(1, 1, x=1, y=1))
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
            cut_rect = Rectangle(cw, ch, x=cx, y=cy)
            a = RectilinearRegion.from_rectangles([base])
            remaining = region_area(region_subtract(a, cut_rect))
            ix = max(0.0, min(base.x2, cut_rect.x2) - max(base.x, cut_rect.x))
            iy = max(0.0, min(base.y2, cut_rect.y2) - max(base.y, cut_rect.y))
            assert remaining + ix * iy == pytest.approx(base.area, abs=1e-12)

    def test_bigger_cut_nests(self):
        """Subtracting a superset cut leaves a subset region."""
        rng = np.random.default_rng(11)
        for _ in range(100):
            base = Rectangle(1.0, 1.0)
            cx = float(rng.uniform(-0.5, 1.0))
            cy = float(rng.uniform(-0.5, 1.0))
            small = Rectangle(0.4, 0.3, x=cx, y=cy)
            big = Rectangle(0.6, 0.5, x=cx - 0.1, y=cy - 0.1)
            r = RectilinearRegion.from_rectangles([base])
            after_small = region_subtract(r, small)
            after_big = region_subtract(r, big)
            # after_big minus after_small must be empty
            diff = after_big
            for rect in after_small.rectangles:
                diff = region_subtract(diff, rect)
            assert region_area(diff) == pytest.approx(0.0, abs=1e-12)

    def test_zero_area_parts_dropped(self):
        r = RectilinearRegion(parts=((0.0, 0.0, 0.0, 1.0),))
        assert r.is_empty


class TestLexicomin:
    def test_empty_region(self):
        assert region_lexicomin(RectilinearRegion(parts=())) is None

    def test_leftmost_then_lowest(self):
        r = RectilinearRegion(parts=((0.5, 0.7, 1.0, 1.0), (0.5, 0.0, 0.9, 0.2)))
        assert region_lexicomin(r) == (0.5, 0.0)

    def test_single_part_corner(self):
        r = RectilinearRegion(parts=((0.25, 0.125, 1.0, 1.0),))
        assert region_lexicomin(r) == (0.25, 0.125)


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
        with pytest.raises(PreconditionViolated):
            feasible_midpoint_region(Rectangle(1.0, 2.0), [], 1.0 + 1e-6)

    def test_negative_side_rejected(self):
        with pytest.raises(ValueError):
            feasible_midpoint_region(Rectangle(1.0, 1.0), [], -0.1)

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
            assert x >= rect.x - EPS_GEOM and y >= rect.y - EPS_GEOM
            assert x + s <= rect.x2 + EPS_GEOM and y + s <= rect.y2 + EPS_GEOM
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
    """A rectangle, obstacles (some of side 0, some sticking out), a new side."""
    W = draw(st.floats(0.8, 2.0))
    H = draw(st.floats(0.8, 2.0))
    edge = min(W, H)
    raw = draw(st.lists(
        st.tuples(st.floats(0.0, 0.35), st.floats(-0.1, 1.0), st.floats(-0.1, 1.0)),
        max_size=12,
    ))
    obstacles = [Placement(f * edge, x * W, y * H) for f, x, y in raw]
    s = draw(st.floats(0.0, 1.0)) * edge
    return Rectangle(W, H), obstacles, s


class TestIncrementalRegion:
    @settings(max_examples=150, deadline=None)
    @given(midpoint_configs())
    def test_start_region_matches_rebuild_at_every_split(self, config):
        rect, obstacles, s = config
        full = feasible_midpoint_region(rect, obstacles, s)
        assert full.parts == reference_midpoint_region(rect, obstacles, s).parts
        for m in range(len(obstacles) + 1):
            start = feasible_midpoint_region(rect, obstacles[:m], s)
            resumed = feasible_midpoint_region(rect, obstacles[m:], s, start=start)
            assert resumed.parts == full.parts


class TestVerifyPacking:
    def test_valid_fixture(self):
        report = verify_packing(reference_packing())
        assert report.valid
        assert report.violations == ()

    def test_overlap_detected(self):
        p = Packing(Rectangle(2, 2), [Placement(1, 0, 0), Placement(1, 0.5, 0.5)])
        report = verify_packing(p)
        assert not report.valid
        kinds = {v.kind for v in report.violations}
        assert "overlap" in kinds
        worst = max(v.measure for v in report.violations if v.kind == "overlap")
        assert worst == pytest.approx(0.25)  # 0.5 x 0.5 of shared interior

    def test_out_of_bounds_detected(self):
        p = Packing(Rectangle(1, 1), [Placement(0.5, 0.8, 0.1)])
        report = verify_packing(p)
        assert not report.valid
        assert report.violations[0].kind == "outside"
        assert report.violations[0].measure == pytest.approx(0.3)

    def test_touching_squares_pass(self):
        p = Packing(Rectangle(2, 1), [Placement(1, 0, 0), Placement(1, 1, 0)])
        assert verify_packing(p).valid

    def test_tolerance_honored(self):
        # overlap smaller than the tolerance is forgiven
        p = Packing(Rectangle(2, 1), [Placement(1, 0, 0), Placement(1, 1 - 1e-13, 0)])
        assert verify_packing(p).valid
        assert not verify_packing(p, tol=1e-14).valid

    def test_vector_path_matches_scalar_path(self):
        """Same random layout judged identically above and below the crossover."""
        rng = np.random.default_rng(303)
        rect = Rectangle(10, 10)
        placements = [
            Placement(float(rng.uniform(0.05, 0.4)), float(rng.uniform(0, 9.5)), float(rng.uniform(0, 9.5)))
            for _ in range(80)
        ]
        full = verify_packing(Packing(rect, placements))
        head = verify_packing(Packing(rect, placements[:60]))
        # the 60-square prefix runs the scalar path; rerun those pairs vectorized
        # by checking consistency of the shared overlap set
        head_pairs = {(v.index, v.partner) for v in head.violations if v.kind == "overlap"}
        full_pairs = {
            (v.index, v.partner)
            for v in full.violations
            if v.kind == "overlap" and v.index < 60 and (v.partner or 0) < 60
        }
        assert head_pairs == full_pairs

    def test_violation_cap(self):
        # everything at the origin: quadratic pair count gets truncated
        placements = [Placement(0.5, 0, 0) for _ in range(200)]
        report = verify_packing(Packing(Rectangle(1, 1), placements))
        assert not report.valid
        assert report.truncated
        assert len(report.violations) == 10_000


class TestSerialization:
    def test_packing_round_trip(self):
        p = reference_packing()
        d = packing_to_dict(p)
        q = packing_from_dict(d)
        assert q.rect.width == pytest.approx(p.rect.width)
        assert q.rect.height == pytest.approx(p.rect.height)
        assert len(q.placements) == len(p.placements)
        for a, b in zip(p.placements, q.placements):
            assert (a.side, a.x - p.rect.x, a.y - p.rect.y) == (b.side, b.x, b.y)

    def test_packing_dict_normalizes_origin(self):
        p = Packing(Rectangle(1, 1, x=5, y=-3), [Placement(0.5, 5.2, -2.9)])
        d = packing_to_dict(p)
        assert d["rect"] == {"w": 1.0, "h": 1.0}
        assert d["placements"][0]["x"] == pytest.approx(0.2)
        assert d["placements"][0]["y"] == pytest.approx(0.1)

    def test_instance_round_trip(self):
        inst = Instance((0.3, 0.5, 0.0))
        d = instance_to_dict(inst)
        assert instance_from_dict(d).sides == inst.sides

    def test_instance_from_dict_rejects_negative(self):
        with pytest.raises(ValueError):
            instance_from_dict({"sides": [0.5, -0.1]})
