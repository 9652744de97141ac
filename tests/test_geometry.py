"""Rectangle model, region algebra, feasible regions, and verification."""

from __future__ import annotations

import math
import tracemalloc
import warnings

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
)
from conftest import (
    Cut,
    grid_region_area,
    random_meir_moser_case,
    random_midpoint_config,
    random_moon_moser_case,
    reference_midpoint_region,
    reference_verify_packing,
    region_subtract,
)


def _region(r: Rectangle) -> RectilinearRegion:
    """The one-part region covering ``r``."""
    return RectilinearRegion(((r.x, r.y, r.x2, r.y2),))


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
    def test_subtract_half(self):
        a = _region(Rectangle(1, 1))
        d = region_subtract(a, Rectangle(0.5, 1))
        assert region_area(d) == pytest.approx(0.5, abs=1e-12)

    def test_subtract_disjoint_keeps_area(self):
        a = _region(Rectangle(1, 1))
        assert region_area(region_subtract(a, Rectangle(1, 1, x=2.0))) == pytest.approx(1.0)

    def test_touching_edges_do_not_subtract(self):
        a = _region(Rectangle(1, 1))
        assert region_area(region_subtract(a, Rectangle(1, 1, x=1.0))) == pytest.approx(1.0)

    def test_interior_hole(self):
        a = _region(Rectangle(3, 3))
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
            a = _region(base)
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
            r = _region(base)
            after_small = region_subtract(r, small)
            after_big = region_subtract(r, big)
            # after_big minus after_small must be empty
            diff = after_big
            for part in after_small.parts:
                diff = region_subtract(diff, Cut(*part))
            assert region_area(diff) == pytest.approx(0.0, abs=1e-12)

    def test_zero_area_parts_dropped(self):
        r = RectilinearRegion(parts=((0.0, 0.0, 0.0, 1.0),))
        assert not r.parts


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
    """A rectangle, obstacles (some of side 0, some sticking out), a new side.

    The rectangle sits at the origin or at a non-zero, possibly negative
    corner; obstacles may stick out past any of its four edges or lie
    wholly outside it.
    """
    W = draw(st.floats(0.8, 2.0))
    H = draw(st.floats(0.8, 2.0))
    origin = st.one_of(st.just(0.0), st.floats(-5.0, 5.0))
    x0, y0 = draw(origin), draw(origin)
    edge = min(W, H)
    raw = draw(st.lists(
        st.tuples(st.floats(0.0, 0.35), st.floats(-0.3, 1.1), st.floats(-0.3, 1.1)),
        max_size=12,
    ))
    obstacles = [Placement(f * edge, x0 + x * W, y0 + y * H) for f, x, y in raw]
    s = draw(st.floats(0.0, 1.0)) * edge
    return Rectangle(W, H, x0, y0), obstacles, s


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
    return Packing(Rectangle(2, 2), placements), tol


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
    return Packing(Rectangle(2, 2), placements), tol


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

    def test_tolerance_must_be_finite_and_non_negative(self):
        p = Packing(Rectangle(2, 2), [Placement(1, 0, 0), Placement(1, 0.5, 0.5)])
        for tol in (math.nan, math.inf, -math.inf, -1e-12):
            with pytest.raises(ValueError, match="tol"):
                verify_packing(p, tol=tol)
        assert verify_packing(p, tol=0.0).violations == verify_packing(p).violations

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
        packing = Packing(Rectangle(1, 1), [
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
        below = math.nextafter(0.25, 0.0)
        placements = ([Placement(0.25, 0.25 * k, 0.0) for k in range(4)]
                      + [Placement(0.25, 0.1 + 0.25 * k, below) for k in range(4)]
                      + [Placement(0.25, 0.05 + 0.25 * k, 1.0) for k in range(4)]
                      + [Placement(0.25, 1.5, -0.25)])
        packing = Packing(Rectangle(2, 2, y=-0.25), placements)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "_STRIP_MIN_PAIRS", 0)
            report = verify_packing(packing, tol=0.0)
        assert report == reference_verify_packing(packing, tol=0.0)
        assert len(report.violations) == 7
        # the strips leave 7 of the plain sweep's 21 candidate pairs
        assert report.pairs_examined == 7

    def test_violation_cap(self):
        # everything at the origin: quadratic pair count gets truncated
        placements = [Placement(0.5, 0, 0) for _ in range(200)]
        packing = Packing(Rectangle(1, 1), placements)
        report = verify_packing(packing)
        assert not report.valid
        assert report.truncated
        assert len(report.violations) == 10_000
        assert report == reference_verify_packing(packing)

    def test_outside_placements_come_before_capped_overlaps(self):
        # 150 stacked squares sticking out, then 150 stacked inside:
        # 150 outside entries and 2 x 11,175 overlapping pairs
        placements = [Placement(0.5, 0.8, 0.0)] * 150 + [Placement(0.5, 0.0, 0.0)] * 150
        packing = Packing(Rectangle(1, 1), placements)
        report = verify_packing(packing)
        assert report.truncated
        assert [v.kind for v in report.violations[:150]] == ["outside"] * 150
        assert report == reference_verify_packing(packing)

    def test_cap_counts_outside_placements(self):
        # six disjoint squares, all sticking out: a cap of 5 truncates
        packing = Packing(Rectangle(1, 1), [Placement(0.1, 2.0 + k, 0.0) for k in range(6)])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "_MAX_REPORTED", 5)
            report = verify_packing(packing)
        assert report.truncated and len(report.violations) == 5
        assert report == reference_verify_packing(packing, cap=5)

    def test_stacked_squares_truncate_in_bounded_memory(self):
        # 3,000 equal squares at one point: 4,498,500 overlapping pairs.
        # Chunked expansion peaks near 20 MiB; all pairs at once, near 240 MiB.
        packing = Packing(Rectangle(1, 1), [Placement(0.5, 0.0, 0.0)] * 3000)
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
        overlapping = Packing(Rectangle(2, 2), [Placement(1, 0, 0), Placement(1, 0.5, 0.5)])
        touching = Packing(Rectangle(2, 1), [Placement(1, 0, 0), Placement(1, 1, 0)])
        assert verify_packing(overlapping).pairs_examined == 1
        assert verify_packing(touching).pairs_examined == 0
        assert verify_packing(Packing(Rectangle(1, 1), ())).pairs_examined == 0

    def test_column_is_swept_along_its_height(self):
        # 1,000 touching squares stacked in one column share their x-span;
        # sweeping along y finds no candidate pair at all
        side = 2.0**-6  # dyadic, so every edge sum is exact
        packing = Packing(Rectangle(side, 1000 * side),
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
