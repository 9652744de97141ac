"""Shelf packers and their admission inequalities."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import moserpack.shelf as shelf_module

from moserpack import (
    Instance,
    PackFailure,
    PreconditionViolated,
    Rectangle,
    PackParams,
    compute_c,
    meir_moser_pack,
    moon_moser_pack,
    reduce_and_pack,
    small_s1_pack,
    verify_packing,
)
from moserpack.geometry import EPS_GEOM
from moserpack.shelf import meir_moser_holds, moon_moser_holds
from conftest import (
    circumference_admits,
    random_meir_moser_case,
    random_moon_moser_case,
    reference_shelf_positions,
)


def assert_packs(packing, inst):
    report = verify_packing(packing)
    assert report.valid, report.violations[:3]
    assert [p.side for p in packing.placements] == list(inst.sides)


class TestPreconditions:
    def test_moon_moser_boundary(self):
        # 2V == a1 a2 exactly
        assert moon_moser_holds(V=1.0, x=1.0, a1=1.0, a2=2.0)
        assert not moon_moser_holds(V=1.0, x=1.0, a1=1.0, a2=1.99)

    def test_moon_moser_needs_edge_room(self):
        assert not moon_moser_holds(V=1.0, x=1.5, a1=1.0, a2=4.0)

    def test_meir_moser_tight_square(self):
        # single square filling the rectangle: V = x^2, bound met with equality
        assert meir_moser_holds(V=0.25, x=0.5, a1=0.5, a2=0.5)

    def test_circumference_threshold(self):
        # F = 1.25, V = 1, C = 3 puts the cutoff at 1/12
        assert circumference_admits(1.25, 1.0, 3.0, 1.0 / 12.0)
        assert not circumference_admits(1.25, 1.0, 3.0, 0.084)

    def test_circumference_domain(self):
        with pytest.raises(ValueError):
            circumference_admits(1.0, 1.0, 3.0, 0.1)
        with pytest.raises(ValueError):
            circumference_admits(1.25, 0.0, 3.0, 0.1)
        with pytest.raises(ValueError):
            circumference_admits(1.25, 1.0, 3.0, -0.1)


class TestMoonMoser:
    def test_single_square_doubled_area(self):
        inst = Instance((1.0,))
        packing = moon_moser_pack(inst, Rectangle(1.0, 2.0))
        assert_packs(packing, inst)

    def test_precondition_enforced(self):
        with pytest.raises(PreconditionViolated):
            moon_moser_pack(Instance((1.0,)), Rectangle(1.2, 1.2))

    def test_orientation_normalized(self):
        """Wide and tall rectangles produce mirror-equivalent packings."""
        inst = Instance((0.5, 0.4, 0.3, 0.2, 0.2))
        wide = moon_moser_pack(inst, Rectangle(2.0, 0.58))
        tall = moon_moser_pack(inst, Rectangle(0.58, 2.0))
        assert_packs(wide, inst)
        assert_packs(tall, inst)
        assert {(p.side, p.x, p.y) for p in tall.placements} == {
            (p.side, p.y, p.x) for p in wide.placements
        }

    def test_zero_sides_pack(self):
        inst = Instance((0.5, 0.0, 0.0))
        packing = moon_moser_pack(inst, Rectangle(0.5, 1.0))
        assert len(packing.placements) == 3
        assert verify_packing(packing).valid

    def test_randomized(self):
        rng = np.random.default_rng(404)
        for _ in range(500):
            inst, rect = random_moon_moser_case(rng)
            assert_packs(moon_moser_pack(inst, rect), inst)


class TestMeirMoser:
    def test_square_instance_square_rect(self):
        inst = Instance((0.7,))
        packing = meir_moser_pack(inst, Rectangle(0.7, 0.7))
        assert_packs(packing, inst)

    def test_precondition_enforced(self):
        # V = 1, x = 1: bound is 1 only if one edge equals x
        with pytest.raises(PreconditionViolated):
            meir_moser_pack(Instance((1.0, 0.5)), Rectangle(1.05, 1.15))

    def test_randomized(self):
        rng = np.random.default_rng(505)
        for _ in range(500):
            inst, rect = random_meir_moser_case(rng)
            assert_packs(meir_moser_pack(inst, rect), inst)

    def test_circumference_implies_meir_moser(self):
        """x <= (F-1)V/C admits every area-FV rectangle of half-circumference <= C."""
        rng = np.random.default_rng(606)
        for _ in range(200):
            F = float(rng.uniform(1.3, 2.5))
            V = float(rng.uniform(0.5, 2.0))
            C = 2.0 * math.sqrt(F * V) * float(rng.uniform(1.0, 1.5))
            x = (F - 1) * V / C * float(rng.uniform(0.5, 1.0))
            assert circumference_admits(F, V, C, x)
            # rectangle of area FV with a1 + a2 <= C
            r_hi = (C / (2 * math.sqrt(F * V))) ** 2
            r = float(rng.uniform(1.0, max(1.0, r_hi * 0.9)))
            a1 = math.sqrt(F * V * r)
            a2 = F * V / a1
            assert a1 + a2 <= C + 1e-9
            m = int(V // (x * x))
            sides = [x] * m
            rest = V - m * x * x
            if rest > 1e-15:
                sides.append(math.sqrt(rest))
            inst = Instance(tuple(sides))
            packing = meir_moser_pack(inst, Rectangle(a1, a2))
            assert verify_packing(packing).valid


class TestSmallS1:
    def test_hundred_tenth_squares(self):
        F = (2 + math.sqrt(3)) / 3
        inst = Instance((0.1,) * 100)
        packing = small_s1_pack(inst, F)
        assert_packs(packing, inst)
        side = math.sqrt(F)
        assert packing.rect.width == pytest.approx(side)
        assert packing.rect.height == pytest.approx(side)

    def test_many_small_squares(self):
        n = 2000
        inst = Instance((math.sqrt(1.0 / n),) * n)
        packing = small_s1_pack(inst, 1.37)
        assert verify_packing(packing).valid

    def test_large_first_square_rejected(self):
        inst = Instance((0.11,) + (math.sqrt((1 - 0.11**2) / 99),) * 99)
        with pytest.raises(PreconditionViolated):
            small_s1_pack(inst, 1.3)

    def test_wrong_total_area_rejected(self):
        with pytest.raises(PreconditionViolated):
            small_s1_pack(Instance((0.1,) * 50), 1.3)

    def test_factor_below_floor_rejected(self):
        with pytest.raises(PreconditionViolated):
            small_s1_pack(Instance((0.1,) * 100), 1.2)


class TestShelfStructure:
    def test_first_fit_reuses_open_shelves(self):
        # the 0.1 square back-fills the first shelf instead of opening a third
        inst = Instance((0.5, 0.3, 0.3, 0.3, 0.1))
        rect = Rectangle(0.9, 1.0)
        packing = meir_moser_pack(inst, rect, require_precondition=False)
        p = packing.placements
        assert (p[0].x, p[0].y) == (0.0, 0.0)
        assert (p[1].x, p[1].y) == (0.5, 0.0)
        assert (p[2].x, p[2].y) == (0.0, 0.5)
        assert (p[3].x, p[3].y) == pytest.approx((0.3, 0.5))
        assert (p[4].x, p[4].y) == pytest.approx((0.8, 0.0))

    def test_failure_reports_rectangle(self):
        with pytest.raises(PackFailure) as err:
            meir_moser_pack(
                Instance((0.6, 0.6, 0.6)), Rectangle(0.7, 1.0), require_precondition=False
            )
        assert "0.7" in str(err.value)


def corners(columns):
    """The engine's two corner columns as (u, v) pairs, or None on a failed fit."""
    return None if columns is None else list(zip(*columns))


@pytest.fixture
def full_scan_checked(monkeypatch):
    """Check every shelf-engine call against the full-scan oracle.

    Yields the list of calls made, True for each that placed every square.
    """
    calls: list[bool] = []
    real = shelf_module._shelf_positions

    def checked(sides, a1, a2):
        columns = real(sides, a1, a2)
        assert corners(columns) == reference_shelf_positions(sides, a1, a2)
        calls.append(columns is not None)
        return columns

    monkeypatch.setattr(shelf_module, "_shelf_positions", checked)
    return calls


class TestDeadShelfSkip:
    """Starting the first-fit scan after the dead shelves picks the same shelves."""

    def test_acceptance_generators_match_full_scan(self, full_scan_checked):
        rng = np.random.default_rng(20250815)  # the seed of test_c6
        for _ in range(10_000):
            moon_moser_pack(*random_moon_moser_case(rng))
        for _ in range(10_000):
            meir_moser_pack(*random_meir_moser_case(rng))
        assert full_scan_checked == [True] * 20_000

    def test_case_b_matches_full_scan(self, full_scan_checked):
        F = (2 + math.sqrt(3)) / 3
        toy = PackParams.toy_params(F=F, c=float(compute_c(F)), N0=4, N1=158, N=1167)
        tiny = math.sqrt(0.1 / 30_000)
        result = reduce_and_pack(Instance((0.6, 0.6, 0.3, 0.3) + (tiny,) * 30_000), toy)
        assert result.case == "b"
        assert True in full_scan_checked and False in full_scan_checked

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, 0.05, 0.1, 0.125, 0.2, 0.25, 0.3, 0.5, 0.7]),
                 max_size=60),
        st.floats(0.7, 1.3),
        st.floats(0.7, 3.0),
    )
    def test_random_sorted_sides_match_full_scan(self, sides, a1, a2):
        sides = tuple(sorted(sides, reverse=True))
        got = shelf_module._shelf_positions(sides, a1, a2)
        assert corners(got) == reference_shelf_positions(sides, a1, a2)


@st.composite
def equal_runs(draw):
    """Sorted sides in runs of 1 to 500 equal copies, and the shelf rectangle.

    The values include zeros, sides that do not add exactly (0.1, 1/3),
    one so small that a shelf holds a whole run, and sides at and next to
    the shelf room a1 + EPS_GEOM.
    """
    a1 = draw(st.floats(0.7, 1.3))
    room = a1 + EPS_GEOM
    values = [0.0, 1e-17, 0.013, 0.05, 0.1, 1 / 3, a1 / 3, a1 / 2, 0.6 * a1,
              math.nextafter(room, 0.0), room, a1]
    runs = draw(st.lists(st.tuples(st.sampled_from(values), st.integers(1, 500)),
                         min_size=1, max_size=5))
    sides = tuple(sorted((s for s, k in runs for _ in range(k)), reverse=True))
    return sides, a1, draw(st.floats(0.7, 12.0))


class TestBulkRuns:
    """A run of equal sides placed at once lands where first fit puts each square."""

    @settings(max_examples=200, deadline=None)
    @given(equal_runs())
    def test_long_equal_runs_match_full_scan(self, case):
        sides, a1, a2 = case
        got = shelf_module._shelf_positions(sides, a1, a2)
        assert corners(got) == reference_shelf_positions(sides, a1, a2)

    def test_equal_run_spans_open_and_new_shelves(self, full_scan_checked):
        # 0.55 opens a shelf with 0.45 of room; the run of 0.1 fills it,
        # then new shelves from x = 0, all with the same edges
        inst = Instance((0.55,) + (0.1,) * 37)
        packing = meir_moser_pack(inst, Rectangle(1.0, 2.0), require_precondition=False)
        assert full_scan_checked == [True]
        assert_packs(packing, inst)
        rows = {}
        for p in packing.placements[1:]:
            rows.setdefault(p.y, []).append(p.x)
        assert [len(xs) for xs in rows.values()] == [4, 10, 10, 10, 3]
        assert list(rows.values())[1] == list(rows.values())[2]


class TestSmallestPositive:
    """The bisection finds the side a scan over every positive side finds."""

    @staticmethod
    def _scan(sides) -> float:
        return min((s for s in sides if s > 0.0), default=0.0)

    @pytest.mark.parametrize("sides", [
        (), (0.0,), (0.0, 0.0, 0.0), (0.4,), (0.3, 0.3, 0.3),
        (0.5, 0.2, 0.2, 0.0, 0.0), (0.5, 0.0), (5e-324, 0.0), (0.7, 0.6, 5e-324),
    ])
    def test_matches_full_scan(self, sides):
        assert shelf_module._smallest_positive(sides) == self._scan(sides)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 5e-324, 0.05, 0.1, 0.3, 0.7]), max_size=40))
    def test_random_sorted_sides_match_full_scan(self, sides):
        sides = Instance(tuple(sides)).sides
        assert shelf_module._smallest_positive(sides) == self._scan(sides)
