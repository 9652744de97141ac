"""Whitespace packing: area bound, job validation, end-to-end runs."""

from __future__ import annotations

import hashlib
import math
import struct
from array import array

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import moserpack.whitespace as whitespace_module

from moserpack import (
    Instance,
    Packing,
    Placement,
    PreconditionViolated,
    Rectangle,
    WhitespaceJob,
    compute_c,
    meir_moser_pack,
    midpoint_area_bound,
    verify_packing,
    whitespace_pack,
)
from moserpack.geometry import feasible_midpoint_region, region_area, region_lexicomin
from moserpack.reduction import default_prefix_packer
from conftest import (
    abutting_runs,
    free_rectangles,
    packing_of,
    paper_count_floor,
    per_square_whitespace_pack,
    random_midpoint_config,
    reference_whitespace_pack,
)

F_REF = (2 + math.sqrt(3)) / 3
C_REF = float(compute_c(F_REF))


def make_job(n_base: int = 158, n_tail: int = 158, tail_scale: float = 1.0) -> WhitespaceJob:
    """Base of equal squares in a sqrt(F) x sqrt(F) rectangle plus an equal tail."""
    base_area = 1.0 - C_REF * C_REF
    base_side = math.sqrt(base_area / n_base)
    rect = Rectangle(math.sqrt(F_REF), F_REF / math.sqrt(F_REF))
    base = meir_moser_pack(Instance((base_side,) * n_base), rect)
    tail_side = tail_scale * C_REF / math.sqrt(n_base)
    n_tail = min(n_tail, int((C_REF * C_REF) / (tail_side * tail_side)))
    tail = Instance((tail_side,) * n_tail)
    return WhitespaceJob(base=base, tail=tail, c=C_REF, F=F_REF)


def distinct_base_job(n: int) -> WhitespaceJob:
    """n distinct base sides of total area 1 - c^2, prefix-packed, and n distinct tail sides.

    Both are drawn from one numpy generator with seed 0: the base sides
    uniformly from [0.2, 1), the tail sides from [0.3, 1) * c/sqrt(n).
    """
    rng = np.random.default_rng(0)
    weights = rng.uniform(0.2, 1.0, n)
    scale = math.sqrt((1.0 - C_REF * C_REF) / float(np.sum(weights * weights)))
    inst = Instance(tuple(float(w) * scale for w in weights))
    base = default_prefix_packer(inst, F_REF / inst.total_area)
    tail = rng.uniform(0.3, 1.0, n) * C_REF / math.sqrt(n)
    return WhitespaceJob(base=base, tail=Instance(tuple(float(s) for s in tail)),
                         c=C_REF, F=F_REF)


class TestAreaBound:
    @pytest.mark.parametrize("n", [158, 1_000, 1_000_000])
    def test_zero_at_worst_side(self, n):
        s = C_REF / math.sqrt(n)
        assert midpoint_area_bound(F_REF, n, C_REF, s) == pytest.approx(0.0, abs=1e-12)

    def test_positive_below_worst_side(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(158, 10_000))
            s = float(rng.uniform(0.0, 1.0)) * C_REF / math.sqrt(n)
            assert midpoint_area_bound(F_REF, n, C_REF, s) >= -1e-15

    def test_decreasing_in_side(self):
        lo = midpoint_area_bound(F_REF, 158, C_REF, 0.001)
        hi = midpoint_area_bound(F_REF, 158, C_REF, 0.002)
        assert lo > hi

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            midpoint_area_bound(F_REF, 0, C_REF, 0.01)
        with pytest.raises(ValueError):
            midpoint_area_bound(F_REF, 158, C_REF, -0.01)


class TestRegionLowerBound:
    def test_frame_accounting(self):
        """Region area is at least the closed-form frame-and-inflation bound."""
        rng = np.random.default_rng(23)
        for _ in range(200):
            rect, obstacles, s = random_midpoint_config(rng)
            region = feasible_midpoint_region(rect, obstacles, s)
            W, H = rect.width, rect.height
            lower = W * H - (W + H) * s + s * s - sum(
                (ob.side + s) ** 2 for ob in obstacles if ob.side > 0
            )
            assert region_area(region) >= lower - 1e-12


class TestJobValidation:
    def test_reference_job_validates(self):
        make_job().validate()

    def test_too_few_base_squares(self):
        job = make_job()
        short = packing_of(job.base.rect, job.base.placements[:157])
        with pytest.raises(PreconditionViolated, match="base count"):
            WhitespaceJob(base=short, tail=job.tail, c=job.c, F=job.F).validate()

    def test_empty_base_is_reported_by_its_count(self):
        job = make_job()
        empty = packing_of(job.base.rect, ())
        with pytest.raises(PreconditionViolated, match="base count 0 below") as err:
            WhitespaceJob(base=empty, tail=job.tail, c=job.c, F=job.F).validate()
        assert "tail max side" not in str(err.value)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0, 1, exclude_min=True, exclude_max=True),
           st.floats(1, 1e6, exclude_min=True))
    def test_count_floor_is_the_papers(self, c, F):
        # c < 1 < F gives 100 c^2 < 100 < (10F + 1/10)^2: one term is the max
        rect = Rectangle(math.sqrt(F), F / math.sqrt(F))
        with pytest.raises(PreconditionViolated) as err:
            WhitespaceJob(base=packing_of(rect, ()), tail=Instance(()), c=c, F=F).validate()
        assert f"base count 0 below required {paper_count_floor(F, c)!r}" in str(err.value)

    @pytest.mark.parametrize("F", [F_REF, 1.5, 2.0])
    @pytest.mark.parametrize("c", [C_REF, 0.5, math.nextafter(1.0, 0.0)])
    def test_count_floor_edge(self, F, c):
        need = math.ceil(paper_count_floor(F, c))
        rect = Rectangle(math.sqrt(F), F / math.sqrt(F))
        for n in (need - 1, need):
            base = packing_of(rect, [Placement(0.001, 0.0, 0.0)] * n)
            job = WhitespaceJob(base=base, tail=Instance(()), c=c, F=F)
            if n < need:
                with pytest.raises(PreconditionViolated, match="base count"):
                    job.validate()
            else:
                job.validate()

    def test_narrow_rectangle(self):
        placements = tuple(Placement(0.005, 0.0, 0.01 * i) for i in range(158))
        base = packing_of(Rectangle(0.05, F_REF / 0.05), placements)
        with pytest.raises(PreconditionViolated, match="below 1/10"):
            WhitespaceJob(base=base, tail=Instance(()), c=C_REF, F=F_REF).validate()

    def test_wrong_rectangle_area(self):
        job = make_job()
        base = packing_of(Rectangle(1.0, 1.0), job.base.placements)
        with pytest.raises(PreconditionViolated, match="!= F"):
            WhitespaceJob(base=base, tail=job.tail, c=job.c, F=job.F).validate()

    def test_tail_square_too_large(self):
        job = make_job()
        big = Instance((1.5 * C_REF / math.sqrt(158),))
        with pytest.raises(PreconditionViolated, match="tail max side"):
            WhitespaceJob(base=job.base, tail=big, c=job.c, F=job.F).validate()

    def test_tail_area_too_large(self):
        job = make_job()
        side = C_REF / math.sqrt(158)
        many = Instance((side,) * 170)  # area 170/158 * c^2 > c^2
        with pytest.raises(PreconditionViolated, match="tail area"):
            WhitespaceJob(base=job.base, tail=many, c=job.c, F=job.F).validate()

    def test_bad_constants(self):
        job = make_job()
        with pytest.raises(PreconditionViolated, match="c must lie"):
            WhitespaceJob(base=job.base, tail=job.tail, c=1.5, F=job.F).validate()
        with pytest.raises(PreconditionViolated, match="area factor"):
            WhitespaceJob(base=job.base, tail=job.tail, c=job.c, F=0.9).validate()
        # nan fails every comparison, so no other check catches it
        for F in (math.nan, math.inf):
            bad = WhitespaceJob(base=job.base, tail=job.tail, c=job.c, F=F)
            with pytest.raises(PreconditionViolated, match="must be finite and exceed 1"):
                bad.validate()
            with pytest.raises(PreconditionViolated, match="must be finite and exceed 1"):
                whitespace_pack(bad)

    def test_problems_are_collected(self):
        job = make_job()
        base = packing_of(Rectangle(1.0, 1.0), job.base.placements[:10])
        with pytest.raises(PreconditionViolated) as err:
            WhitespaceJob(base=base, tail=job.tail, c=job.c, F=job.F).validate()
        msg = str(err.value)
        assert "base count" in msg and "!= F" in msg


class TestWhitespacePack:
    def test_end_to_end(self):
        job = make_job()
        margins = []

        def watch(k, side, area, bound):
            margins.append(area - bound)
            assert bound >= -1e-12

        packing = whitespace_pack(job, on_step=watch)
        assert len(packing.placements) == 158 + len(job.tail)
        assert verify_packing(packing).valid
        assert len(margins) == len(job.tail)
        assert min(margins) > 0.0

    def test_worst_admissible_side(self):
        # tail at exactly c / sqrt(n): the bound hits zero, packing still works
        job = make_job(tail_scale=1.0)
        assert job.tail.max_side == pytest.approx(C_REF / math.sqrt(158))
        packing = whitespace_pack(job)
        assert verify_packing(packing).valid

    def test_mixed_tail_sizes(self):
        rng = np.random.default_rng(31)
        cap = C_REF / math.sqrt(158)
        sides = []
        budget = C_REF * C_REF
        while budget > cap * cap:
            s = float(rng.uniform(0.2, 1.0)) * cap
            sides.append(s)
            budget -= s * s
        job0 = make_job()
        job = WhitespaceJob(base=job0.base, tail=Instance(tuple(sides)), c=C_REF, F=F_REF)
        packing = whitespace_pack(job)
        assert verify_packing(packing).valid

    def test_zero_tail_sides_parked(self):
        job0 = make_job(n_tail=10)
        tail = Instance(job0.tail.sides + (0.0, 0.0))
        job = WhitespaceJob(base=job0.base, tail=tail, c=C_REF, F=F_REF)
        packing = whitespace_pack(job)
        assert len(packing.placements) == 158 + 12
        assert verify_packing(packing).valid
        zeros = [p for p in packing.placements if p.side == 0.0]
        assert len(zeros) == 2
        assert all((p.x, p.y) == (0.0, 0.0) for p in zeros)
        # a tail of zero sides alone has no smallest positive side
        only = WhitespaceJob(base=job0.base, tail=Instance((0.0,) * 3), c=C_REF, F=F_REF)
        packing = whitespace_pack(only)
        assert packing.placements == job0.base.placements + (Placement(0.0, 0.0, 0.0),) * 3

    def test_empty_tail(self):
        job0 = make_job(n_tail=0)
        packing = whitespace_pack(job0)
        assert len(packing.placements) == 158

    def test_placements_follow_lexicomin_rule(self):
        """Each placed midpoint equals the lexicomin of its own feasible region."""
        job = make_job(n_tail=12)
        packing = whitespace_pack(job)
        placed = list(packing.placements[:158])
        for p in packing.placements[158:]:
            region = feasible_midpoint_region(packing.rect, placed, p.side)
            point = region_lexicomin(region)
            assert point is not None
            assert point[0] == pytest.approx(p.x + p.side / 2, abs=1e-12)
            assert point[1] == pytest.approx(p.y + p.side / 2, abs=1e-12)
            placed.append(p)

    def test_validation_runs_on_pack(self):
        # a tiny c makes the existing tail overrun both tail caps
        job = make_job()
        bad = WhitespaceJob(base=job.base, tail=job.tail, c=0.01, F=job.F)
        with pytest.raises(PreconditionViolated):
            whitespace_pack(bad)


@st.composite
def mixed_run_jobs(draw):
    """A random meir-moser base packing plus a tail of equal-side runs.

    Runs of one square are distinct sides; two runs may also share a side
    and merge once the instance sorts them.  Some tails end in zero sides.
    """
    n = draw(st.integers(158, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.uniform(0.5, 1.0, size=n)
    scale = math.sqrt((1.0 - C_REF * C_REF) / float(np.sum(weights * weights)))
    W = draw(st.floats(0.8, 1.0)) * math.sqrt(F_REF)
    rect = Rectangle(W, F_REF / W)
    try:
        base = meir_moser_pack(Instance(tuple(float(w) * scale for w in weights)), rect)
    except PreconditionViolated:
        assume(False)
    cap = C_REF / math.sqrt(n)
    runs = draw(st.lists(st.tuples(st.floats(0.3, 1.0), st.integers(1, 8)),
                         min_size=1, max_size=10))
    tail: list[float] = []
    budget = C_REF * C_REF
    for frac, count in runs:
        side = frac * cap
        for _ in range(count):
            if side * side > budget or len(tail) >= 30:
                break
            tail.append(side)
            budget -= side * side
    tail += [0.0] * draw(st.integers(0, 2))
    return WhitespaceJob(base=base, tail=Instance(tuple(tail)), c=C_REF, F=F_REF)


class TestRegionReuse:
    @settings(max_examples=100, deadline=None)
    @given(mixed_run_jobs())
    def test_placements_match_rebuild_oracle(self, job):
        packing = whitespace_pack(job)
        assert packing.placements == reference_whitespace_pack(job).placements

    def test_small_squares_fill_narrow_gaps(self):
        """Tail squares land in gaps between base columns, some barely wider than them.

        Each split drops the free rectangles narrower than the smallest
        tail side, so this fails if the base or tail splits drop more.
        """
        rows, cols = 16, 10
        rect = Rectangle(math.sqrt(F_REF), F_REF / math.sqrt(F_REF))
        side = rect.height / rows * (1 - 1e-9)
        cap = C_REF / math.sqrt(rows * cols)
        tail = Instance(tuple(cap * (1 - 0.6 * i / 40) for i in range(41)))
        gaps = [0.4 * cap * (1 + 5e-5)] + [cap * f for f in (0.45, 0.5, 0.55, 0.62, 0.7,
                                                              0.8, 0.9, 1.05)]
        base = []
        x = 0.0
        for gap in gaps + [0.0]:
            base += [Placement(side, x, i * side) for i in range(rows)]
            x += side + gap
        job = WhitespaceJob(base=packing_of(rect, base), tail=tail, c=C_REF, F=F_REF)
        packing = whitespace_pack(job)
        assert packing.placements == reference_whitespace_pack(job).placements
        assert verify_packing(packing).valid
        assert all(p.x < x - side for p in packing.placements[len(base):])

    @staticmethod
    def _obstacles_handed_over(job, monkeypatch) -> list[int]:
        """Obstacle counts of every ``feasible_midpoint_region`` call of a valid run.

        Every placed square, of the base or the tail, splits the free
        rectangles that each call starts from, so none is handed over.
        """
        seen: list[int] = []
        real = whitespace_module.feasible_midpoint_region

        def counting(rect, obstacles, s, start=None):
            seen.append(len(obstacles))
            return real(rect, obstacles, s, start=start)

        monkeypatch.setattr(whitespace_module, "feasible_midpoint_region", counting)
        packing = whitespace_pack(job)
        assert len(packing.placements) == len(job.base.placements) + len(job.tail)
        assert verify_packing(packing).valid
        assert not any(seen)
        return seen

    def test_equal_tail_cuts_each_placement_once(self, monkeypatch):
        """An equal tail of 1000 squares hands no obstacles to the region.

        A per-step rebuild would hand over 158 * 1000 + 1000**2 / 2, about
        6.6e5.
        """
        n_tail = 1000
        tail = Instance((C_REF / math.sqrt(n_tail),) * n_tail)
        job = WhitespaceJob(base=make_job(n_tail=0).base, tail=tail, c=C_REF, F=F_REF)
        seen = self._obstacles_handed_over(job, monkeypatch)
        assert len(seen) == n_tail

    def test_distinct_tail_cuts_each_placement_once(self, monkeypatch):
        """A tail of 1000 distinct sides hands no obstacles to the region.

        The free rectangles serve every side, so a new side rebuilds
        nothing: a rebuild per side would hand over about 6.6e5.
        """
        n_tail = 1000
        cap = C_REF / math.sqrt(n_tail)
        tail = Instance(tuple((0.5 + 0.5 * i / n_tail) * cap for i in range(n_tail)))
        assert len(set(tail.sides)) == n_tail
        job = WhitespaceJob(base=make_job(n_tail=0).base, tail=tail, c=C_REF, F=F_REF)
        seen = self._obstacles_handed_over(job, monkeypatch)
        assert len(seen) == n_tail


def _tail(n: int, count: int = 40) -> Instance:
    """``count`` distinct sides in [0.5, 1) * c/sqrt(n), largest first."""
    cap = C_REF / math.sqrt(n)
    return Instance(tuple((1.0 - 0.5 * i / count) * cap for i in range(count)))


def _equal_base(rect: Rectangle, n: int = 158) -> Packing:
    """n equal squares of total area 1 - c^2, shelf-packed into ``rect``."""
    side = math.sqrt((1.0 - C_REF * C_REF) / n)
    return meir_moser_pack(Instance((side,) * n), rect)


def _square_rect() -> Rectangle:
    return Rectangle(math.sqrt(F_REF), F_REF / math.sqrt(F_REF))


def _with_zero_sides() -> Packing:
    placements = list(_equal_base(_square_rect()).placements)
    for k in (100, 50, 5, 5):
        placements.insert(k, Placement(0.0, 0.0, 0.0))
    return packing_of(_square_rect(), placements)


def _in_columns() -> Packing:
    h = math.sqrt(F_REF / 1.6)
    return _equal_base(Rectangle(F_REF / h, h))


def _ulp_gap(base: Packing, across, along) -> array:
    """``along`` with the last square of the first shelf one ulp from its neighbour.

    ``across`` and ``along`` are the base's corner columns across and
    along its shelves (``ys, xs`` for rows, ``xs, ys`` for columns).
    """
    last = max(k for k, v in enumerate(across) if v == 0.0)
    moved = array("d", along)
    moved[last] = math.nextafter(moved[last - 1] + base.sides[last], math.inf)
    return moved


def _with_ulp_gap() -> Packing:
    base = _equal_base(_square_rect())
    return Packing(base.rect, base.sides, _ulp_gap(base, base.ys, base.xs), base.ys)


def _with_ulp_gap_in_a_column() -> Packing:
    base = _in_columns()
    return Packing(base.rect, base.sides, base.xs, _ulp_gap(base, base.xs, base.ys))


def _with_two_sides() -> Packing:
    """100 squares of side a, then 60 of 0.8 a on the shelf where the first run ends."""
    a = math.sqrt((1.0 - C_REF * C_REF) / (100 + 60 * 0.64))
    return meir_moser_pack(Instance((a,) * 100 + (0.8 * a,) * 60), _square_rect())


def _with_negative_zero() -> Packing:
    base = _equal_base(_square_rect())

    def flip(column) -> array:
        return array("d", (-0.0 if v == 0.0 else v for v in column))

    return Packing(base.rect, base.sides, flip(base.xs), flip(base.ys))


class TestBaseRuns:
    """Each run of abutting equal base squares splits the free list once, as its box."""

    @staticmethod
    def _recorded(job, monkeypatch):
        """The packing, the boxes of the base splits and the base free list."""
        boxes: list = []
        starts: list = []
        split = whitespace_module.split_free_rectangles
        region = whitespace_module.feasible_midpoint_region

        def recording_split(free, x0, y0, x1, y1, min_edge=0.0):
            if not starts:
                boxes.append((x0, y0, x1, y1))
            return split(free, x0, y0, x1, y1, min_edge)

        def recording_region(rect, obstacles, s, start=None):
            starts.append(start)
            return region(rect, obstacles, s, start=start)

        monkeypatch.setattr(whitespace_module, "split_free_rectangles", recording_split)
        monkeypatch.setattr(whitespace_module, "feasible_midpoint_region", recording_region)
        return whitespace_pack(job), boxes, starts[0]

    @pytest.mark.parametrize("make_base", [_with_zero_sides, _in_columns, _with_ulp_gap,
                                           _with_ulp_gap_in_a_column, _with_two_sides,
                                           _with_negative_zero])
    def test_placements_match_per_square_splits(self, make_base, monkeypatch):
        base = make_base()
        n = len(base.sides)
        job = WhitespaceJob(base=base, tail=_tail(n), c=C_REF, F=F_REF)
        packing, boxes, start = self._recorded(job, monkeypatch)
        assert boxes == abutting_runs(base)
        assert len(boxes) < n / 5
        smallest = min(job.tail.sides)
        assert sorted(start) == sorted(free_rectangles(base.rect, base.placements, smallest))
        assert placement_digest(packing) == placement_digest(per_square_whitespace_pack(job))
        assert verify_packing(packing).valid

    def test_ulp_gap_and_zero_sides_end_runs(self):
        square = abutting_runs(_equal_base(_square_rect()))
        wide = abutting_runs(_in_columns())
        assert len(abutting_runs(_with_ulp_gap())) == len(square) + 1
        assert len(abutting_runs(_with_ulp_gap_in_a_column())) == len(wide) + 1
        # the second side starts on the first run's last shelf, right after it
        two = _with_two_sides()
        assert (two.ys[100], two.xs[100]) == (two.ys[99], two.xs[99] + two.sides[99])
        # a zero side inside a run splits it in two; two in a row, once
        assert len(abutting_runs(_with_zero_sides())) == len(square) + 3
        assert len(abutting_runs(_with_negative_zero())) == len(square)
        rows = {(x1 - x0 > y1 - y0) for x0, y0, x1, y1 in square}
        columns = {(x1 - x0 < y1 - y0) for x0, y0, x1, y1 in wide}
        assert rows == columns == {True}

    def test_whitespace_equal_base_splits_once_per_run(self, monkeypatch):
        """The 201-square base of perfbench's ``whitespace_equal`` splits 15 times.

        200 equal base squares and 200 equal tail squares of area 0.99 c^2;
        the reduction's case c packs the largest 201 with its prefix packer.
        """
        tail_side = math.sqrt(0.99 * C_REF * C_REF / 200)
        base_side = math.sqrt((1.0 - 200 * tail_side * tail_side) / 200)
        prefix = Instance((base_side,) * 200 + (tail_side,))
        base = default_prefix_packer(prefix, F_REF / prefix.total_area)
        assert len(base.sides) == 201
        job = WhitespaceJob(base=base, tail=Instance((tail_side,) * 199), c=C_REF, F=F_REF)
        calls = []
        split = whitespace_module.split_free_rectangles

        def counting(free, *box):
            calls.append(box)
            return split(free, *box)

        monkeypatch.setattr(whitespace_module, "split_free_rectangles", counting)
        packing = whitespace_pack(job)
        assert len(packing.sides) == 400
        assert len(calls) == 15 + 199
        assert calls[:15] == [box + (tail_side,) for box in abutting_runs(base)]


def placement_digest(packing: Packing) -> str:
    """sha256 of every placement's (side, x, y) as little-endian doubles."""
    h = hashlib.sha256()
    for p in packing.placements:
        h.update(struct.pack("<3d", p.side, p.x, p.y))
    return h.hexdigest()


class TestGoldenPlacements:
    """Pinned placements: a region change that moves any square fails here.

    The hashes were taken from the implementation that cut one obstacle
    at a time with ``max``/``min`` clipping and rebuilt the region from
    every placed square whenever the side changed.
    """

    def test_equal_tail(self):
        packing = whitespace_pack(make_job(n_tail=60))
        assert len(packing.placements) == 158 + 60
        assert placement_digest(packing) == (
            "effe37faa9cd1119a9c41ae5d70965533f846fb9d6ccee9a0413698343d98e9b"
        )

    def test_distinct_tail_sides(self):
        rng = np.random.default_rng(5)
        cap = C_REF / math.sqrt(158)
        tail = Instance(tuple(float(s) for s in rng.uniform(0.3, 1.0, 60) * cap))
        assert len(set(tail.sides)) == 60
        job = WhitespaceJob(base=make_job(n_tail=0).base, tail=tail, c=C_REF, F=F_REF)
        packing = whitespace_pack(job)
        assert len(packing.placements) == 158 + 60
        assert placement_digest(packing) == (
            "d7903924d34a816f53d1bcd0eebb72835f0609fd638375982785f131c4bc8b52"
        )

    def test_distinct_tail_ladder_rung(self):
        """400 base squares and 400 distinct tail sides, as demos/whitespace_ladder.py packs them."""
        rng = np.random.default_rng(0)
        cap = C_REF / math.sqrt(400)
        tail = Instance(tuple(float(s) for s in rng.uniform(0.3, 1.0, 400) * cap))
        assert len(set(tail.sides)) == 400
        job = WhitespaceJob(base=make_job(n_base=400, n_tail=0).base, tail=tail,
                            c=C_REF, F=F_REF)
        packing = whitespace_pack(job)
        assert len(packing.placements) == 800
        assert placement_digest(packing) == (
            "0a1fc970927d6384b81f8a76efd5e95b9e40f994f56f9f02af2d94ae5340cf2b"
        )

    def test_distinct_base_ladder_rung(self):
        """400 distinct base sides and 400 distinct tail sides, as demos/whitespace_ladder.py packs them.

        A shelf base of distinct sides leaves many free rectangles, where
        an equal base leaves three.
        """
        job = distinct_base_job(400)
        assert len({p.side for p in job.base.placements}) == 400
        packing = whitespace_pack(job)
        assert len(packing.placements) == 800
        assert placement_digest(packing) == (
            "bce0bd8ce2a117df47fdc40d175bc988557275a0dfb73cff336c8022b8e8fd12"
        )
