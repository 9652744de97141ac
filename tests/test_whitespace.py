"""Whitespace packing: area bound, job validation, end-to-end runs."""

from __future__ import annotations

import hashlib
import math
import struct

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
from conftest import random_midpoint_config, reference_whitespace_pack

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
        short = Packing(job.base.rect, job.base.placements[:157])
        with pytest.raises(PreconditionViolated, match="base count"):
            WhitespaceJob(base=short, tail=job.tail, c=job.c, F=job.F).validate()

    def test_narrow_rectangle(self):
        placements = tuple(Placement(0.005, 0.0, 0.01 * i) for i in range(158))
        base = Packing(Rectangle(0.05, F_REF / 0.05), placements)
        with pytest.raises(PreconditionViolated, match="below 1/10"):
            WhitespaceJob(base=base, tail=Instance(()), c=C_REF, F=F_REF).validate()

    def test_wrong_rectangle_area(self):
        job = make_job()
        base = Packing(Rectangle(1.0, 1.0), job.base.placements)
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

    def test_problems_are_collected(self):
        job = make_job()
        base = Packing(Rectangle(1.0, 1.0), job.base.placements[:10])
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
        r = packing.rect
        assert all((p.x, p.y) == (r.x, r.y) for p in zeros)

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
    @settings(max_examples=25, deadline=None)
    @given(mixed_run_jobs())
    def test_placements_match_rebuild_oracle(self, job):
        packing = whitespace_pack(job)
        assert packing.placements == reference_whitespace_pack(job).placements

    def test_equal_tail_cuts_each_placement_once(self, monkeypatch):
        """An equal tail of 1000 squares hands O(n) obstacles to the region.

        A per-step rebuild would hand over 158 * 1000 + 1000**2 / 2, about
        6.6e5; carrying the region costs the base once plus one per step.
        """
        n_tail = 1000
        base = make_job(n_tail=0).base
        tail = Instance((C_REF / math.sqrt(n_tail),) * n_tail)
        job = WhitespaceJob(base=base, tail=tail, c=C_REF, F=F_REF)
        seen: list[int] = []
        real = whitespace_module.feasible_midpoint_region

        def counting(rect, obstacles, s, start=None):
            seen.append(len(obstacles))
            return real(rect, obstacles, s, start=start)

        monkeypatch.setattr(whitespace_module, "feasible_midpoint_region", counting)
        packing = whitespace_pack(job)
        assert len(seen) == n_tail
        assert sum(seen) <= 2 * n_tail
        assert len(packing.placements) == 158 + n_tail
        assert verify_packing(packing).valid


def placement_digest(packing: Packing) -> str:
    """sha256 of every placement's (side, x, y) as little-endian doubles."""
    h = hashlib.sha256()
    for p in packing.placements:
        h.update(struct.pack("<3d", p.side, p.x, p.y))
    return h.hexdigest()


class TestGoldenPlacements:
    """Pinned placements: a region change that moves any square fails here.

    The hashes were taken from the implementation that cut one obstacle
    at a time with ``max``/``min`` clipping.
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
