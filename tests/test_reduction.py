"""Case dispatch and gluing in the end-to-end reduction driver."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from moserpack import (
    Instance,
    MoserpackError,
    PackFailure,
    PackParams,
    Placement,
    Packing,
    PreconditionViolated,
    compute_c,
    reduce_and_pack,
    result_to_dict,
    verify_packing,
)
from moserpack.reduction import default_prefix_packer, glue_pack

from conftest import padded_reduce_and_pack

F_REF = (2 + math.sqrt(3)) / 3
C_REF = float(compute_c(F_REF))

TOY = PackParams.toy_params(F=F_REF, c=C_REF, N0=4, N1=158, N=1167)
TOY_LOW_S1 = PackParams.toy_params(F=F_REF, c=C_REF, N0=4, N1=158, N=1167,
                                   s1_threshold=0.07)


def case_a_instance() -> Instance:
    return Instance((0.1,) * 100)


def case_b_instance(m: int = 5300) -> Instance:
    t = math.sqrt(0.5 / m)
    return Instance((0.5, 0.5) + (t,) * m)


def case_c_instance() -> Instance:
    big_area = 1.0 - 0.99 * C_REF * C_REF
    small_area = 0.99 * C_REF * C_REF
    big = math.sqrt(big_area / 158)
    small = math.sqrt(small_area / 160)
    return Instance((big,) * 158 + (small,) * 160)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            PackParams.toy_params(F=1.0, c=0.1, N0=1, N1=2, N=3)
        with pytest.raises(ValueError):
            PackParams.toy_params(F=1.3, c=1.1, N0=1, N1=2, N=3)
        with pytest.raises(ValueError):
            PackParams.toy_params(F=1.3, c=0.1, N0=3, N1=2, N=4)
        with pytest.raises(ValueError):
            PackParams.toy_params(F=1.3, c=0.1, N0=1, N1=2, N=3, s1_threshold=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_factor(self, bad):
        with pytest.raises(ValueError, match="area factor"):
            PackParams(F=bad, c=0.1, N0=1, N1=2, N=3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_s1_threshold(self, bad):
        with pytest.raises(ValueError, match="s1 threshold"):
            PackParams(F=1.3, c=0.1, N0=1, N1=2, N=3, s1_threshold=bad)

    def test_certified_pipeline(self):
        params = PackParams.certified()
        assert not params.toy
        assert (params.N0, params.N1, params.N) == (
            93_752_341,
            93_752_341,
            692_741_307,
        )
        assert params.c == pytest.approx(C_REF)

    def test_certified_integral_chain(self):
        params = PackParams.certified(use_integral_n0=True)
        assert (params.N0, params.N1, params.N) == (491_225, 491_225, 3_629_689)

    def test_dict_form(self):
        d = result_to_dict(reduce_and_pack(case_a_instance(), TOY))["params"]
        assert d["toy"] is True
        assert d["N1"] == 158


class TestPrefixPacker:
    def test_square_when_meir_moser_holds(self):
        # one dominant square plus a sliver: the square target admits meir-moser
        inst = Instance((0.5, 0.05))
        packing = default_prefix_packer(inst, F_REF)
        assert packing.rect.width == pytest.approx(packing.rect.height)
        assert packing.rect.area == pytest.approx(F_REF * inst.total_area, rel=1e-12)
        assert verify_packing(packing).valid

    def test_aspect_scan_when_square_fails(self):
        # two half-side squares cannot satisfy meir-moser on the square rect
        inst = Instance((0.5, 0.5))
        packing = default_prefix_packer(inst, F_REF)
        assert verify_packing(packing).valid
        assert packing.rect.area == pytest.approx(F_REF * 0.5, rel=1e-12)
        assert packing.rect.min_edge >= 0.5 - 1e-12

    def test_hard_flat_prefix(self):
        # the case-b head: needs a rectangle flatter than meir-moser allows
        inst = Instance((0.6, 0.6, 0.3, 0.3))
        packing = default_prefix_packer(inst, F_REF)
        assert verify_packing(packing).valid
        assert packing.rect.area == pytest.approx(F_REF * 0.9, rel=1e-12)

    def test_zero_area_rejected(self):
        with pytest.raises(PreconditionViolated):
            default_prefix_packer(Instance((0.0,)), F_REF)


class TestGlue:
    def test_single_square_prefix(self):
        # prefix of one square of half the area; tail splits the rest evenly
        m = 5243
        side = math.sqrt(0.5 / m)
        inst = Instance((1 / math.sqrt(2),) + (side,) * m)
        packing = glue_pack(inst, 1, TOY)
        assert len(packing.placements) == m + 1
        assert packing.rect.area == pytest.approx(F_REF, abs=1e-12)
        assert verify_packing(packing).valid

    def test_prefix_and_tail_share_the_glued_edge(self):
        m = 5243
        side = math.sqrt(0.5 / m)
        inst = Instance((1 / math.sqrt(2),) + (side,) * m)
        packing = glue_pack(inst, 1, TOY)
        # the merged rectangle's height is the shared edge W'
        W = packing.rect.height
        assert W <= math.sqrt(F_REF * 0.5) + 1e-12
        assert W >= 1 / math.sqrt(2) - 1e-12
        assert all(p.y + p.side <= W + 1e-12 for p in packing.placements)

    def test_split_out_of_range(self):
        inst = Instance((0.8, 0.6))
        with pytest.raises(PreconditionViolated, match="split"):
            glue_pack(inst, 2, TOY)

    def test_tail_area_too_small(self):
        inst = Instance((math.sqrt(0.996), math.sqrt(0.004)))
        with pytest.raises(PreconditionViolated, match="tail area"):
            glue_pack(inst, 1, TOY)

    def test_tail_edge_above_bound(self):
        inst = Instance((math.sqrt(0.98), math.sqrt(0.02)))
        with pytest.raises(PreconditionViolated, match="edge bound"):
            glue_pack(inst, 1, TOY)


class TestDispatch:
    def test_case_a(self):
        result = reduce_and_pack(case_a_instance(), TOY)
        assert result.case == "a"
        assert result.split_index is None
        side = math.sqrt(F_REF)
        assert result.packing.rect.width == pytest.approx(side)
        assert verify_packing(result.packing).valid

    def test_case_a_takes_priority(self):
        # even with plenty of late area, a small first edge goes to case a
        n = 200
        inst = Instance((math.sqrt(1.0 / n),) * n)
        assert reduce_and_pack(inst, TOY).case == "a"

    def test_case_b(self):
        result = reduce_and_pack(case_b_instance(), TOY)
        assert result.case == "b"
        assert result.split_index == 4
        assert result.packing.rect.area == pytest.approx(F_REF, abs=1e-12)
        assert verify_packing(result.packing).valid

    def test_case_c(self):
        result = reduce_and_pack(case_c_instance(), TOY_LOW_S1)
        assert result.case == "c"
        assert result.split_index == 159
        assert result.packing.rect.area == pytest.approx(F_REF, abs=1e-12)
        assert len(result.packing.placements) == 318
        assert verify_packing(result.packing).valid

    def test_case_c_short_instance_is_its_own_prefix(self):
        # all area in the first squares, nothing small: the index bound
        # lies past the instance, which is packed as it is, tail empty
        inst = Instance((0.8, 0.6))
        result = reduce_and_pack(inst, TOY)
        assert result.case == "c"
        assert result.split_index == 159
        assert len(result.packing.placements) == 2
        assert verify_packing(result.packing).valid

    @pytest.mark.parametrize("integral", [False, True], ids=["simple", "integral"])
    def test_certified_params_pack_short_instances(self, integral):
        params = PackParams.certified(use_integral_n0=integral)
        result = reduce_and_pack(Instance((0.8, 0.6)), params)
        assert result.case == "c"
        assert result.split_index == params.N1 + 1
        assert sorted(p.side for p in result.packing.placements) == [0.6, 0.8]
        assert verify_packing(result.packing).valid

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=33))
    def test_short_instances_match_padded_driver(self, raw):
        # The driver once padded a short case-c prefix with zero sides; the
        # packing it gives now is that one without the zero-side placements.
        scale = math.sqrt(math.fsum(s * s for s in raw))
        inst = Instance(tuple(s / scale for s in raw))
        assert inst.max_side > TOY.s1_threshold
        try:
            want = padded_reduce_and_pack(inst, TOY)
        except PackFailure:
            with pytest.raises(PackFailure):
                reduce_and_pack(inst, TOY)
            return
        got = reduce_and_pack(inst, TOY)
        assert (got.case, got.split_index) == ("c", want.split_index)
        assert got.packing.rect == want.packing.rect
        assert got.packing.placements == tuple(
            p for p in want.packing.placements if p.side > 0.0
        )
        assert verify_packing(got.packing).valid

    def test_total_area_enforced(self):
        with pytest.raises(PreconditionViolated, match="total area"):
            reduce_and_pack(Instance((0.5, 0.5)), TOY)

    def test_empty_instance_rejected(self):
        with pytest.raises(PreconditionViolated):
            reduce_and_pack(Instance(()), TOY)

    def test_inconsistent_params_detected(self):
        params = PackParams.toy_params(F=1.25, c=0.5, N0=1, N1=2, N=4)
        a = math.sqrt((1.0 - 2 * 0.09) / 2)
        inst = Instance((a, a, 0.3, 0.3))
        with pytest.raises(MoserpackError, match="inconsistent"):
            reduce_and_pack(inst, params)

    def test_index_past_a_million_squares(self):
        # n = N1 + 1 = 2,000,001 squares: the prefix is the instance itself
        params = PackParams.toy_params(F=F_REF, c=C_REF, N0=1,
                                       N1=2_000_000, N=3_000_000)
        result = reduce_and_pack(Instance((0.8, 0.6)), params)
        assert result.split_index == 2_000_001
        assert len(result.packing.placements) == 2
        assert verify_packing(result.packing).valid

    def test_result_dict_shape(self):
        result = reduce_and_pack(case_a_instance(), TOY)
        d = result_to_dict(result)
        assert d["case"] == "a"
        assert "split_index" not in d
        assert d["params"]["toy"] is True
        assert len(d["packing"]["placements"]) == 100


class TestReplacementSquare:
    def test_shrinking_the_split_placement_stays_valid(self):
        """A packing built for s_1..s_{n-1} plus the area remainder square
        still works after shrinking that square to the true s_n."""
        inst = case_c_instance()
        sides = inst.sides
        n = 159
        head = sides[: n - 1]
        remainder = math.sqrt(1.0 - math.fsum(s * s for s in head))
        assert remainder >= sides[n - 1]
        augmented = Instance(head + (remainder,))
        result = reduce_and_pack(augmented, TOY_LOW_S1)
        packing = result.packing
        idx = next(
            i for i, p in enumerate(packing.placements)
            if p.side == pytest.approx(remainder, abs=1e-12)
        )
        shrunk = list(packing.placements)
        old = shrunk[idx]
        shrunk[idx] = Placement(sides[n - 1], old.x, old.y)
        assert verify_packing(Packing(packing.rect, tuple(shrunk))).valid
