"""Constant derivation chain: c, delta, the index thresholds, refinements.

Expected values are frozen from independent oracles: root-finding instead of
the closed-form radical, mpmath quadrature instead of the antiderivative, and
mpmath's digamma-based harmonic numbers instead of direct summation.
"""

from __future__ import annotations

import json
import math
from decimal import Decimal

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from moserpack import (
    NOVOTNY,
    Instance,
    MoserpackError,
    build_report,
    compute_c,
    delta_refined,
    delta_simple,
    factor_float,
    report_to_dict,
)
from moserpack.cli import cli_dispatch
from moserpack.constants import (
    delta_of_V,
    derive_N,
    find_small_index,
    harmonic_range_sum,
    n0_integral,
    n0_simple,
    two_square_worst_case,
)
from moserpack.constants import _harmonic_lower

from conftest import harmonic_bounds, k_sample_grid, two_square_ternary_search

F_GRID = [factor_float(NOVOTNY), 1.26, 1.28, 1.30, 1.33, 1.37]


def oracle_c(F: float, dps: int = 60):
    """Root of 5c^2 + 3c - (F - 1) by Newton iteration, not the radical."""
    with mp.workdps(dps):
        return mpmath.findroot(lambda c: 5 * c * c + 3 * c - (mp.mpf(F) - 1), 0.07)


def oracle_n0_integral(F, dps: int = 60) -> int:
    """1 + floor of mpmath.quad of delta(V)^-2 over [c^2, 1], not the antiderivative.

    The integrand peaks at V = c^2, which is as small as 1e-19 for the
    factors drawn below, so the interval is split at every power of ten in
    between.  The quadrature's error estimate must leave the floor
    unambiguous.
    """
    with mp.workdps(dps):
        Fv = mp.mpf(F)
        a = oracle_c(F, dps) ** 2
        integrand = lambda V: ((10 * Fv / V + mp.mpf(1) / 10) / (Fv - 1)) ** 2
        decades = int(mp.ceil(-mp.log10(a)))
        points = [a] + [mp.mpf(10) ** -k for k in range(decades - 1, 0, -1)] + [mp.mpf(1)]
        q, err = mpmath.quad(integrand, points, error=True)
        assert mp.floor(q - err) == mp.floor(q + err), (F, q, err)
        return 1 + int(mp.floor(q))


# Factors in (1, 3]: decimal strings 1 + m 10^-e close to 1, decimals with up
# to six places, and floats.  F - 1 stays at least 1e-9, where the oracle's
# 60 digits still resolve the floor of an integral of size about 1e39.
FACTORS = st.one_of(
    st.builds(lambda e, m: f"1.{m:0{e}d}", st.integers(3, 9), st.integers(1, 999)),
    st.decimals(Decimal("1.000001"), Decimal(3), places=6).map(str),
    st.floats(1 + 1e-9, 3.0),
)


# Factors in (1, 9), where K is non-empty: decimal strings 1 + m 10^-e, decimals
# with up to six places, and floats.
K_FACTORS = st.one_of(
    st.builds(lambda e, m: f"1.{m:0{e}d}", st.integers(3, 9), st.integers(1, 999)),
    st.decimals(Decimal("1.000001"), Decimal("8.999999"), places=6).map(str),
    st.floats(1 + 1e-9, 9.0, exclude_max=True),
)


def oracle_f(F, V, H):
    """f(V, H) = a / (q + sqrt(q^2 - a)), the smaller root in cancellation-free form."""
    Fv = mp.mpf(F)
    q = (H + Fv * V / H) / 4
    a = (Fv - 1) * V / 2
    return a / (q + mp.sqrt(max(q * q - a, 0)))


def oracle_c2(F):
    """c^2 from the radical rewritten without cancellation: c = (F-1)/5 / (sqrt(...) + 3/10)."""
    x = (mp.mpf(F) - 1) / 5
    return (x / (mp.sqrt(mp.mpf("0.09") + x) + mp.mpf("0.3"))) ** 2


def point_of_K(F, c2, u, w):
    """The point of K at fractions (u, w) of its V range and of its H range at that V.

    H runs from the larger of sqrt(F V) and the larger root of
    H^2 - 4 sqrt(a) H + F V, below which the discriminant is negative, up to 10 F.
    """
    Fv = mp.mpf(F)
    V = c2 + mp.mpf(u) * (1 - c2)
    a = (Fv - 1) * V / 2
    h_lo = mp.sqrt(Fv * V)
    if 4 * a > Fv * V:
        h_lo = max(h_lo, 2 * mp.sqrt(a) + mp.sqrt(4 * a - Fv * V))
    return V, h_lo + mp.mpf(w) * (10 * Fv - h_lo)


class TestFactor:
    def test_named_factor(self):
        assert factor_float(NOVOTNY) == pytest.approx((2 + math.sqrt(3)) / 3, abs=1e-15)

    def test_numeric_passthrough(self):
        assert factor_float(1.37) == 1.37

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            factor_float("euler")

    def test_factor_must_exceed_one(self):
        with pytest.raises(ValueError):
            factor_float(1.0)
        with pytest.raises(ValueError):
            factor_float(0.5)

    @pytest.mark.parametrize("F", ["inf", "Infinity", math.inf, "nan"], ids=repr)
    @pytest.mark.parametrize("func", [
        compute_c, factor_float, delta_simple, lambda F: delta_of_V(F, 0.5),
        n0_simple, build_report,
    ], ids=["compute_c", "factor_float", "delta_simple", "delta_of_V", "n0_simple",
            "build_report"])
    def test_non_finite_factor_rejected(self, func, F):
        # n0_simple reads the factor only in interval arithmetic, the rest in mp
        with pytest.raises(ValueError, match="area factor must be finite and exceed 1"):
            func(F)

    def test_cli_reports_non_finite_factor(self, capsys):
        assert cli_dispatch(["constants", "--F", "inf"]) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ValueError"
        assert "area factor must be finite and exceed 1" in error["message"]


class TestC:
    def test_published_value(self):
        assert float(compute_c(NOVOTNY)) == pytest.approx(0.07256326599821739, abs=5e-6)

    def test_against_root_finder(self):
        for F in F_GRID:
            with mp.workdps(60):
                got = compute_c(F, dps=60)
                want = oracle_c(F)
                assert abs(got - want) < mp.mpf(10) ** -55

    def test_root_identity(self):
        for F in F_GRID:
            c = float(compute_c(F))
            assert abs(5 * c * c + 3 * c - (F - 1)) <= 1e-12

    def test_monotone_in_F(self):
        cs = [float(compute_c(F)) for F in F_GRID]
        assert cs == sorted(cs)


class TestDelta:
    def test_published_value(self):
        assert float(delta_simple(NOVOTNY)) == pytest.approx(1.0327826613e-4, abs=1e-9)

    def test_matches_formula_with_oracle_c(self):
        for F in F_GRID:
            with mp.workdps(60):
                c = oracle_c(F)
                want = (mp.mpf(F) - 1) / (10 * mp.mpf(F) / (c * c) + mp.mpf(1) / 10)
                assert abs(delta_simple(F, dps=60) - want) < mp.mpf(10) ** -50

    def test_delta_of_full_area(self):
        # V = 1 collapses to (F-1)/(10F + 1/10)
        val = float(delta_of_V(NOVOTNY, 1.0))
        F = factor_float(NOVOTNY)
        assert val == pytest.approx((F - 1) / (10 * F + 0.1), abs=1e-15)
        assert val == pytest.approx(0.019459, abs=1e-6)

    def test_delta_of_V_monotone(self):
        F = 1.3
        c2 = float(compute_c(F)) ** 2
        vals = [float(delta_of_V(F, V)) for V in np.linspace(c2, 1.0, 7)]
        assert vals == sorted(vals)

    def test_delta_of_V_domain(self):
        with pytest.raises(ValueError):
            delta_of_V(NOVOTNY, 1e-6)
        with pytest.raises(ValueError):
            delta_of_V(NOVOTNY, 1.5)

    def test_delta_at_c_squared_is_delta_simple(self):
        c2 = float(compute_c(NOVOTNY)) ** 2
        assert float(delta_of_V(NOVOTNY, c2)) == pytest.approx(
            float(delta_simple(NOVOTNY)), rel=1e-12
        )


class TestIndexThresholds:
    def test_published_counts(self):
        assert n0_simple(NOVOTNY) == 93_752_341
        assert n0_integral(NOVOTNY) == 491_225

    def test_reference_secondary_factor(self):
        assert n0_simple(1.37) == 11_294_345
        assert n0_integral(1.37) == 123_147

    def test_simple_floor_against_oracle(self):
        for F in F_GRID:
            with mp.workdps(60):
                c = oracle_c(F)
                d = (mp.mpf(F) - 1) / (10 * mp.mpf(F) / (c * c) + mp.mpf(1) / 10)
                want = max(1, int(mp.floor(1 / (d * d))))
            assert n0_simple(F) == want

    def test_integral_floor_against_quadrature(self):
        for F in [factor_float(NOVOTNY), 1.3, 1.37]:
            with mp.workdps(40):
                Fv = mp.mpf(F)
                c = oracle_c(F, dps=40)
                integrand = lambda V: ((10 * Fv / V + mp.mpf(1) / 10) / (Fv - 1)) ** 2
                q = mpmath.quad(integrand, [c * c, 1])
                want = 1 + int(mp.floor(q))
            assert n0_integral(F) == want

    def test_integral_near_one(self):
        # scipy.integrate.quad returns a negative value for this positive
        # integrand at F = 1.001, so a float cross-check cannot gate the floor
        assert n0_integral("1.001") == 902_802_554_844_838

    @settings(max_examples=30, deadline=None)
    @given(FACTORS)
    def test_integral_floor_matches_mp_quadrature(self, F):
        assert n0_integral(F) == oracle_n0_integral(F)

    def test_integral_never_exceeds_simple(self):
        for F in F_GRID:
            assert n0_integral(F) <= n0_simple(F)

    def test_derive_published(self):
        N1, N = derive_N(NOVOTNY, 93_752_341)
        assert (N1, N) == (93_752_341, 692_741_307)
        N1, N = derive_N(NOVOTNY, 491_225)
        assert (N1, N) == (491_225, 3_629_689)
        N1, N = derive_N(1.37, 11_294_345)
        assert (N1, N) == (11_294_345, 83_454_548)

    def test_derive_small_N0_floor_is_geometric(self):
        # with N0 = 1, the (10F + 1/10)^2 term takes over: 12.6^2 = 158.76
        assert derive_N(1.25, 1) == (158, 1167)

    def test_derive_monotone_on_grid(self):
        pairs = [derive_N(F, n0_simple(F)) for F in F_GRID]
        n1s = [p[0] for p in pairs]
        ns = [p[1] for p in pairs]
        assert n1s == sorted(n1s, reverse=True)
        assert ns == sorted(ns, reverse=True)

    def test_derive_rejects_bad_N0(self):
        with pytest.raises(ValueError):
            derive_N(NOVOTNY, 0)


class TestHarmonic:
    def test_first_values(self):
        assert harmonic_range_sum(1, 1) == 1.0
        assert harmonic_range_sum(1, 10) == pytest.approx(7381 / 2520, rel=1e-15)
        assert harmonic_range_sum(5, 4) == 0.0

    def test_against_digamma(self):
        for n in [10, 1_000, 1_000_000]:
            with mp.workdps(30):
                want = float(mpmath.harmonic(n))
            assert harmonic_range_sum(1, n) == pytest.approx(want, rel=1e-12)

    def test_log_bounds(self):
        for n in [1, 2, 10, 1_000, 100_000]:
            lo, h, hi = harmonic_bounds(n)
            assert lo <= h <= hi
            assert lo == pytest.approx(math.log(n + 1))
            assert hi == pytest.approx(math.log(n) + 1.0)

    def test_range_decomposes(self):
        a = harmonic_range_sum(1, 500)
        b = harmonic_range_sum(501, 2_000)
        assert a + b == pytest.approx(harmonic_range_sum(1, 2_000), rel=1e-14)

    def test_window_certificate_for_derived_pair(self):
        # the (N1, N] window always carries at least harmonic mass 1
        N1, N = derive_N(1.25, 1)
        assert harmonic_range_sum(N1 + 1, N) >= 1.0

    @given(st.integers(1, 10**5).flatmap(
        lambda a: st.tuples(st.just(a), st.integers(a, 10**5))))
    def test_log_certificate_below_direct_sum(self, ab):
        # the closed-form bound derive_N certifies with never exceeds the sum
        a, b = ab
        assert _harmonic_lower(a, b) <= harmonic_range_sum(a, b)


class TestFindSmallIndex:
    def test_strict_inequality(self):
        c = 0.5
        sides = (0.9, c / math.sqrt(2), c / math.sqrt(3))
        assert find_small_index(Instance(sides), c, 1, 3) is None

    def test_first_hit_wins(self):
        c = 0.5
        sides = (0.9, c / math.sqrt(2) * (1 - 1e-9), c / math.sqrt(3) * 0.5)
        assert find_small_index(Instance(sides), c, 1, 3) == 2

    def test_zero_padding(self):
        c = 0.5
        assert find_small_index(Instance((0.9,)), c, 1, 5) == 2
        sides = (0.9, c / math.sqrt(2), c / math.sqrt(3))
        assert find_small_index(Instance(sides), c, 1, 5) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            find_small_index(Instance((0.5,)), 0.0, 1, 3)
        with pytest.raises(ValueError):
            find_small_index(Instance((0.5,)), 0.5, 3, 3)

    def test_instance_not_sorted_by_caller(self):
        # Instance sorts internally; index positions refer to sorted order
        c = 0.5
        inst = Instance((c / math.sqrt(3) * 0.9, 0.9, c / math.sqrt(2)))
        assert find_small_index(inst, c, 1, 3) == 3


class TestRefinedDelta:
    def test_published_value(self):
        got = float(delta_refined(NOVOTNY))
        assert got == pytest.approx(1.0327998094908113e-4, rel=1e-9, abs=0)

    def test_dominates_simple_bound(self):
        for F in [factor_float(NOVOTNY), 1.3, 1.37]:
            assert float(delta_refined(F)) >= float(delta_simple(F)) * (1 - 1e-12)

    def test_capped_by_c_squared_tenth(self):
        for F in [factor_float(NOVOTNY), 1.37]:
            c = float(compute_c(F))
            assert float(delta_refined(F)) <= c * c / 10 + 1e-15

    def test_below_every_grid_sample(self):
        F = factor_float(NOVOTNY)
        c2 = float(compute_c(F)) ** 2
        samples = k_sample_grid(F, 2_000, c2)
        assert samples
        refined = float(delta_refined(F))
        assert refined <= min(s.fval for s in samples) + 1e-12

    def test_near_one_is_the_corner_value(self):
        # q - sqrt(q^2 - a) cancels in floats this close to F = 1; a float search misses the minimum
        got = delta_refined("1.0000001")
        with mp.workdps(60):
            want = mp.mpf("1.1111108765432504678e-23")
            corner = oracle_f("1.0000001", oracle_c2("1.0000001"), 10 * mp.mpf("1.0000001"))
            assert abs(corner - want) < want * mp.mpf(10) ** -19
            assert got <= corner
        assert float(got) == pytest.approx(float(want), rel=1e-9, abs=0)

    def test_near_one_report(self):
        rep = build_report("1.0000001", refined=True)
        assert rep.delta_refined == mp.nstr(delta_refined("1.0000001"), 30)
        assert float(rep.delta_refined) == pytest.approx(1.1111108765432504678e-23, rel=1e-9, abs=0)

    def test_near_one_cli(self, capsys):
        assert cli_dispatch(["constants", "--F", "1.0000001", "--refined"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert float(report["delta_refined"]) == pytest.approx(1.1111108765432504678e-23, rel=1e-9, abs=0)

    @pytest.mark.parametrize("F", ["9.5", "10"])
    def test_empty_K_raises(self, F):
        # c > 1 beyond F = 9, so no tail area V lies in [c^2, 1]
        with pytest.raises(MoserpackError, match="K is empty"):
            delta_refined(F)

    @settings(max_examples=60, deadline=None)
    @given(K_FACTORS, st.floats(0, 1), st.floats(0, 1))
    def test_below_f_at_points_of_K(self, F, u, w):
        simple, refined = delta_simple(F), delta_refined(F)
        with mp.workdps(60):
            c2 = oracle_c2(F)
            V, H = point_of_K(F, c2, u, w)
            bound = min(oracle_f(F, V, H), c2 / 10)
        assert simple <= refined <= bound

    def test_grid_samples_live_in_K(self):
        F = 1.3
        c2 = float(compute_c(F)) ** 2
        for s in k_sample_grid(F, 500, c2):
            assert c2 - 1e-12 <= s.V <= 1 + 1e-12
            assert math.sqrt(F * s.V) - 1e-9 <= s.H <= 10 * F + 1e-9
            assert s.fval > 0


class TestTwoSquareWorstCase:
    def test_known_optimum(self):
        s, area = two_square_worst_case()
        assert s == pytest.approx(math.cos(math.pi / 8), abs=1e-6)
        assert area == pytest.approx((1 + math.sqrt(2)) / 2, abs=1e-9)

    def test_closed_form_matches_search(self):
        s, area = two_square_worst_case()
        _, searched = two_square_ternary_search()
        assert area == pytest.approx(searched, abs=1e-12)
        assert s == pytest.approx(math.cos(math.pi / 8), abs=1e-15)


class TestReport:
    def test_full_chain(self):
        rep = build_report(NOVOTNY)
        assert rep.N0_simple == 93_752_341
        assert rep.N0_integral == 491_225
        assert rep.N1 == 93_752_341
        assert rep.N == 692_741_307
        assert all(rep.floor_certificates.values())

    def test_integral_chain(self):
        rep = build_report(NOVOTNY, use_integral_n0=True)
        assert rep.use_integral_n0
        assert rep.N1 == 491_225
        assert rep.N == 3_629_689

    def test_decimal_strings_parse(self):
        rep = build_report(1.37)
        d = report_to_dict(rep)
        assert d["N0_simple"] == 11_294_345
        assert float(d["c"]) == pytest.approx(float(compute_c(1.37)), rel=1e-15)
        assert float(d["delta_simple"]) == pytest.approx(
            float(delta_simple(1.37)), rel=1e-15
        )
        assert d["delta_refined"] is None

    @pytest.mark.parametrize("F", ["1.0000001", "1.001", "1.002"])
    def test_factors_near_one(self, F):
        rep = build_report(F)
        assert rep.N0_integral == n0_integral(F) <= rep.N0_simple
        assert all(rep.floor_certificates.values())

    def test_cli_factor_near_one(self, capsys):
        assert cli_dispatch(["constants", "--F", "1.001"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["N0_integral"] == 902_802_554_844_838

    def test_refined_flag(self):
        rep = build_report(1.37, refined=True)
        assert rep.delta_refined is not None
        assert float(rep.delta_refined) >= float(rep.delta_simple)


class TestErrorHierarchy:
    def test_domain_errors_are_plain_value_errors(self):
        # bad numeric domains raise ValueError, not the package base error
        with pytest.raises(ValueError):
            delta_of_V(NOVOTNY, 2.0)

    def test_package_errors_share_a_base(self):
        from moserpack import (
            EmptyRegionError,
            FloorUncertified,
            PackFailure,
            PreconditionViolated,
        )

        for exc in (
            EmptyRegionError,
            FloorUncertified,
            PackFailure,
            PreconditionViolated,
        ):
            assert issubclass(exc, MoserpackError)
