"""Constant derivation chain: c, delta, the index thresholds, refinements.

Expected values are frozen from independent oracles: root-finding instead of
the closed-form radical, mpmath quadrature instead of the antiderivative,
mpmath's digamma-based harmonic numbers instead of direct summation, and
mpmath's interval arithmetic (``conftest.oracle_floors``) instead of the
package's integer brackets.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from decimal import Context, Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import iv, mp

from moserpack import (
    NOVOTNY,
    FloorUncertified,
    Instance,
    MoserpackError,
    build_report,
    compute_c,
    delta_refined,
    delta_simple,
    factor_float,
    report_to_dict,
)
from moserpack import constants
from moserpack.cli import cli_dispatch
from moserpack.constants import (
    derive_N,
    harmonic_range_sum,
    n0_integral,
    n0_simple,
)
from moserpack.reduction import PackParams, find_small_index

from conftest import (
    _harmonic_lower,
    _oracle_floor,
    circumference_admits,
    harmonic_bounds,
    k_sample_grid,
    oracle_chain,
    oracle_floors,
    oracle_values,
    reference_find_small_index,
    reference_floor,
    two_square_ternary_search,
    two_square_worst_case,
    workdps,
)

F_GRID = [factor_float(NOVOTNY), 1.26, 1.28, 1.30, 1.33, 1.37]


def as_mpf(x: Decimal):
    """A 50-digit result at the working precision of ``mp``, which reads no Decimal."""
    return mp.mpf(str(x))


def exact(end) -> Fraction:
    """The exact value of an interval endpoint, read at ``mp``'s working precision."""
    man, exp = mp.mpf(end).man_exp
    return man * Fraction(2) ** exp


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

    def test_named_factor_is_correctly_rounded(self):
        # sqrt(3) 2^k lies strictly between r = isqrt(3 4^k) and r + 1, so
        # (2 + sqrt(3))/3 lies strictly between the two rationals below.
        # Rounding is monotone: once both round to one float, so does it.
        want = (2 + math.sqrt(3)) / 3
        k = 64
        while True:
            root = math.isqrt(3 << 2 * k)
            lo = Fraction((2 << k) + root, 3 << k)
            hi = Fraction((2 << k) + root + 1, 3 << k)
            if float(lo) == float(hi):
                break
            k *= 2
        assert float(lo) == want == 1.2440169358562925
        with mp.workdps(60):
            assert float((2 + mp.sqrt(3)) / 3) == want
        assert factor_float(NOVOTNY) == factor_float(" Novotny ") == want

    def test_decimal_strings_round_exactly(self):
        # 1 to 40 significant digits, with and without an exponent
        rng = random.Random(20_221)
        for _ in range(10_000):
            digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 40)))
            s = f"{rng.randint(1, 999)}.{digits}"
            if rng.random() < 0.25:
                s += f"e{rng.randint(0, 30)}"
            assert factor_float(s) == float(Fraction(s)), s

    @pytest.mark.parametrize("F", [1.37, math.nextafter(1.0, 2.0), 1e300, 2, 10 ** 20,
                                   "1.2_5", "1." + "0" * 99 + "1", "1e400"], ids=repr)
    def test_numbers_round_trip(self, F):
        want = math.inf if F == "1e400" else float(Fraction(F))
        assert factor_float(F) == want

    @pytest.mark.parametrize("spec", ["1.5", "1.3", "1.2440169358562925048", "9.75"])
    def test_mpf_is_rejected(self, spec):
        # a factor spec is a decimal string, an int, a float or "novotny";
        # an mpf would be a second spelling of a "p/q" string
        with mp.workdps(60):
            F = mp.mpf(spec)
        for func in (factor_float, compute_c, build_report, PackParams.certified):
            with pytest.raises(ValueError) as err:
                func(F)
            assert str(err.value).startswith("area factor must be finite and exceed 1, got mpf(")

    @pytest.mark.parametrize("F, got", [
        ("1", "'1'"), ("0.5", "'0.5'"), ("-1.5", "'-1.5'"), ("nan", "'nan'"),
        (" -INF ", "' -INF '"), (math.nan, "nan"), (-math.inf, "-inf"),
        (mpmath.mpf(-1.5), "mpf('-1.5')"), (mpmath.mpf(1), "mpf('1.0')"),
        (mpmath.mpf("nan"), "mpf('nan')"), (mpmath.mpf("inf"), "mpf('+inf')"),
    ], ids=repr)
    def test_rejection_text(self, F, got):
        # an mpf is no factor spec, whatever its value
        for func in (factor_float, compute_c):
            with pytest.raises(ValueError) as err:
                func(F)
            assert str(err.value) == f"area factor must be finite and exceed 1, got {got}"

    @pytest.mark.parametrize("F", ["euler", "", "1.5.2", "Infinity"])
    def test_non_number_rejection_text(self, F):
        for func in (factor_float, compute_c):
            with pytest.raises(ValueError) as err:
                func(F)
            assert str(err.value) == ("area factor must be finite and exceed 1 "
                                      f"('novotny' or a decimal number), got {F!r}")

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
        compute_c, factor_float, delta_simple, n0_simple, build_report,
    ], ids=["compute_c", "factor_float", "delta_simple", "n0_simple", "build_report"])
    def test_non_finite_factor_rejected(self, func, F):
        # each reads the spec's exact value, which a non-finite spec does not have
        with pytest.raises(ValueError, match="area factor must be finite and exceed 1"):
            func(F)

    def test_huge_exponents_cost_their_length(self, capsys):
        # the exact values of these specs have 10^6 and 10^9 digits, and
        # building them once took 0.2 s to 16 s, or 400 MB for 1e999999999
        start = time.perf_counter()
        assert factor_float("1e1000000") == math.inf
        for func in (compute_c, build_report):
            with pytest.raises(MoserpackError) as err:
                func("1e1000000")
            assert str(err.value) == "area factor must be below 9, where c < 1, got '1e1000000'"
        assert cli_dispatch(["constants", "--F", "1e999999999"]) == 1
        assert json.loads(capsys.readouterr().out)["error"] == {
            "type": "MoserpackError",
            "message": "area factor must be below 9, where c < 1, got '1e999999999'"}
        for func in (factor_float, build_report):
            with pytest.raises(ValueError) as err:
                func("1e-1000000")
            assert str(err.value) == "area factor must be finite and exceed 1, got '1e-1000000'"
        assert time.perf_counter() - start < 2.0

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
                got = compute_c(F)
                assert isinstance(got, Decimal)
                want = oracle_c(F)
                # c < 1 at 50 significant digits
                assert abs(as_mpf(got) - want) < mp.mpf(10) ** -50

    def test_root_identity(self):
        for F in F_GRID:
            c = float(compute_c(F))
            assert abs(5 * c * c + 3 * c - (F - 1)) <= 1e-12

    def test_monotone_in_F(self):
        cs = [float(compute_c(F)) for F in F_GRID]
        assert cs == sorted(cs)

    @pytest.mark.parametrize("func", [compute_c, delta_simple])
    @pytest.mark.parametrize("dps", [0, -5, True, False, 2.5, "50", None])
    def test_rejects_bad_dps(self, func, dps):
        # the precision is fixed at 50 digits: there is no dps to pass
        before = mp.dps
        with pytest.raises(TypeError, match="dps"):
            func(NOVOTNY, dps=dps)
        assert mp.dps == before

    @pytest.mark.parametrize("func", [compute_c, delta_simple])
    def test_one_digit(self, func):
        # a caller working at one digit still gets the 50-digit value
        want = func(NOVOTNY)
        with mp.workdps(1):
            got = func(NOVOTNY)
            assert mp.dps == 1
        assert got == want


def edge_bound(F: float, V: float) -> float:
    """The edge bound glue_pack checks a tail of area V against, in float."""
    return constants._delta(F, F - 1, V)


def _edge_grid() -> list:
    """(F, the V grid on [c^2, 1]) for F across (1, 9], where c <= 1."""
    grid = []
    for F in (1 + 1e-6, 1.01, factor_float(NOVOTNY), 1.3, 1.5, 2.0, 3.0, 5.0, 8.5):
        c2 = float(compute_c(F)) ** 2
        grid.append((F, [float(V) for V in np.linspace(c2, 1.0, 9)]))
    return grid + [(9.0, [1.0])]


EDGE_GRID = _edge_grid()


class TestDelta:
    def test_published_value(self):
        assert float(delta_simple(NOVOTNY)) == pytest.approx(1.0327826613e-4, abs=1e-9)

    def test_matches_formula_with_oracle_c(self):
        for F in F_GRID:
            with mp.workdps(60):
                c = oracle_c(F)
                want = (mp.mpf(F) - 1) / (10 * mp.mpf(F) / (c * c) + mp.mpf(1) / 10)
                assert abs(as_mpf(delta_simple(F)) - want) < mp.mpf(10) ** -50

    def test_delta_of_full_area(self):
        # V = 1 collapses to (F-1)/(10F + 1/10)
        F = factor_float(NOVOTNY)
        val = edge_bound(F, 1.0)
        assert val == pytest.approx((F - 1) / (10 * F + 0.1), rel=1e-15)
        assert val == pytest.approx(0.019459, abs=1e-6)

    def test_delta_of_V_monotone(self):
        for F, Vs in EDGE_GRID:
            vals = [edge_bound(F, V) for V in Vs]
            assert all(a < b for a, b in zip(vals, vals[1:])), F

    def test_delta_at_c_squared_is_delta_simple(self):
        # delta_simple answers below F = 9, where c < 1
        for F, Vs in EDGE_GRID[:-1]:
            assert edge_bound(F, Vs[0]) == pytest.approx(float(delta_simple(F)), rel=1e-12), F

    def test_edge_bound_matches_both_oracles(self):
        for F, Vs in EDGE_GRID:
            for V in Vs:
                got = edge_bound(F, V)
                with mp.workdps(50):
                    Fv = mp.mpf(F)
                    want = (Fv - 1) / (10 * Fv / V + mp.mpf(1) / 10)
                assert abs(got - want) <= 1e-15 * want, (F, V)
                # the circumference lemma at the tail rectangle's C = 10 F + V/10
                C = 10 * F + V / 10
                assert circumference_admits(F, V, C, got * (1 - 1e-14)), (F, V)
                assert not circumference_admits(F, V, C, got * (1 + 1e-14)), (F, V)


class TestNearOne:
    """Every printed digit of c and delta_simple at F = 1 + 10^-k.

    F - 1 has k - 1 leading zeros, so at 50 digits it keeps only 50 - k of
    its own digits unless it is carried exactly.  The oracle evaluates at
    80 digits from the exact rational F - 1, with c as the root
    2 (F - 1) / (3 + sqrt(9 + 20 (F - 1))) of 5 c^2 + 3 c = F - 1.
    """

    @staticmethod
    def _c_and_delta(F: str):
        """c and delta_simple at the caller's working precision."""
        e = Fraction(F) - 1
        ev = mp.mpf(e.numerator) / e.denominator
        c = 2 * ev / (3 + mp.sqrt(9 + 20 * ev))
        return c, ev / (10 * (1 + ev) / (c * c) + mp.mpf(1) / 10)

    @classmethod
    def _printed(cls, F: str) -> tuple[str, str]:
        with mp.workdps(80):
            c, d = cls._c_and_delta(F)
            return mp.nstr(c, 30), mp.nstr(d, 30)

    @pytest.mark.parametrize("k", [25, 40])
    def test_c_and_delta_digits(self, k):
        F = "1." + "0" * (k - 1) + "1"
        with mp.workdps(60):
            got = mp.nstr(as_mpf(compute_c(F)), 30), mp.nstr(as_mpf(delta_simple(F)), 30)
        assert got == self._printed(F)

    def test_report_digits(self):
        F = "1.0000000000000000000000001"
        rep = build_report(F)
        assert (rep.c, rep.delta_simple) == self._printed(F)

    @pytest.mark.parametrize("k, digits", [(33, 202), (40, 244), (60, 364), (100, 604)])
    def test_floor_past_200_digits(self, k, digits):
        # N0 has more integer digits than a fixed 200-digit cap would allow,
        # so the doubling must run past 200 digits to certify its floor.
        # From k = 50 on, F rounds to 1 at 50 digits: only its exact value
        # shows that it exceeds 1.
        F = "1." + "0" * (k - 1) + "1"
        with mp.workdps(2 * digits + 100):
            _, d = self._c_and_delta(F)
            want = int(mp.floor(1 / (d * d)))
        assert len(str(want)) == digits
        rep = build_report(F)
        assert rep.N0_simple == n0_simple(F) == want
        assert all(rep.floor_certificates.values())


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
        with workdps(50):
            assert _harmonic_lower(a, b) <= harmonic_range_sum(a, b)

    def test_window_constant_exceeds_e(self):
        # derive_N's integer test 10^8 (N + 1) >= 271828183 (N1 + 1) bounds the ratio by it
        with mp.workdps(60):
            assert mp.mpf(271_828_183) / 10**8 > mp.e

    @settings(max_examples=300)
    @given(st.integers(0, 10**15).flatmap(lambda n1: st.tuples(
        st.just(n1),
        st.one_of(st.integers(-3, 3).map(lambda d: -(-271_828_183 * (n1 + 1) // 10**8) - 1 + d),
                  st.integers(n1 + 1, 10 * n1 + 10)))))
    @example((0, 1))
    @example((157, 1160))
    def test_integer_window_implies_mass_one(self, pair):
        # wherever the integer test passes, the interval log bound certifies mass >= 1
        N1, N = pair
        if N > N1 and 10**8 * (N + 1) >= 271_828_183 * (N1 + 1):
            with workdps(50):
                assert _harmonic_lower(N1 + 1, N) >= 1


@st.composite
def floor_brackets(draw):
    """(lo, hi, q): a bracket [lo, hi] / 2^q, q up to 1,200, with ends that are
    integers of both signs up to 300 digits, one unit either side of one, or a
    fraction past one.  The second end starts from the first one's integer or
    from its own."""
    q = draw(st.sampled_from([0, 1, 64, 192, 1_200]))
    integers = st.one_of(st.integers(-10**6, 10**6), st.integers(-10**300, 10**300))
    n = draw(integers)
    ends = []
    for n in (n, draw(st.one_of(st.just(n), integers))):
        end = n << q
        step = draw(st.sampled_from(["none", "up", "down", "fraction"]))
        if step == "fraction":
            end += draw(st.integers(0, (1 << q) - 1))
        elif step != "none":
            end += 1 if step == "up" else -1
        ends.append(end)
    lo, hi = sorted(ends)
    return lo, hi, q


def floor_outcome(lo: int, hi: int, q: int):
    try:
        return constants._floor(lo, hi, q, "x")
    except constants._Straddles as straddle:
        return straddle.args


class TestExactFloor:
    @settings(max_examples=500)
    @given(floor_brackets())
    def test_matches_mp_floor(self, bracket):
        lo, hi, q = bracket
        f_lo, f_hi = reference_floor(lo, hi, q)
        got = floor_outcome(lo, hi, q)
        if f_lo == f_hi:
            assert got == f_lo
        else:
            text, bits = got
            assert text.startswith("x: enclosure [") and text.endswith("] straddles an integer")
            assert bits == hi.bit_length() - q

    def test_past_the_float_range_of_integers(self):
        # a float floors 12345678901234567890.99 to 12345678901234567168
        lo = math.floor(Fraction("12345678901234567890.99") * 2**64)
        assert constants._floor(lo, lo + 1, 64, "x") == 12345678901234567890

    # An integer bracket has no infinite end; an end of 2^4000, far past the
    # float range, stands in for the infinite ends mpmath's intervals had.
    @pytest.mark.parametrize("ends", [(3, 1 << 4000), (-(1 << 4000), 3),
                                      (-(1 << 4000), 1 << 4000)])
    def test_infinite_endpoints_straddle(self, ends):
        lo, hi = ends
        f_lo, f_hi = reference_floor(lo, hi, 1)
        assert f_lo != f_hi
        text, bits = floor_outcome(lo, hi, 1)
        assert text.startswith("x: enclosure [") and text.endswith("] straddles an integer")
        assert bits == hi.bit_length() - 1


def oracle_N(N1: int) -> int:
    """floor(e^2 N1) at 60 digits."""
    with mp.workdps(60):
        return int(mp.floor(mp.e ** 2 * N1))


class TestTwoTermN1:
    """N1 = floor(max(N0, (10F + 1/10)^2)): the paper's 100 c^2 never binds."""

    @pytest.mark.parametrize("integral", [False, True], ids=["simple", "integral"])
    def test_integer_square_factors_certify(self, integral):
        # F = k/10 - 1/100 makes (10F + 1/10)^2 exactly k^2, whose enclosure
        # straddles k^2 at every precision: the rational floor takes it
        for k in range(11, 91):
            F = f"{k / 10 - 0.01:.2f}"
            rep = build_report(F, use_integral_n0=integral)
            n0 = rep.N0_integral if integral else rep.N0_simple
            assert rep.N1 == max(n0, k * k), F
            assert rep.N == oracle_N(rep.N1), F
            assert derive_N(F, n0) == (rep.N1, rep.N), F

    @pytest.mark.parametrize("N0, N1, N", [(1, 157, 1160), (157, 157, 1160), (158, 158, 1167)])
    def test_novotny_closed_form_binds(self, N0, N1, N):
        # (10F + 1/10)^2 = (71209 + 40600 sqrt(3))/900 = 157.26 for F = (2 + sqrt(3))/3
        with mp.workdps(60):
            F = (2 + mp.sqrt(3)) / 3
            want = int(mp.floor(max(N0, (10 * F + mp.mpf(1) / 10) ** 2)))
        assert (want, oracle_N(want)) == (N1, N)
        assert derive_N(NOVOTNY, N0) == (N1, N)

    @pytest.mark.parametrize("F, flags, N1, N", [
        ("4.99", [], 2_500, 18_472), ("4.99", ["--integral-n0"], 2_500, 18_472),
        ("8.99", [], 8_100, 59_851), ("8.99", ["--integral-n0"], 8_100, 59_851),
        ("3.19", ["--integral-n0"], 1_024, 7_566),
    ])
    def test_integer_square_cli(self, F, flags, N1, N, capsys):
        assert cli_dispatch(["constants", "--F", F, *flags]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["N1"], report["N"]) == (N1, N)

    @settings(max_examples=300, deadline=None)
    @given(st.decimals(min_value=1, max_value=10 ** 6, allow_nan=False, allow_infinity=False)
           .filter(lambda d: d > 1).map(str))
    @example(NOVOTNY)
    @example("1." + "0" * 39 + "1")
    def test_hundred_c_squared_never_binds(self, spec):
        # 100 c^2 < 20 (F - 1) < (10F + 1/10)^2, by 5 c^2 + 3 c = F - 1
        with workdps(50):
            F, _, _, c2 = oracle_chain(spec)
            edge = 10 * F + iv.mpf(1) / 10
            assert (100 * c2).b < (edge * edge).a


@st.composite
def boundary_scans(draw):
    """(sides, c, N1, N) with side i on c / math.sqrt(i) or one ulp either side.

    Sides up to a drawn index stay at or above their bound, so the first hit
    may come anywhere in the window or nowhere; up to two zero sides end the
    instance, and the instance may stop short of N or run past it.
    """
    N1 = draw(st.integers(0, 20))
    N = draw(st.integers(N1 + 1, N1 + 30))
    m = draw(st.integers(0, N + 5))
    c = draw(st.floats(1e-6, 1.0, exclude_max=True))
    shifts = draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=m, max_size=m))
    stop = draw(st.integers(0, m))
    zeros = draw(st.integers(0, min(2, m)))
    sides = []
    for i, shift in enumerate(shifts[:m - zeros], 1):
        bound = c / math.sqrt(i)
        shift = max(shift, 0) if i <= stop else shift
        sides.append(bound if shift == 0 else math.nextafter(bound, shift * math.inf))
    return tuple(sides) + (0.0,) * zeros, c, N1, N


class TestFindSmallIndex:
    @given(boundary_scans())
    @example(((0.5, 0.5 / math.sqrt(2)), 0.5, 0, 4))  # N1 = 0, m < N, no hit
    @example(((0.5, 0.5 / math.sqrt(2), 0.5 / math.sqrt(3)), 0.5, 1, 3))  # m = N, no hit
    @example(((0.5, math.nextafter(0.5 / math.sqrt(2), 0)), 0.5, 0, 1))  # m > N, no hit
    @settings(max_examples=500, deadline=None)
    def test_matches_vectorized_oracle(self, scan):
        sides, c, N1, N = scan
        inst = Instance(sides)
        assert inst.sides == sides
        assert find_small_index(inst, c, N1, N) == reference_find_small_index(inst, c, N1, N)

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
            assert as_mpf(got) <= corner
        assert float(got) == pytest.approx(float(want), rel=1e-9, abs=0)

    def test_near_one_report(self):
        rep = build_report("1.0000001", refined=True)
        with mp.workdps(60):
            assert rep.delta_refined == mp.nstr(as_mpf(delta_refined("1.0000001")), 30)
        assert float(rep.delta_refined) == pytest.approx(1.1111108765432504678e-23, rel=1e-9, abs=0)

    def test_near_one_cli(self, capsys):
        assert cli_dispatch(["constants", "--F", "1.0000001", "--refined"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert float(report["delta_refined"]) == pytest.approx(1.1111108765432504678e-23, rel=1e-9, abs=0)

    @pytest.mark.parametrize("F", ["9.5", "10"])
    def test_empty_K_raises(self, F):
        # c > 1 beyond F = 9, so no tail area V lies in [c^2, 1]
        with pytest.raises(MoserpackError, match="must be below 9"):
            delta_refined(F)

    @settings(max_examples=60, deadline=None)
    @given(K_FACTORS, st.floats(0, 1), st.floats(0, 1))
    def test_below_f_at_points_of_K(self, F, u, w):
        simple, refined = delta_simple(F), delta_refined(F)
        with mp.workdps(60):
            c2 = oracle_c2(F)
            V, H = point_of_K(F, c2, u, w)
            bound = min(oracle_f(F, V, H), c2 / 10)
            assert simple <= refined and as_mpf(refined) <= bound

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

    def test_exact_tie_rounds_toward_zero(self):
        # 31 significant digits ending in 5 lie half-way between two 30-digit strings
        assert build_report("1.234567890123456789012345678905").F == "1.2345678901234567890123456789"
        assert build_report("1.234567890123456789012345678915").F == "1.23456789012345678901234567891"

    def test_rational_c_at_a_tie_is_rounded_exactly(self):
        # 9 + 20 (F - 1) is a rational square: c = 0.1234567890123456789012345678905
        # exactly, a 30-digit tie that no bracket decides
        F = "1.44657826080323122045618046148479827788257125439388126809995125"
        assert build_report(F).c == "0.12345678901234567890123456789"
        assert compute_c(F) == Decimal("0.1234567890123456789012345678905")

    def test_rational_c_with_integer_inverse_delta_square(self):
        # F = 1 + 5 c^2 + 3 c at c = 1/20 makes 1/delta = 28616 exactly, so
        # 1/delta^2 is an integer whose floor no bracket decides
        c = Fraction(1, 20)
        exact = 1 + 5 * c * c + 3 * c
        F = str(Decimal(exact.numerator) / exact.denominator)
        rep = build_report(F)
        assert (F, rep.c, rep.N0_simple) == ("1.1625", "0.05", 28616 ** 2)
        assert compute_c(F) == Decimal("0.05") and len(compute_c(F).as_tuple().digits) == 50
        assert delta_simple(F) == Context(prec=50).divide(Decimal(1), Decimal(28616))
        assert n0_simple(F) == rep.N0_simple
        assert PackParams.certified(F).N0 == rep.N0_simple
        with workdps(60):
            want = oracle_values(F)
            # both ends of each enclosure spell the report's string
            for x, text in ((want["c"], rep.c), (1 / want["inv_delta"], rep.delta_simple)):
                assert {mp.nstr(mp.mpf(end), 30) for end in (x.a, x.b)} == {text}
            # the oracle's enclosure of 1/delta^2 holds the integer, and straddles it
            assert rep.N0_simple in want["n0_simple"]
            assert _oracle_floor(want["n0_simple"]) is None
            assert rep.N0_integral == 1 + _oracle_floor(want["n0_integral"])
            assert rep.N1 == rep.N0_simple
            assert rep.N == _oracle_floor(iv.exp(2) * rep.N1)

    def test_refined_flag(self):
        rep = build_report(1.37, refined=True)
        assert rep.delta_refined is not None
        assert float(rep.delta_refined) >= float(rep.delta_simple)


# Factors for the shared-chain checks; the last three need more than 50 digits.
CHAIN_GRID = [NOVOTNY, "1.001", "1.37", "2", "1.0000001",
              "1." + "0" * 24 + "1", "1." + "0" * 29 + "1", "1." + "0" * 39 + "1"]

# sha256 of `moserpack constants --F <F>` stdout with no flag, --refined,
# --integral-n0 and both, in that order, as each factor's floors were
# certified one public function at a time.
CLI_DIGESTS = [
    "9082b46159c68df09bdd1073605e26f94f781e3c8cab04dea646766db4b39fdb",
    "6ad03358fe5d9487b1cfc6940479853fe3c6421f6e9b7ea1bed8bad488cdee98",
    "405d36923079b06e92da3ad2d411baea8cfbe451cbfa5a8c794674bd62ce14b3",
    "de721a657e50cfba36bcc976c9746fb910eb6a1e1c359b54e935952832dabd0b",
    "8519aa4f0714b77a043cffe0adbf01c66c12288873727f213d80f11aa3bf9024",
    "f46fd76299a2078b251496795b50b9a551b3e7d7813452675f8e122584435f7f",
    "d5b926a1f1ea87b61419cda84477462c165a278a2a548a66b89c674445601b63",
    "0732a8bebd42bd50ad0008b63428a8f25eb1d5cf7f9ae7f6c3e92233e526adf1",
]


# The reduction needs c < 1, i.e. F < 9; each spec below is 9 or more.
DOMAIN_EDGE = [9, "9.0", 9.5, 10, 20, "1e300", "1e999999999"]


class TestDomain:
    CERTIFIED = {
        "build_report": build_report,
        "compute_c": compute_c,
        "delta_simple": delta_simple,
        "n0_simple": n0_simple,
        "n0_integral": n0_integral,
        "derive_N": lambda F: derive_N(F, 5),
        "delta_refined": delta_refined,
    }

    @pytest.mark.parametrize("F", DOMAIN_EDGE, ids=repr)
    def test_certified_results_raise_from_9(self, F):
        start = time.perf_counter()
        for name, func in self.CERTIFIED.items():
            with pytest.raises(MoserpackError) as err:
                func(F)
            assert str(err.value) == f"area factor must be below 9, where c < 1, got {F!r}", name
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("F", ["8.99", "8." + "9" * 60], ids=["8.99", "8.(60 nines)"])
    def test_agree_below_9(self, F):
        rep = build_report(F, refined=True)
        assert (n0_simple(F), n0_integral(F)) == (rep.N0_simple, rep.N0_integral)
        assert derive_N(F, rep.N0_simple) == (rep.N1, rep.N)
        with mp.workdps(60):
            assert mp.nstr(as_mpf(delta_refined(F)), 30) == rep.delta_refined


class TestSharedChain:
    @pytest.mark.parametrize("F", CHAIN_GRID)
    def test_report_equals_public_floors(self, F):
        simple = build_report(F)
        integral = build_report(F, use_integral_n0=True)
        assert simple.N0_simple == integral.N0_simple == n0_simple(F)
        assert simple.N0_integral == integral.N0_integral == n0_integral(F)
        assert (simple.N1, simple.N) == derive_N(F, simple.N0_simple)
        assert (integral.N1, integral.N) == derive_N(F, integral.N0_integral)

    @pytest.mark.parametrize("F, digest", zip(CHAIN_GRID, CLI_DIGESTS))
    def test_cli_bytes(self, F, digest, capsys):
        h = hashlib.sha256()
        for flags in ([], ["--refined"], ["--integral-n0"], ["--refined", "--integral-n0"]):
            assert cli_dispatch(["constants", "--F", F, *flags]) == 0
            h.update(capsys.readouterr().out.encode())
        assert h.hexdigest() == digest

    @staticmethod
    def _count_chains(monkeypatch) -> list:
        """The scale p of every chain evaluation from here on."""
        evaluations = []
        evaluate = constants._evaluate

        def counting(v, p):
            evaluations.append(p)
            return evaluate(v, p)

        monkeypatch.setattr(constants, "_evaluate", counting)
        return evaluations

    def test_one_chain_per_context_and_precision(self, monkeypatch):
        # one integer chain per pass, at 192 bits for novotny; there is no
        # second chain for the strings
        evaluations = self._count_chains(monkeypatch)
        for refined in (False, True):
            build_report(NOVOTNY, refined=refined)
            assert evaluations == [192]
            evaluations.clear()
        # 1 + 10^-40 starts at 192 + 6 * 132 bits, where every floor is decided
        build_report(CHAIN_GRID[-1], refined=True)
        assert evaluations == [984]

    # the last three factors round to the float 1.0, which PackParams refuses
    @pytest.mark.parametrize("integral", [False, True], ids=["simple", "integral"])
    @pytest.mark.parametrize("F", [F for F in CHAIN_GRID if factor_float(F) > 1])
    def test_certified_params_take_c_from_the_report(self, F, integral, monkeypatch):
        want = float(compute_c(F))
        evaluations = self._count_chains(monkeypatch)
        assert PackParams.certified(F, use_integral_n0=integral).c == want
        assert len(evaluations) == 1

    @pytest.mark.parametrize("F", CHAIN_GRID[-3:])
    def test_certified_params_refuse_a_float_of_one_first(self, F, monkeypatch):
        evaluations = self._count_chains(monkeypatch)
        with pytest.raises(ValueError) as err:
            PackParams.certified(F)
        assert str(err.value) == (f"area factor {F!r} rounds to the float 1.0, and "
                                  "PackParams needs a float F > 1")
        assert evaluations == []

    def test_no_chain_kept_across_calls(self, monkeypatch):
        evaluations = self._count_chains(monkeypatch)
        build_report(NOVOTNY)
        once = len(evaluations)
        build_report(NOVOTNY)
        assert len(evaluations) == 2 * once

    # Each public function at the last factor evaluates the chain once, at
    # the 984 bits where its floors and digits are decided, and the same
    # again on a second call.
    PUBLIC_CHAINS = ["compute_c", "delta_simple", "delta_refined", "n0_simple", "n0_integral",
                     "build_report"]

    @pytest.mark.parametrize("name", PUBLIC_CHAINS)
    def test_public_functions_evaluate_once_per_precision(self, name, monkeypatch):
        F = CHAIN_GRID[-1]
        call = {
            "compute_c": lambda: compute_c(F),
            "delta_simple": lambda: delta_simple(F),
            "delta_refined": lambda: delta_refined(F),
            "n0_simple": lambda: n0_simple(F),
            "n0_integral": lambda: n0_integral(F),
            "build_report": lambda: build_report(F, refined=True),
        }[name]
        evaluations = self._count_chains(monkeypatch)
        for _ in range(2):
            call()
            assert evaluations == [984]
            evaluations.clear()

    def test_derive_N_brackets_only_e_squared(self, monkeypatch):
        # N = floor(e^2 N1) needs e^2 alone; N1's square is exact, so no chain runs
        F = CHAIN_GRID[-1]
        n0 = n0_simple(F)
        evaluations = self._count_chains(monkeypatch)
        exp2, scales = constants._exp2, []
        monkeypatch.setattr(constants, "_exp2", lambda p: scales.append(p) or exp2(p))
        for _ in range(2):
            # N has 245 integer digits against N0's 244, and needs no wider scale
            derive_N(F, n0)
            derive_N(NOVOTNY, 491_225)
        assert evaluations == []
        assert scales == [984, 192, 984, 192]


class TestFloorUncertified:
    # The bracket of one floor, widened by one unit either way, straddles an
    # integer at every scale; the error names that floor and its bracket at
    # 4 x 192 bits, novotny's cap.
    MESSAGES = {
        "n0_simple": "[93752340.5639319, 93752342.5639319]",
        "n0_integral": "[491223.734537023, 491225.734537023]",
        "N": "[3629688.08219721, 3629690.08219721]",
    }

    @staticmethod
    def _widen(monkeypatch, what: str, names: list) -> None:
        floor = constants._floor

        def widened(lo, hi, q, name):
            names.append(name)
            if name == what:
                lo, hi = lo - (1 << q), hi + (1 << q)
            return floor(lo, hi, q, name)

        monkeypatch.setattr(constants, "_floor", widened)

    @pytest.mark.parametrize("what, call", [
        ("n0_simple", lambda: n0_simple(NOVOTNY)),
        ("n0_integral", lambda: n0_integral(NOVOTNY)),
        ("N", lambda: derive_N(NOVOTNY, 491_225)),
        ("n0_simple", lambda: build_report(NOVOTNY, use_integral_n0=True)),
        ("n0_integral", lambda: build_report(NOVOTNY, use_integral_n0=True)),
        ("N", lambda: build_report(NOVOTNY, use_integral_n0=True)),
    ])
    def test_names_the_straddling_floor(self, what, call, monkeypatch):
        self._widen(monkeypatch, what, [])
        with pytest.raises(FloorUncertified) as err:
            call()
        assert str(err.value) == (f"{what}: enclosure {self.MESSAGES[what]} "
                                  "straddles an integer at 768 bits")

    @pytest.mark.parametrize("call", [
        lambda: derive_N(NOVOTNY, 491_225),
        lambda: (lambda r: (r.N1, r.N))(build_report(NOVOTNY, use_integral_n0=True)),
    ], ids=["derive_N", "build_report"])
    def test_novotny_N1_has_no_enclosure(self, call, monkeypatch):
        # N1 = max(N0, 157) in integers: widening an "N1" bracket changes nothing
        names = []
        self._widen(monkeypatch, "N1", names)
        assert call() == (491_225, 3_629_689)
        assert "N" in names and "N1" not in names


# Factors for the interval oracle: decimals in (1, 9) and 1 + 10^-k for k <= 40.
ORACLE_FACTORS = st.one_of(
    st.decimals(Decimal("1.000001"), Decimal("8.999999"), places=6).map(str),
    st.integers(1, 40).map(lambda k: "1." + "0" * (k - 1) + "1"),
)


class TestIntervalOracle:
    """The integer brackets against mpmath's interval derivation in ``conftest``."""

    @settings(max_examples=200, deadline=None)
    @given(ORACLE_FACTORS)
    @example(NOVOTNY)
    @example("1." + "0" * 39 + "1")
    def test_floors_and_brackets_match_the_oracle(self, F):
        got = [(r.N0_simple, r.N0_integral, r.N1, r.N)
               for r in (build_report(F), build_report(F, use_integral_n0=True))]
        assert got == [oracle_floors(F), oracle_floors(F, use_integral_n0=True)]
        # every bracket of the first pass meets the oracle's enclosure, taken
        # 60 digits finer than the scale, and is narrow
        v, p = constants._certified(lambda v, p: (v, p), F)
        chain = constants._evaluate(v, p)
        brackets = {
            "F": chain[0], "w": chain[1], "u": chain[2], "u2": chain[3],
            "c": constants._inv(chain[2], p),
            "inv_delta": constants._inv_delta(chain, p),
            "delta_refined": constants._delta_refined(chain, p),
            "ln_u2": constants._ln(chain[3], p),
            "exp2": constants._exp2(p),
        }
        dps = 60 + p * 3 // 10
        with workdps(dps):
            want = oracle_values(F)
            for name, (lo, hi) in brackets.items():
                a, b = (exact(end) for end in (want[name].a, want[name].b))
                assert Fraction(lo, 2**p) <= b and a <= Fraction(hi, 2**p), (name, F)
                assert lo <= hi and (hi - lo) << 100 <= lo, (name, F)


class TestErrorHierarchy:
    def test_domain_errors_are_plain_value_errors(self):
        # bad numeric domains raise ValueError, not the package base error
        with pytest.raises(ValueError, match="N0 must be >= 1") as err:
            derive_N(NOVOTNY, 0)
        assert not isinstance(err.value, MoserpackError)

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
