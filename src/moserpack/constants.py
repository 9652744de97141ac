"""Certified derivation of the square-count reduction constants.

For an area factor F > 1 the chain of constants is

    c      positive root of 5 c^2 + 3 c = F - 1,
           i.e. x / (sqrt((3/10)^2 + x) + 3/10) with x = (F - 1)/5
    delta  (F - 1) / (10 F / c^2 + 1/10)          (worst admissible edge)
    delta1 min(f(c^2, 10 F), c^2 / 10)             (refined edge)
    N0     max(1, floor(1 / delta^2))             (simple form)
    N0'    1 + floor( integral of delta(V)^-2 dV over [c^2, 1] )
    N1     floor(max(N0, (10 F + 1/10)^2))
    N      floor(e^2 * N1)

The paper's N1 also takes 100 c^2, which never binds: 5 c^2 + 3 c = F - 1
gives 100 c^2 < 20 (F - 1) < (10 F + 1/10)^2.

with delta(V) = (F - 1) / (10 F / V + 1/10) and f(V, H) the smaller root of
x^2 + (H - x)(F V / H - x) = V, minimized over its domain K at the corner
(c^2, 10 F); see :func:`delta_refined`.

Each formula is written once and evaluates in either mpmath context:
``mp`` for reported values, ``iv`` for certificates.  mpmath is imported
by the first computation in either context, not by ``import moserpack``,
so the geometry never loads it, nor does :func:`factor_float`.  A factor
spec is a decimal string, an int, a float or ``"novotny"``.  F and F - 1
come from its exact value, not from F at working precision, so no digit
of F - 1 is lost near F = 1, and F > 1 is decided exactly.  Certified
results need c < 1, i.e. F < 9 as c grows to 1 at F = 9: :func:`_certified`
checks that on the spec's exact value before it evaluates anything, while
:func:`compute_c` and :func:`delta_simple` answer for every F > 1.  Each pass of
:func:`_certified` evaluates the chain (F, F - 1, c, c^2) once and hands it
to every floor of the pass, so a call evaluates it once per context and
precision by construction, with no cache object and nothing computed
from a factor kept across calls.
N0 and N are floored from enclosures evaluated in outward-rounded
interval arithmetic (``iv``, e^2 from ``iv.exp``) starting at 50 decimal
digits and doubling until no enclosure straddles an integer, up to 200
digits or the straddling value's integer digits plus 50, whichever is
more; :class:`~moserpack.errors.FloorUncertified` is raised past that
point.  An enclosure's endpoints are binary fractions, each floored
exactly in integers.  N1 takes no enclosure: (10F + 1/10)^2 floors in exact
integer arithmetic, for a numeric factor as a fraction and for
``"novotny"`` in closed form; see :func:`derive_N`.
An ``iv`` operation on a Python int converts the int first, at about the
cost of the operation itself, so the floors square by a product and take
the small integers they use as exact intervals made once (``iv.one`` and
``_ints``).  The enclosures are those of the plain form: the integers are
exact, F + F doubles exactly, and every interval squared is positive.
The integral form is floored from its antiderivative in closed form; no
numerical quadrature runs.  The window (N1, N] is certified to carry
harmonic mass at least 1 by the closed-form bound
sum_{i=a}^{b} 1/i >= ln((b + 1)/a), decided in integers: the ratio
(N + 1)/(N1 + 1) is checked against 2.71828183 > e.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Callable, Optional, Union

from .errors import FloorUncertified, MoserpackError

if TYPE_CHECKING:
    from mpmath import mpf

# mpmath's contexts, libmp's exact floor, and each context's small integers
# (`_ints[ctx][n]`, exact at every precision, as `ctx.one` is), bound by the
# first `_workdps`: only a certified computation needs them, so
# `import moserpack` loads no mpmath.
mp = iv = to_int = round_floor = _ints = None

Factor = Union[str, float, int]

#: Symbolic factor name accepted everywhere a factor is: (2 + sqrt(3))/3.
NOVOTNY = "novotny"

_ROOT_TOL = 1e-12


@contextmanager
def _workdps(dps: int):
    global mp, iv, to_int, round_floor, _ints
    if mp is None:
        from mpmath import iv, mp
        from mpmath.libmp import round_floor, to_int
        _ints = {ctx: {n: ctx.mpf(n) for n in (2, 3, 4, 5, 10, 100)} for ctx in (mp, iv)}
    old_mp, old_iv = mp.dps, iv.dps
    mp.dps = dps
    iv.dps = dps
    try:
        yield
    finally:
        mp.dps = old_mp
        iv.dps = old_iv


def _named(F: Factor) -> bool:
    return isinstance(F, str) and F.strip().lower() == NOVOTNY


def _rational(F: Factor):
    """The exact value of a decimal string, float or int factor spec,
    checked to be finite and to exceed 1.

    The value is a ``Fraction``, except for a decimal string whose exponent
    exceeds 400: that stays a ``Decimal``, exact at any exponent, so that a
    spec costs time in proportion to its length.  The check is exact, so a
    factor 1 + 10^-k passes for every k.
    """
    # imported on use, so that `import moserpack` and the named factor skip them
    from decimal import Decimal, InvalidOperation
    from fractions import Fraction

    if isinstance(F, str):
        try:
            dec = Decimal(F)
        except InvalidOperation:
            dec = None
        if dec is not None and dec.is_finite() and abs(dec.as_tuple().exponent) > 400:
            if dec <= 1:
                raise ValueError(f"area factor must be finite and exceed 1, got {F!r}")
            # a negative exponent that large comes with as many digits
            return dec if dec.as_tuple().exponent > 0 else Fraction(dec)
    try:
        exact = Fraction(F)
    except (ValueError, OverflowError, TypeError):
        # a float NaN or infinity, a string as mpmath spells one, or no spec type
        if isinstance(F, str) and F.strip().lower() not in ("nan", "inf", "+inf", "-inf"):
            raise ValueError(f"area factor must be finite and exceed 1 ({NOVOTNY!r} "
                             f"or a decimal number), got {F!r}") from None
        exact = None
    if exact is None or exact <= 1:
        raise ValueError(f"area factor must be finite and exceed 1, got {F!r}")
    return exact


def factor_float(F: Factor) -> float:
    """Float64 value of a factor spec (accepts ``"novotny"``), correctly rounded.

    It never loads mpmath.  For ``"novotny"``, ``(2 + math.sqrt(3)) / 3`` is
    already the correctly rounded value of (2 + sqrt(3))/3; the tests prove it.
    """
    if _named(F):
        return (2 + math.sqrt(3)) / 3
    try:
        return float(_rational(F))
    except OverflowError:  # beyond the largest float, which rounds to inf
        return math.inf


def _evaluate(spec: Factor, ctx) -> tuple:
    """(F, F - 1, c, c^2) of a factor spec in ``ctx`` at its working precision.

    F and F - 1 come from the spec's exact value: (2 + sqrt(3))/3 and
    (sqrt(3) - 1)/3 for ``"novotny"``, else the value :func:`_rational`
    gives.  Subtracting 1 from F at working precision would lose as many
    digits as F - 1 has leading zeros, which only a factor beyond 10^400
    can afford.  c is the root sqrt((3/10)^2 + x) - 3/10 with x = (F - 1)/5,
    written as x / (sqrt((3/10)^2 + x) + 3/10) so that nothing cancels when
    F - 1 is small.
    """
    k = _ints[ctx]
    three = k[3]
    if _named(spec):
        root3 = ctx.sqrt(three)
        F, e = (k[2] + root3) / three, (root3 - ctx.one) / three
    else:
        exact = _rational(spec)
        if hasattr(exact, "denominator"):
            den = exact.denominator
            F, e = ctx.mpf(exact.numerator) / den, ctx.mpf(exact.numerator - den) / den
        else:  # a Decimal beyond 10^400
            _, digits, exp = exact.as_tuple()
            F = ctx.mpf(int("".join(map(str, digits)))) * k[10] ** exp
            e = F - 1
    three_tenths = three / k[10]
    x = e / k[5]
    c = x / (ctx.sqrt(three_tenths * three_tenths + x) + three_tenths)
    return F, e, c, c * c


def _delta(F, e, V, ten=10, hundred=100):
    """delta(V) = e / (10 F / V + 1/10) with e = F - 1, written as 10 e V / (100 F + V).

    Its constants are integers, so it runs unchanged on floats, mpf values
    and intervals; the floors pass them as intervals, made once.
    """
    return ten * e * V / (hundred * F + V)


def compute_c(F: Factor) -> mpf:
    """The constant c: positive root of 5 c^2 + 3 c = F - 1, at 50 digits."""
    with _workdps(50):
        return _evaluate(F, mp)[2]


def delta_simple(F: Factor) -> mpf:
    """Edge bound delta = delta(c^2) = (F - 1) / (10 F / c^2 + 1/10), at 50 digits."""
    with _workdps(50):
        Fv, e, _, c2 = _evaluate(F, mp)
        return _delta(Fv, e, c2)


# --- certified floors -------------------------------------------------------


class _Straddles(Exception):
    """An enclosure that may straddle an integer at the working precision."""


def _floor(val, what: str) -> int:
    """Floor of the enclosure ``val``, which must not straddle an integer.

    Each endpoint is a binary mantissa and exponent, floored exactly in
    integers (no float, no rounding); an infinite or NaN endpoint straddles.
    """
    lo, hi = val._mpi_
    try:
        f_lo = to_int(lo, round_floor)
        if f_lo == to_int(hi, round_floor):
            return f_lo
    except ValueError:  # libmp's refusal of an infinite or NaN endpoint
        pass
    raise _Straddles(what, mp.make_mpf(lo), mp.make_mpf(hi))


def _certified(derive: Callable[..., object], spec: Factor):
    """``derive(F, e, c, c2)`` on the enclosures of ``spec``'s chain, its floors certified.

    ``derive`` runs at 50 digits, and again at doubled precision while one
    of its floors straddles an integer; each run evaluates the chain once.
    The doubling stops at 200 digits, or at the straddling enclosure's
    integer digits plus 50 where that is more: a value with d integer
    digits needs more than d digits before its floor shows.  A spec whose
    exact value is not below 9, where c >= 1, raises before any evaluation.
    """
    if not (_named(spec) or _rational(spec) < 9):
        raise MoserpackError(f"area factor must be below 9, where c < 1, got {spec!r}")
    dps = 50
    while True:
        with _workdps(dps):
            try:
                return derive(*_evaluate(spec, iv))
            except _Straddles as straddle:
                what, lo, hi = straddle.args
                size = max(abs(lo), abs(hi))
                digits = int(mp.log10(size)) + 1 if mp.isfinite(size) and size > 1 else 0
        cap = max(200, digits + 50)
        if dps >= cap:
            raise FloorUncertified(
                f"{what}: enclosure [{lo}, {hi}] straddles an integer at {dps} digits"
            )
        dps = min(2 * dps, cap)


def _n0_simple(F, e, c, c2) -> int:
    k = _ints[iv]
    d = _delta(F, e, c2, k[10], k[100])
    return max(1, _floor(iv.one / (d * d), "n0_simple"))


def _n0_integral(F, e, c, c2) -> int:
    one, hundred = iv.one, _ints[iv][100]
    inv_c2 = one / c2
    val = ((hundred * (F * F) * (inv_c2 - one) + (F + F) * iv.log(inv_c2) + (one - c2) / hundred)
           / (e * e))
    return 1 + _floor(val, "n0_integral")


def _derive_N(N0: int, spec: Factor) -> tuple[int, int]:
    """(N1, N) from an integer N0 >= 1; only N is floored from an enclosure.

    N1 = max(N0, S) with S = floor((10F + 1/10)^2), since floor(max(N0, x))
    = max(N0, floor(x)) for an integer N0.  S is exact integer arithmetic:
    below 9 a numeric spec is a Fraction, and (10F + 1/10)^2 = (100F + 1)^2 / 100;
    for ``"novotny"``, (10F + 1/10)^2 = (71209 + 40600 sqrt(3))/900, and
    S = (71209 + isqrt(3 * 40600^2)) // 900 = 157, because isqrt(n) is
    floor(sqrt(n)) and floor((a + y)/q) = floor((a + floor(y))/q) for
    integers a and q > 0.  N = floor(e^2 N1) is floored from ``iv.exp(2)``.
    The window (N1, N] carries harmonic mass at least ln((N + 1)/(N1 + 1)),
    decided in integers: 10^8 (N + 1) >= 271828183 (N1 + 1) puts the ratio
    at or above 2.71828183 > e, so the mass exceeds 1.
    """
    if _named(spec):
        S = (71209 + math.isqrt(3 * 40600**2)) // 900
    else:
        S = (100 * _rational(spec) + 1) ** 2 // 100
    N1 = max(N0, S)
    N = _floor(iv.exp(_ints[iv][2]) * N1, "N")
    if 10**8 * (N + 1) < 271_828_183 * (N1 + 1):
        raise MoserpackError(
            f"harmonic certificate failed: (N + 1)/(N1 + 1) = {N + 1}/{N1 + 1} is below "
            f"2.71828183, so the mass over ({N1}, {N}] is not certified to reach 1"
        )
    return N1, N


def n0_simple(F: Factor) -> int:
    """max(1, floor(1/delta^2)) with the floor interval-certified."""
    return _certified(_n0_simple, F)


def n0_integral(F: Factor) -> int:
    """1 + floor of the integral of delta(V)^-2 over [c^2, 1].

    The integrand expands to ((10F/V)^2 + 2F/V + 1/100) / (F-1)^2, whose
    antiderivative is (-100 F^2 / V + 2 F log V + V/100) / (F-1)^2.  That
    closed form, evaluated in interval arithmetic, is the certificate: the
    floor is taken from its enclosure.
    """
    return _certified(_n0_integral, F)


def harmonic_range_sum(lo: int, hi: int) -> float:
    """Direct summation of 1/i for i in [lo, hi], compensated across chunks."""
    if hi < lo:
        return 0.0
    import numpy as np

    parts = []
    chunk = 8_000_000
    i = lo
    while i <= hi:
        j = min(i + chunk - 1, hi)
        parts.append(float(np.reciprocal(np.arange(i, j + 1, dtype=np.float64)).sum()))
        i = j + 1
    return math.fsum(parts)


def derive_N(F: Factor, N0: int) -> tuple[int, int]:
    """(N1, N) from N0: N1 in exact integers, N interval-certified.

    N1 = floor(max(N0, (10F + 1/10)^2)) and N = floor(e^2 N1); the paper's
    100 c^2 never binds, as 5 c^2 + 3 c = F - 1 gives 100 c^2 < 20 (F - 1).
    The square floors exactly: (100F + 1)^2 // 100 for a numeric F < 9,
    which is a Fraction, and (71209 + isqrt(3 * 40600^2)) // 900 = 157 for
    ``"novotny"``, whose square is (71209 + 40600 sqrt(3))/900: isqrt(n) is
    floor(sqrt(n)) exactly, and floor(y/q) = floor(floor(y)/q) for an
    integer q > 0.
    The window (N1, N] carries harmonic mass sum_{i=N1+1}^{N} 1/i >= 1,
    which ensures an index with edge below c/sqrt(n) exists in it whenever
    the tail area is below c^2.  That always holds: the mass is at least
    ln((N + 1)/(N1 + 1)), and N + 1 > e^2 N1 >= e^2 (N1 + 1)/2 gives
    ln((N + 1)/(N1 + 1)) > 2 - ln 2 > 1.  It is still checked, in integers:
    10^8 (N + 1) >= 271828183 (N1 + 1) gives a ratio of at least
    2.71828183 > e, and a wrong N raises :class:`MoserpackError`.
    """
    if N0 < 1:
        raise ValueError(f"N0 must be >= 1, got {N0}")
    return _certified(lambda *chain: _derive_N(N0, F), F)


# --- refined edge bound over the compact K ----------------------------------


def delta_refined(F: Factor) -> mpf:
    """min(delta_1, c^2 / 10) where delta_1 minimizes f over K, in closed form.

    K is the compact set c^2 <= V <= 1, sqrt(F V) <= H <= 10 F with
    non-negative discriminant, and f(V, H) is the smaller root of
    x^2 + (H - x)(F V / H - x) = V.  With q = (H + F V / H)/4 and
    a = (F - 1) V / 2 that root is f = q - sqrt(q^2 - a) = a / (q + sqrt(q^2 - a)).
    The minimum sits at the corner (c^2, 10 F):

    1. For fixed V, f decreases in q, since df/dq = 1 - q / sqrt(q^2 - a) < 0.
    2. q increases in H for H >= sqrt(F V), so the minimum over H is on the
       top edge H = 10 F, where q >= 5 F / 2 makes q^2 > a.
    3. Along H = 10 F, q = (10 F + V / 10)/4, so with ' for d/dV,
       q' = 1/40, a' = (F - 1)/2 and df/dV = (a'/2 - q' f) / sqrt(q^2 - a):
       df/dV > 0 iff f < 10 (F - 1).
    4. That holds because f <= a / q <= (F - 1) / (5 F) for V <= 1, so the
       minimum over V is at V = c^2: delta_1 = f(c^2, 10 F).

    At the same corner delta_simple = a / (2 q) <= f, so delta_simple never
    exceeds the result.  f is evaluated in its cancellation-free form in
    outward-rounded interval arithmetic and the lower endpoint is returned.
    As for every certified result, F >= 9 (c >= 1) raises :class:`MoserpackError`.
    """
    return _certified(_delta_refined, F)


def _delta_refined(Fi, e, c, c2) -> mpf:
    k = _ints[iv]
    cap = c2 / k[10]
    q = (k[10] * Fi + cap) / k[4]
    a = e * c2 / k[2]
    f = a / (q + iv.sqrt(q * q - a))
    return min(mp.mpf(f.a), mp.mpf(cap.a))


# --- report ------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantsReport:
    """All constants for one factor, decimal strings plus exact integers."""

    F: str
    c: str
    delta_simple: str
    delta_refined: Optional[str]
    N0_simple: int
    N0_integral: int
    N1: int
    N: int
    use_integral_n0: bool
    floor_certificates: dict


def build_report(F: Factor, *, refined: bool = False,
                 use_integral_n0: bool = False) -> ConstantsReport:
    """Run the full pipeline for one factor and package the results.

    ``use_integral_n0`` selects which N0 feeds the N1/N chain; both N0
    forms are always computed and reported.  The root identity is
    re-checked before the report is returned.  By construction, with no
    cache, the chain is evaluated once in ``iv`` per precision the floors
    reach, then once in ``mp`` at 50 digits for the strings and the check;
    the refined edge comes from the floors' own enclosures.
    """
    return _report_and_c(F, refined, use_integral_n0)[0]


def _report_and_c(F: Factor, refined: bool, use_integral_n0: bool) -> tuple[ConstantsReport, mpf]:
    """:func:`build_report` and the 50-digit c its ``mp`` chain computed, which is
    :func:`compute_c`'s value."""

    def floors(*values):
        d_ref = _delta_refined(*values) if refined else None
        n0s = _n0_simple(*values)
        n0i = _n0_integral(*values)
        if n0i > n0s:
            raise MoserpackError(f"integral N0 {n0i} exceeds simple N0 {n0s}")
        return (d_ref, n0s, n0i) + _derive_N(n0i if use_integral_n0 else n0s, F)

    d_ref, n0s, n0i, N1, N = _certified(floors, F)
    with _workdps(50):
        Fv, e, c, c2 = _evaluate(F, mp)
        root_resid = abs(5 * c2 + 3 * c - e)
        if root_resid > _ROOT_TOL:
            raise MoserpackError(f"root identity residual {root_resid}")
        f_str = mp.nstr(Fv, 30)
        c_str = mp.nstr(c, 30)
        d_str = mp.nstr(_delta(Fv, e, c2), 30)
    d_ref_str = None if d_ref is None else mp.nstr(d_ref, 30)
    certs = {"N0_simple": True, "N0_integral": True, "N1": True, "N": True}
    report = ConstantsReport(
        F=f_str, c=c_str, delta_simple=d_str, delta_refined=d_ref_str,
        N0_simple=n0s, N0_integral=n0i, N1=N1, N=N,
        use_integral_n0=use_integral_n0, floor_certificates=certs,
    )
    return report, c


def report_to_dict(report: ConstantsReport) -> dict:
    return asdict(report)
