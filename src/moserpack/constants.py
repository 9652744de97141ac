"""Certified derivation of the square-count reduction constants.

For an area factor F > 1, with e = F - 1, the chain of constants is

    c      positive root of 5 c^2 + 3 c = F - 1,
           i.e. 2 e / (3 + sqrt(9 + 20 e))
    delta  (F - 1) / (10 F / c^2 + 1/10)          (worst admissible edge)
    delta1 min(f(c^2, 10 F), c^2 / 10)             (refined edge)
    N0     max(1, floor(1 / delta^2))             (simple form)
    N0'    1 + floor( integral of delta(V)^-2 dV over [c^2, 1] )
    N1     floor(max(N0, (10 F + 1/10)^2))
    N      floor(e^2 * N1)

with delta(V) = (F - 1) / (10 F / V + 1/10) and f(V, H) the smaller root of
x^2 + (H - x)(F V / H - x) = V, minimized over its domain K at the corner
(c^2, 10 F); see :func:`delta_refined`.  The paper's N1 also takes 100 c^2,
which never binds: 5 c^2 + 3 c = F - 1 gives 100 c^2 < 20 (F - 1) < (10 F + 1/10)^2.

Arithmetic.  A pass works at one scale 2^p.  Every value is a bracket
[lo, hi] / 2^p of non-negative integers, rounded outward at every step (lo
down, hi up), so the true value lies in it; no float and no third-party
code takes part.  F and F - 1 come from the spec's exact value: a fraction
(see :func:`_rational`), or (2 + sqrt(3))/3 for ``"novotny"``, so no digit
of F - 1 is lost near F = 1.  A square root is ``math.isqrt``, which is
floor(sqrt(n)) exactly.  Small values are carried as their reciprocals,
which fixed point holds to full relative precision:
w = 1/(F - 1), u = 1/c = (3 + sqrt(9 + 20 e)) w / 2 and
1/delta = 10 F u^2 w + w/10.  The two transcendental values are series with
explicit remainders:

- ln y = k ln 2 + 2 atanh(t) with z = y / 2^k in [1, 2) and
  t = (z - 1)/(z + 1) in [0, 1/3), and ln 2 = 2 atanh(1/3).  After J terms
  of atanh(t) = sum t^(2j+1)/(2j+1) the remainder is at most
  t^(2J+1) / ((2J + 1)(1 - t^2)).
- e^2 = sum 2^k/k!.  After K terms the remainder is at most
  2^K/K! (K + 1)/(K - 1).

Each series runs until its next term floors to 0; the upper end adds what
the floors lost and the remainder bound.

Schedule.  Certified results need c < 1, i.e. F < 9 as c grows to 1 at
F = 9: :func:`_certified` checks that on the spec's exact value before it
evaluates anything.  A pass evaluates the chain (F, w, u, u^2) once and
hands it to every floor and digit of the pass, with no cache object and
nothing computed from a factor kept across calls.  The first pass takes
p = 192 + 6 k, where 2^-k is about F - 1 (k = 0 from F = 2 on): delta
shrinks like (F - 1)^3, so 1/delta^2 has about 6 k integer bits.  While a
floor straddles an integer, or a rounded digit its rounding boundary, p
doubles, up to 4 times the first p or the straddling value's integer bits
plus 192, whichever is more; :class:`~moserpack.errors.FloorUncertified` is
raised past that point.  N1 takes no bracket (see :func:`_derive_N`), and
the integral form is floored from its antiderivative in closed form.

Digits.  The report's F, c, delta and delta1 are 30 significant digits and
:func:`compute_c`, :func:`delta_simple` and :func:`delta_refined` return
50-digit ``decimal.Decimal`` values.  Each is rounded to nearest from a
bracket whose two ends round alike (an exact tie rounds toward zero), except
delta_refined, which is its bracket's lower end rounded down, so that it stays
a certified lower bound.  When c is rational (see :func:`_c_delta`), c, delta
and the simple N0 come from exact fractions by the same rules instead, since
no bracket decides an exact tie or an integer 1/delta^2.  Strings are
spelled as mpmath's ``nstr`` spells them: fixed form for decimal exponents
in (-10, 30), else ``d.ddde+X``, trailing zeros stripped, ``.0`` kept.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Optional, Union

from ._value import Frozen, as_dict
from .errors import FloorUncertified, MoserpackError

if TYPE_CHECKING:
    from decimal import Decimal

Factor = Union[str, float, int]

#: Symbolic factor name accepted everywhere a factor is: (2 + sqrt(3))/3.
NOVOTNY = "novotny"


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

    For ``"novotny"``, ``(2 + math.sqrt(3)) / 3`` is already the correctly
    rounded value of (2 + sqrt(3))/3; the tests prove it.
    """
    if _named(F):
        return (2 + math.sqrt(3)) / 3
    try:
        return float(_rational(F))
    except OverflowError:  # beyond the largest float, which rounds to inf
        return math.inf


def _delta(F: float, e: float, V: float) -> float:
    """delta(V) = e / (10 F / V + 1/10), e = F - 1, as 10 e V / (100 F + V) in floats."""
    return 10 * e * V / (100 * F + V)


# --- brackets [lo, hi] / 2^p ------------------------------------------------


class _Straddles(Exception):
    """A bracket that straddles an integer or a rounding boundary at this scale:
    the message, and the value's integer bits."""


def _mul(x: tuple, y: tuple, p: int) -> tuple:
    return x[0] * y[0] >> p, -(-x[1] * y[1] >> p)


def _inv(x: tuple, p: int) -> tuple:
    return (1 << 2 * p) // x[1], -(-(1 << 2 * p) // x[0])


def _sqrt(x: tuple, p: int) -> tuple:
    return math.isqrt(x[0] << p), math.isqrt(x[1] << p) + 1


def _evaluate(v, p: int) -> tuple:
    """(F, w, u, u^2) at scale 2^p, w = 1/(F - 1) and u = 1/c, for the exact
    value ``v`` of a spec below 9, or ``None`` for ``"novotny"``.

    For ``"novotny"``, sqrt(3) 2^p lies strictly between r = isqrt(3 4^p)
    and r + 1, F = (2 + sqrt(3))/3, F - 1 = (sqrt(3) - 1)/3 and
    w = 3 (sqrt(3) + 1)/2.  u exceeds 1, as c < 1 below F = 9.
    """
    one = 1 << p
    if v is None:
        r = math.isqrt(3 << 2 * p)
        F = (2 * one + r) // 3, -(-(2 * one + r + 1) // 3)
        e = (r - one) // 3, -(-(r + 1 - one) // 3)
        w = 3 * (r + one) >> 1, -(-3 * (r + 1 + one) >> 1)
    else:
        n, d = v.numerator - v.denominator, v.denominator
        e = (n << p) // d, -(-(n << p) // d)
        F = e[0] + one, e[1] + one
        w = (d << p) // n, -(-(d << p) // n)
    s = _sqrt((9 * one + 20 * e[0], 9 * one + 20 * e[1]), p)
    u = max(one, (3 * one + s[0]) * w[0] >> (p + 1)), -(-(3 * one + s[1]) * w[1] >> (p + 1))
    return F, w, u, _mul(u, u, p)


def _atanh(t: int, p: int) -> tuple:
    """atanh(x) for any x with t <= x 2^p < t + 1 and x <= 1/3.

    The powers of t / 2^p are floored, each less than 5/3 units below the
    power of x, so each term is less than 8/3 units low; the series stops
    when its next power floors to 0, where the power of x is below 5/3
    units, which leaves a remainder below 15/8 units.  After J terms the
    upper end adds 2 (2 J + 1) units, which covers those 8/3 J + 15/8.
    """
    t2 = t * t >> p
    total, j = 0, 1
    while t:
        total += t // j
        t = t * t2 >> p
        j += 2
    return total, total + 2 * j


def _ln(y: tuple, p: int) -> tuple:
    """ln y for a bracket y >= 1: k ln 2 + 2 atanh((z - 1)/(z + 1)) at the
    lower end, z = y_lo / 2^k in [1, 2), plus ln(y_hi / y_lo) <= y_hi / y_lo - 1."""
    lo, hi = y
    k = lo.bit_length() - 1 - p
    m = 1 << (p + k)
    ln2 = _atanh((1 << p) // 3, p)
    t = _atanh(((lo - m) << p) // (lo + m), p)
    return 2 * (k * ln2[0] + t[0]), 2 * (k * ln2[1] + t[1]) - (-((hi - lo) << p) // lo)


def _exp2(p: int) -> tuple:
    """e^2 = sum 2^k/k!: each term floored, less than 2 units low, until one floors to 0."""
    term, total, k = 1 << p, 0, 0
    while term:
        total += term
        k += 1
        term = 2 * term // k
    return total, total + 2 * k + 3


def _floor(lo: int, hi: int, q: int, what: str) -> int:
    """Floor of the bracket [lo, hi] / 2^q, which must not straddle an integer."""
    n = lo >> q
    if n != hi >> q:
        raise _Straddles(f"{what}: enclosure {_show(lo, hi, q)} straddles an integer",
                         hi.bit_length() - q)
    return n


def _round(num: int, den: int, n: int, rounding: str = "ROUND_HALF_DOWN") -> Decimal:
    """num/den to n significant digits: to nearest with an exact tie rounded
    down, or with ``"ROUND_DOWN"`` down.  ``decimal`` divides exactly rounded."""
    from decimal import Context, Decimal

    return Context(prec=n, rounding=rounding).divide(Decimal(num), Decimal(den))


def _digits(y, p: int, n: int, what: str) -> Decimal:
    """:func:`_round` of an exact fraction ``y``, or of the bracket ``y``,
    whose two ends must round alike."""
    if not isinstance(y, tuple):
        from decimal import Context, Decimal

        # an exact quotient keeps only its own digits: pad it to n, as a bracket's are
        got = _round(y.numerator, y.denominator, n)
        return Context(prec=n).quantize(got, Decimal(1).scaleb(got.adjusted() + 1 - n))
    got = _round(y[0], 1 << p, n)
    if got != _round(y[1], 1 << p, n):
        raise _Straddles(f"{what}: enclosure {_show(*y, p)} straddles a rounding "
                         f"boundary of {n} digits", 0)
    return got


def _spell(d: Decimal, n: int = 30) -> str:
    """``mpmath.nstr``'s spelling of an n-digit value."""
    fixed = min(-(n // 3), -5) < d.adjusted() < n
    mantissa, e, exponent = f"{d:{'f' if fixed else 'e'}}".partition("e")
    if "." in mantissa:
        mantissa = mantissa.rstrip("0").rstrip(".")
    return mantissa + ("" if "." in mantissa else ".0") + e + exponent


def _show(lo: int, hi: int, q: int) -> str:
    return f"[{_spell(_round(lo, 1 << q, 15), 15)}, {_spell(_round(hi, 1 << q, 15), 15)}]"


# --- certified results ------------------------------------------------------


def _certified(derive: Callable[..., object], spec: Factor):
    """``derive(v, p)`` with its floors and digits certified, for the spec's
    exact value ``v`` (``None`` for ``"novotny"``) at the scales 2^p of the
    module docstring's schedule, with k the bit length of v's denominator less
    that of F - 1's numerator.  A spec not below 9 raises before any evaluation.
    """
    v = None
    if not _named(spec):
        v = _rational(spec)
        if not v < 9:
            raise MoserpackError(f"area factor must be below 9, where c < 1, got {spec!r}")
    p = start = 192 if v is None else 192 + 6 * max(
        0, v.denominator.bit_length() - (v.numerator - v.denominator).bit_length())
    while True:
        try:
            return derive(v, p)
        except _Straddles as straddle:
            text, bits = straddle.args
        cap = max(4 * start, bits + 192)
        if p >= cap:
            raise FloorUncertified(f"{text} at {p} bits")
        p = min(2 * p, cap)


def _inv_delta(chain: tuple, p: int) -> tuple:
    """1/delta = (100 F + c^2) / (10 e c^2) = 10 F u^2 w + w/10."""
    F, w, _, u2 = chain
    t = _mul(_mul(F, u2, p), w, p)
    return 10 * t[0] + w[0] // 10, 10 * t[1] - (-w[1] // 10)


def _c_delta(v, p: int, chain: Optional[tuple] = None) -> tuple:
    """(c, delta, 1/delta): fractions when c is rational, else brackets at 2^p
    from ``chain``, which is evaluated here when not given.

    c = 2 e / (3 + sqrt(9 + 20 e)) is rational exactly when the spec is a
    number and 9 + 20 e = a/b in lowest terms has a and b perfect squares;
    then so is delta = 10 e c^2 / (100 F + c^2).  A bracket of such a value
    straddles at every scale when the value is a rounding tie, or when
    1/delta^2 is an integer, so these values are rounded and floored exactly.
    """
    if v is not None:
        e = v - 1
        t = 9 + 20 * e
        a, b = math.isqrt(t.numerator), math.isqrt(t.denominator)
        if a * a == t.numerator and b * b == t.denominator:
            c = 2 * e * b / (3 * b + a)
            delta = 10 * e * c * c / (100 * v + c * c)
            return c, delta, 1 / delta
    chain = chain or _evaluate(v, p)
    d = _inv_delta(chain, p)
    return _inv(chain[2], p), _inv(d, p), d


def _n0_simple(d, p: int) -> int:
    """max(1, floor(1/delta^2)) from 1/delta, an exact fraction or a bracket."""
    if not isinstance(d, tuple):
        return max(1, d.numerator ** 2 // d.denominator ** 2)
    return max(1, _floor(d[0] * d[0], d[1] * d[1], 2 * p, "n0_simple"))


def _n0_integral(chain: tuple, p: int) -> int:
    """1 + floor((100 F^2 (u^2 - 1) + 2 F ln u^2 + (u^2 - 1) / (100 u^2)) w^2),
    the antiderivative of :func:`n0_integral` with 1/c^2 = u^2 and V/100 = c^2/100."""
    F, w, _, u2 = chain
    g = u2[0] - (1 << p), u2[1] - (1 << p)
    a = _mul(_mul(F, F, p), g, p)
    b = _mul(F, _ln(u2, p), p)
    t = (g[0] << p) // (100 * u2[1]), -(-(g[1] << p) // (100 * u2[0]))
    val = _mul((100 * a[0] + 2 * b[0] + t[0], 100 * a[1] + 2 * b[1] + t[1]), _mul(w, w, p), p)
    return 1 + _floor(*val, p, "n0_integral")


def n0_simple(F: Factor) -> int:
    """max(1, floor(1/delta^2)) with the floor certified."""
    return _certified(lambda v, p: _n0_simple(_c_delta(v, p)[2], p), F)


def n0_integral(F: Factor) -> int:
    """1 + floor of the integral of delta(V)^-2 over [c^2, 1].

    The integrand expands to ((10F/V)^2 + 2F/V + 1/100) / (F-1)^2, whose
    antiderivative is (-100 F^2 / V + 2 F log V + V/100) / (F-1)^2.  That
    closed form, evaluated in integer brackets, is the certificate: the
    floor is taken from its bracket.
    """
    return _certified(lambda v, p: _n0_integral(_evaluate(v, p), p), F)


def _derive_N(N0: int, v, p: int) -> tuple[int, int]:
    """(N1, N) from an integer N0 >= 1; only N is floored from a bracket.

    N1 = max(N0, S) with S = floor((10F + 1/10)^2), since floor(max(N0, x))
    = max(N0, floor(x)) for an integer N0.  S is exact integer arithmetic:
    below 9 a numeric spec is a Fraction, and (10F + 1/10)^2 = (100F + 1)^2 / 100;
    for ``"novotny"``, (10F + 1/10)^2 = (71209 + 40600 sqrt(3))/900, and
    S = (71209 + isqrt(3 * 40600^2)) // 900 = 157, because isqrt(n) is
    floor(sqrt(n)) and floor((a + y)/q) = floor((a + floor(y))/q) for
    integers a and q > 0.  N = floor(e^2 N1) is floored from e^2's series.
    The window (N1, N] carries harmonic mass at least ln((N + 1)/(N1 + 1)),
    decided in integers: 10^8 (N + 1) >= 271828183 (N1 + 1) puts the ratio
    at or above 2.71828183 > e, so the mass exceeds 1.
    """
    if v is None:
        S = (71209 + math.isqrt(3 * 40600**2)) // 900
    else:
        S = (100 * v + 1) ** 2 // 100
    N1 = max(N0, S)
    lo, hi = _exp2(p)
    N = _floor(lo * N1, hi * N1, p, "N")
    if 10**8 * (N + 1) < 271_828_183 * (N1 + 1):
        raise MoserpackError(
            f"harmonic certificate failed: (N + 1)/(N1 + 1) = {N + 1}/{N1 + 1} is below "
            f"2.71828183, so the mass over ({N1}, {N}] is not certified to reach 1"
        )
    return N1, N


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
    """(N1, N) from N0: N1 = floor(max(N0, (10F + 1/10)^2)) in exact
    integers and N = floor(e^2 N1) from a bracket of e^2 alone; the chain
    of F is not evaluated.  See :func:`_derive_N`.

    The window (N1, N] carries harmonic mass sum_{i=N1+1}^{N} 1/i >= 1,
    which ensures an index with edge below c/sqrt(n) exists in it whenever
    the tail area is below c^2.  That always holds: the mass is at least
    ln((N + 1)/(N1 + 1)), and N + 1 > e^2 N1 >= e^2 (N1 + 1)/2 gives
    ln((N + 1)/(N1 + 1)) > 2 - ln 2 > 1.  It is still checked, in
    integers, and a wrong N raises :class:`MoserpackError`.
    """
    if N0 < 1:
        raise ValueError(f"N0 must be >= 1, got {N0}")
    return _certified(lambda v, p: _derive_N(N0, v, p), F)


def compute_c(F: Factor) -> Decimal:
    """The constant c: positive root of 5 c^2 + 3 c = F - 1, to 50 digits."""
    return _certified(lambda v, p: _digits(_c_delta(v, p)[0], p, 50, "c"), F)


def delta_simple(F: Factor) -> Decimal:
    """Edge bound delta = delta(c^2) = (F - 1) / (10 F / c^2 + 1/10), to 50 digits."""
    return _certified(lambda v, p: _digits(_c_delta(v, p)[1], p, 50, "delta_simple"), F)


# --- refined edge bound over the compact K ----------------------------------


def delta_refined(F: Factor) -> Decimal:
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
    exceeds the result.  f is bracketed in its cancellation-free form and the
    bracket's lower end, rounded down to 50 digits, is returned.  As for
    every certified result, F >= 9 (c >= 1) raises :class:`MoserpackError`.
    """
    return _certified(
        lambda v, p: _round(_delta_refined(_evaluate(v, p), p)[0], 1 << p, 50, "ROUND_DOWN"), F)


def _delta_refined(chain: tuple, p: int) -> tuple:
    """min(f, c^2/10) as 1/max(1/f, 10 u^2), with 1/f = (q + sqrt(q^2 - a)) / a,
    q = (10 F + c^2/10)/4 and 1/a = 2 u^2 w."""
    F, w, _, u2 = chain
    tenth = _inv((10 * u2[0], 10 * u2[1]), p)
    q = 10 * F[0] + tenth[0] >> 2, -(-(10 * F[1] + tenth[1]) >> 2)
    inv_a = _mul((2 * u2[0], 2 * u2[1]), w, p)
    a = _inv(inv_a, p)
    root = _sqrt(((q[0] * q[0] >> p) - a[1], -(-q[1] * q[1] >> p) - a[0]), p)
    f = _mul((q[0] + root[0], q[1] + root[1]), inv_a, p)
    return _inv((max(f[0], 10 * u2[0]), max(f[1], 10 * u2[1])), p)


# --- report ------------------------------------------------------------------


class ConstantsReport(Frozen):
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
    forms are always computed and reported.  By construction, with no
    cache, the chain is evaluated once per scale the pass reaches, and
    every floor and string comes from it.
    """
    return _report_and_c(F, refined, use_integral_n0)[0]


def _report_and_c(F: Factor, refined: bool,
                  use_integral_n0: bool) -> tuple[ConstantsReport, Decimal]:
    """:func:`build_report` and the 50-digit c of its pass, which is
    :func:`compute_c`'s value."""

    def derive(v, p):
        def text(y, what: str) -> str:
            return _spell(_digits(y, p, 30, what))

        chain = _evaluate(v, p)
        c, delta, inv_delta = _c_delta(v, p, chain)
        n0s, n0i = _n0_simple(inv_delta, p), _n0_integral(chain, p)
        if n0i > n0s:
            raise MoserpackError(f"integral N0 {n0i} exceeds simple N0 {n0s}")
        N1, N = _derive_N(n0i if use_integral_n0 else n0s, v, p)
        report = ConstantsReport(
            F=text(chain[0] if v is None else v, "F"),
            c=text(c, "c"), delta_simple=text(delta, "delta_simple"),
            delta_refined=text(_delta_refined(chain, p), "delta_refined") if refined else None,
            N0_simple=n0s, N0_integral=n0i, N1=N1, N=N, use_integral_n0=use_integral_n0,
            floor_certificates={"N0_simple": True, "N0_integral": True, "N1": True, "N": True},
        )
        return report, _digits(c, p, 50, "c")

    return _certified(derive, F)


def report_to_dict(report: ConstantsReport) -> dict:
    return as_dict(report)
