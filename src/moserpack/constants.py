"""Certified derivation of the square-count reduction constants.

For an area factor F > 1 the chain of constants is

    c      positive root of 5 c^2 + 3 c = F - 1,
           i.e. sqrt((3/10)^2 + (F - 1)/5) - 3/10
    delta  (F - 1) / (10 F / c^2 + 1/10)          (worst admissible edge)
    delta1 min(f(c^2, 10 F), c^2 / 10)             (refined edge, F <= 9)
    N0     max(1, floor(1 / delta^2))             (simple form)
    N0'    1 + floor( integral of delta(V)^-2 dV over [c^2, 1] )
    N1     floor(max(N0, (10 F + 1/10)^2, 100 c^2))
    N      floor(e^2 * N1)

with delta(V) = (F - 1) / (10 F / V + 1/10) and f(V, H) the smaller root of
x^2 + (H - x)(F V / H - x) = V, minimized over its domain K at the corner
(c^2, 10 F); see :func:`delta_refined`.

Each formula is written once and evaluates in either mpmath context:
``mp`` for reported values, ``iv`` for certificates.  Everything feeding a
floor is evaluated in outward-rounded interval arithmetic (``iv``, e^2 from
``iv.exp``) starting at 50 decimal digits and doubling up to 200 until the
enclosure no longer straddles an integer;
:class:`~moserpack.errors.FloorUncertified` is raised past that point.
The integral form is floored from its antiderivative in closed form; no
numerical quadrature runs.  The window (N1, N] is certified to carry
harmonic mass at least 1 by the closed-form bound
sum_{i=a}^{b} 1/i >= ln((b + 1)/a), also evaluated in ``iv``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Union

from mpmath import iv, mp, mpf

from .errors import FloorUncertified, MoserpackError
from .geometry import Instance

Factor = Union[str, float, int, mpf]

#: Symbolic factor name accepted everywhere a factor is: (2 + sqrt(3))/3.
NOVOTNY = "novotny"

_ROOT_TOL = 1e-12


@contextmanager
def _workdps(dps: int):
    old_mp, old_iv = mp.dps, iv.dps
    mp.dps = dps
    iv.dps = dps
    try:
        yield
    finally:
        mp.dps = old_mp
        iv.dps = old_iv


def _factor(F: Factor, ctx):
    """A factor spec in ``ctx``: an mpf under ``mp``, an enclosure under ``iv``.

    Accepts the symbolic name ``"novotny"`` for (2 + sqrt(3))/3, a decimal
    string, or a number.  The factor must be finite and exceed 1.
    """
    if isinstance(F, str) and F.strip().lower() == NOVOTNY:
        val = (2 + ctx.sqrt(3)) / 3
    else:
        try:
            val = ctx.mpf(F)
        except ValueError:
            raise ValueError(f"area factor must be finite and exceed 1 ({NOVOTNY!r} "
                             f"or a decimal number), got {F!r}") from None
    # iv turns a NaN into [-inf, +inf], so the upper end decides in both contexts.
    top = mp.mpf(val.b if ctx is iv else val)
    if not (mp.isfinite(top) and top > 1):
        raise ValueError(f"area factor must be finite and exceed 1, got {F!r}")
    return val


def factor_float(F: Factor) -> float:
    """Float64 value of a factor spec (accepts ``"novotny"``)."""
    with _workdps(50):
        return float(_factor(F, mp))


def _ctx(x):
    return iv if isinstance(x, iv.mpf) else mp


def _c_of(F):
    """c from F; works for both mpf and interval operands."""
    ctx = _ctx(F)
    three_tenths = ctx.mpf(3) / 10
    return ctx.sqrt(three_tenths ** 2 + (F - 1) / 5) - three_tenths


def _delta(F, V):
    """delta(V) = (F - 1) / (10 F / V + 1/10) for float, mpf or interval operands."""
    tenth = _ctx(F).mpf(1) / 10 if isinstance(F, (mpf, iv.mpf)) else 0.1
    return (F - 1) / (10 * F / V + tenth)


def compute_c(F: Factor, dps: int = 50) -> mpf:
    """The constant c: positive root of 5 c^2 + 3 c = F - 1."""
    with _workdps(dps):
        return _c_of(_factor(F, mp))


def delta_simple(F: Factor, dps: int = 50) -> mpf:
    """Edge bound delta = delta(c^2) = (F - 1) / (10 F / c^2 + 1/10)."""
    with _workdps(dps):
        Fv = _factor(F, mp)
        c = _c_of(Fv)
        return _delta(Fv, c * c)


def delta_of_V(F: Factor, V: float) -> mpf:
    """Per-area edge bound delta(V) = (F - 1) / (10 F / V + 1/10).

    The tail area V must lie in [c^2, 1].
    """
    with _workdps(50):
        Fv = _factor(F, mp)
        c = _c_of(Fv)
        Vv = mp.mpf(V)
        if not c * c - _ROOT_TOL <= Vv <= 1 + _ROOT_TOL:
            raise ValueError(f"V={V} outside [c^2, 1] = [{float(c * c)}, 1]")
        return _delta(Fv, Vv)


# --- certified floors -------------------------------------------------------


def _certified_floor(make: Callable[[], object], what: str,
                     start_dps: int = 50, max_dps: int = 200) -> int:
    """Floor of an interval-valued computation, certified unambiguous.

    ``make`` is re-run with mp/iv precision doubling from ``start_dps`` to
    ``max_dps`` until the enclosure [lo, hi] satisfies
    floor(lo) == floor(hi), i.e. it cannot straddle an integer.
    """
    dps = start_dps
    while True:
        with _workdps(dps):
            val = make()
            lo, hi = mp.mpf(val.a), mp.mpf(val.b)
            f_lo, f_hi = mp.floor(lo), mp.floor(hi)
            if f_lo == f_hi:
                return int(f_lo)
        if dps >= max_dps:
            raise FloorUncertified(
                f"{what}: enclosure [{lo}, {hi}] straddles an integer at {dps} digits"
            )
        dps = min(2 * dps, max_dps)


def n0_simple(F: Factor) -> int:
    """max(1, floor(1/delta^2)) with the floor interval-certified."""

    def make():
        Fi = _factor(F, iv)
        c = _c_of(Fi)
        d = _delta(Fi, c * c)
        return 1 / (d * d)

    return max(1, _certified_floor(make, "n0_simple"))


def n0_integral(F: Factor) -> int:
    """1 + floor of the integral of delta(V)^-2 over [c^2, 1].

    The integrand expands to ((10F/V)^2 + 2F/V + 1/100) / (F-1)^2, whose
    antiderivative is (-100 F^2 / V + 2 F log V + V/100) / (F-1)^2.  That
    closed form, evaluated in interval arithmetic, is the certificate: the
    floor is taken from its enclosure.
    """

    def make():
        Fi = _factor(F, iv)
        a = _c_of(Fi) ** 2
        return (100 * Fi ** 2 * (1 / a - 1) + 2 * Fi * iv.log(1 / a) + (1 - a) / 100) / (Fi - 1) ** 2

    return 1 + _certified_floor(make, "n0_integral")


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


def _harmonic_lower(a: int, b: int) -> mpf:
    """Certified lower bound on sum_{i=a}^{b} 1/i for 1 <= a <= b.

    Each term satisfies 1/i >= integral of dx/x over [i, i + 1], so the sum
    is at least ln((b + 1)/a); the result is the lower endpoint of an
    outward-rounded enclosure of that logarithm at 50 digits.
    """
    with _workdps(50):
        return mp.mpf(iv.log(iv.mpf(b + 1) / a).a)


def derive_N(F: Factor, N0: int) -> tuple[int, int]:
    """(N1, N) from N0: the two outer floors, interval-certified.

    N1 = floor(max(N0, (10F + 1/10)^2, 100 c^2)) and N = floor(e^2 N1).
    The window (N1, N] carries harmonic mass sum_{i=N1+1}^{N} 1/i >= 1,
    which ensures an index with edge below c/sqrt(n) exists in it whenever
    the tail area is below c^2.  That always holds: the mass is at least
    ln((N + 1)/(N1 + 1)), and N + 1 > e^2 N1 >= e^2 (N1 + 1)/2 gives
    ln((N + 1)/(N1 + 1)) > 2 - ln 2 > 1.  The bound is still evaluated in
    interval arithmetic, so a wrong N raises :class:`MoserpackError`.
    """
    if N0 < 1:
        raise ValueError(f"N0 must be >= 1, got {N0}")

    def make_n1():
        Fi = _factor(F, iv)
        c = _c_of(Fi)
        cands = [iv.mpf(N0), (10 * Fi + iv.mpf(1) / 10) ** 2, 100 * c * c]
        lo = max(mp.mpf(x.a) for x in cands)
        hi = max(mp.mpf(x.b) for x in cands)
        return iv.mpf([lo, hi])

    N1 = _certified_floor(make_n1, "N1")
    N = _certified_floor(lambda: iv.exp(2) * N1, "N")
    mass = _harmonic_lower(N1 + 1, N)
    if mass < 1:
        raise MoserpackError(
            f"harmonic certificate failed: mass over ({N1}, {N}] bounded only by {mass} < 1"
        )
    return N1, N


def find_small_index(inst: Instance, c: float, N1: int, N: int) -> Optional[int]:
    """Smallest n in (N1, N] with s_n < c / sqrt(n), treating missing sides as 0.

    Returns None when no such index exists (possible only if the instance
    carries at least N positive-or-zero sides all at or above the bound).
    """
    if not 0 < c < math.inf:
        raise ValueError(f"c must be positive and finite, got {c}")
    if not 0 <= N1 < N:
        raise ValueError(f"need 0 <= N1 < N, got N1={N1}, N={N}")
    sides = inst.sides
    m = len(sides)
    hi = min(N, m)
    if N1 + 1 <= hi:
        # imported on use, so that `import moserpack` loads no numpy
        import numpy as np

        idx = np.arange(N1 + 1, hi + 1, dtype=np.float64)
        vals = np.asarray(sides[N1:hi], dtype=np.float64)
        hits = np.nonzero(vals < c / np.sqrt(idx))[0]
        if hits.size:
            return N1 + 1 + int(hits[0])
    if m < N:
        return max(N1 + 1, m + 1)
    return None


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
    K is empty when c > 1, i.e. F > 9, and :class:`MoserpackError` is raised.
    """
    with _workdps(50):
        Fi = _factor(F, iv)
        c2 = _c_of(Fi) ** 2
        c2_lo = mp.mpf(c2.a)
        if c2_lo > 1:
            raise MoserpackError(f"K is empty for F = {F!r} > 9: c^2 >= {mp.nstr(c2_lo, 15)} > 1")
        cap = c2 / 10
        q = (10 * Fi + cap) / 4
        a = (Fi - 1) * c2 / 2
        f = a / (q + iv.sqrt(q * q - a))
        return min(mp.mpf(f.a), mp.mpf(cap.a))


# --- two-square lower bound --------------------------------------------------


def two_square_worst_case() -> tuple[float, float]:
    """Worst pair of squares with total area 1 for a snug rectangle.

    For s1 in (1/sqrt(2), 1) the two squares s1 >= s2 = sqrt(1 - s1^2)
    must stand side by side, needing area g = s1 (s1 + s2).  Returns
    (argmax, max) = (cos(pi/8), (1 + sqrt(2))/2) in closed form: with
    s1 = cos t for t in (0, pi/4), s2 = sin t and
    g = cos^2 t + cos t sin t = (1 + cos 2t + sin 2t)/2
      = (1 + sqrt(2) sin(2t + pi/4))/2,
    which is largest, at (1 + sqrt(2))/2, where 2t + pi/4 = pi/2, i.e. t = pi/8.
    """
    return math.cos(math.pi / 8), (1 + math.sqrt(2)) / 2


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
    forms are always computed and reported.  Root and sanity identities
    are re-checked before the report is returned.
    """
    with _workdps(50):
        Fv = _factor(F, mp)
        c = _c_of(Fv)
        if not (0 < c < 1):
            raise MoserpackError(f"c = {c} outside (0, 1)")
        if not 4 * c * c <= Fv:
            raise MoserpackError(f"4 c^2 = {4 * c * c} exceeds F = {Fv}")
        root_resid = abs(5 * c * c + 3 * c - (Fv - 1))
        if root_resid > _ROOT_TOL:
            raise MoserpackError(f"root identity residual {root_resid}")
        d_simple = _delta(Fv, c * c)
        f_str = mp.nstr(Fv, 30)
        c_str = mp.nstr(c, 30)
        d_str = mp.nstr(d_simple, 30)

    d_ref_str = mp.nstr(delta_refined(F), 30) if refined else None
    n0s = n0_simple(F)
    n0i = n0_integral(F)
    if n0i > n0s:
        raise MoserpackError(f"integral N0 {n0i} exceeds simple N0 {n0s}")
    chosen = n0i if use_integral_n0 else n0s
    N1, N = derive_N(F, chosen)
    certs = {"N0_simple": True, "N0_integral": True, "N1": True, "N": True}
    return ConstantsReport(
        F=f_str, c=c_str, delta_simple=d_str, delta_refined=d_ref_str,
        N0_simple=n0s, N0_integral=n0i, N1=N1, N=N,
        use_integral_n0=use_integral_n0, floor_certificates=certs,
    )


def report_to_dict(report: ConstantsReport) -> dict:
    return asdict(report)
