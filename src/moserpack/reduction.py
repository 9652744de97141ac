"""End-to-end reduction driver: pack any total-area-1 instance into area F.

The driver picks exactly one of three routes:

* case "a": the largest edge is at most the small-edge threshold (1/10);
  the whole instance goes straight into the sqrt(F) x sqrt(F) square.
* case "b": the area past index N1 is still at least c^2; the instance is
  split at N0 and the two parts are packed and glued edge to edge.
* case "c": otherwise some index n in (N1, N] has edge below c / sqrt(n);
  the first n squares form a base packing of an area-F rectangle and the
  rest is whitespace-packed into it.  An instance of at most n squares is
  its own prefix, so its base packing is the result.

Prefix packings come from :func:`default_prefix_packer`, which tries the
meir-moser criterion on the squarest admissible rectangle and falls back
to raw shelf attempts over narrower aspects.  Every route re-validates
its own preconditions before any placement work.
"""

from __future__ import annotations

import math
import operator
from array import array
from typing import Optional

from ._value import Frozen, as_dict
from .constants import _delta, _report_and_c, factor_float
from .errors import MoserpackError, PackFailure, PreconditionViolated
from .geometry import EPS_GEOM, Instance, Packing, Rectangle, packing_to_dict
from .shelf import meir_moser_holds, meir_moser_pack, small_s1_pack
from .whitespace import WhitespaceJob, whitespace_pack

#: Aspect ratios the default prefix packer tries between square and flattest.
_ASPECT_STEPS = 96


class PackParams(Frozen):
    """Constants driving the case split.

    ``toy`` marks desk-scale parameters that were not produced by the
    constants pipeline; everything else about the driver treats toy and
    certified parameters identically.
    """

    F: float
    c: float
    N0: int
    N1: int
    N: int
    s1_threshold: float
    toy: bool

    def __init__(self, F: float, c: float, N0: int, N1: int, N: int,
                 s1_threshold: float = 0.1, toy: bool = False) -> None:
        if not 1 < F < math.inf:
            raise ValueError(f"area factor must be finite and exceed 1, got {F}")
        if not (0 < c < 1):
            raise ValueError(f"c must lie in (0, 1), got {c}")
        for name, value in (("N0", N0), ("N1", N1), ("N", N)):
            # an __index__ is what operator.index and a slice need
            if isinstance(value, bool) or not hasattr(type(value), "__index__"):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not (1 <= N0 <= N1 <= N):
            raise ValueError(f"need 1 <= N0 <= N1 <= N, got {N0}, {N1}, {N}")
        if isinstance(s1_threshold, bool) or not 0 < s1_threshold < math.inf:
            raise ValueError(f"s1 threshold must be positive and finite, got {s1_threshold}")
        super().__init__(F, c, N0, N1, N, s1_threshold, toy)

    @classmethod
    def certified(cls, F: object = "novotny", *,
                  use_integral_n0: bool = False) -> "PackParams":
        """Parameters recomputed from the constants pipeline (not toy)."""
        F_float = factor_float(F)
        if F_float == 1:
            raise ValueError(f"area factor {F!r} rounds to the float 1.0, and PackParams "
                             "needs a float F > 1")
        report, c = _report_and_c(F, False, use_integral_n0)
        n0 = report.N0_integral if use_integral_n0 else report.N0_simple
        return cls(F=F_float, c=float(c), N0=n0, N1=report.N1, N=report.N)

    @classmethod
    def toy_params(cls, F: float, c: float, N0: int, N1: int, N: int,
                   s1_threshold: float = 0.1) -> "PackParams":
        return cls(F=F, c=c, N0=N0, N1=N1, N=N,
                   s1_threshold=s1_threshold, toy=True)


class ReduceResult(Frozen):
    case: str
    packing: Packing
    params: PackParams
    split_index: Optional[int] = None


def default_prefix_packer(inst: Instance, F: float) -> Packing:
    """Pack ``inst`` into some rectangle of area F * total_area.

    Strategy: if the meir-moser inequality holds on the squarest rectangle
    it holds nowhere better, so pack there.  Otherwise scan aspect ratios
    from square toward the minimum admissible smaller edge
    max(s1, 1/10) and take the first raw shelf attempt that succeeds.
    """
    A = inst.total_area
    if A <= 0:
        raise PreconditionViolated("prefix instance has zero area")
    T = F * A
    x = inst.max_side
    hi = math.sqrt(T)
    lo = max(x, 0.1)
    if lo > hi:
        lo = x
    square = Rectangle(hi, hi)
    if meir_moser_holds(A, x, hi, hi):
        return meir_moser_pack(inst, square)
    for k in range(_ASPECT_STEPS):
        a1 = hi + (lo - hi) * k / (_ASPECT_STEPS - 1)
        try:
            return meir_moser_pack(inst, Rectangle(a1, T / a1),
                                   require_precondition=False)
        except PackFailure:
            continue
    raise PackFailure(
        f"no aspect in [{lo}, {hi}] shelf-packs {len(inst)} squares at factor {F}"
    )


def _transpose_to_height(p: Packing) -> tuple[Packing, float, float]:
    """Reorient a packing so its rectangle's smaller edge is the height.

    Returns the reoriented packing, which shares its columns with ``p``,
    along with (W, H) = (smaller, larger) edge.
    """
    r = p.rect
    if r.width <= r.height:
        return Packing(Rectangle(r.height, r.width), p.sides, p.ys, p.xs), r.width, r.height
    return p, r.height, r.width


def glue_pack(inst: Instance, split: int, params: PackParams) -> Packing:
    """Pack a prefix and a small-edge tail into two glued rectangles.

    The prefix goes into R' of area F * prefix_area with smaller edge W'
    in [max(s1, 1/10), sqrt(F * prefix_area)]; the tail goes into
    R'' = W' x (F V / W') whose larger edge stays at most 10 F.  The two
    stand side by side sharing the W' edge, for total area F * total.
    """
    sides = inst.sides
    if not 1 <= split < len(sides):
        raise PreconditionViolated(f"split {split} outside [1, {len(sides)})")
    prefix = Instance(sides[:split])
    tail = Instance(sides[split:])
    P = prefix.total_area
    V = tail.total_area
    F, c = params.F, params.c
    if P <= 0:
        raise PreconditionViolated("prefix area must be positive")
    if V < c * c - EPS_GEOM or V > 1 + EPS_GEOM:
        raise PreconditionViolated(f"tail area {V} outside [c^2, 1] = [{c * c}, 1]")
    edge_cap = _delta(F, F - 1, V)
    if tail.max_side > edge_cap + EPS_GEOM:
        raise PreconditionViolated(
            f"tail max side {tail.max_side} exceeds edge bound {edge_cap} for V={V}"
        )

    rp = default_prefix_packer(prefix, F)
    rp, W, Hp = _transpose_to_height(rp)
    lo_w = max(prefix.max_side, 0.1)
    if W < lo_w - EPS_GEOM or W > math.sqrt(F * P) + EPS_GEOM:
        raise PackFailure(
            f"prefix packer smaller edge {W} outside [{lo_w}, {math.sqrt(F * P)}]"
        )
    H2 = F * V / W
    if max(W, H2) > 10 * F + 1e-9:
        raise PreconditionViolated(f"glued tail edge {max(W, H2)} exceeds 10F")

    tp = meir_moser_pack(tail, Rectangle(H2, W))
    # The tail stands to the right of the prefix.
    tail_xs = array("d", [Hp + x for x in tp.xs])
    merged = Rectangle(Hp + H2, W)
    return Packing(merged, rp.sides + tp.sides, rp.xs + tail_xs, rp.ys + tp.ys)


def find_small_index(inst: Instance, c: float, N1: int, N: int) -> Optional[int]:
    """Smallest n in (N1, N] with s_n < c / sqrt(n), treating missing sides as 0.

    The bound is the float ``c / math.sqrt(n)``, and the scan stops at the
    first hit.  Returns None when no such index exists (possible only if
    the instance carries at least N sides, all at or above the bound).
    """
    if not 0 < c < math.inf:
        raise ValueError(f"c must be positive and finite, got {c}")
    if not 0 <= N1 < N:
        raise ValueError(f"need 0 <= N1 < N, got N1={N1}, N={N}")
    sides = inst.sides
    m = len(sides)
    for n in range(N1 + 1, min(N, m) + 1):
        if sides[n - 1] < c / math.sqrt(n):
            return n
    if m < N:
        return max(N1 + 1, m + 1)
    return None


def reduce_and_pack(inst: Instance, params: PackParams) -> ReduceResult:
    """Dispatch a total-area-1 instance to exactly one packing route."""
    if abs(inst.total_area - 1.0) > EPS_GEOM:
        raise PreconditionViolated(f"total area {inst.total_area} != 1")
    sides = inst.sides

    if sides[0] <= params.s1_threshold + 1e-15:
        return ReduceResult("a", small_s1_pack(inst, params.F), params)

    late = sides[params.N1:]
    late_area = math.fsum(map(operator.mul, late, late))
    if late_area >= params.c * params.c:
        packing = glue_pack(inst, params.N0, params)
        return ReduceResult("b", packing, params, split_index=params.N0)

    # an empty window (N1 == N) holds no index, as one with no hit does
    n = find_small_index(inst, params.c, params.N1, params.N) if params.N1 < params.N else None
    if n is None:
        raise MoserpackError(
            "no small-edge index in (N1, N] although the late area is below c^2; "
            "the supplied parameters are inconsistent"
        )
    prefix = Instance(sides[:n])
    base = default_prefix_packer(prefix, params.F / prefix.total_area)
    if base.rect.min_edge < max(sides[0], 0.1) - EPS_GEOM:
        raise PackFailure(
            f"prefix packing smaller edge {base.rect.min_edge} below "
            f"max(s1, 1/10) = {max(sides[0], 0.1)}"
        )
    if n >= len(sides):
        return ReduceResult("c", base, params, split_index=n)
    job = WhitespaceJob(base, Instance(sides[n:]), params.c, params.F)
    return ReduceResult("c", whitespace_pack(job), params, split_index=n)


# --- wire format -------------------------------------------------------------


def result_to_dict(result: ReduceResult) -> dict:
    """The dict form of a ``reduce`` result: the API's form and the oracle
    the CLI's writer is tested against.  The CLI does not call it."""
    out = {
        "case": result.case,
        "packing": packing_to_dict(result.packing),
        "params": as_dict(result.params),
    }
    if result.split_index is not None:
        out["split_index"] = result.split_index
    return out
