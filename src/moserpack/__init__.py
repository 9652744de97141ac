"""Square packing toolkit.

Classical shelf packers for the moon-moser and meir-moser area criteria,
greedy whitespace packing of small-square tails, certified derivation of
the square-count reduction constants, and an end-to-end driver that packs
any total-area-1 instance into a rectangle of area F.
"""

from .constants import (
    NOVOTNY,
    ConstantsReport,
    build_report,
    compute_c,
    delta_refined,
    delta_simple,
    factor_float,
    report_to_dict,
)
from .errors import (
    EmptyRegionError,
    FloorUncertified,
    MoserpackError,
    PackFailure,
    PreconditionViolated,
)
from .geometry import (
    Instance,
    Packing,
    Placement,
    Rectangle,
    VerificationReport,
    Violation,
    instance_from_dict,
    instance_to_dict,
    packing_from_dict,
    packing_to_dict,
    verify_packing,
)
from .reduction import PackParams, ReduceResult, reduce_and_pack, result_to_dict
from .render import SvgDocument, SvgRect, render_svg
from .shelf import (
    circumference_admits,
    meir_moser_pack,
    moon_moser_pack,
    small_s1_pack,
)
from .whitespace import WhitespaceJob, midpoint_area_bound, whitespace_pack

__version__ = "0.1.0"

__all__ = [
    "NOVOTNY",
    "ConstantsReport",
    "EmptyRegionError",
    "FloorUncertified",
    "Instance",
    "MoserpackError",
    "PackFailure",
    "PackParams",
    "Packing",
    "Placement",
    "PreconditionViolated",
    "Rectangle",
    "ReduceResult",
    "SvgDocument",
    "SvgRect",
    "VerificationReport",
    "Violation",
    "WhitespaceJob",
    "build_report",
    "circumference_admits",
    "compute_c",
    "delta_refined",
    "delta_simple",
    "factor_float",
    "instance_from_dict",
    "instance_to_dict",
    "meir_moser_pack",
    "midpoint_area_bound",
    "moon_moser_pack",
    "packing_from_dict",
    "packing_to_dict",
    "reduce_and_pack",
    "render_svg",
    "report_to_dict",
    "result_to_dict",
    "small_s1_pack",
    "verify_packing",
    "whitespace_pack",
]
