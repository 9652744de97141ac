"""Deterministic SVG 1.1 rendering of packings (rect elements only).

Coordinates are flipped so the packing's y axis points up while SVG's
points down.  Float attributes are written with ``repr``, which both
round-trips exactly and keeps output byte-identical across runs.
"""

from __future__ import annotations

import math
from typing import Optional

from .geometry import Packing

_FILLS = {
    "enclosing": ("none", "#222222"),
    "prefix": ("#7fb2d9", "#1a4a6e"),
    "tail": ("#e8a33d", "#7a4a08"),
}


def _rect(css_class: str, x: float, y: float, width: float, height: float) -> str:
    """One ``<rect>`` element; raises ValueError for a number that is not finite."""
    if not all(map(math.isfinite, (x, y, width, height))):
        raise ValueError(
            f"{css_class} rect has a number that is not finite at this scale: "
            f"x={x!r}, y={y!r}, width={width!r}, height={height!r}"
        )
    fill, stroke = _FILLS[css_class]
    return (
        f'<rect class="{css_class}" x="{x!r}" y="{y!r}" '
        f'width="{width!r}" height="{height!r}" '
        f'fill="{fill}" stroke="{stroke}" stroke-width="0.5"/>'
    )


def render_svg(packing: Packing, scale: float, tail_from: Optional[int] = None) -> str:
    """The SVG text: the enclosing rectangle, then one rect per square.

    Squares with index >= ``tail_from`` are classed ``tail`` (useful to
    highlight whitespace-packed squares); all others are ``prefix``.
    Raises ValueError when ``scale`` is not positive and finite, when
    ``tail_from`` lies outside [0, len(packing.sides)], or when a number
    to be written is not finite.
    """
    if not 0 < scale < math.inf:
        raise ValueError(f"scale must be positive and finite, got {scale}")
    n = len(packing.sides)
    cut = n if tail_from is None else tail_from
    if not 0 <= cut <= n:
        raise ValueError(f"tail_from must lie in [0, {n}], got {tail_from}")
    W = packing.rect.width * scale
    H = packing.rect.height * scale
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{W!r}" height="{H!r}" viewBox="0 0 {W!r} {H!r}">',
        _rect("enclosing", 0.0, 0.0, W, H),
    ]
    for i, (s, px, py) in enumerate(zip(packing.sides, packing.xs, packing.ys)):
        side = s * scale
        lines.append(_rect("tail" if i >= cut else "prefix",
                           px * scale, H - py * scale - side, side, side))
    lines.append("</svg>\n")
    return "\n".join(lines)
