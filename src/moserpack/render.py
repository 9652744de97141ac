"""Deterministic SVG 1.1 rendering of packings (rect elements only).

Coordinates are flipped so the packing's y axis points up while SVG's
points down.  Float attributes are written with ``repr``, which both
round-trips exactly and keeps output byte-identical across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .geometry import Packing

_FILLS = {
    "enclosing": ("none", "#222222"),
    "prefix": ("#7fb2d9", "#1a4a6e"),
    "tail": ("#e8a33d", "#7a4a08"),
}


@dataclass(frozen=True)
class SvgRect:
    x: float
    y: float
    width: float
    height: float
    css_class: str

    def to_element(self) -> str:
        fill, stroke = _FILLS[self.css_class]
        return (
            f'<rect class="{self.css_class}" x="{self.x!r}" y="{self.y!r}" '
            f'width="{self.width!r}" height="{self.height!r}" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="0.5"/>'
        )


@dataclass(frozen=True)
class SvgDocument:
    width: float
    height: float
    rects: tuple[SvgRect, ...]

    def to_string(self) -> str:
        lines = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{self.width!r}" height="{self.height!r}" '
            f'viewBox="0 0 {self.width!r} {self.height!r}">',
        ]
        lines.extend(r.to_element() for r in self.rects)
        lines.append("</svg>")
        return "\n".join(lines) + "\n"


def render_svg(packing: Packing, scale: float, tail_from: Optional[int] = None) -> SvgDocument:
    """Render one rect per placement plus the enclosing rectangle.

    Placements with index >= ``tail_from`` are classed ``tail`` (useful to
    highlight whitespace-packed squares); all others are ``prefix``.
    """
    if not 0 < scale < math.inf:
        raise ValueError(f"scale must be positive and finite, got {scale}")
    r = packing.rect
    W = r.width * scale
    H = r.height * scale
    rects = [SvgRect(0.0, 0.0, W, H, "enclosing")]
    cut = len(packing.sides) if tail_from is None else tail_from
    for i, (s, px, py) in enumerate(zip(packing.sides, packing.xs, packing.ys)):
        side = s * scale
        x = px * scale
        y = H - py * scale - side
        rects.append(SvgRect(x, y, side, side, "tail" if i >= cut else "prefix"))
    return SvgDocument(W, H, tuple(rects))
