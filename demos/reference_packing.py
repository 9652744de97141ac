"""Build the hand-checkable reference packing and render it to SVG.

One square of side 1/sqrt(2) sits next to three squares of side 1/sqrt(6).
The four squares have total area exactly 1 and the enclosing rectangle has
area (2+sqrt(3))/3, the smallest factor the reduction machinery supports.
Run it from the repository root:

    python3 demos/reference_packing.py
"""

import math
from array import array

from moserpack import Packing, Rectangle, render_svg, verify_packing

big = 1 / math.sqrt(2)
small = math.sqrt(1 / 6)

rect = Rectangle(big + 2 * small, 2 * small)
# Square i has side sides[i] and its lower-left corner at (xs[i], ys[i]).
packing = Packing(
    rect,
    sides=array("d", [big, small, small, small]),
    xs=array("d", [0.0, big, big, big + small]),
    ys=array("d", [0.0, 0.0, small, 0.0]),
)

print(f"rectangle: {rect.width:.6f} x {rect.height:.6f}")
print(f"square area total: {sum(s**2 for s in packing.sides):.17f}")
print(f"rectangle area:    {rect.area:.17f}")
print(f"target (2+sqrt3)/3: {(2 + math.sqrt(3)) / 3:.17f}")

report = verify_packing(packing, tol=1e-12)
print(f"verification: valid={report.valid}, violations={len(report.violations)}")

scale = 400.0
out = "reference_packing.svg"
with open(out, "w") as fh:
    fh.write(render_svg(packing, scale))
# the enclosing rectangle is drawn as one more rect
print(f"wrote {out} ({len(packing.sides) + 1} rects, "
      f"{rect.width * scale:.0f}x{rect.height * scale:.0f} px)")
