"""Shelf packing under the two classical area criteria.

moon_moser_pack accepts any rectangle with 2V <= a1*a2 (V the total square
area, a1 <= a2 the edges). meir_moser_pack needs the tighter
V <= x**2 + (a1-x)(a2-x) with x the largest side but wastes half as much
area. Both run first-fit-decreasing on horizontal shelves.
"""

import math

from moserpack import (
    Instance,
    Rectangle,
    meir_moser_pack,
    moon_moser_pack,
    verify_packing,
)

inst = Instance((0.5, 0.3, 0.3, 0.3, 0.1))
print(f"instance: sides={inst.sides}, total area={inst.total_area:.4f}")

wide = Rectangle(2 * inst.total_area / 0.6, 0.6)
packing = moon_moser_pack(inst, wide)
print(f"moon-moser into {wide.width:.3f} x {wide.height:.3f}:"
      f" valid={verify_packing(packing).valid}")

tight = Rectangle(0.9, 1.0)
packing = meir_moser_pack(inst, tight, require_precondition=False)
print(f"meir-moser into {tight.width:.3f} x {tight.height:.3f}:"
      f" valid={verify_packing(packing).valid}")
for p in packing.placements:
    print(f"  side={p.side:.2f} at ({p.x:.2f}, {p.y:.2f})")

# the circumference criterion: once x <= (F-1)V/C, the meir-moser
# inequality holds on every area-FV rectangle of half-circumference <= C
F, V, C = 1.25, 1 / 12, 3.0
x = 0.006
print(f"circumference test at F={F}, V={V:.4f}, C={C}, x={x}:"
      f" {x <= (F - 1) * V / C}")
m = math.floor(V / x**2)
sides = [x] * m + [math.sqrt(V - m * x**2)]
side = math.sqrt(F * V)
packing = meir_moser_pack(Instance(sides), Rectangle(side, side))
print(f"  packs {len(packing.placements)} squares into the"
      f" {side:.4f} x {side:.4f} square,"
      f" valid={verify_packing(packing).valid}")
