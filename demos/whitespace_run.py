"""Pack a tail of tiny squares into the whitespace of a finished packing.

The base packing fills a sqrt(F) x sqrt(F) square with 1000 equal squares of
total area 1 - c**2; the tail holds 1000 more squares of side c/sqrt(1000),
the worst admissible size. Each tail square goes to the lexicographically
smallest feasible midpoint, and the on_step hook lets us watch the feasible
region shrink while staying above the certified area bound. The base
splits the free rectangles once per run of abutting equal squares, as one
box (each shelf row of the base is one run), and each step splits
them by the square placed before it; the run takes well under a second.
"""

import math

from moserpack import (
    Instance,
    Rectangle,
    WhitespaceJob,
    compute_c,
    meir_moser_pack,
    midpoint_area_bound,
    verify_packing,
    whitespace_pack,
)

F = float((2 + math.sqrt(3)) / 3)
c = float(compute_c(F))

n = 1000
base_side = math.sqrt((1 - c * c) / n)
root = math.sqrt(F)
base = meir_moser_pack(Instance((base_side,) * n), Rectangle(root, root))

tail = Instance((c / math.sqrt(n),) * n, declared_total_area=c * c)
job = WhitespaceJob(base=base, tail=tail, c=c, F=F)
job.validate()
print(f"base: {n} squares of side {base_side:.6f} in {root:.6f} x {root:.6f}")
print(f"tail: {n} squares of side {tail.sides[0]:.6f}")

trace = []

def on_step(k, side, region_area, bound):
    trace.append((k, side, region_area, bound))

packing = whitespace_pack(job, on_step=on_step)
print(f"packed {len(packing.placements)} squares total,"
      f" valid={verify_packing(packing).valid}")

print(" step   side        region area   certified bound   margin")
for k, side, area, bound in trace[:: max(1, len(trace) // 8)]:
    print(f" {k:4d}   {side:.6f}    {area:.8f}    {bound:.8f}   {area - bound:.2e}")

worst = midpoint_area_bound(F, n, c, c / math.sqrt(n))
print(f"bound at the worst admissible side c/sqrt(n): {worst:.3e} (zero up to rounding)")
