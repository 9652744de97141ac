"""Route three instances through the end-to-end reduction driver.

The driver proves that packing every instance whose N largest squares are
handled suffices: each total-area-1 instance lands in one of three cases
depending on its largest side and how much area survives past index N1.
Desk-scale toy thresholds keep the instances small enough to print.
"""

import math

from moserpack import Instance, PackParams, compute_c, reduce_and_pack, verify_packing

F = float((2 + math.sqrt(3)) / 3)
c = float(compute_c(F))
params = PackParams.toy_params(F=F, c=c, N0=4, N1=158, N=1167, s1_threshold=0.07)
print(f"toy params: N0={params.N0}, N1={params.N1}, N={params.N},"
      f" s1 threshold {params.s1_threshold}")


def show(name, inst):
    result = reduce_and_pack(inst, params)
    packing = result.packing
    ok = verify_packing(packing).valid
    print(f"{name}: case {result.case}, split={result.split_index},"
          f" {len(packing.placements)} placements,"
          f" rect {packing.rect.width:.4f} x {packing.rect.height:.4f},"
          f" valid={ok}")


# case a: every side at most the threshold, one shelf pass suffices
show("all-small      ", Instance((0.07,) * 204 + (math.sqrt(1 - 204 * 0.07**2),)))

# case b: enough area past N1 to glue a tail strip onto a packed prefix
m = 5300
show("late-area      ", Instance((0.5, 0.5) + (math.sqrt(0.5 / m),) * m))

# case c: square 159 is already small, so the first 159 squares are packed
# as a prefix and the other 159 go into its leftover whitespace
head = (math.sqrt((1 - 0.99 * c * c) / 158),) * 158
tiny = (math.sqrt(0.99 * c * c / 160),) * 160
show("early-small    ", Instance(head + tiny))
