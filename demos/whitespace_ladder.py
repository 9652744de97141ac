"""Time whitespace packing of a distinct-side tail up a ladder of sizes.

At each rung n, a base of n equal squares fills a sqrt(F) x sqrt(F) square
and a tail of n distinct sides, drawn uniformly from [0.3, 1) * c/sqrt(n)
with numpy's seed 0, goes into its whitespace.  Every side is new, so no
step can reuse a region computed for the side before it; the free
rectangles that every step shares are what keep the ladder near
quadratic.  The run exits with status 1 if the placements at n = 400,
1000 or 3000 differ from their pinned sha256 (tests/test_whitespace.py
pins the n = 400 one too) or if any rung's packing fails verification.

    PYTHONPATH=src python demos/whitespace_ladder.py
"""

import hashlib
import math
import struct
import sys
import time

import numpy as np

from moserpack import (
    Instance,
    Rectangle,
    WhitespaceJob,
    compute_c,
    meir_moser_pack,
    verify_packing,
    whitespace_pack,
)

F = (2 + math.sqrt(3)) / 3
c = float(compute_c(F))
PINNED = {
    400: "0a1fc970927d6384b81f8a76efd5e95b9e40f994f56f9f02af2d94ae5340cf2b",
    1000: "aa48ce9a77ef1bb9a4474681b871658438dea551b891d1b18d3c5dc57bc3ea29",
    3000: "3d735dd2d1154dc820e2981755e9788a3b1e6051edcfa27336314943f2072638",
}


def ladder_job(n: int) -> WhitespaceJob:
    root = math.sqrt(F)
    base = meir_moser_pack(Instance((math.sqrt((1.0 - c * c) / n),) * n),
                           Rectangle(root, F / root))
    cap = c / math.sqrt(n)
    sides = np.random.default_rng(0).uniform(0.3, 1.0, n) * cap
    return WhitespaceJob(base=base, tail=Instance(tuple(float(s) for s in sides)), c=c, F=F)


def placement_digest(packing) -> str:
    """sha256 of every placement's (side, x, y) as little-endian doubles."""
    h = hashlib.sha256()
    for p in packing.placements:
        h.update(struct.pack("<3d", p.side, p.x, p.y))
    return h.hexdigest()


ok = True
print("     n   distinct sides   whitespace_pack s   valid")
for n in (158, 400, 1000, 3000):
    job = ladder_job(n)
    t0 = time.perf_counter()
    packing = whitespace_pack(job)
    elapsed = time.perf_counter() - t0
    valid = verify_packing(packing).valid
    ok &= valid
    print(f"{n:6d}   {len(set(job.tail.sides)):14d}   {elapsed:17.3f}   {valid}")
    if n in PINNED:
        digest = placement_digest(packing)
        if digest != PINNED[n]:
            print(f"n = {n} placements moved: sha256 {digest}, pinned {PINNED[n]}")
            ok = False
sys.exit(0 if ok else 1)
