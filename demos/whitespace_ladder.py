"""Time whitespace packing of a distinct-side tail up a ladder of sizes.

At each rung n, a tail of n distinct sides, drawn uniformly from
[0.3, 1) * c/sqrt(n) with numpy's seed 0, goes into the whitespace of two
bases of n squares.  The equal base fills a sqrt(F) x sqrt(F) square with
equal squares and leaves three free rectangles.  The distinct base draws
its sides uniformly from [0.2, 1) with the same generator, before the
tail, and is prefix-packed as case c of the reduction packs it, which
leaves many.  Every side is new, so no step can reuse a region computed
for the side before it; the free rectangles that every step shares are
what keep the ladder near quadratic.  The run exits with status 1 if the
placements of a pinned rung differ from their sha256
(tests/test_whitespace.py pins both n = 400 ones too) or if any rung's
packing fails verification.

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
from moserpack.reduction import default_prefix_packer

F = (2 + math.sqrt(3)) / 3
c = float(compute_c(F))
PINNED = {
    ("equal", 400): "0a1fc970927d6384b81f8a76efd5e95b9e40f994f56f9f02af2d94ae5340cf2b",
    ("equal", 1000): "aa48ce9a77ef1bb9a4474681b871658438dea551b891d1b18d3c5dc57bc3ea29",
    ("equal", 3000): "3d735dd2d1154dc820e2981755e9788a3b1e6051edcfa27336314943f2072638",
    ("distinct", 400): "bce0bd8ce2a117df47fdc40d175bc988557275a0dfb73cff336c8022b8e8fd12",
    ("distinct", 1000): "35fde0562e3a946315a3392c5671ab2602e2ab2b07139b9a1ac2dbe990b4e52b",
    ("distinct", 3000): "a484f2a410aa7d9019e496e355d666f1ec176715ed2e14a66861b9235fa68de9",
}


def ladder_job(base_kind: str, n: int) -> WhitespaceJob:
    # The pins were taken with the tail sides rounded as u * (c / sqrt(n))
    # on the equal base and as (u * c) / sqrt(n) on the distinct one.
    rng = np.random.default_rng(0)
    if base_kind == "equal":
        root = math.sqrt(F)
        base = meir_moser_pack(Instance((math.sqrt((1.0 - c * c) / n),) * n),
                               Rectangle(root, F / root))
        sides = rng.uniform(0.3, 1.0, n) * (c / math.sqrt(n))
    else:
        weights = rng.uniform(0.2, 1.0, n)
        scale = math.sqrt((1.0 - c * c) / float(np.sum(weights * weights)))
        inst = Instance(tuple(float(w) * scale for w in weights))
        base = default_prefix_packer(inst, F / inst.total_area)
        sides = rng.uniform(0.3, 1.0, n) * c / math.sqrt(n)
    return WhitespaceJob(base=base, tail=Instance(tuple(float(s) for s in sides)), c=c, F=F)


def placement_digest(packing) -> str:
    """sha256 of every placement's (side, x, y) as little-endian doubles."""
    h = hashlib.sha256()
    for s, x, y in zip(packing.sides, packing.xs, packing.ys):
        h.update(struct.pack("<3d", s, x, y))
    return h.hexdigest()


ok = True
print("     n   base       distinct sides   whitespace_pack s   valid")
for n in (158, 400, 1000, 3000):
    for base_kind in ("equal", "distinct"):
        job = ladder_job(base_kind, n)
        t0 = time.perf_counter()
        packing = whitespace_pack(job)
        elapsed = time.perf_counter() - t0
        valid = verify_packing(packing).valid
        ok &= valid
        print(f"{n:6d}   {base_kind:8s}   {len(set(job.tail.sides)):14d}"
              f"   {elapsed:17.3f}   {valid}")
        pinned = PINNED.get((base_kind, n))
        if pinned is not None:
            digest = placement_digest(packing)
            if digest != pinned:
                print(f"{base_kind} base, n = {n} placements moved: sha256 {digest},"
                      f" pinned {pinned}")
                ok = False
sys.exit(0 if ok else 1)
