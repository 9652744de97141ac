"""Drive the command line interface end to end.

Every subcommand reads and writes JSON files, so a pack feeds straight into
verify and render. This script runs each command in a fresh interpreter as
``python -m moserpack.cli``, which is what the installed ``moserpack`` entry
point calls, so it also works from a source checkout with PYTHONPATH=src.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from moserpack import Instance, instance_to_dict

def run(*args):
    proc = subprocess.run([sys.executable, "-m", "moserpack.cli", *args],
                          capture_output=True, text=True)
    print(f"$ moserpack {' '.join(args)}  (exit {proc.returncode})")
    if proc.stdout.strip():
        print(proc.stdout.strip()[:400])
    return proc

work = Path(tempfile.mkdtemp(prefix="moserpack-tour-"))
inst = work / "instance.json"
packed = work / "packed.json"
svg = work / "packing.svg"

inst.write_text(json.dumps(instance_to_dict(Instance((0.5, 0.3, 0.3, 0.3, 0.1)))))

run("constants", "--F", "1.37")
run("pack", "--mode", "meir-moser", "--instance", str(inst),
    "--rect", "1.1x1.1", "-o", str(packed))
run("verify", "--packing", str(packed))
run("render", "--packing", str(packed), "--scale", "250", "-o", str(svg))
print(f"SVG written to {svg} ({svg.stat().st_size} bytes)")
