"""Set-up probe behind ``setup_s``.

In a fresh interpreter: import neckdown from the checkout's ``src/``, build
the workload's grid and initial data and run its two-step warm-up, which
leaves every cache filled and the first full step ready. The caller times
the whole process.

Usage: python3 perfbench/probe.py WORKLOAD SEED OUT_DIR
"""

import sys
from pathlib import Path

from workloads import WORKLOADS, load_package

if __name__ == "__main__":
    name, seed, out_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    nd = load_package(Path(__file__).resolve().parent.parent)
    WORKLOADS[name](nd, seed, {}).warm(out_dir)
