"""Measure the host's own timing noise and record it in host.json.

    python3 perfbench/hostnoise.py

Times a plain CPU loop that touches nothing of clusterbrick, one fresh
process per repeat like the benchmark's children, and writes the spread
next to the processor count and Python version.  A benchmark spread close
to this one is the host's, not the program's.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPEATS = 10
LOOP = """
import time
t = time.perf_counter()
x = 0
for i in range(20_000_000):
    x += i * i % 7
print(time.perf_counter() - t)
"""


def main() -> int:
    times = [float(subprocess.run([sys.executable, "-c", LOOP], check=True,
                                  capture_output=True, text=True).stdout)
             for _ in range(REPEATS)]
    q1, med, q3 = statistics.quantiles(times, n=4)
    record = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_loop_s": {"min": min(times), "median": med, "max": max(times),
                       "iqr_over_median": (q3 - q1) / med,
                       "repeats": len(times)},
    }
    (HERE / "host.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
