"""Scaling points of `hgpade wronskian`: wall time and report digest.

For each point rRmMnN it runs `hgpade wronskian` in this process, at
alpha = 1..m, with a the first r of 1/3, 1/4, 1/5, 1/7, 1/9, 1/11 and b
the first r - 1 of 1/2, 2/3, 3/4, 4/5, 5/6 (the benchmark's canonical
r = 2 and r = 3 instances, extended), and prints one line per point: its
wall time, leaving out interpreter start and imports, and the sha256 of
its report.  The first line gives `nproc`.  It imports hgpade from the
src/ of the checkout it sits in, so running it in two checkouts compares
their speed, and by the digests, their bytes.  Run from anywhere:

    python3 tools/scaling.py                 # r3m3n16 r2m2n64 r5m5n1 r6m5n1
    python3 tools/scaling.py r2m1n4 r3m2n2   # any points
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
POINTS = ("r3m3n16", "r2m2n64", "r5m5n1", "r6m5n1")
A = ("1/3", "1/4", "1/5", "1/7", "1/9", "1/11")
B = ("1/2", "2/3", "3/4", "4/5", "5/6")


def argv_of(point: str) -> list:
    """The `hgpade` argv of a point rRmMnN, 1 <= r <= 6."""
    got = re.fullmatch(r"r([1-6])m([1-9]\d*)n([1-9]\d*)", point)
    if got is None:
        raise ValueError(f"{point!r}: need rRmMnN with 1 <= r <= 6 and m, n >= 1")
    r, m, n = map(int, got.groups())
    return ["wronskian", f"--a={','.join(A[:r])}", f"--b={','.join(B[:r - 1])}",
            f"--alphas={','.join(map(str, range(1, m + 1)))}", f"--n={n}"]


def run_point(point: str) -> tuple:
    """(wall seconds, sha256 of the report, exit code) of one point."""
    from hgpade.cli import main

    out = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(argv_of(point))
    took = perf_counter() - start
    return took, hashlib.sha256(out.getvalue().encode()).hexdigest(), code


def main(argv=None) -> int:
    points = (sys.argv[1:] if argv is None else argv) or POINTS
    try:
        for point in points:
            argv_of(point)
    except ValueError as exc:
        print(f"scaling.py: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(f"nproc {nproc}")
    print(f"{'point':<10} {'wall_s':>8}  sha256")
    failed = 0
    for point in points:
        took, digest, code = run_point(point)
        failed += code != 0
        print(f"{point:<10} {took:8.3f}  {digest}" + (f"  exit {code}" if code else ""),
              flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
