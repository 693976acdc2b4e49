"""Time fresh `python -m quadrics.cli betti-x` runs on the bouquet.

A CLI call is a new interpreter that imports numpy, scipy's LAPACK extension
and the library before it analyses anything; for the bouquet the analysis
takes under 1 ms and the import almost all the rest.  Each run here feeds
the bouquet's problem JSON to a fresh `betti-x` on one OpenBLAS thread and
times it wall to wall.  With --src, the runs alternate between this checkout
and the other one, in turn first.  For each tree the script prints the
median and quartiles in ms and the number of modules a cold
`import quadrics.cli` loads; with two trees it also says whether their
betti-x outputs were byte-identical.  Run `python -m compileall` in each
tree first, so no run compiles bytecode:

    python scripts/cold_start.py                        # this checkout
    python scripts/cold_start.py --src OTHER/src        # and another checkout
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COUNT_MODULES = ("import sys; before = len(sys.modules); import quadrics.cli; "
                 "print(len(sys.modules) - before)")


def _python(src: str, args: list[str], stdin: bytes = b"") -> tuple[float, bytes]:
    """Wall time in ms and stdout of a fresh interpreter with src on its path."""
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], input=stdin, capture_output=True,
                          env=env, check=False)
    elapsed = 1e3 * (time.perf_counter() - start)
    if proc.returncode != 0:
        raise SystemExit(f"{src}: {' '.join(args)} exited {proc.returncode}:\n"
                         f"{proc.stderr.decode(errors='replace')}")
    return elapsed, proc.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=9, help="runs per tree (default 9)")
    parser.add_argument("--src", help="another checkout's src directory to time as well")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    trees = [os.path.join(ROOT, "src")] + ([os.path.abspath(args.src)] if args.src else [])

    _, problem = _python(trees[0], ["-m", "quadrics.cli", "fixture", "bouquet"])
    times: dict[str, list[float]] = {src: [] for src in trees}
    outputs: dict[str, set[bytes]] = {src: set() for src in trees}
    for i in range(args.runs):
        for src in trees if i % 2 == 0 else trees[::-1]:
            ms, out = _python(src, ["-m", "quadrics.cli", "betti-x"], problem)
            times[src].append(ms)
            outputs[src].add(out)

    for src in trees:
        q1, median, q3 = np.percentile(times[src], [25, 50, 75])
        modules = int(_python(src, ["-c", COUNT_MODULES])[1])
        print(f"{src}: betti-x median {median:.0f} ms (quartiles {q1:.0f}-{q3:.0f}, "
              f"{args.runs} runs); a cold import quadrics.cli loads {modules} modules")
    if len(trees) == 2:
        same = len(outputs[trees[0]] | outputs[trees[1]]) == 1
        print(f"betti-x output byte-identical across trees: {'yes' if same else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
