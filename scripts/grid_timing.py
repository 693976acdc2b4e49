"""Time the grid oracle, grid_index_profile, per dimension.

For each dim the script takes the best of N calls of grid_index_profile at
the default 720 angles, on random_pencil(default_rng(dim), dim) and on
extremal_family(dim - 1), whose members are diagonal.  Each tree is timed
in a fresh interpreter on one OpenBLAS thread, --rounds times, and each
time is the least over the rounds.  With --src, the rounds alternate
between this checkout and the other one, in turn first, and the script
prints this tree's time over the other's.  --solve-dim sets this tree's
oracles.GRID_SOLVE_DIM for the run, so the count path can be timed past
its bound; that is how the bound's crossover was measured:

    python scripts/grid_timing.py                                 # this checkout
    python scripts/grid_timing.py --src OTHER/src --solve-dim 33  # against another
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKER = """
import json, sys, time
import numpy as np
from quadrics import fixtures, oracles
from quadrics.applications import extremal_family

dims, repeat, solve_dim = json.loads(sys.argv[1])
if solve_dim is not None:
    oracles.GRID_SOLVE_DIM = solve_dim

def best_ms(p):
    p.scale()  # computed once per pencil and kept, so it is not timed
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        oracles.grid_index_profile(p)
        best = min(best, time.perf_counter() - start)
    return 1e3 * best

print(json.dumps([(best_ms(fixtures.random_pencil(np.random.default_rng(d), d)),
                   best_ms(extremal_family(d - 1))) for d in dims]))
"""


def _times(src: str, solve_dim: int | None, dims: list[int], repeat: int) -> list:
    """[(random ms, extremal ms)] per dim, timed in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", WORKER, json.dumps([dims, repeat, solve_dim])],
                          capture_output=True, text=True, env=env, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{src}: timing exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _dims(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    dims = list(range(int(lo), int(hi or lo) + 1))
    if not dims or dims[0] < 2:
        raise argparse.ArgumentTypeError(f"dims must be a range of integers from 2, not {text!r}")
    return dims


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dims", type=_dims, default=_dims("2-24"),
                        help="dimensions to time, as LO-HI (default 2-24)")
    parser.add_argument("--repeat", type=int, default=15,
                        help="calls per pencil, the best is kept (default 15)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="fresh interpreters per tree (default 3)")
    parser.add_argument("--src", help="another checkout's src directory to time as well")
    parser.add_argument("--solve-dim", type=int,
                        help="this tree's GRID_SOLVE_DIM for the run (default: its own)")
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.rounds < 1:
        parser.error("--repeat and --rounds must be at least 1")

    trees = [(os.path.join(ROOT, "src"), args.solve_dim)]
    trees += [(os.path.abspath(args.src), None)] if args.src else []
    best: list = [None] * len(trees)
    for r in range(args.rounds):
        for i in range(len(trees))[::1 if r % 2 == 0 else -1]:
            times = np.array(_times(*trees[i], args.dims, args.repeat))
            best[i] = times if best[i] is None else np.minimum(best[i], times)
    here, other = best[0].tolist(), (best[1].tolist() if args.src else None)
    head = f"{'dim':>4} {'random ms':>10} {'extremal ms':>12}"
    print(head + (f" {'other random':>13} {'other extremal':>15} {'ratios':>12}" if other else ""))
    for i, (dim, (rand, ext)) in enumerate(zip(args.dims, here)):
        line = f"{dim:>4} {rand:>10.3f} {ext:>12.3f}"
        if other:
            o_rand, o_ext = other[i]
            line += f" {o_rand:>13.3f} {o_ext:>15.3f} {rand / o_rand:>5.2f} {ext / o_ext:>5.2f}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
