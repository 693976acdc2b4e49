"""Time the grid oracle, grid_index_profile, and verify_analysis per dimension.

For each dim the script takes the best of N calls of grid_index_profile at
the default 720 angles, on random_pencil(default_rng(dim), dim) and on
extremal_family(dim - 1), whose members are diagonal, and the best of N
calls of verify_analysis(analyze(p, zero)) on the same two pencils from
dim 5, the analysis made once and not timed.  verify_analysis runs the
grid check on arrays of its own, not through grid_index_profile, and the
monodromy refinement when the top superlevel set fills the circle; up to
dim 4 it also runs the sampling oracle, which takes seconds, so those
dims print nan there.  Each tree is timed in a fresh
interpreter on one OpenBLAS thread, --rounds times, and each time is the
least over the rounds.  With --src, the rounds alternate between this
checkout and the other one, in turn first, and the script prints this
tree's time over the other's.  --solve-dim sets this tree's
oracles.GRID_SOLVE_DIM for the run, so the count path can be timed past
its bound; that is how the bound's crossover was measured:

    python scripts/grid_timing.py                                 # this checkout
    python scripts/grid_timing.py --src OTHER/src --solve-dim 33  # against another

With --profile the script times the pipeline's count path instead: the best
of N full-circle index_profile calls per dim, the locus found once and
given, with pencil.COUNT_DIM set so that family_inertia counts every member
by its Sturm pass (on) or solves every member by eigvalsh (off), on
random_pencil(default_rng(dim), dim), extremal_family(dim - 1) and a random
tridiagonal pencil drawn next from the same generator.  The last columns are
each class's time on over its time off; where they cross 1 is where
COUNT_DIM belongs:

    python scripts/grid_timing.py --profile --dims 8-40
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
from quadrics import fixtures, oracles, pencil
from quadrics.applications import extremal_family
from quadrics.betti import analyze
from quadrics.circle import CircleSubset, PlanarCone
from quadrics.filtration import index_profile

dims, repeat, solve_dim, profile = json.loads(sys.argv[1])
if solve_dim is not None:
    oracles.GRID_SOLVE_DIM = solve_dim

def best_ms(call):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return 1e3 * best

def grid_ms(p):
    p.scale()  # computed once per pencil and kept, so it is not timed
    return best_ms(lambda: oracles.grid_index_profile(p))

def verify_ms(p):
    if p.n <= 3:  # the sampling oracle's seconds would hide the rest
        return float("nan")
    result = analyze(p, PlanarCone.zero())
    return best_ms(lambda: oracles.verify_analysis(result))

def profile_ms(p):
    # [count path on, off]: every dim counts from COUNT_DIM 0, none from maxsize
    locus = pencil.degenerate_locus(p)
    full = CircleSubset.full_circle()
    times = []
    for count_dim in (0, sys.maxsize):
        pencil.COUNT_DIM = count_dim
        times.append(best_ms(lambda: index_profile(p, full, locus)))
    return times

def tridiagonal_pencil(rng, dim):
    forms = []
    for _ in range(2):
        sub = rng.standard_normal(dim - 1)
        forms.append(np.diag(rng.standard_normal(dim)) + np.diag(sub, 1) + np.diag(sub, -1))
    return pencil.QuadraticPencil(*forms)

rows = []
for d in dims:
    rng = np.random.default_rng(d)
    if profile:
        ps = (fixtures.random_pencil(rng, d), extremal_family(d - 1), tridiagonal_pencil(rng, d))
        rows.append([t for p in ps for t in profile_ms(p)])
    else:
        ps = (fixtures.random_pencil(rng, d), extremal_family(d - 1))
        rows.append([*map(grid_ms, ps), *map(verify_ms, ps)])
print(json.dumps(rows))
"""

COLUMNS = ("random", "extremal", "verify random", "verify extremal")
PROFILE_CLASSES = ("random", "extremal", "tridiagonal")
PROFILE_COLUMNS = tuple(f"{c} {way}" for c in PROFILE_CLASSES for way in ("on", "off"))


def _times(src: str, solve_dim: int | None, dims: list[int], repeat: int,
           profile: bool) -> list:
    """[the COLUMNS in ms] per dim, timed in a fresh interpreter: the grid on
    the random and the extremal pencil, then verify_analysis on each; with
    profile, the PROFILE_COLUMNS instead."""
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    task = json.dumps([dims, repeat, solve_dim, profile])
    proc = subprocess.run([sys.executable, "-c", WORKER, task],
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
    parser.add_argument("--profile", action="store_true",
                        help="time full-circle index_profile with the count path on and off")
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.rounds < 1:
        parser.error("--repeat and --rounds must be at least 1")
    if args.profile and args.solve_dim is not None:
        parser.error("--solve-dim sets the grid's bound, which --profile does not time")

    trees = [(os.path.join(ROOT, "src"), args.solve_dim)]
    trees += [(os.path.abspath(args.src), None)] if args.src else []
    best: list = [None] * len(trees)
    for r in range(args.rounds):
        for i in range(len(trees))[::1 if r % 2 == 0 else -1]:
            times = np.array(_times(*trees[i], args.dims, args.repeat, args.profile))
            best[i] = times if best[i] is None else np.minimum(best[i], times)
    columns = PROFILE_COLUMNS if args.profile else COLUMNS
    head = f"{'dim':>4}" + "".join(f" {c + ' ms':>18}" for c in columns)
    if args.profile:
        head += "   on over off: " + " ".join(f"{c:>11}" for c in PROFILE_CLASSES)
    if args.src:
        head += "   this over other: " + " ".join(f"{c:>15}" for c in columns)
    print(head)
    for dim, here, *other in zip(args.dims, *best):
        line = f"{dim:>4}" + "".join(f" {t:>18.3f}" for t in here)
        if args.profile:
            ratios = (on / off for on, off in zip(here[::2], here[1::2]))
            line += " " * 16 + " ".join(f"{r:>11.2f}" for r in ratios)
        if other:
            line += " " * 20 + " ".join(f"{t / o:>15.2f}" for t, o in zip(here, other[0]))
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
