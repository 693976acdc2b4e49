"""Time the grid oracle, verify_analysis, index_profile and analyze per
dimension, the first three with the count path on and off.

The one bound pencil.COUNT_DIM decides how both the pipeline and the grid
oracle count a member's inertia: from COUNT_DIM up by the streaming Sturm
counter (pencil._sturm_inertia, one dsytrd per member, or a direct read
when both forms are tridiagonal); below it the profile solves a stack by
eigvalsh and the grid counts a stack by its own batched Householder
reduction (oracles._counted_inertia).  The grid reads the bound at call
time, so the script times every call twice, with COUNT_DIM set to 0 (on:
every member counted by the streaming counter) and to sys.maxsize (off),
and prints each time and then each class's time on over its time off;
where the ratios cross 1 is where COUNT_DIM belongs.

By default it takes, per dim, the best of N calls of grid_index_profile at
the default 720 angles on random_pencil(default_rng(dim), dim) and on
extremal_family(dim - 1), whose members are diagonal, and the best of N
calls of verify_analysis(analyze(p, zero)) on the same two pencils from
dim 5, the analysis made once and not timed.  verify_analysis runs the
grid check on arrays of its own, not through grid_index_profile, and the
monodromy refinement when the top superlevel set fills the circle; up to dim 4 it also runs the sampling
oracle, which takes seconds, so those dims print nan there.

With --profile it times the pipeline's count path instead: the best of N
full-circle index_profile calls per dim, the locus found once and given,
on random_pencil(default_rng(dim), dim), extremal_family(dim - 1) and a
random tridiagonal pencil drawn next from the same generator.

With --analyze it times the whole pipeline instead, with no on/off: the
best of N analyze(p, zero cone) calls per dim on random_pencil(
default_rng(dim), dim) and extremal_family(dim - 1), and the best of N of
each of its three stages on the same pencil: the locus (degenerate_locus),
the full-circle profile read from it (index_profile, the locus given) and
the table (build_table, betti_x and euler_x on a fresh FiltrationReport of
that profile).  Each pencil's scale is computed once and kept, as analyze
keeps it.

Each tree is timed in a fresh interpreter on one OpenBLAS thread, --rounds
times, and each time is the least over the rounds.  With --src, the rounds
alternate between this checkout and the other one, in turn first, and the
script prints this tree's time over the other's, column by column.  A tree
whose grid does not read COUNT_DIM times its own grid path in both of its
grid columns.

    python scripts/grid_timing.py                                  # this checkout
    python scripts/grid_timing.py --dims 14-48 --src OTHER/src     # against another
    python scripts/grid_timing.py --profile --dims 8-40
    python scripts/grid_timing.py --analyze --dims 8-48 --src OTHER/src
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
from quadrics.betti import analyze, betti_x, build_table, euler_x
from quadrics.circle import CircleSubset, PlanarCone
from quadrics.filtration import FiltrationReport, filtration_report, index_profile

dims, repeat, mode = json.loads(sys.argv[1])

def best_ms(call):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return 1e3 * best

def on_off_ms(call):
    # [count path on, off]: every dim counts from COUNT_DIM 0, none from maxsize
    times = []
    for count_dim in (0, sys.maxsize):
        pencil.COUNT_DIM = count_dim
        times.append(best_ms(call))
    return times

def grid_ms(p):
    p.scale()  # computed once per pencil and kept, so it is not timed
    return on_off_ms(lambda: oracles.grid_index_profile(p))

def verify_ms(p):
    if p.n <= 3:  # the sampling oracle's seconds would hide the rest
        return [float("nan")] * 2
    result = analyze(p, PlanarCone.zero())
    return on_off_ms(lambda: oracles.verify_analysis(result))

def profile_ms(p):
    locus = pencil.degenerate_locus(p)
    full = CircleSubset.full_circle()
    return on_off_ms(lambda: index_profile(p, full, locus))

def analyze_ms(p):
    # [analyze, locus, profile, table]
    p.scale()
    full, zero = CircleSubset.full_circle(), PlanarCone.zero()
    locus = pencil.degenerate_locus(p)
    filt = filtration_report(p, full)

    def table():
        fresh = FiltrationReport(p, filt.profile, filt.mu, filt.nu, filt.locus)
        betti_x(build_table(fresh))
        euler_x(fresh)

    return [best_ms(lambda: analyze(p, zero)), best_ms(lambda: pencil.degenerate_locus(p)),
            best_ms(lambda: index_profile(p, full, locus)), best_ms(table)]

def tridiagonal_pencil(rng, dim):
    forms = []
    for _ in range(2):
        sub = rng.standard_normal(dim - 1)
        forms.append(np.diag(rng.standard_normal(dim)) + np.diag(sub, 1) + np.diag(sub, -1))
    return pencil.QuadraticPencil(*forms)

rows = []
for d in dims:
    rng = np.random.default_rng(d)
    if mode == "analyze":
        ps = (fixtures.random_pencil(rng, d), extremal_family(d - 1))
        rows.append([t for p in ps for t in analyze_ms(p)])
    elif mode == "profile":
        ps = (fixtures.random_pencil(rng, d), extremal_family(d - 1), tridiagonal_pencil(rng, d))
        rows.append([t for p in ps for t in profile_ms(p)])
    else:
        ps = (fixtures.random_pencil(rng, d), extremal_family(d - 1))
        rows.append([t for timed in (grid_ms, verify_ms) for p in ps for t in timed(p)])
print(json.dumps(rows))
"""

# mode: (classes, the times taken of each class)
MODES = {
    "grid": (("random", "extremal", "verify random", "verify extremal"), ("on", "off")),
    "profile": (("random", "extremal", "tridiagonal"), ("on", "off")),
    "analyze": (("random", "extremal"), ("analyze", "locus", "profile", "table")),
}


def _times(src: str, dims: list[int], repeat: int, mode: str) -> list:
    """[each of the mode's times of each class, in ms] per dim, timed in a
    fresh interpreter: in grid mode the grid on the random and the extremal
    pencil, then verify_analysis on each, count path on and off; in profile
    mode index_profile on its classes, on and off; in analyze mode analyze
    and its three stages."""
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    task = json.dumps([dims, repeat, mode])
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
    modes = parser.add_mutually_exclusive_group()
    modes.add_argument("--profile", action="store_const", dest="mode", const="profile",
                       default="grid",
                       help="time full-circle index_profile with the count path on and off")
    modes.add_argument("--analyze", action="store_const", dest="mode", const="analyze",
                       help="time analyze with the zero cone and its locus, profile and table")
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.rounds < 1:
        parser.error("--repeat and --rounds must be at least 1")

    trees = [os.path.join(ROOT, "src")] + ([os.path.abspath(args.src)] if args.src else [])
    best: list = [None] * len(trees)
    for r in range(args.rounds):
        for i in range(len(trees))[::1 if r % 2 == 0 else -1]:
            times = np.array(_times(trees[i], args.dims, args.repeat, args.mode))
            best[i] = times if best[i] is None else np.minimum(best[i], times)
    classes, ways = MODES[args.mode]
    on_off = ways == ("on", "off")
    columns = tuple(f"{c} {way}" for c in classes for way in ways)
    head = f"{'dim':>4}" + "".join(f" {c + ' ms':>22}" for c in columns)
    if on_off:
        head += "   on over off: " + " ".join(f"{c:>15}" for c in classes)
    if args.src:
        head += "   this over other: " + " ".join(f"{c:>15}" for c in columns)
    print(head)
    for dim, here, *other in zip(args.dims, *best):
        line = f"{dim:>4}" + "".join(f" {t:>22.3f}" for t in here)
        if on_off:
            ratios = (on / off for on, off in zip(here[::2], here[1::2]))
            line += " " * 16 + " ".join(f"{r:>15.2f}" for r in ratios)
        if other:
            line += " " * 20 + " ".join(f"{t / o:>15.2f}" for t, o in zip(here, other[0]))
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
