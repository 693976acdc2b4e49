"""Time the grid oracle, verify_analysis, index_profile and analyze per
dimension, the first three with the count path on and off.

The one bound pencil.COUNT_DIM decides how both the pipeline and the grid
oracle count a member's inertia: from COUNT_DIM up by the streaming Sturm
counter (pencil._sturm_inertia, one dsytrd per member, or a direct read
when both forms are tridiagonal); below it the profile solves a stack by
eigvalsh and the grid counts a stack by its own batched Householder
reduction (oracles._counted_inertia), except that the grid reads a pencil
of two tridiagonal forms by the streaming counter at every dim, and both
read a diagonal pencil, such as extremal_family, off its diagonals at
every dim, so its times on and off take the same path.  The grid
reads the bound at call time, so the script times every call twice, with
COUNT_DIM set to 0 (on: every member counted by the streaming counter) and
to sys.maxsize (off), and prints each time and then each class's time on
over its time off; where the ratios cross 1 is where COUNT_DIM belongs.

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

Each round is one fresh interpreter on one OpenBLAS thread.  It imports
this checkout's package and, with --src, the other checkout's under
another name, builds each pencil in both from the same forms, and times
the two trees call by call in turn, the first in turn alternating from call
to call and from round to round.  Each time is the best over the N calls
and the --rounds rounds, and with --src the script prints this tree's time
over the other's, column by column.  Timing both trees in one process
removes the spread between interpreters, which read several percent apart
on the same code.  A tree whose grid does not read COUNT_DIM times its own
grid path in both of its grid columns.

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
import importlib, importlib.util, json, os, sys, time
import numpy as np

trees, dims, repeat, mode = json.loads(sys.argv[1])

def load(name, src):
    # the package in src/quadrics, imported as name: its imports are relative
    where = os.path.join(src, "quadrics")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(where, "__init__.py"), submodule_search_locations=[where])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {m: importlib.import_module(f"{name}.{m}")
            for m in ("applications", "betti", "circle", "filtration", "fixtures", "oracles",
                      "pencil")}

Q = [load(f"quadrics_{i}", src) for i, src in enumerate(trees)]

def best_ms(calls):
    # [the best of repeat calls of each tree's call]: the trees take turns call
    # by call, in turn first
    best = [float("inf")] * len(calls)
    for r in range(repeat):
        for i in range(len(calls))[::1 if r % 2 == 0 else -1]:
            start = time.perf_counter()
            calls[i]()
            best[i] = min(best[i], time.perf_counter() - start)
    return [1e3 * b for b in best]

def on_off_ms(calls):
    # [count path on, off] per tree: every dim counts from COUNT_DIM 0, none from maxsize
    times = []
    for count_dim in (0, sys.maxsize):
        for q in Q:
            q["pencil"].COUNT_DIM = count_dim
        times.append(best_ms(calls))
    return [list(t) for t in zip(*times)]

def grid_ms(ps):
    for p in ps:
        p.scale()  # computed once per pencil and kept, so it is not timed
    return on_off_ms([lambda q=q, p=p: q["oracles"].grid_index_profile(p) for q, p in zip(Q, ps)])

def verify_ms(ps):
    if ps[0].n <= 3:  # the sampling oracle's seconds would hide the rest
        return [[float("nan")] * 2 for _ in ps]
    results = [q["betti"].analyze(p, q["circle"].PlanarCone.zero()) for q, p in zip(Q, ps)]
    return on_off_ms([lambda q=q, r=r: q["oracles"].verify_analysis(r)
                      for q, r in zip(Q, results)])

def profile_ms(ps):
    calls = []
    for q, p in zip(Q, ps):
        locus = q["pencil"].degenerate_locus(p)
        full = q["circle"].CircleSubset.full_circle()
        calls.append(lambda q=q, p=p, full=full, locus=locus:
                     q["filtration"].index_profile(p, full, locus))
    return on_off_ms(calls)

def analyze_ms(ps):
    # [analyze, locus, profile, table] per tree
    stages = []
    for q, p in zip(Q, ps):
        p.scale()
        pencil, betti, filtration = q["pencil"], q["betti"], q["filtration"]
        full, zero = q["circle"].CircleSubset.full_circle(), q["circle"].PlanarCone.zero()
        locus = pencil.degenerate_locus(p)
        filt = filtration.filtration_report(p, full)

        def table(p=p, betti=betti, filt=filt, report=filtration.FiltrationReport):
            fresh = report(p, filt.profile, filt.mu, filt.nu, filt.locus)
            betti.betti_x(betti.build_table(fresh))
            betti.euler_x(fresh)

        stages.append([lambda p=p, betti=betti, zero=zero: betti.analyze(p, zero),
                       lambda p=p, pencil=pencil: pencil.degenerate_locus(p),
                       lambda p=p, f=filtration, full=full, locus=locus:
                           f.index_profile(p, full, locus),
                       table])
    return [list(t) for t in zip(*(best_ms(calls) for calls in zip(*stages)))]

def tridiagonal_forms(rng, dim):
    forms = []
    for _ in range(2):
        sub = rng.standard_normal(dim - 1)
        forms.append(np.diag(rng.standard_normal(dim)) + np.diag(sub, 1) + np.diag(sub, -1))
    return forms

def each_tree(q0, q1):
    # the same pencil, built by every tree
    return [q["pencil"].QuadraticPencil(q0, q1) for q in Q]

rows = [[] for _ in Q]  # rows[tree][dim]
for d in dims:
    rng = np.random.default_rng(d)
    random = Q[0]["fixtures"].random_pencil(rng, d)
    extremal = Q[0]["applications"].extremal_family(d - 1)
    classes = [each_tree(random.q0, random.q1), each_tree(extremal.q0, extremal.q1)]
    if mode == "profile":
        classes.append(each_tree(*tridiagonal_forms(rng, d)))
    timed = {"analyze": (analyze_ms,), "profile": (profile_ms,),
             "grid": (grid_ms, verify_ms)}[mode]
    per_tree = [[] for _ in Q]
    for how in timed:
        for ps in classes:
            for mine, times in zip(per_tree, how(ps)):
                mine += times
    for row, mine in zip(rows, per_tree):
        row.append(mine)
print(json.dumps(rows))
"""

# mode: (classes, the times taken of each class)
MODES = {
    "grid": (("random", "extremal", "verify random", "verify extremal"), ("on", "off")),
    "profile": (("random", "extremal", "tridiagonal"), ("on", "off")),
    "analyze": (("random", "extremal"), ("analyze", "locus", "profile", "table")),
}


def _times(trees: list[str], dims: list[int], repeat: int, mode: str) -> list:
    """[[each of the mode's times of each class, in ms] per dim] per tree,
    every tree timed in one fresh interpreter, call by call in turn: in grid
    mode the grid on the random and the extremal pencil, then
    verify_analysis on each, count path on and off; in profile mode
    index_profile on its classes, on and off; in analyze mode analyze and
    its three stages."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    task = json.dumps([trees, dims, repeat, mode])
    proc = subprocess.run([sys.executable, "-c", WORKER, task],
                          capture_output=True, text=True, env=env, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"timing of {trees} exited {proc.returncode}:\n{proc.stderr}")
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
                        help="fresh interpreters, each timing every tree (default 3)")
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
        order = list(range(len(trees)))[::1 if r % 2 == 0 else -1]
        for i, times in zip(order, _times([trees[i] for i in order], args.dims, args.repeat,
                                          args.mode)):
            best[i] = np.minimum(best[i], times) if r else np.array(times)
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
