"""Command-line front end: JSON problems in, JSON results out.

Subcommands cover every analysis the library offers, and run() alone speaks
the protocol: a subcommand that declares --input (all but extremal and
fixture) gets the problem read from --input or standard input and parsed
once; each subcommand returns one JSON object, which run() writes to
--output or standard output.  A flag is accepted only by the subcommands
that read it.  Exit codes: 0 success, 2 invalid input, 3 numeric/tolerance
failure, 4 oracle disagreement.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import re
import sys

import numpy as np

from .applications import (
    MAX_EXTREMAL_N,
    LevelProblem,
    calabi,
    extremal_family,
    image_membership,
    solve_level_problem,
    support_function,
)
from .betti import analyze, betti_complement, betti_y, check_bounds, result_json
from .circle import PlanarCone, omega_set
from .errors import InvalidInputError, NumericalError, OracleDisagreement
from .filtration import IndexProfile, filtration_for_cone, index_profile
from .fixtures import NAMED_FIXTURES, cone_zero_problem
from .pencil import MAX_ANGLES, QuadraticPencil

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# problem parsing
# ---------------------------------------------------------------------------

def load_problem(data: dict) -> tuple[QuadraticPencil, PlanarCone, dict]:
    """Parse a problem JSON into a pencil, a cone and the leftover options."""
    if not isinstance(data, dict):
        raise InvalidInputError("problem JSON must be an object")
    pencil = QuadraticPencil.from_json(data)
    cone_data = data.get("cone", {"kind": "zero", "generators": []})
    cone = PlanarCone.from_json(cone_data)
    extra = {k: data[k] for k in ("c", "mode", "smooth") if k in data}
    return pencil, cone, extra


def _read_input(args) -> dict:
    try:
        if args.input:
            with open(args.input, "r", encoding="utf-8") as fh:
                return json.load(fh)
        return json.load(sys.stdin)
    except (ValueError, RecursionError) as exc:
        # bad JSON, bytes that are not UTF-8, or nesting past the recursion limit
        raise InvalidInputError(f"malformed problem JSON: {exc}") from exc
    except OSError as exc:
        raise InvalidInputError(f"cannot read input: {exc}") from exc


def _open_for_writing(path: str, **kwargs):
    """path opened for writing text; an OSError is invalid input, as in
    _read_input."""
    try:
        return open(path, "w", encoding="utf-8", **kwargs)
    except OSError as exc:
        raise InvalidInputError(f"cannot write output: {exc}") from exc


def _write_output(args, data: dict) -> None:
    text = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    if args.output:
        with _open_for_writing(args.output) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _oracle_verdicts(res, args) -> dict:
    """verify_analysis of res with the keywords that --grid and --seed set.
    The oracles load on this first call, not with the command line."""
    from .oracles import verify_analysis
    given = {"grid_n": args.grid, "seed": args.seed}
    return verify_analysis(res, **{k: v for k, v in given.items() if v is not None})


def _plane_point(c) -> tuple[float, float]:
    """The point 'c' as a pair of floats; anything but two numbers is
    invalid, and so is an integer past the float range."""
    if not (isinstance(c, (list, tuple)) and len(c) == 2 and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in c)):
        raise InvalidInputError(f"'c' must be a pair of numbers, not {c!r}")
    try:
        return (float(c[0]), float(c[1]))
    except OverflowError as exc:
        raise InvalidInputError("'c' has a coordinate past the float range") from exc


# the flags several subcommands share, each given only where it is read
_SHARED_FLAGS = {
    "--input": {"help": "problem JSON file (default: stdin)"},
    "--output": {"help": "result JSON file (default: stdout)"},
    "--grid": {"type": int, "help": "oracle grid resolution (4 to 2^20)"},
    "--seed": {"type": int, "help": "PRNG seed for oracles"},
    "--smooth": {"action": "store_true",
                 "help": "assert the solution set is a nonsingular intersection"},
}


# ---------------------------------------------------------------------------
# subcommand handlers: each returns its JSON object; those that read a
# problem take its pencil, cone and leftover options from load_problem
# ---------------------------------------------------------------------------

def _cmd_betti_x(args, pencil, cone, extra) -> dict:
    smooth = extra.get("smooth", False)
    if not isinstance(smooth, bool):
        raise InvalidInputError(f"'smooth' must be true or false, not {smooth!r}")
    res = analyze(pencil, cone)
    data = result_json(res)
    data["violations"] = check_bounds(res.report, smooth=args.smooth or smooth)
    if args.verify:
        data["oracle"] = _oracle_verdicts(res, args)
    return data


def _cmd_betti_y(args, pencil, cone, _) -> dict:
    entries = betti_y(filtration_for_cone(pencil, cone))
    # each entry's fields by name: dataclasses.asdict without its deep copy, 30x faster
    return {"entries": [vars(e) for e in entries]}


def _cmd_betti_complement(args, pencil, cone, _) -> dict:
    return {"b_complement": betti_complement(filtration_for_cone(pencil, cone))}


def _cmd_euler(args, pencil, cone, _) -> dict:
    res = analyze(pencil, cone)
    return {"chi": res.chi, "chi_alternating": res.report.chi}


def _cmd_table(args, pencil, cone, _) -> dict:
    table = analyze(pencil, cone).table
    return {"table": table.display_rows(), "mu": table.mu, "nu": table.nu,
            "c": table.c, "d": table.d, "w1": table.w1_nonzero}


def _cmd_level_set(args, pencil, _, extra) -> dict:
    if "c" not in extra:
        raise InvalidInputError("level-set requires a point 'c' in the problem JSON")
    mode = extra.get("mode", "eq")
    res = solve_level_problem(LevelProblem(pencil, _plane_point(extra["c"]), mode=mode))
    return {"nonempty": res.nonempty, "b_tilde": list(res.b_tilde), "mode": mode}


def _cmd_calabi(args, pencil, *_) -> dict:
    return calabi(filtration_for_cone(pencil, PlanarCone.zero())).to_json()


def _cmd_member(args, pencil, _, extra) -> dict:
    if args.c is not None:
        c = args.c
    elif "c" in extra:
        c = extra["c"]
    else:
        raise InvalidInputError("member requires 'c' (flag or problem JSON)")
    member, cert = image_membership(pencil, _plane_point(c))
    return {"member": member, "certificate": cert.to_json()}


def _cmd_support(args, pencil, *_) -> dict:
    if args.theta is not None:
        thetas = [args.theta]
    elif not 1 <= args.directions <= MAX_ANGLES:
        raise InvalidInputError(f"--directions must be 1 to {MAX_ANGLES}, not {args.directions}")
    else:
        thetas = np.linspace(0.0, TWO_PI, args.directions, endpoint=False)
    return {"support": [{"theta": th, "value": support_function(pencil, th)} for th in thetas]}


def _cmd_extremal(args) -> dict:
    return cone_zero_problem(extremal_family(args.n))


def _cmd_fixture(args) -> dict:
    try:
        pencil = NAMED_FIXTURES[args.name]()
    except KeyError as exc:
        raise InvalidInputError(
            f"unknown fixture {args.name!r}; choose from "
            f"{sorted(NAMED_FIXTURES)}") from exc
    return cone_zero_problem(pencil)


def emit_profile_csv(profile: IndexProfile, path: str, grid=None) -> None:
    """Write profile rows as CSV: theta, i_plus, i_minus, is_breakpoint.

    grid, when given, is the (thetas, i_plus, i_minus) arrays of sampled
    rows that oracles._grid_counts returns; they are merged by angle.
    """
    rows = list(profile.rows())
    if grid is not None:
        thetas, plus, minus = grid
        rows.extend(zip(thetas.tolist(), plus.tolist(), minus.tolist(), itertools.repeat(False)))
        rows.sort(key=lambda r: r[0])
    with _open_for_writing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta", "i_plus", "i_minus", "is_breakpoint"])
        writer.writerows([f"{theta:.12f}", ip, im, "true" if is_bp else "false"]
                         for theta, ip, im, is_bp in rows)


def _cmd_profile(args, pencil, cone, _) -> dict:
    profile = index_profile(pencil, omega_set(cone))
    grid = None
    if args.grid is not None:
        from .oracles import _grid_counts  # loaded only when the grid is asked for
        grid = _grid_counts(pencil, args.grid)
    emit_profile_csv(profile, args.csv, grid)
    return {"csv": args.csv, "breakpoints": len(profile.breakpoint_angles())}


def _cmd_verify(args, pencil, cone, _) -> dict:
    res = analyze(pencil, cone)
    oracle = _oracle_verdicts(res, args)
    return {**result_json(res), "oracle": oracle}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser that reads every negative number as a value.

    argparse's own test for a negative number misses exponent notation, so
    "--c -1e-05 0.5" would take -1e-05 for an option.  No option here looks
    like a number, so the wider test is unambiguous.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps no
    state between calls, and the parser takes ms to build."""
    parser = _Parser(
        prog="quadrics",
        description="Topological invariants of sets cut out by two quadratic "
                    "forms, from inertia analysis over the circle.")
    sub = parser.add_subparsers(dest="command", required=True)

    reads = ("--input",)
    commands = {  # name: (help, the shared flags besides --output it reads)
        "betti-x": ("Betti numbers of the solution set in projective space",
                    ("--input", "--grid", "--seed", "--smooth")),
        "betti-y": ("reduced Betti numbers of the spherical double cover", reads),
        "betti-complement": ("Betti numbers of the projective complement", reads),
        "euler": ("Euler characteristic of the solution set", reads),
        "table": ("the integer table behind the Betti numbers", reads),
        "calabi": ("positive definite combination certificate", reads),
        "verify": ("run the analysis and all applicable oracles",
                   ("--input", "--grid", "--seed")),
        "level-set": ("level sets of the quadratic map", reads),
        "member": ("membership of a plane point in the sphere image", reads),
        "support": ("support function of the sphere image", reads),
        "extremal": ("emit the extremal family as a problem JSON", ()),
        "fixture": ("emit a named example problem JSON", ()),
        "profile": ("index profile as CSV", ("--input", "--grid")),
    }
    sps = {}
    for name, (help_text, flags) in commands.items():
        sp = sps[name] = sub.add_parser(name, help=help_text)
        for flag, kwargs in _SHARED_FLAGS.items():
            if flag == "--output" or flag in flags:
                sp.add_argument(flag, **kwargs)

    sps["betti-x"].add_argument("--verify", action="store_true",
                                help="also run the oracles and attach their verdicts")
    sps["member"].add_argument("--c", type=float, nargs=2, metavar=("C0", "C1"),
                               help="the plane point to test")
    sps["support"].add_argument("--theta", type=float, help="single direction angle")
    sps["support"].add_argument("--directions", type=int, default=64,
                                help="number of sampled directions when --theta is absent "
                                     "(1 to 2^20)")
    sps["extremal"].add_argument("--n", type=int, required=True,
                                 help=f"projective dimension (1 to {MAX_EXTREMAL_N})")
    sps["fixture"].add_argument("name", help="fixture name")
    sps["profile"].add_argument("--csv", required=True, help="output CSV path")

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    compute = globals()["_cmd_" + args.command.replace("-", "_")]  # betti-x: _cmd_betti_x
    try:  # only the subcommands that declare --input read a problem
        problem = load_problem(_read_input(args)) if hasattr(args, "input") else ()
        _write_output(args, compute(args, *problem))
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OracleDisagreement as exc:
        print(f"oracle disagreement: {exc}", file=sys.stderr)
        return 4
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
