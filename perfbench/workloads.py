"""The three seeded workloads: lists of operations with their reference checks.

Every workload is a closed loop with one client: the runner issues the next
operation when the previous one returns.  A workload is one pass, a list of
operations built from the seed out of ``blocks`` blocks of distinct inputs;
the number of blocks is set from the measuring time so that one pass takes a
little longer than that time on the reference machine (see README.md), and
the runner repeats whole passes, so every fraction and count per operation
is exact for a seed.  Each
operation calls the library through module attributes at call time, so the
tracer's wrappers see it, and carries a check that compares the answer with
a reference the library did not produce.  Checks run after the timed loop.

``in_envelope`` marks inputs inside the range the library claims to handle:
random pencils up to dim 16 and the extremal family up to n = 20 (the test
suite stops at dim 10 and n = 12), and every named fixture.  Outside it sit
the larger random pencils, extremal_family(40) and random identically
singular pencils of dim > 2, where the library is known to raise and, on
large random pencils, to return wrong profiles.  Those answers are counted,
never dropped, but only a wrong answer inside the envelope makes a run
incorrect.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

import numpy as np

import reference as ref

TWO_PI = 2.0 * math.pi
HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden_cli.json")

LAYER_MODULES = ("pencil", "filtration", "circle", "betti", "applications",
                 "oracles", "cli", "fixtures")


class LibraryNotFound(RuntimeError):
    pass


def load_library(root: str) -> SimpleNamespace:
    """Import ``quadrics`` from ``<root>/src`` and return its modules.

    Refuses a copy found anywhere else, so a checkout without the sources
    cannot silently benchmark an installed package.
    """
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "quadrics", "__init__.py")):
        raise LibraryNotFound(f"no quadrics sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    package = importlib.import_module("quadrics")
    if not os.path.abspath(package.__file__).startswith(os.path.abspath(src) + os.sep):
        raise LibraryNotFound(f"quadrics imported from {package.__file__}, not {src}")
    mods = {name: importlib.import_module(f"quadrics.{name}") for name in LAYER_MODULES}
    return SimpleNamespace(package=package, **mods)


SCALING_DIMS = (8, 16, 24, 32, 48)
SCALING_EXTREMAL = (10, 20, 40)
# blocks per second of measuring time, calibrated so that a pass takes about
# 1.25 times the measuring time at the reference speed (see SpeedProbe in run.py)
BLOCK_RATE = {"queries": 64.0, "scaling": 6.5, "cli-mix": 3.4}
# a prime count of grid points never lands exactly on a root at a rational
# multiple of pi, as the extremal family's roots are
GRID_POINTS = 2039
ENVELOPE_DIM = 16
ENVELOPE_EXTREMAL = 20


@dataclass
class Op:
    """One operation of a workload pass."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    summary: Callable[[object], object]
    in_envelope: bool = True
    key: str = ""  # digest of the operation's inputs


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warm: list[int] = field(default_factory=list)  # op indices run during set-up

    def fingerprint(self) -> str:
        """Digest of every input of the pass, in order."""
        return _digest(*(op.label + op.key for op in self.ops))


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()[:16]


def blocks_for(name: str, seconds: float) -> int:
    return max(1, round(BLOCK_RATE[name] * seconds))


def _random_pair(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, np.ndarray]:
    a = rng.standard_normal((dim, dim))
    b = rng.standard_normal((dim, dim))
    return 0.5 * (a + a.T), 0.5 * (b + b.T)


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    x = rng.standard_normal(dim)
    return x / np.linalg.norm(x)


def _member_point(rng, q0, q1) -> tuple[float, float]:
    """A convex combination of images of unit vectors.  The image of the
    sphere is convex for three or more variables, so this is a member."""
    w = rng.dirichlet(np.ones(3))
    pts = [ref.quad_map(q0, q1, _unit(rng, q0.shape[0])) for _ in range(3)]
    return (float(sum(wi * p[0] for wi, p in zip(w, pts))),
            float(sum(wi * p[1] for wi, p in zip(w, pts))))


def _outside_point(rng, q0, q1) -> tuple[float, float]:
    """A point beyond the support line in a random direction by a tenth of
    the pencil scale: no unit vector maps there."""
    th = float(rng.uniform(0.0, TWO_PI))
    scale = ref.pencil_scale(q0, q1)
    h = ref.support_value(q0, q1, th) + 0.1 * scale
    t = float(rng.uniform(-1.0, 1.0)) * scale
    return (h * math.cos(th) - t * math.sin(th), h * math.sin(th) + t * math.cos(th))


def _lazy(fn):
    """Compute a reference on first use, after the timed loop."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]
    return get


def _shuffled(rng: np.random.Generator, ops: list[Op]) -> list[Op]:
    return [ops[i] for i in rng.permutation(len(ops))]


def _first_of_each_label(ops: list[Op]) -> list[int]:
    seen: dict[str, int] = {}
    for i, op in enumerate(ops):
        seen.setdefault(op.label, i)
    return sorted(seen.values())


# ---------------------------------------------------------------------------
# queries: membership and level-set calls on small pencils
# ---------------------------------------------------------------------------

def _member_summary(answer) -> tuple:
    return (answer[0], answer[1].kind)


def _level_summary(answer) -> tuple:
    return (answer.nonempty, tuple(answer.b_tilde))


def queries(Q, seed: int, blocks: int) -> Workload:
    """image_membership, level_set_betti and inequality_level_set on seeded
    pencils of dim 3-6; every answer is known by construction.  A block is
    one pencil of each dim with one query of each kind."""
    rng = np.random.default_rng([seed, 1])
    ops: list[Op] = []
    for _ in range(blocks):
        for dim in (3, 4, 5, 6):
            ops.extend(_query_ops(Q, rng, dim))
    ops = _shuffled(rng, ops)
    return Workload("queries", ops, _first_of_each_label(ops))


def _query_ops(Q, rng, dim: int) -> list[Op]:
    apps = Q.applications
    q0, q1 = _random_pair(rng, dim)
    p = Q.pencil.QuadraticPencil(q0, q1)
    ops = []
    for expected, point in ((True, _member_point), (False, _outside_point)):
        c = point(rng, q0, q1)
        ops.append(Op(f"member/dim-{dim}",
                      lambda p=p, c=c: apps.image_membership(p, c),
                      lambda a, e=expected: a[0] is e, _member_summary,
                      key=_digest(q0, q1, c)))
    c = ref.quad_map(q0, q1, rng.standard_normal(dim))
    problem = apps.LevelProblem(p, c)
    ops.append(Op(f"level-set/dim-{dim}",
                  lambda pr=problem: apps.level_set_betti(pr),
                  lambda a: a.nonempty is True, _level_summary, key=_digest(q0, q1, c)))
    y = ref.quad_map(q0, q1, rng.standard_normal(dim))
    c = (y[0] + abs(float(rng.standard_normal())), y[1] + abs(float(rng.standard_normal())))
    problem = apps.LevelProblem(p, c, mode="ineq")
    ops.append(Op(f"ineq-level-set/dim-{dim}",
                  lambda pr=problem: apps.inequality_level_set(pr),
                  lambda a: a.nonempty is True, _level_summary, key=_digest(q0, q1, c)))
    return ops


# ---------------------------------------------------------------------------
# scaling: analyze on larger random pencils and the extremal family
# ---------------------------------------------------------------------------

def _analysis_summary(res) -> tuple:
    return (tuple(res.report.b), res.chi, res.table.mu, res.table.nu,
            res.table.w1_nonzero,
            tuple(round(b, 10) for b in res.filtration.profile.breakpoint_angles()))


def _analysis_check(Q, q0, q1, expected_total=None):
    """check_bounds clean, the profile agrees with an independent inertia
    grid at the oracle's resolution, and the extremal total is 2n."""
    def check(res) -> bool:
        if expected_total is not None and res.report.total != expected_total:
            return False
        if Q.betti.check_bounds(res.report):
            return False
        dim = q0.shape[0]
        reading = ref.grid_reading(q0, q1, max(720, 4 * dim))
        triples = tuple(Q.pencil.InertiaTriple(int(a), int(b), int(c)) for a, b, c
                        in zip(reading.i_plus, reading.i_minus, reading.i_zero))
        grid = Q.oracles.GridProfile(len(triples), tuple(map(float, reading.thetas)),
                                     triples)
        return not Q.oracles.grid_profile_disagreements(res.filtration.profile, grid)
    return check


def scaling(Q, seed: int, blocks: int) -> Workload:
    """analyze with the zero cone on random pencils of dims 8-48 and on the
    extremal family at n = 10, 20, 40.  A block is one random pencil of each
    dim and the three extremal pencils."""
    rng = np.random.default_rng([seed, 2])
    zero = Q.circle.PlanarCone.zero()
    extremal = []
    for n in SCALING_EXTREMAL:
        p = Q.applications.extremal_family(n)
        q0, q1 = np.array(p.q0), np.array(p.q1)
        extremal.append(Op(f"analyze/extremal-{n}",
                           lambda p=p: Q.betti.analyze(p, zero),
                           _analysis_check(Q, q0, q1, expected_total=2 * n),
                           _analysis_summary, in_envelope=n <= ENVELOPE_EXTREMAL,
                           key=_digest(q0, q1)))
    ops: list[Op] = []
    for _ in range(blocks):
        for dim in SCALING_DIMS:
            q0, q1 = _random_pair(rng, dim)
            p = Q.pencil.QuadraticPencil(q0, q1)
            ops.append(Op(f"analyze/random-{dim}",
                          lambda p=p: Q.betti.analyze(p, zero),
                          _analysis_check(Q, q0, q1), _analysis_summary,
                          in_envelope=dim <= ENVELOPE_DIM, key=_digest(q0, q1)))
        ops.extend(extremal)
    ops = _shuffled(rng, ops)
    return Workload("scaling", ops, _first_of_each_label(ops))


# ---------------------------------------------------------------------------
# cli-mix: in-process CLI calls on problem files
# ---------------------------------------------------------------------------

CONES = {
    "zero": ("zero", ()),
    "full": ("full", ()),
    "ray": ("ray", (0.7,)),
    "line": ("line", (2.0,)),
    "sector": ("sector", (0.3, 1.9)),
    "halfplane": ("halfplane", (1.1,)),
}
GOLDEN_ZERO_CONE = ("betti-x", "table", "euler", "betti-y", "betti-complement",
                    "calabi", "profile")
GOLDEN_OTHER_CONES = ("betti-x", "betti-complement")
# verify's sampling oracle runs for n <= 3 and takes seconds per call, which
# would swamp every other layer; verify runs only on inputs with n >= 4
VERIFY_COMMANDS = (("verify",), ("betti-x", "--verify"))


def fixture_pencils(Q) -> dict:
    fx = Q.fixtures
    return {
        "bouquet": fx.bouquet(),
        "complex-squaring": fx.complex_squaring(),
        "doubled-squaring": fx.doubled_squaring(),
        "four-lines": fx.four_lines(),
        "tripled-squaring": fx.tripled_squaring(),
        "padded-squaring": fx.padded_squaring(),
    }


def cone_json(Q, kind: str) -> dict:
    name, args = CONES[kind]
    return getattr(Q.circle.PlanarCone, name)(*args).to_json()


def golden_ops(Q) -> list[tuple[str, tuple[str, ...]]]:
    """(problem id, argv without --input) of every operation checked against
    the recorded golden outputs."""
    out = []
    for fixture, p in fixture_pencils(Q).items():
        for cmd in GOLDEN_ZERO_CONE:
            out.append((f"{fixture}/zero", (cmd,)))
        for kind in CONES:
            if kind != "zero":
                for cmd in GOLDEN_OTHER_CONES:
                    out.append((f"{fixture}/{kind}", (cmd,)))
        if p.n >= 4:
            for argv in VERIFY_COMMANDS:
                out.append((f"{fixture}/zero", argv))
    return out


class CliNumericFailure(Exception):
    """The CLI exited with code 3: the library raised NumericalError."""


def cli_call(Q, argv: list[str]) -> tuple[int, str, str]:
    """quadrics.cli.run in process: (exit code, stdout, stderr).  An
    argument error exits through argparse; its code is returned as the
    process would have returned it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = Q.cli.run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _number(x: float) -> str:
    """A float as a CLI argument: argparse takes "-1e-05" for an option, so
    write it positionally, without an exponent, and exactly."""
    return np.format_float_positional(x, unique=True, trim="-")


def cli_op_call(Q, argv: list[str]) -> tuple[int, str]:
    """cli_call, with a numeric failure raised so that it counts as failed."""
    code, text, err = cli_call(Q, argv)
    if code == 3:
        raise CliNumericFailure(err.strip())
    return code, text


def _parse(answer):
    code, text = answer
    if code != 0:
        return None
    return json.loads(text)


def _close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and math.isclose(a, b, rel_tol=1e-7, abs_tol=1e-9))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    return a == b


def _golden_check(expected: dict, drop: tuple[str, ...] = ()):
    def check(answer) -> bool:
        data = _parse(answer)
        if data is None:
            return False
        for key in drop:
            data.pop(key, None)
        return _close(data, expected)
    return check


def _betti_facts(data: dict, n: int) -> bool:
    """Total Betti number at most 2n and the Euler number is the
    alternating sum of the Betti numbers."""
    b = data["b"]
    return (len(b) == n + 1 and sum(b) <= 2 * n
            and (data["empty"] or data["chi"] == sum((-1) ** k * x for k, x in enumerate(b))))


def _grid_check(cmd: str, q0, q1, grid, *, total=None, singular=False, generic=True):
    """Reference check of a seeded pencil's CLI output (zero cone); ``grid``
    returns the pencil's grid reading.

    A grid sees the inertia on open arcs only.  For a generic pencil (simple
    roots) that fixes mu, nu and the Euler number; where roots collide, as
    in the extremal family at odd n, the smallest index can sit on isolated
    points, and only mu is read from the grid."""
    n = q0.shape[0] - 1

    def check(answer) -> bool:
        data = _parse(answer)
        if data is None:
            return False
        reading = grid()
        if cmd in ("betti-x", "verify"):
            if not _betti_facts(data, n):
                return False
            if total is not None and data["total"] != total:
                return False
            if singular:
                # the kernel direction lies on every line through it and a
                # solution point: the solution set is nonempty and connected
                return data["b"][0] == 1 and not data["empty"]
            if not reading.decided:
                return True
            if not generic:
                return data["mu"] == reading.mu
            return (data["mu"] == reading.mu and data["nu"] == reading.nu
                    and data["chi"] == ref.levelwise_euler(reading)
                    and data["empty"] == (reading.mu == reading.dim))
        if cmd == "table":
            if len(data["table"]) != n + 1:
                return False
            return not reading.decided or (data["mu"], data["nu"]) == (reading.mu, reading.nu)
        if cmd == "euler":
            if data["chi"] != data["chi_alternating"]:
                return False
            return not (reading.decided and generic) or data["chi"] == ref.levelwise_euler(reading)
        if cmd == "calabi":
            positive = data["kind"] == "positive_combination"
            if positive and ref.min_eigenvalue(q0, q1, data["theta"]) <= 0.0:
                return False
            return not reading.decided or positive == (reading.mu == reading.dim)
        raise ValueError(cmd)
    return check


def _member_check(expected: bool):
    def check(answer) -> bool:
        data = _parse(answer)
        return data is not None and data["member"] is expected
    return check


def _support_check(q0, q1, theta: float):
    def check(answer) -> bool:
        data = _parse(answer)
        if data is None:
            return False
        want = ref.support_value(q0, q1, theta)
        got = data["support"][0]["value"]
        return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
    return check


def _level_check(answer) -> bool:
    data = _parse(answer)
    return data is not None and data["nonempty"] is True


def _singular_pair(rng, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """A random pencil with a shared kernel vector."""
    q0, q1 = _random_pair(rng, dim)
    v = _unit(rng, dim)
    proj = np.eye(dim) - np.outer(v, v)
    a, b = proj @ q0 @ proj, proj @ q1 @ proj
    return 0.5 * (a + a.T), 0.5 * (b + b.T)


def cli_mix(Q, seed: int, blocks: int, workdir: str) -> Workload:
    """Every analysis subcommand through quadrics.cli.run on problem files.

    A block is one group of seeded pencils: a random pencil of dim 5 and one
    of dim 6, a small extremal pencil and a random identically singular
    pencil.  Every fourth block (at least one) adds a round of the named
    fixtures over all cone kinds, checked against outputs recorded while
    verify agreed (``golden_cli.json``: problem id -> argv -> output), with
    freshly seeded member, level-set and support queries.  Problem files
    are written into ``workdir``.
    """
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)["outputs"]
    rng = np.random.default_rng([seed, 3])
    ops: list[Op] = []
    contents: dict[str, str] = {}

    def problem_file(data: dict) -> str:
        path = os.path.join(workdir, f"problem-{len(contents)}.json")
        contents[path] = json.dumps(data)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(contents[path])
        return path

    def add(label, argv, path, check, in_envelope=True, outputs=()):
        full = [*argv, *outputs, "--input", path]
        ops.append(Op(label, lambda a=full: cli_op_call(Q, a), check, tuple,
                      in_envelope, key=_digest(*argv, contents[path])))

    def queries_on(q0, q1, path_with_c, theta):
        add("cli/level-set", ("level-set",), path_with_c, _level_check)
        add("cli/support", ("support", "--theta", _number(theta)), path_with_c,
            _support_check(q0, q1, theta))
        if q0.shape[0] >= 3:
            for expected, point in ((True, _member_point), (False, _outside_point)):
                c = point(rng, q0, q1)
                add("cli/member", ("member", "--c", _number(c[0]), _number(c[1])),
                    path_with_c, _member_check(expected))

    pencils = fixture_pencils(Q)
    paths = {}
    for fixture, p in pencils.items():
        for kind in CONES:
            data = p.to_json()
            data["cone"] = cone_json(Q, kind)
            paths[f"{fixture}/{kind}"] = problem_file(data)
    csv_path = os.path.join(workdir, "profile.csv")

    for _ in range(max(1, blocks // 4)):
        # named fixtures against the recorded outputs
        for pid, argv in golden_ops(Q):
            expected = golden[pid][" ".join(argv)]
            label = "cli/" + " ".join(argv)
            if argv[0] == "profile":
                add(label, argv, paths[pid], _golden_check(expected, drop=("csv",)),
                    outputs=("--csv", csv_path))
            else:
                add(label, argv, paths[pid], _golden_check(expected))
        # seeded queries on the fixtures, answers known by construction
        for p in pencils.values():
            q0, q1 = np.array(p.q0), np.array(p.q1)
            data = p.to_json()
            data["c"] = list(ref.quad_map(q0, q1, rng.standard_normal(p.dim)))
            queries_on(q0, q1, problem_file(data), float(rng.uniform(0.0, TWO_PI)))

    for b in range(blocks):
        # random pencils with n >= 4, checked against an independent grid
        for dim in (5, 6):
            q0, q1 = _random_pair(rng, dim)
            data = Q.fixtures.cone_zero_problem(Q.pencil.QuadraticPencil(q0, q1))
            data["c"] = list(ref.quad_map(q0, q1, rng.standard_normal(dim)))
            path = problem_file(data)
            reading = _lazy(lambda q0=q0, q1=q1: ref.grid_reading(q0, q1, GRID_POINTS))
            for cmd in ("betti-x", "table", "euler", "calabi"):
                add(f"cli/{cmd}", (cmd,), path, _grid_check(cmd, q0, q1, reading))
            for argv in VERIFY_COMMANDS:
                add("cli/" + " ".join(argv), argv, path,
                    _grid_check(argv[0], q0, q1, reading))
            queries_on(q0, q1, path, float(rng.uniform(0.0, TWO_PI)))

        # small extremal family: total Betti number 2n
        n = int(rng.integers(4, 9))
        p = Q.applications.extremal_family(n)
        q0, q1 = np.array(p.q0), np.array(p.q1)
        path = problem_file(Q.fixtures.cone_zero_problem(p))
        reading = _lazy(lambda q0=q0, q1=q1: ref.grid_reading(q0, q1, GRID_POINTS))
        for cmd in ("betti-x", "euler", "verify"):
            add(f"cli/{cmd}", (cmd,), path,
                _grid_check(cmd, q0, q1, reading, total=2 * n, generic=False))

        # a random identically singular pencil, outside today's envelope
        dim = 4 + b % 3
        q0, q1 = _singular_pair(rng, dim)
        path = problem_file(Q.fixtures.cone_zero_problem(Q.pencil.QuadraticPencil(q0, q1)))
        reading = _lazy(lambda q0=q0, q1=q1: ref.grid_reading(q0, q1, 256))
        for cmd in ("betti-x", "table", "euler"):
            add(f"cli/{cmd}/singular", (cmd,), path,
                _grid_check(cmd, q0, q1, reading, singular=True), in_envelope=False)

    ops = _shuffled(rng, ops)
    return Workload("cli-mix", ops, _first_of_each_label(ops))


BUILDERS = {"queries": queries, "scaling": scaling, "cli-mix": cli_mix}
