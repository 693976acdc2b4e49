"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import inspect
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

Q = wl.load_library(ROOT)


@pytest.fixture
def workdir():
    path = os.path.join(run.OUT_DIR, f"test-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def small(name: str, seed: int, workdir: str) -> wl.Workload:
    if name == "cli-mix":
        return wl.cli_mix(Q, seed, 1, workdir)
    return wl.BUILDERS[name](Q, seed, 1)


def answers(workload: wl.Workload) -> list:
    out = []
    for op in workload.ops:
        try:
            out.append(op.summary(op.call()))
        except Exception as exc:  # failures are part of the answer
            out.append(type(exc).__name__)
    return out


def bindings() -> dict:
    """Every attribute the tracer may replace, by identity."""
    import numpy.linalg as linalg
    spaces = [Q.package, *(getattr(Q, m) for m in wl.LAYER_MODULES),
              Q.pencil.QuadraticPencil, Q.circle.CircleSubset, linalg]
    return {(id(ns), attr): id(obj) for ns in spaces for attr, obj in vars(ns).items()}


@pytest.mark.parametrize("name", sorted(wl.BUILDERS))
def test_generator_is_deterministic_per_seed(name, workdir):
    first = small(name, 11, workdir)
    again = small(name, 11, workdir)
    other = small(name, 12, workdir)
    assert [op.label for op in first.ops] == [op.label for op in again.ops]
    assert first.fingerprint() == again.fingerprint()
    assert first.fingerprint() != other.fingerprint()


def test_block_count_follows_measuring_time():
    assert wl.blocks_for("scaling", 20) == round(wl.BLOCK_RATE["scaling"] * 20)
    assert wl.blocks_for("queries", 0.001) == 1


@pytest.mark.parametrize("name", sorted(wl.BUILDERS))
def test_answers_identical_with_tracing_on_and_off(name, workdir):
    workload = small(name, 3, workdir)
    plain = answers(workload)
    with Tracer(Q.package, record_ops=len(workload.ops)) as tracer:
        traced = answers(workload)
    assert traced == plain
    assert sum(tracer.calls) > 0


def test_every_wrapped_binding_is_restored(workdir):
    before = bindings()
    original = Q.pencil.degenerate_locus
    with Tracer(Q.package, record_ops=1):
        # both module bindings of a name imported with ``from .x import y``
        assert Q.filtration.degenerate_locus is not original
        assert Q.filtration.degenerate_locus is Q.pencil.degenerate_locus
        assert inspect.unwrap(Q.pencil.degenerate_locus) is original
        assert bindings() != before
    assert bindings() == before
    assert Q.filtration.degenerate_locus is original


def test_bindings_restored_when_an_operation_raises():
    before = bindings()
    with pytest.raises(ValueError):
        with Tracer(Q.package, record_ops=1):
            raise ValueError("boom")
    assert bindings() == before


@pytest.mark.parametrize("name", ["queries", "scaling"])
def test_calls_and_eig_calls_repeat_exactly(name, workdir):
    workload = small(name, 5, workdir)
    counts = []
    for _ in range(2):
        with Tracer(Q.package, record_ops=0) as tracer:
            answers(workload)
        stats = tracer.layer_stats()
        counts.append({k: (v["calls"], v.get("eig_calls")) for k, v in stats.items()})
    assert counts[0] == counts[1]
    assert counts[0]["linalg"][0] > 0


def test_self_time_excludes_children():
    workload = small("scaling", 5, None)
    with Tracer(Q.package, record_ops=len(workload.ops)) as tracer:
        answers(workload)
    spans = tracer.spans()
    rows = spans["rows"]
    assert rows and all(r[5] >= r[4] for r in rows)
    assert all(r[2] < r[1] for r in rows)  # parents open before children
    stats = tracer.layer_stats()
    total_self = sum(stats[layer]["self_s"] for layer in run.LAYERS if layer in stats)
    top = sum(r[5] - r[4] for r in rows if r[2] == -1) / 1e6
    # the self times tile the top-level spans, less the tracer's own hooks
    assert 0.9 * top <= total_self <= top * (1 + 1e-9)


def test_failed_and_wrong_answers_are_told_apart():
    ops = [wl.Op("x", lambda: 1, lambda a: a == 1, lambda a: a),
           wl.Op("x", lambda: 2, lambda a: a == 1, lambda a: a),
           wl.Op("x", lambda: 1, lambda a: a == 1, lambda a: a, in_envelope=False)]
    verdicts = run.Verdicts(ops)
    records = [(0, 0.1, 1, None, 0.0), (1, 0.1, 2, None, 0.0), (2, 0.1, None, "E: x", 0.0)]
    assert [verdicts.status(r) for r in records] == ["ok", "wrong", "failed"]
    assert verdicts.status((0, 0.1, 5, None, 0.0)) == "wrong"
    assert verdicts.consistent is False  # op 0 answered two different ways


def test_tail_is_p99_per_chunk_with_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == pytest.approx(90.0)
    value, pct = run.tail([float(i) for i in range(1000)] * 5)
    assert value == 989.0 and pct == pytest.approx(99.0)
    # one chunk hit by a hiccup does not move the median of the chunk tails
    value, _ = run.tail([1e3] * 1000 + [float(i) for i in range(1000)] * 2)
    assert value == 989.0


def test_reference_grid_matches_known_euler_numbers():
    # the extremal family at n = 4 has Betti numbers (1, 6, 1, 0, 0)
    p = Q.applications.extremal_family(4)
    reading = ref.grid_reading(np.array(p.q0), np.array(p.q1), wl.GRID_POINTS)
    assert reading.decided
    assert ref.levelwise_euler(reading) == 1 - 6 + 1
    # a definite pencil has an empty solution set
    eye = np.eye(4)
    reading = ref.grid_reading(eye, np.zeros((4, 4)), 256)
    assert reading.mu == 4 and ref.levelwise_euler(reading) == 0


def test_golden_outputs_cover_every_fixture_operation():
    with open(wl.GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)["outputs"]
    for pid, argv in wl.golden_ops(Q):
        assert " ".join(argv) in golden[pid]
    assert golden["bouquet/zero"]["betti-x"]["b"] == [1, 3, 0, 0]
    assert golden["four-lines/zero"]["betti-x"]["b"] == [1, 5, 0, 0]


def test_refuses_to_run_without_the_sources():
    lonely = os.path.join(run.OUT_DIR, f"lonely-{os.getpid()}")
    try:
        shutil.copytree(BENCH, os.path.join(lonely, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lonely)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "queries", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=lonely, capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": ""})
    finally:
        shutil.rmtree(lonely, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("n", range(4, 9))
def test_extremal_cli_answers_pass_their_checks(n, workdir):
    p = Q.applications.extremal_family(n)
    path = os.path.join(workdir, "extremal.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(Q.fixtures.cone_zero_problem(p), fh)
    q0, q1 = np.array(p.q0), np.array(p.q1)
    reading = ref.grid_reading(q0, q1, wl.GRID_POINTS)
    for cmd in ("betti-x", "euler"):
        code, text, _ = wl.cli_call(Q, [cmd, "--input", path])
        check = wl._grid_check(cmd, q0, q1, lambda: reading, total=2 * n, generic=False)
        assert check((code, text))


def test_cli_arguments_survive_argparse(workdir):
    p = Q.fixtures.bouquet()
    path = os.path.join(workdir, "bouquet.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(p.to_json(), fh)
    for c in (-1.2e-05, -3.0, 2.5e-300):
        assert float(wl._number(c)) == c
        code, text, _ = wl.cli_call(Q, ["member", "--c", wl._number(c), wl._number(c),
                                        "--input", path])
        assert code == 0, c
    assert wl.cli_call(Q, ["member", "--c", "-1e-05", "0", "--input", path])[0] == 2
