"""The quadrics benchmark: one seeded workload per run, one client, closed loop.

Usage, from the repository root:

    python3 perfbench/run.py --workload queries|scaling|cli-mix --seed N \\
        --seconds S --trace 0|1

With ``--trace 0`` the run times whole passes of the workload for S seconds
and reports the end-to-end metrics.  With ``--trace 1`` it times S/2 seconds
untraced, then S/2 seconds with spans recorded around every layer, and
reports the per-layer metrics together with the tracing overhead.  Times are
expressed at the reference machine's speed (see SpeedProbe).  Every answer is
checked against a reference after the timed loops.  A readable
report goes to standard output; its last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with the environment, goes to ``perfbench/out/``.

BLAS is pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 3

_t_import = time.perf_counter()
import numpy as np  # noqa: E402

sys.path.insert(0, HERE)
import workloads as wl  # noqa: E402
from tracer import LAYERS as TRACED_LAYERS, Tracer  # noqa: E402

# per-layer metrics: output name -> (traced name, statistic, unit)
LAYER_METRICS = {
    "pencil.scale.calls": ("pencil.QuadraticPencil.scale", "calls", "calls/op"),
    "pencil.inertia.calls": ("pencil.inertia", "calls", "calls/op"),
    "pencil.inertia.self_ms": ("pencil.inertia", "self_ms", "ms/op"),
    "pencil.degenerate_locus.self_ms": ("pencil.degenerate_locus", "self_ms", "ms/op"),
    "pencil.degenerate_locus.eig_calls": ("pencil.degenerate_locus", "eig_calls", "calls/op"),
    "pencil.regularize.calls": ("pencil.regularize", "calls", "calls/op"),
    "pencil.regularize.self_ms": ("pencil.regularize", "self_ms", "ms/op"),
    "pencil.self_ms": ("pencil", "self_ms", "ms/op"),
    "filtration.index_profile.self_ms": ("filtration.index_profile", "self_ms", "ms/op"),
    "filtration.index_profile.eig_calls": ("filtration.index_profile", "eig_calls", "calls/op"),
    "filtration.stiefel_whitney.calls": ("filtration.stiefel_whitney", "calls", "calls/op"),
    "filtration.stiefel_whitney.self_ms": ("filtration.stiefel_whitney", "self_ms", "ms/op"),
    "filtration.stiefel_whitney.eig_calls": ("filtration.stiefel_whitney", "eig_calls", "calls/op"),
    "filtration.self_ms": ("filtration", "self_ms", "ms/op"),
    "circle.calls": ("circle", "calls", "calls/op"),
    "circle.self_ms": ("circle", "self_ms", "ms/op"),
    "betti.analyze.calls": ("betti.analyze", "calls", "calls/op"),
    "betti.build_table.calls": ("betti.build_table", "calls", "calls/op"),
    "betti.self_ms": ("betti", "self_ms", "ms/op"),
    "applications.image_membership.self_ms": ("applications.image_membership", "self_ms", "ms/op"),
    "applications.level_set_betti.self_ms": ("applications.level_set_betti", "self_ms", "ms/op"),
    "applications.calabi.calls": ("applications.calabi", "calls", "calls/op"),
    "applications.self_ms": ("applications", "self_ms", "ms/op"),
    "oracles.grid_index_profile.self_ms": ("oracles.grid_index_profile", "self_ms", "ms/op"),
    "oracles.grid_index_profile.eig_calls": ("oracles.grid_index_profile", "eig_calls", "calls/op"),
    "oracles.monodromy_refine.self_ms": ("oracles.monodromy_refine", "self_ms", "ms/op"),
    "oracles.verify_analysis.self_ms": ("oracles.verify_analysis", "self_ms", "ms/op"),
    "oracles.self_ms": ("oracles", "self_ms", "ms/op"),
    "cli.run.self_ms": ("cli.run", "self_ms", "ms/op"),
    "cli.self_ms": ("cli", "self_ms", "ms/op"),
    "linalg.eigvalsh.calls": ("linalg.eigvalsh", "calls", "calls/op"),
    "linalg.eigh.calls": ("linalg.eigh", "calls", "calls/op"),
    "linalg.eigvals.calls": ("linalg.eigvals", "calls", "calls/op"),
    "linalg.det.calls": ("linalg.det", "calls", "calls/op"),
    "linalg.svd.calls": ("linalg.svd", "calls", "calls/op"),
    "linalg.norm.calls": ("linalg.norm", "calls", "calls/op"),
    "linalg.self_ms": ("linalg", "self_ms", "ms/op"),
}
LAYERS = (*TRACED_LAYERS, "linalg")


class SpeedProbe:
    """Tracks the machine's speed during a run with a fixed probe kernel.

    On a shared host the speed of one core drifts by up to a factor of two
    over seconds, far more than the effects the benchmark must resolve.  The
    probe runs a fixed mix of interpreter work and small and large
    eigen-solves every ``INTERVAL`` seconds between operations (never inside
    one).  An operation's time is scaled by NOMINAL_S over the median probe
    time around it, which expresses it at the reference machine's speed.
    """

    INTERVAL = 0.1
    WINDOW = 3  # probe samples whose median sets the speed around an operation
    NOMINAL_S = 2.0e-3  # probe time on the reference machine, unloaded

    def __init__(self):
        rng = np.random.default_rng(12345)
        a = rng.standard_normal((6, 6))
        b = rng.standard_normal((48, 48))
        self.small, self.large = a + a.T, b + b.T
        # bound now, so that the tracer's linalg wrappers never time the probe
        self.eigvalsh, self.det = np.linalg.eigvalsh, np.linalg.det
        self.times: list[float] = []
        self.durations: list[float] = []
        self.last = -1.0

    def _kernel(self, rounds: int = 120) -> float:
        acc = 0.0
        for i in range(rounds):
            acc += float(self.eigvalsh(self.small)[0])
            d = {j: j * i for j in range(32)}
            acc += sum(d.values()) % 7
        for _ in range(8):
            acc += float(self.eigvalsh(self.large)[0]) + float(self.det(self.large))
        return acc

    def sample(self) -> None:
        self._kernel(rounds=12)  # refill the caches the last operation evicted
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.durations.append(t1 - t0)
        self.last = t1

    def tick(self) -> None:
        if time.perf_counter() - self.last >= self.INTERVAL:
            self.sample()

    def factor(self, t: float) -> float:
        """NOMINAL_S over the median of the WINDOW samples nearest to t."""
        k = bisect.bisect_left(self.times, t)
        lo = max(0, min(k - self.WINDOW // 2, len(self.times) - self.WINDOW))
        window = self.durations[lo:lo + self.WINDOW]
        return self.NOMINAL_S / statistics.median(window)

    def scale_seconds(self, seconds: float, samples: int = WINDOW) -> float:
        """Scale a time just measured, sampling the speed right after it."""
        for _ in range(samples):
            self.sample()
        return seconds * self.NOMINAL_S / statistics.median(self.durations[-samples:])


def run_passes(ops: list, seconds: float, probe: SpeedProbe,
               tracer: Tracer | None = None):
    """Issue whole passes of ``ops`` back to back until ``seconds`` elapse.

    Returns (records, elapsed): one record per attempted operation, holding
    (op index, latency in seconds, answer, error text or None, start time).
    """
    clock = time.perf_counter
    records = []
    gc.collect()
    gc.freeze()  # the inputs live all run; keep them out of every collection
    probe.sample()
    start = clock()
    while True:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = len(records)
            t0 = clock()
            try:
                answer, error = op.call(), None
            except Exception as exc:  # a raising operation is a counted failure
                answer, error = None, f"{type(exc).__name__}: {exc}"
            records.append((i, clock() - t0, answer, error, t0))
            probe.tick()
        if clock() - start >= seconds:
            elapsed = clock() - start
            for _ in range(SpeedProbe.WINDOW):
                probe.sample()
            return records, elapsed


class Verdicts:
    """Reference checks, each distinct (op, answer) checked once."""

    def __init__(self, ops: list):
        self.ops = ops
        self.cache: dict = {}
        self.answers: dict[int, object] = {}
        self.consistent = True

    def status(self, record) -> str:
        i, _, answer, error, _ = record
        if error is not None:
            return "failed"
        op = self.ops[i]
        key = op.summary(answer)
        if self.answers.setdefault(i, key) != key:
            self.consistent = False  # the same input answered differently
        if (i, key) not in self.cache:
            try:
                self.cache[(i, key)] = "ok" if op.check(answer) else "wrong"
            except (KeyError, TypeError, ValueError, IndexError):
                self.cache[(i, key)] = "wrong"  # malformed answer
        return self.cache[(i, key)]


TAIL_PERCENTILE = 99.0
TAIL_CHUNK = 1000


def _chunk_tail(latencies: list[float]) -> tuple[float, float]:
    s = sorted(latencies)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    beyond = max(10, int(n * (100.0 - TAIL_PERCENTILE) / 100.0))
    return s[n - beyond - 1], 100.0 * (n - beyond) / n


def tail(latencies: list[float]) -> tuple[float, float]:
    """The tail latency as (value, percentile).

    Latencies in time order are cut into contiguous chunks of at least
    TAIL_CHUNK operations; the value is the median over the chunks of each
    chunk's p99, or, with fewer than TAIL_CHUNK operations in all, the
    highest percentile with at least ten samples beyond it.  A host hiccup
    that hits one chunk moves one chunk's tail, not the median.
    """
    chunks = max(1, len(latencies) // TAIL_CHUNK)
    size = len(latencies) // chunks
    parts = [_chunk_tail(latencies[c * size:(c + 1) * size if c < chunks - 1 else None])
             for c in range(chunks)]
    return statistics.median(v for v, _ in parts), parts[0][1]


def normalize_error(text: str) -> str:
    return re.sub(r"-?\d+(\.\d+)?(e-?\d+)?", "#", text)[:100]


def loop_metrics(records, elapsed, verdicts: Verdicts, probe: SpeedProbe) -> dict:
    """Metrics of one timed loop.  Latencies and throughput are expressed at
    the reference machine speed (see SpeedProbe); the raw wall-clock figures
    are kept alongside."""
    statuses = [verdicts.status(r) for r in records]
    raw = [r[1] for r in records]
    lat = [r[1] * probe.factor(r[4]) for r in records]
    tail_value, tail_pct = tail(lat)
    attempted = len(records)
    ok = statuses.count("ok")
    wrong_in = sum(1 for r, s in zip(records, statuses)
                   if s == "wrong" and verdicts.ops[r[0]].in_envelope)
    by_label: dict[str, dict] = {}
    for r, s, t in zip(records, statuses, lat):
        row = by_label.setdefault(verdicts.ops[r[0]].label,
                                  {"attempted": 0, "failed": 0, "wrong": 0, "lat": []})
        row["attempted"] += 1
        row["failed"] += s == "failed"
        row["wrong"] += s == "wrong"
        row["lat"].append(t)
    for row in by_label.values():
        row["median_ms"] = 1e3 * statistics.median(row.pop("lat"))
    return {
        "attempted": attempted,
        "ok": ok,
        "failed": statuses.count("failed"),
        "wrong": statuses.count("wrong"),
        "wrong_in_envelope": wrong_in,
        "elapsed_s": elapsed,
        "passes": attempted // len(verdicts.ops),
        "throughput_ops_s": ok / sum(lat),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "op_ms_mean": 1e3 * sum(lat) / attempted,
        "raw_throughput_ops_s": ok / sum(raw),
        "raw_latency_p50_ms": 1e3 * statistics.median(raw),
        "raw_latency_tail_ms": 1e3 * tail(raw)[0],
        "tail_chunks": max(1, attempted // TAIL_CHUNK),
        "speed_factor": sum(lat) / sum(raw),  # time-weighted
        "latency_tail_ms": 1e3 * tail_value,
        "latency_tail_percentile": tail_pct,
        "fail_frac": statuses.count("failed") / attempted,
        "wrong_frac": statuses.count("wrong") / attempted,
        "failures": dict(Counter(normalize_error(r[3]) for r in records if r[3])),
        "by_label": by_label,
    }


def environment(seed: int) -> dict:
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 prints instead
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")
                 if k in blas},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
        "machine": platform.machine(),
    }


def layer_metrics(tracer: Tracer, attempted: int, speed: float) -> dict:
    stats = tracer.layer_stats()
    out = {}
    for name, (traced, stat, unit) in LAYER_METRICS.items():
        row = stats.get(traced, {})
        if stat == "self_ms":
            value = 1e3 * speed * row.get("self_s", 0.0)
        else:
            value = row.get(stat, 0)
        out[name] = {"value": value / attempted, "unit": unit}
    out["filtration.breakpoints"] = {
        "value": tracer.extra["filtration.breakpoints"] / attempted, "unit": "count/op"}
    sw_calls = stats.get("filtration.stiefel_whitney", {}).get("calls", 0)
    out["filtration.stiefel_whitney.resolution"] = {
        "value": tracer.extra["filtration.stiefel_whitney.resolution"] / sw_calls
        if sw_calls else 0.0, "unit": "samples/call"}
    return out


def build(name: str, Q, seed: int, seconds: float, workdir: str):
    blocks = wl.blocks_for(name, seconds)
    if name == "cli-mix":
        return wl.cli_mix(Q, seed, blocks, workdir)
    return wl.BUILDERS[name](Q, seed, blocks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        Q = wl.load_library(ROOT)
    except wl.LibraryNotFound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_raw_s = time.perf_counter() - _t_import

    cold_call_ms = None
    if args.trace:
        # the first analysis in a fresh process, before any warm-up
        t0 = time.perf_counter()
        Q.betti.analyze(Q.fixtures.bouquet(), Q.circle.PlanarCone.zero())
        cold_call_ms = 1e3 * (time.perf_counter() - t0)
    probe = SpeedProbe()
    import_s = probe.scale_seconds(import_raw_s)
    if cold_call_ms is not None:
        cold_call_ms = probe.scale_seconds(cold_call_ms)

    workdir = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        # a traced run times two loops of half the time each
        seconds = args.seconds / 2 if args.trace else args.seconds
        setups, setups_raw = [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload = build(args.workload, Q, args.seed, seconds, workdir)
            for i in workload.warm:
                try:
                    workload.ops[i].call()
                except Exception:  # failures are counted in the timed loop
                    pass
            setups_raw.append(time.perf_counter() - t0)
            setups.append(probe.scale_seconds(setups_raw[-1]))
        setup_s = import_s + statistics.median(setups)

        ops = workload.ops
        verdicts = Verdicts(ops)
        records, elapsed = run_passes(ops, seconds, probe)
        traced = None
        if args.trace:
            tracer = Tracer(Q.package, record_ops=len(ops))  # spans of the first pass
            with tracer:
                t_records, t_elapsed = run_passes(ops, seconds, probe, tracer)
            traced = (tracer, t_records, t_elapsed)
        plain = loop_metrics(records, elapsed, verdicts, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "setup_s": setup_s,
        "setup_repeats_s": setups,
        "setup_repeats_raw_s": setups_raw,
        "import_s": import_s,
        "import_raw_s": import_raw_s,
        "probe_s": {"nominal": SpeedProbe.NOMINAL_S,
                    "median": statistics.median(probe.durations),
                    "min": min(probe.durations), "max": max(probe.durations),
                    "samples": len(probe.durations)},
        "ops_per_pass": len(ops),
        "inputs_digest": workload.fingerprint(),
        "untraced": plain,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    correct = verdicts.consistent and plain["wrong_in_envelope"] == 0
    if traced is not None:
        tracer, t_records, t_elapsed = traced
        tm = loop_metrics(t_records, t_elapsed, verdicts, probe)
        correct = correct and verdicts.consistent and tm["wrong_in_envelope"] == 0
        # span times are scaled to the reference speed by the loop's factor
        speed = tm["speed_factor"]
        layers = layer_metrics(tracer, tm["attempted"], speed)
        stats = tracer.layer_stats()
        self_sum = speed * sum(1e3 * stats[layer]["self_s"] for layer in LAYERS
                               if layer in stats)
        layers["setup.cold_call_ms"] = {"value": cold_call_ms, "unit": "ms"}
        layers["trace.overhead_pct"] = {
            "value": 100.0 * (1.0 - tm["throughput_ops_s"] / plain["throughput_ops_s"]),
            "unit": "%"}
        layers["trace.self_ms_sum"] = {"value": self_sum / tm["attempted"], "unit": "ms/op"}
        layers["trace.untraced_op_ms"] = {"value": plain["op_ms_mean"], "unit": "ms/op"}
        layers["trace.traced_op_ms"] = {"value": tm["op_ms_mean"], "unit": "ms/op"}
        # the per-module self times account for an untraced operation when
        # they differ from it by no more than the tracing overhead
        result["trace_accounts_for_untraced"] = (
            abs(layers["trace.self_ms_sum"]["value"] - plain["op_ms_mean"])
            <= tm["op_ms_mean"] - plain["op_ms_mean"])
        result["traced"] = tm
        result["layers"] = {k: v["value"] for k, v in layers.items()}
        result["traced_self_ms"] = {k: 1e3 * v["self_s"] for k, v in sorted(stats.items())}
        metrics = layers
        attempted, failed = tm["attempted"], tm["failed"] + tm["wrong"]
    else:
        metrics = {
            "throughput_ops_s": {"value": plain["throughput_ops_s"], "unit": "ops/s"},
            "latency_p50_ms": {"value": plain["latency_p50_ms"], "unit": "ms"},
            "latency_tail_ms": {"value": plain["latency_tail_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
        attempted, failed = plain["attempted"], plain["failed"] + plain["wrong"]
    result["correct"] = correct

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    if traced is not None:
        with gzip.open(stem + ".spans.json.gz", "wt", encoding="utf-8") as fh:
            json.dump(traced[0].spans(), fh)

    report(result, plain)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def report(result: dict, plain: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"closed loop, 1 client, {result['ops_per_pass']} ops per pass, "
          f"{plain['passes']} passes untraced")
    env = result["environment"]
    print(f"environment python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
          f"blas {env['blas'].get('name')} {env['blas'].get('version')} nproc {env['nproc']} "
          f"threads {env['blas_threads']['OPENBLAS_NUM_THREADS']}")
    base = f"of {plain['attempted']} attempted"
    rows = [
        ("setup_s", result["setup_s"], "s", ""),
        ("throughput_ops_s", plain["throughput_ops_s"], "ops/s", ""),
        ("latency_p50_ms", plain["latency_p50_ms"], "ms", f"{plain['attempted']} samples"),
        ("latency_tail_ms", plain["latency_tail_ms"], "ms",
         f"p{plain['latency_tail_percentile']:.2f}, median of {plain['tail_chunks']} "
         f"chunk(s) in time order"),
        ("fail_frac", plain["fail_frac"], "ratio", f"{plain['failed']} {base}"),
        ("wrong_frac", plain["wrong_frac"], "ratio",
         f"{plain['wrong']} {base}, {plain['wrong_in_envelope']} inside the envelope"),
        ("peak_rss_mb", result["peak_rss_mb"], "MB", ""),
    ]
    for name, value, unit, note in rows:
        print(f"  {name:18s} {value:14.6f} {unit:6s} {note}")
    for msg, count in sorted(plain["failures"].items(), key=lambda kv: -kv[1]):
        print(f"  raised x{count}: {msg}")
    if "traced" in result:
        print(f"  traced: {result['traced']['attempted']} ops, "
              f"throughput {result['traced']['throughput_ops_s']:.3f} ops/s; per-module "
              f"self times account for the untraced op time within the overhead: "
              f"{result['trace_accounts_for_untraced']}")
        for name, value in result["layers"].items():
            print(f"  {name:42s} {value:14.6f}")
    print(f"  correct {result['correct']}")


if __name__ == "__main__":
    sys.exit(main())
