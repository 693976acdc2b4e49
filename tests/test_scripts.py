"""The experiment scripts run end to end on small inputs."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env)


def test_bound_sweep_runs():
    proc = _run_script("bound_sweep.py", "--per-n", "2", "--n-min", "2", "--n-max", "3")
    assert proc.returncode == 0, proc.stderr


def test_extremal_gallery_runs(tmp_path):
    proc = _run_script("extremal_gallery.py", "--n-max", "3", "--csv-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["extremal_2.csv", "extremal_3.csv"]


def test_cold_start_runs():
    proc = _run_script("cold_start.py", "--runs", "2", "--src", str(ROOT / "src"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("betti-x median") == 2
    assert "byte-identical across trees: yes" in proc.stdout


def test_grid_timing_runs():
    proc = _run_script("grid_timing.py", "--dims", "2-5", "--repeat", "1", "--rounds", "2",
                       "--src", str(ROOT / "src"))
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()
    assert rows[0].split()[:3] == ["dim", "random", "on"] and "verify extremal off" in rows[0]
    assert "on over off" in rows[0] and "this over other" in rows[0]
    assert [row.split()[0] for row in rows[1:]] == ["2", "3", "4", "5"]
    # eight times, four on/off ratios and eight ratios to the other tree
    assert all(len(row.split()) == 21 for row in rows[1:])
    # verify is timed from dim 5, where the sampling oracle does not run
    assert "nan" in rows[3] and "nan" not in rows[4]


def test_grid_timing_profile_mode_runs():
    proc = _run_script("grid_timing.py", "--profile", "--dims", "3-4", "--repeat", "1",
                       "--rounds", "2", "--src", str(ROOT / "src"))
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()
    assert rows[0].split()[:3] == ["dim", "random", "on"] and "tridiagonal off" in rows[0]
    assert "on over off" in rows[0] and "this over other" in rows[0]
    assert [row.split()[0] for row in rows[1:]] == ["3", "4"]
    # six times, three on/off ratios and six ratios to the other tree
    assert all(len(row.split()) == 16 for row in rows[1:])


def test_grid_timing_analyze_mode_runs(tmp_path):
    # the other tree is a copy whose analyze sleeps 5 ms a call: imported
    # in the same process under another name, it reads that much slower
    shutil.copytree(ROOT / "src" / "quadrics", tmp_path / "quadrics",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "quadrics" / "betti.py", "a", encoding="utf-8") as fh:
        fh.write("\n\nimport time as _time\n_analyze = analyze\n\n\n"
                 "def analyze(p, cone):\n    _time.sleep(0.005)\n    return _analyze(p, cone)\n")
    proc = _run_script("grid_timing.py", "--analyze", "--dims", "3-4", "--repeat", "2",
                       "--rounds", "2", "--src", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()
    assert rows[0].split()[:3] == ["dim", "random", "analyze"] and "extremal table" in rows[0]
    assert "on over off" not in rows[0] and "this over other" in rows[0]
    assert [row.split()[0] for row in rows[1:]] == ["3", "4"]
    # analyze, locus, profile and table of each class, then their ratios to the other tree
    assert all(len(row.split()) == 17 for row in rows[1:])
    assert all(float(t) > 0.0 for row in rows[1:] for t in row.split()[1:])
    for row in rows[1:]:
        ratios = [float(t) for t in row.split()[9:]]
        # this tree's analyze takes well under the copy's 5 ms of sleep
        assert ratios[0] < 0.5 and ratios[4] < 0.5, row
