import ast
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest
import quadrics
from quadrics import fixtures
from quadrics.applications import extremal_family
from quadrics.cli import run

PI = math.pi


def _write_problem(tmp_path, pencil, name="problem.json", **extra):
    data = pencil.to_json()
    data["cone"] = {"kind": "zero", "generators": []}
    data.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _run(tmp_path, argv):
    out = tmp_path / "out.json"
    code = run(argv + ["--output", str(out)])
    if out.exists():
        return code, json.loads(out.read_text())
    return code, None


def test_betti_x_bouquet(tmp_path):
    inp = _write_problem(tmp_path, fixtures.bouquet())
    code, data = _run(tmp_path, ["betti-x", "--input", inp])
    assert code == 0
    assert data["b"] == [1, 3, 0, 0]
    assert data["chi"] == -2
    assert data["mu"] == 2
    assert data["violations"] == []


def test_betti_x_reads_stdin(tmp_path, monkeypatch, capsys):
    data = fixtures.bouquet().to_json()
    data["cone"] = {"kind": "zero", "generators": []}

    class FakeStdin:
        def read(self):
            return json.dumps(data)

    monkeypatch.setattr(sys, "stdin", FakeStdin())
    code = run(["betti-x"])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["b"] == [1, 3, 0, 0]


def test_extremal_pipes_into_betti_x(tmp_path):
    code, problem = _run(tmp_path, ["extremal", "--n", "5"])
    assert code == 0
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(problem))
    code, data = _run(tmp_path, ["betti-x", "--input", str(path)])
    assert code == 0
    assert data["total"] == 10


def test_table_four_lines(tmp_path):
    inp = _write_problem(tmp_path, fixtures.four_lines())
    code, data = _run(tmp_path, ["table", "--input", inp])
    assert code == 0
    assert data["table"] == [[1, 0, 0], [1, 0, 0], [0, 3, 0], [0, 0, 1]]
    assert data["w1"] is False


def test_euler_consistency(tmp_path):
    inp = _write_problem(tmp_path, fixtures.bouquet())
    code, data = _run(tmp_path, ["euler", "--input", inp])
    assert code == 0
    assert data["chi"] == data["chi_alternating"] == -2


def test_betti_y_four_lines(tmp_path):
    inp = _write_problem(tmp_path, fixtures.four_lines())
    code, data = _run(tmp_path, ["betti-y", "--input", inp])
    assert code == 0
    first = data["entries"][0]
    assert first["determined"] and first["absolute"] == 1


def test_calabi_identity(tmp_path):
    inp = _write_problem(tmp_path, fixtures.definite_form(3))
    code, data = _run(tmp_path, ["calabi", "--input", inp])
    assert code == 0
    assert data["kind"] == "positive_combination"
    assert abs(data["margin"] - 1.0) < 1e-9


def test_member(tmp_path):
    import numpy as np
    from quadrics.pencil import QuadraticPencil
    p = QuadraticPencil(np.eye(3), np.diag([1.0, -1.0, 0.0]))
    inp = _write_problem(tmp_path, p)
    code, data = _run(tmp_path, ["member", "--input", inp, "--c", "1", "0"])
    assert code == 0
    assert data["member"] is True
    code, data = _run(tmp_path, ["member", "--input", inp, "--c", "0", "0.5"])
    assert code == 0
    assert data["member"] is False
    assert data["certificate"]["margin"] > 0


def test_level_set(tmp_path):
    inp = _write_problem(tmp_path, fixtures.complex_squaring(),
                         c=[1.0, 0.0], mode="eq")
    code, data = _run(tmp_path, ["level-set", "--input", inp])
    assert code == 0
    assert data["nonempty"] is True
    assert data["b_tilde"][0] == 1


def test_support(tmp_path):
    inp = _write_problem(tmp_path, fixtures.definite_form(3))
    code, data = _run(tmp_path, ["support", "--input", inp,
                                 "--theta", "0.0"])
    assert code == 0
    assert abs(data["support"][0]["value"] - 1.0) < 1e-12


def test_profile_csv(tmp_path):
    inp = _write_problem(tmp_path, fixtures.bouquet())
    csv_path = tmp_path / "profile.csv"
    code, data = _run(tmp_path, ["profile", "--input", inp,
                                 "--csv", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "theta,i_plus,i_minus,is_breakpoint"
    bp_rows = [ln for ln in lines[1:] if ln.endswith("true")]
    assert len(bp_rows) == 2
    for row in bp_rows:
        assert row.split(",")[1] == "1"


def test_profile_csv_extremal(tmp_path):
    code, problem = _run(tmp_path, ["extremal", "--n", "4"])
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(problem))
    csv_path = tmp_path / "profile.csv"
    code, data = _run(tmp_path, ["profile", "--input", str(path),
                                 "--csv", str(csv_path)])
    assert code == 0
    assert data["breakpoints"] == 10


def test_profile_csv_with_grid_rows(tmp_path):
    inp = _write_problem(tmp_path, fixtures.bouquet())
    csv_path = tmp_path / "profile.csv"
    code, _ = _run(tmp_path, ["profile", "--input", inp, "--csv", str(csv_path),
                              "--grid", "90"])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    # 2 breakpoints + 2 arc midpoints + 90 grid samples
    assert len(lines) == 1 + 4 + 90


def test_profile_csv_point_domain(tmp_path):
    import math
    data = fixtures.bouquet().to_json()
    data["cone"] = {"kind": "halfplane",
                    "generators": [[0.0, 1.0], [0.0, -1.0]]}
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(data))
    csv_path = tmp_path / "profile.csv"
    code, data_out = _run(tmp_path, ["profile", "--input", str(path),
                                     "--csv", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 2  # header plus the single domain point


def test_fixture_subcommand(tmp_path):
    code, data = _run(tmp_path, ["fixture", "bouquet"])
    assert code == 0
    assert data["n"] == 3


def test_verify_bouquet(tmp_path):
    inp = _write_problem(tmp_path, fixtures.bouquet())
    code, data = _run(tmp_path, ["verify", "--input", inp, "--seed", "1"])
    assert code == 0
    assert data["oracle"]["grid_disagreements"] == 0
    assert data["oracle"]["sampled_b0"] == 1


def test_betti_x_verify_flag(tmp_path):
    inp = _write_problem(tmp_path, fixtures.bouquet())
    code, data = _run(tmp_path, ["betti-x", "--input", inp, "--verify",
                                 "--seed", "1"])
    assert code == 0
    assert data["oracle"]["grid_disagreements"] == 0


def test_invalid_input_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = _run(tmp_path, ["betti-x", "--input", str(bad)])
    assert code == 2


def test_asymmetric_matrix_exit_code(tmp_path):
    bad = tmp_path / "asym.json"
    bad.write_text(json.dumps({
        "n": 1,
        "Q0": [[0.0, 1.0], [0.0, 0.0]],
        "Q1": [[0.0, 0.0], [0.0, 0.0]],
    }))
    code, _ = _run(tmp_path, ["betti-x", "--input", str(bad)])
    assert code == 2


@pytest.mark.parametrize("command,q0,c", [
    ("betti-x", [[math.nan, 0.0], [0.0, 1.0]], None),
    ("table", [[1.0, math.inf], [math.inf, 1.0]], None),
    ("member", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]], [math.inf, 0.0]),
    ("level-set", [[1.0, 0.0], [0.0, -1.0]], [0.0, math.nan]),
])
def test_non_finite_input_exit_code(tmp_path, capsys, command, q0, c):
    # json writes nan and inf as NaN and Infinity, which json.load reads back
    problem = {"Q0": q0, "Q1": [[0.0] * len(q0)] * len(q0)}
    if c is not None:
        problem["c"] = c
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps(problem))
    code, _ = _run(tmp_path, [command, "--input", str(path)])
    assert code == 2
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv,override", [
    (["betti-x"], {"n": "three"}),
    (["betti-x"], {"n": 3.5}),  # the bouquet has n = 3
    (["betti-x"], {"Q0": "not a matrix"}),
    (["betti-x"], {"Q0": [[1.0, 0.0], [0.0]]}),
    (["betti-x"], {"cone": ["zero"]}),
    (["betti-x"], {"cone": {"kind": "ray", "generators": [[1]]}}),
    (["betti-x"], {"cone": {"kind": "sector", "generators": [["a", "b"], [0, 1]]}}),
    (["betti-x"], {"cone": {"kind": "ray", "generators": [[0, 0]]}}),
    (["betti-x"], {"cone": {"kind": "line", "generators": [[1, 0], [0, 1]]}}),
    (["member"], {"c": ["a", 0]}),
    (["level-set"], {"c": [[1.0], 0.0]}),
    (["support", "--directions", "-1"], {}),
    (["support", "--directions", "0"], {}),
    (["support", "--directions", str(2 ** 20 + 1)], {}),  # rejected before any allocation
    (["support", "--theta", "inf"], {}),
    (["support", "--theta", "nan"], {}),
    (["verify", "--grid", "3"], {}),
    (["verify", "--grid", "2000000000"], {}),  # rejected before any allocation
    (["profile", "--grid", "0"], {}),
    (["betti-x", "--tol", "1e-9"], {}),  # tolerances are not options
    (["extremal", "--n", "1024"], {}),  # rejected before any allocation
    (["betti-x"], {"smooth": "false"}),  # a string, which bool() reads as true
    (["verify", "--seed", "-1"], {}),  # the sampling oracle runs at n = 3
    (["betti-x", "--verify", "--seed", "-1"], {}),
    (["verify", "--seed", "-1"], extremal_family(5).to_json()),  # and not at n = 5
], ids=["n-string", "n-fraction", "q0-string", "q0-ragged", "cone-list", "generator-short",
        "generator-strings", "generator-zero", "line-not-antipodal", "member-c",
        "level-set-c", "directions-negative", "directions-zero", "directions-huge", "theta-inf",
        "theta-nan", "verify-grid", "verify-grid-huge", "profile-grid", "tol", "extremal-n-huge",
        "smooth-string", "verify-seed", "betti-x-verify-seed", "verify-seed-n5"])
def test_malformed_input_exits_2(tmp_path, capsys, argv, override):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({**fixtures.bouquet().to_json(), **override}))
    argv = [*argv, "--output", str(tmp_path / "out.json")]
    if argv[0] != "extremal":  # extremal reads no problem
        argv += ["--input", str(path)]
    if argv[0] == "profile":
        argv += ["--csv", str(tmp_path / "profile.csv")]
    try:
        code = run(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000],
                         ids=["not-utf8", "nested-past-the-recursion-limit"])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_unreadable_problem_json_exits_2(tmp_path, capsys, monkeypatch, content, source):
    path = tmp_path / "problem.json"
    path.write_bytes(content)
    argv = ["betti-x", "--output", str(tmp_path / "out.json")]
    if source == "file":
        argv += ["--input", str(path)]
    else:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(content), encoding="utf-8"))
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: malformed problem JSON:")


@pytest.mark.parametrize("argv,override", [
    (["betti-x"], {"Q1": [[1, 0, 0, 0], [0, 10 ** 400, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}),
    (["betti-x"], {"cone": {"kind": "ray", "generators": [[10 ** 400, 1]]}}),
    (["level-set"], {"c": [10 ** 400, 0]}),
    (["member"], {"c": [0, -10 ** 400]}),
], ids=["q1", "generator", "level-set-c", "member-c"])
def test_an_integer_past_the_float_range_exits_2(tmp_path, capsys, argv, override):
    # json.dumps writes the int in full, and json.load reads it back as an int
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({**fixtures.bouquet().to_json(), **override}))
    assert "0" * 400 in path.read_text()
    assert run([*argv, "--input", str(path), "--output", str(tmp_path / "out.json")]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["betti-x", "--output", "{missing}/x.json"],
    ["profile", "--csv", "{missing}/x.csv", "--output", "{tmp}/out.json"],
], ids=["output", "csv"])
def test_an_unwritable_output_exits_2(tmp_path, capsys, argv):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(fixtures.bouquet().to_json()))
    argv = [a.format(missing=tmp_path / "no-such-dir", tmp=tmp_path) for a in argv]
    assert run([*argv, "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output:") and "no-such-dir" in err
    assert not (tmp_path / "out.json").exists()  # the CSV failed before the JSON


# each subcommand's required arguments, and the shared flags it does not read
_REQUIRED = {"extremal": ["--n", "3"], "fixture": ["bouquet"], "profile": ["--csv", "p.csv"]}
_UNREAD = {
    "betti-y": ("--grid", "--seed", "--smooth"),
    "betti-complement": ("--grid", "--seed", "--smooth"),
    "euler": ("--grid", "--seed", "--smooth"),
    "table": ("--grid", "--seed", "--smooth"),
    "calabi": ("--grid", "--seed", "--smooth"),
    "verify": ("--smooth",),
    "level-set": ("--grid", "--seed", "--smooth"),
    "member": ("--grid", "--seed", "--smooth"),
    "support": ("--grid", "--seed", "--smooth"),
    "extremal": ("--input", "--grid", "--seed", "--smooth"),
    "fixture": ("--input", "--grid", "--seed", "--smooth"),
    "profile": ("--seed", "--smooth"),
}


@pytest.mark.parametrize("command,flag", [(c, f) for c, flags in _UNREAD.items() for f in flags])
def test_a_flag_the_subcommand_does_not_read_exits_2(capsys, command, flag):
    value = [] if flag == "--smooth" else ["problem.json" if flag == "--input" else "8"]
    with pytest.raises(SystemExit) as exc:
        run([command, *_REQUIRED.get(command, []), flag, *value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_an_entry_past_the_bound_exit_code(tmp_path, capsys):
    # 1e308 is finite but above 2^1020 / dim; 0.5 * (a + a') once stored inf
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"Q0": [[1e308, 0.0], [0.0, 1.0]], "Q1": [[0.0, 1.0], [1.0, 0.0]]}))
    code, _ = _run(tmp_path, ["betti-x", "--input", str(path)])
    assert code == 2
    assert "above 2^1020 / dim" in capsys.readouterr().err


def test_unknown_fixture_exit_code(tmp_path):
    code, _ = _run(tmp_path, ["fixture", "nonexistent"])
    assert code == 2


def test_deterministic_output(tmp_path):
    inp = _write_problem(tmp_path, fixtures.four_lines())
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run(["betti-x", "--input", inp, "--seed", "7",
                "--output", str(out1)]) == 0
    assert run(["betti-x", "--input", inp, "--seed", "7",
                "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_problem_roundtrip_bit_exact(tmp_path):
    import numpy as np
    from quadrics.pencil import QuadraticPencil
    rng = np.random.default_rng(1)
    p = fixtures.random_pencil(rng, 5)
    data = json.loads(json.dumps(p.to_json()))
    p2 = QuadraticPencil.from_json(data)
    assert np.array_equal(p.q0, p2.q0)
    assert np.array_equal(p.q1, p2.q1)


def test_console_entry_point(tmp_path):
    inp = _write_problem(tmp_path, fixtures.bouquet())
    proc = subprocess.run(
        [sys.executable, "-m", "quadrics.cli", "betti-x", "--input", inp],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["b"] == [1, 3, 0, 0]


def test_a_cold_import_loads_no_sampling_dependency():
    # scipy.spatial loads on the sampling oracle's first call, not with the
    # library, so a CLI call that samples nothing never pays it; no library
    # call loads scipy.optimize.
    # Of scipy.linalg the library loads its LAPACK extension alone: the
    # package's __init__ would pull in numpy.f2py among some 330 modules
    code = ("import sys, quadrics, quadrics.cli, quadrics.oracles, quadrics.fixtures\n"
            "print(sorted(m for m in sys.modules"
            " if m.startswith(('scipy.optimize', 'scipy.spatial', 'scipy.linalg', 'numpy.f2py'))"
            " and m != 'scipy.linalg._flapack'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_no_library_module_imports_scipy_optimize():
    # the descent feasibility oracle, its one user, is a test reference
    # (tests/references.py): no library call, however deferred, can load it
    importers = []
    for path in sorted(Path(quadrics.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module, *(f"{node.module}.{a.name}" for a in node.names)]
            else:
                continue
            if any(n == "scipy.optimize" or n.startswith("scipy.optimize.") for n in names):
                importers.append((path.name, node.lineno))
    assert importers == []


@pytest.mark.parametrize("first, second", [("scipy.linalg", "quadrics.pencil"),
                                           ("quadrics.pencil", "scipy.linalg")])
def test_the_library_and_scipy_linalg_share_one_lapack_extension(first, second):
    # whichever is imported first, quadrics.pencil calls the very routines that
    # scipy.linalg.lapack exports, so its answers are theirs bit for bit
    code = (f"import sys, {first}, {second}\n"
            "lapack = quadrics.pencil.lapack\n"
            "print([getattr(scipy.linalg.lapack, r) is getattr(lapack, r)"
            " for r in ('dggev', 'dsytrd', 'dgesdd', 'dgesdd_lwork')],"
            " sys.modules['scipy.linalg._flapack'] is lapack,"
            " scipy.linalg.lapack._flapack is lapack)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[True, True, True, True] True True\n"


def test_verify_every_cone_kind(tmp_path):
    from quadrics.circle import PlanarCone
    cones = [PlanarCone.zero(), PlanarCone.full(), PlanarCone.ray(0.7),
             PlanarCone.line(2.0), PlanarCone.sector(0.3, 1.9),
             PlanarCone.halfplane(1.1)]
    for cone in cones:
        inp = _write_problem(tmp_path, fixtures.tripled_squaring(),
                             name=f"{cone.kind}.json", cone=cone.to_json())
        code, out = _run(tmp_path, ["verify", "--input", inp])
        assert code == 0, cone.kind
        assert out["oracle"]["grid_disagreements"] == 0


def test_member_accepts_negative_exponent_notation(tmp_path):
    import numpy as np
    from quadrics.pencil import QuadraticPencil
    p = QuadraticPencil(np.eye(3), np.diag([1.0, -1.0, 0.0]))
    inp = _write_problem(tmp_path, p)
    code, data = _run(tmp_path, ["member", "--input", inp, "--c", "-1e-05", "0.5"])
    assert code == 0
    code_plain, plain = _run(tmp_path, ["member", "--input", inp,
                                        "--c", "-0.00001", "0.5"])
    assert code_plain == 0
    assert data == plain
    assert data["member"] is False


def test_shared_parser_leaks_no_state_between_runs(tmp_path):
    import numpy as np
    from quadrics.pencil import QuadraticPencil
    p = QuadraticPencil(np.eye(3), np.diag([1.0, -1.0, 0.0]))
    inp = _write_problem(tmp_path, p, c=[1.0, 0.5])
    runs = [["member", "--input", inp, "--c", "-1e-05", "0"],
            ["member", "--input", inp]]
    in_process = [_run(tmp_path, argv) for argv in runs]
    for argv, (code, data) in zip(runs, in_process):
        proc = subprocess.run([sys.executable, "-m", "quadrics.cli", *argv],
                              capture_output=True, text=True)
        assert (code, data) == (proc.returncode, json.loads(proc.stdout))
    # the second run read c from the problem, not the first run's flag
    assert [data["member"] for _, data in in_process] == [False, True]


def test_epsilon_flag_is_rejected(tmp_path):
    # no subcommand takes a shift size
    inp = _write_problem(tmp_path, fixtures.bouquet())
    with pytest.raises(SystemExit) as exc:
        run(["betti-x", "--input", inp, "--epsilon", "0.01"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,pencil", [
    (["calabi"], fixtures.definite_form(3)),  # the certificate's margin
    (["calabi"], fixtures.bouquet()),  # the refutation scan
    (["member", "--c", "0", "5"], fixtures.definite_form(3)),  # emptiness certificate
    (["support", "--theta", "0.3"], fixtures.bouquet()),
])
def test_a_lapack_failure_in_a_certificate_exits_3(tmp_path, monkeypatch, capsys, argv,
                                                     pencil):
    # the analysis runs as usual; every solve made from quadrics.applications
    # fails as LAPACK would
    import numpy as np

    solve = np.linalg.eigvalsh

    def eigvalsh(a):
        frame = sys._getframe(1)
        while frame.f_globals["__name__"] == "quadrics.pencil":
            frame = frame.f_back
        if frame.f_globals["__name__"] == "quadrics.applications":
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return solve(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    inp = _write_problem(tmp_path, pencil)
    code, _ = _run(tmp_path, argv + ["--input", inp])
    assert code == 3
    assert "eigenvalue solver failed: Eigenvalues did not converge" in capsys.readouterr().err


def test_a_qz_failure_exits_3(tmp_path, monkeypatch, capsys):
    from quadrics.pencil import lapack

    dggev = lapack.dggev

    def failing(*args, **kwargs):
        return (*dggev(*args, **kwargs)[:-1], 1)  # info > 0: QZ did not converge

    monkeypatch.setattr(lapack, "dggev", failing)
    inp = _write_problem(tmp_path, fixtures.bouquet())
    code, _ = _run(tmp_path, ["betti-x", "--input", inp])
    assert code == 3
    assert "QZ eigenvalue solver failed: dggev info 1" in capsys.readouterr().err
