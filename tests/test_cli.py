import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import lattice_euclid
from lattice_euclid import Matrix, bareiss_det, lattice_equal, parse_matrix
from lattice_euclid.cli import main


@pytest.fixture
def gcd_file(tmp_path):
    path = tmp_path / "gcd.mat"
    path.write_text("1 2\n12 18\n")
    return str(path)


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "sq.mat"
    path.write_text("2 2\n2 1\n1 3\n")
    return str(path)


def _write_vec(tmp_path, name, entries):
    path = tmp_path / name
    path.write_text(f"{len(entries)} 1\n" + "\n".join(str(e) for e in entries) + "\n")
    return str(path)


def test_basis_gcd_output(gcd_file, capsys):
    assert main(["basis", "--alg", "basic", gcd_file]) == 0
    out = capsys.readouterr().out
    assert out == "1 1\n-6\n"


@pytest.mark.parametrize("alg", ["basic", "inverse", "solution", "rowwise"])
def test_basis_output_spans_input_lattice(alg, tmp_path, capsys):
    path = tmp_path / "a.mat"
    path.write_text("2 4\n2 0 1 7\n0 3 1 -5\n")
    assert main(["basis", "--alg", alg, str(path)]) == 0
    basis = parse_matrix(capsys.readouterr().out)
    assert lattice_equal(basis, parse_matrix(path.read_text()))


def test_det_command(square_file, capsys):
    assert main(["det", square_file]) == 0
    assert capsys.readouterr().out == "5\n"


def test_det_rejects_nonsquare(gcd_file, capsys):
    assert main(["det", gcd_file]) == 2
    assert "square" in capsys.readouterr().err


def test_dioph_feasible(gcd_file, tmp_path, capsys):
    rhs = _write_vec(tmp_path, "b.vec", [6])
    assert main(["dioph", gcd_file, rhs]) == 0
    solution = parse_matrix(capsys.readouterr().out)
    assert 12 * solution.entry(0, 0) + 18 * solution.entry(1, 0) == 6


def test_dioph_infeasible(gcd_file, tmp_path, capsys):
    rhs = _write_vec(tmp_path, "b.vec", [7])
    assert main(["dioph", gcd_file, rhs]) == 1
    assert capsys.readouterr().out == "INFEASIBLE\n"


def test_dioph_span_mismatch_reports_infeasible(tmp_path, capsys):
    a = tmp_path / "a.mat"
    a.write_text("2 1\n1\n0\n")
    rhs = _write_vec(tmp_path, "b.vec", [0, 1])
    assert main(["dioph", str(a), rhs]) == 1
    assert capsys.readouterr().out == "INFEASIBLE\n"


def test_traced_dioph_prints_the_run_whatever_the_right_hand_side(tmp_path, capsys, monkeypatch):
    # (6, 1) leaves the rational span of (12, 18) over a zero row, (5, 0) lies
    # in it but not in the lattice: both runs make the same exchange
    a = tmp_path / "a.mat"
    a.write_text("2 2\n12 18\n0 0\n")
    monkeypatch.setenv("LATTICE_EUCLID_LOG", "trace")
    for entries in ([6, 1], [5, 0]):
        assert main(["dioph", str(a), _write_vec(tmp_path, "b.vec", entries)]) == 1
        assert capsys.readouterr() == ("INFEASIBLE\n", "step 0: i=0 j=0 factor=-1/2 det=-6\n")


def test_dioph_shape_mismatch_is_input_error(gcd_file, tmp_path, capsys):
    rhs = _write_vec(tmp_path, "b.vec", [1, 2])
    assert main(["dioph", gcd_file, rhs]) == 2


def test_hnf_command(gcd_file, capsys):
    assert main(["hnf", gcd_file]) == 0
    assert capsys.readouterr().out == "1 1\n6\n"


def test_check_equal_and_not(gcd_file, tmp_path, capsys):
    assert main(["check", gcd_file, gcd_file]) == 0
    assert capsys.readouterr().out == "EQUAL\n"
    other = tmp_path / "o.mat"
    other.write_text("1 1\n5\n")
    assert main(["check", gcd_file, str(other)]) == 1
    assert capsys.readouterr().out == "NOT EQUAL\n"


def test_check_dimension_mismatch_is_input_error(gcd_file, square_file, capsys):
    assert main(["check", gcd_file, square_file]) == 2
    assert capsys.readouterr() == ("", "check: cannot compare lattices in dimensions 1 and 2\n")


def test_gen_deterministic_and_parseable(capsys):
    argv = ["gen", "--n", "3", "--m", "5", "--bound", "9", "--seed", "42", "--rank-full"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    mat = parse_matrix(first)
    assert (mat.rows, mat.cols) == (3, 5)
    assert int(mat.max_abs()) <= 9


def test_gen_bad_params(capsys):
    assert main(["gen", "--n", "3", "--m", "2", "--bound", "9", "--seed", "1", "--rank-full"]) == 2


def test_parse_error_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.mat"
    bad.write_text("1 2\n12\n")
    assert main(["basis", "--alg", "basic", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "bad.mat" in err


@pytest.mark.parametrize("body", [b"\xff", b"1_000"])
def test_entries_outside_the_format_are_input_errors(body, tmp_path, capsys):
    # a byte outside ASCII and a digit separator int() would accept
    bad = tmp_path / "bad.mat"
    bad.write_bytes(b"1 1\n" + body + b"\n")
    assert main(["basis", "--alg", "basic", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "bad.mat: line 2:" in err


def test_entries_past_the_interpreter_digit_limit(tmp_path):
    # Python limits int/str conversion to 4300 digits by default; the CLI lifts
    # the limit for itself, so it runs in a process of its own
    a, b, c, d = 10**2999 + 7, 3 * 10**2999 + 1, 5 * 10**2999 + 3, 10**2999 - 9
    square = tmp_path / "big.mat"
    square.write_text(f"2 2\n{a} {b}\n{c} {d}\n")
    big = "-" + "7" * 5000
    column = tmp_path / "column.mat"
    column.write_text(f"1 1\n{big}\n")

    def run(*argv):
        proc = subprocess.run([sys.executable, "-m", "lattice_euclid", *argv], capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        return proc.stdout

    # Decimal prints an int of any length, where str() is held to the limit here
    assert run("det", str(square)) == f"{Decimal(bareiss_det(Matrix.from_rows([[a, b], [c, d]])))}\n"
    assert json.loads(run("basis", "--alg", "basic", "--stats-json", str(square)))["rank"] == 2
    assert run("basis", "--alg", "basic", str(column)) == f"1 1\n{big}\n"


def test_missing_file_is_input_error(capsys):
    assert main(["basis", "--alg", "basic", "/nonexistent/x.mat"]) == 2


def test_usage_error_exit_code(capsys):
    assert main(["basis", "--alg", "nope", "whatever"]) == 2
    assert main([]) == 2


def test_trace_env_emits_steps(gcd_file, capsys, monkeypatch):
    monkeypatch.setenv("LATTICE_EUCLID_LOG", "trace")
    assert main(["basis", "--alg", "basic", gcd_file]) == 0
    err = capsys.readouterr().err
    assert err == "step 0: i=0 j=0 factor=-1/2 det=-6\n"


def test_trace_env_off_by_default(gcd_file, capsys, monkeypatch):
    monkeypatch.delenv("LATTICE_EUCLID_LOG", raising=False)
    assert main(["basis", "--alg", "basic", gcd_file]) == 0
    assert capsys.readouterr().err == ""


def test_stats_json_schema_and_determinism(gcd_file, capsys):
    argv = ["basis", "--alg", "rowwise", "--stats-json", gcd_file]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    stats = json.loads(first)
    assert stats == {
        "variant": "rowwise",
        "n": 1,
        "m": 2,
        "rank": 1,
        "exchanges": 1,
        "discards": 0,
        "det_initial": "12",
        "det_final": "-6",
        "max_abs_entry_output": 6,
        "coefficient_bound": 90,
    }
    assert isinstance(stats["det_initial"], str)  # arbitrary precision safe


def test_stats_json_bound_invariants(tmp_path, capsys):
    path = tmp_path / "a.mat"
    path.write_text("2 4\n2 0 1 7\n0 3 1 -5\n")
    for alg in ("rowwise", "solution"):
        assert main(["basis", "--alg", alg, "--stats-json", str(path)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["max_abs_entry_output"] <= stats["coefficient_bound"]
        start = abs(int(stats["det_initial"]))
        assert stats["exchanges"] <= max(start.bit_length() - 1, 0)


def test_emit_transform_round_trips(gcd_file, capsys):
    assert main(["basis", "--alg", "solution", "--emit-transform", gcd_file]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "1 1" and out[1] == "-6"
    assert out[2].startswith("#")
    numerators = parse_matrix("\n".join(out[3:-1]))
    denominator = int(out[-1])
    # initial basis (12) times numerators/denominator gives the output basis
    assert 12 * numerators.entry(0, 0) == -6 * denominator


def test_emit_transform_prints_the_same_bytes_for_every_alg(gcd_file, capsys):
    # the transform is a function of the input and the basis, and all four
    # drivers end on the basis (-6) here
    outputs = set()
    for alg in ("basic", "inverse", "solution", "rowwise"):
        assert main(["basis", "--alg", alg, "--emit-transform", gcd_file]) == 0
        outputs.add(capsys.readouterr())
    assert outputs == {("1 1\n-6\n# transform: numerator matrix, then one common-denominator line\n1 1\n-1\n2\n", "")}


def test_emit_transform_conflicts_with_stats_json(gcd_file, capsys):
    assert main(["basis", "--alg", "solution", "--emit-transform", "--stats-json", gcd_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "basis: --emit-transform conflicts with --stats-json\n"


def test_bench_csv_shape(capsys):
    argv = ["bench", "--seed", "7", "--trials", "2", "--n", "3", "--m", "5", "--bound", "9"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = (
        "variant,trial,seed,n,m,rank,exchanges,discards,det_initial,det_final,"
        "max_abs_entry_output,coefficient_bound,wall_time_s"
    )
    assert lines[0] == header
    assert len(lines) == 1 + 2 * 4  # header + trials x variants
    for line in lines[1:]:
        assert len(line.split(",")) == 13


def test_bench_rejects_bad_params(capsys):
    for trials, n in (("1", "0"), ("-1", "2"), ("0", "2")):
        argv = ["bench", "--seed", "1", "--trials", trials, "--n", n, "--m", "2", "--bound", "5"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("bench: ")
        assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, err",
    [
        (["det", "{gcd}"], "{gcd}: determinant needs a square matrix"),
        (["dioph", "{gcd}", "{rhs}"], "{rhs}: right-hand side must be a 1x1 matrix"),
        (
            ["gen", "--n", "3", "--m", "2", "--bound", "9", "--seed", "1", "--rank-full"],
            "gen: full rank needs at least as many columns as rows",
        ),
        (
            ["bench", "--seed", "1", "--trials", "0", "--n", "2", "--m", "2", "--bound", "5"],
            "bench: trials must be at least 1",
        ),
        (["hnf", "{missing}"], "[Errno 2] No such file or directory: '{missing}'"),
        (
            ["basis", "--alg", "solution", "--emit-transform", "--stats-json", "{gcd}"],
            "basis: --emit-transform conflicts with --stats-json",
        ),
    ],
)
def test_usage_and_input_diagnostics(argv, err, gcd_file, tmp_path, capsys):
    # each usage or input error exits 2 with one exact line on stderr and no output
    paths = {"gcd": gcd_file, "rhs": _write_vec(tmp_path, "b.vec", [1, 2]), "missing": str(tmp_path / "missing.mat")}
    assert main([a.format(**paths) for a in argv]) == 2
    assert capsys.readouterr() == ("", err.format(**paths) + "\n")


def test_basis_of_all_zero_input_checks_equal(tmp_path, capsys):
    path = tmp_path / "zero.mat"
    path.write_text("2 3\n0 0 0\n0 0 0\n")
    assert main(["basis", "--alg", "basic", str(path)]) == 0
    out = tmp_path / "basis.mat"
    out.write_text(capsys.readouterr().out)
    assert main(["check", str(out), str(path)]) == 0
    assert capsys.readouterr().out == "EQUAL\n"


def test_header_only_files_cost_nothing_per_claimed_row(tmp_path):
    # "n 0" has no cap: hnf leaves its row loop once every column has pivoted,
    # here at once, so neither command walks the 10**9 rows. "0 m" is capped
    # at m = 2**20, and dioph keeps no coordinate per zero column: its cost is
    # the 2**20 lines of the witness it prints
    tall, wide, empty = tmp_path / "tall.mat", tmp_path / "wide.mat", tmp_path / "empty.mat"
    tall.write_text("1000000000 0\n")
    wide.write_text(f"0 {2**20}\n")
    empty.write_text("0 1\n")
    for argv, out, timeout in (
        (["hnf", tall], "1000000000 0\n", 10),
        (["check", tall, tall], "EQUAL\n", 10),
        (["dioph", wide, empty], f"{2**20} 1\n" + "0\n" * 2**20, 60),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "lattice_euclid", *argv], capture_output=True, text=True, timeout=timeout
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")


def test_subprocesses_run_the_package_under_test():
    # the tests here that start `python -m lattice_euclid` must load the same
    # copy as this process, whether that is src/ on PYTHONPATH or an install
    proc = subprocess.run(
        [sys.executable, "-c", "import lattice_euclid; print(lattice_euclid.__file__)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert Path(proc.stdout.strip()).resolve() == Path(lattice_euclid.__file__).resolve()


def test_module_entry_point(gcd_file):
    proc = subprocess.run(
        [sys.executable, "-m", "lattice_euclid", "basis", "--alg", "basic", gcd_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1 1\n-6\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["gen", "--n", "2", "--m", "3", "--bound", "5", "--seed", "1"],
        # more than one buffer of output: the first write fails mid-run
        ["bench", "--seed", "1", "--trials", "50", "--n", "3", "--m", "5", "--bound", "9"],
    ],
)
def test_a_closed_stdout_ends_quietly(argv):
    # the reader is gone before the first write: 128 + SIGPIPE, nothing on stderr
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # block-buffered stdout
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lattice_euclid", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=30,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")
