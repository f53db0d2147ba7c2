import random
import sys
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lattice_euclid import Matrix, MatrixParseError, format_matrix, load_matrix, parse_matrix

from _oracles import random_int_matrix


def test_format_exact_text():
    m = Matrix.from_rows([[12, 18]])
    assert format_matrix(m) == "1 2\n12 18\n"
    assert format_matrix(Matrix((), rows=2)) == "2 0\n"


def test_parse_basic():
    assert parse_matrix("2 2\n1 2\n3 4\n") == Matrix.from_rows([[1, 2], [3, 4]])


def test_parse_skips_comments_and_blank_lines():
    text = "# generated instance\n\n2 1\n# first row\n5\n\n-7\n"
    assert parse_matrix(text) == Matrix.from_rows([[5], [-7]])


def test_roundtrip_random():
    rng = random.Random(31)
    for _ in range(25):
        m = random_int_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), 10**9)
        assert parse_matrix(format_matrix(m)) == m


def test_roundtrip_huge_entries():
    m = Matrix.from_rows([[10**50, -(3**80)]])
    assert parse_matrix(format_matrix(m)) == m


@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_roundtrip_every_shape(n, m, data):
    entry = st.integers(-(10**30), 10**30)
    columns = tuple(tuple(data.draw(entry) for _ in range(n)) for _ in range(m))
    mat = Matrix(columns, rows=n)
    assert parse_matrix(format_matrix(mat)) == mat


def test_parse_zero_rows():
    for cols in (3, 2**20):  # 2**20: the most columns a header without rows may claim
        m = parse_matrix(f"0 {cols}\n")
        assert (m.rows, m.cols) == (0, cols)
        assert parse_matrix(format_matrix(m)) == m


def test_parse_zero_rows_caps_the_claimed_columns():
    # a 0 x m matrix is its header alone, so nothing in the file pays for its
    # m empty columns: past 2**20 the header line is malformed, before any
    # column is built
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        with pytest.raises(MatrixParseError) as err:
            parse_matrix("# no rows\n0 1048577\n")
        assert tracemalloc.get_traced_memory()[1] - base < 10**6
    finally:
        if started:
            tracemalloc.stop()
    assert err.value.line_no == 2


@pytest.mark.parametrize(
    "text, line_no",
    [
        ("", 1),
        ("2\n1 2\n", 1),
        ("a b\n", 1),
        ("2 2\n1 2\n", 2),
        ("1 2\n1 2\n3 4\n", 3),
        ("1 2\n1\n", 2),
        ("1 2\n1 x\n", 2),
        ("-1 2\n", 1),
        ("2 0\n5\n", 2),
        ("1 1\n1_000\n", 2),  # int() reads it as 1000
        ("1_0 1\n5\n", 1),
        ("1 1\n\u0663\n", 2),  # int() reads the Arabic-Indic digit as 3
        ("# caf\u00e9\n1 1\n5\n", 1),
        ("1 1\r\n5\udcff\n", 2),
    ],
)
def test_parse_errors_carry_line_numbers(text, line_no):
    with pytest.raises(MatrixParseError) as err:
        parse_matrix(text)
    assert err.value.line_no == line_no
    assert f"line {line_no}" in str(err.value)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(), reason="no int/str digit limit in force")
def test_parse_error_past_the_interpreter_digit_limit_keeps_its_message():
    # the limit, not the entry, is at fault: say so, and how to lift it
    with pytest.raises(MatrixParseError, match="^line 2: .*set_int_max_str_digits"):
        parse_matrix("1 1\n" + "7" * (sys.get_int_max_str_digits() + 1) + "\n")


def test_load_matrix(tmp_path):
    path = tmp_path / "m.mat"
    path.write_text("1 1\n42\n")
    assert load_matrix(path) == Matrix.from_rows([[42]])
