"""CLI contract: frozen JSON payloads, exit codes, file inputs and outputs."""

import io
import json
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from vandersolve import cli
from vandersolve.cli import main
from vandersolve.kernel import InconsistentSystemError, KernelBasis, kernel_basis, solve_general
from vandersolve.poly import Polynomial
from vandersolve.symfuncs import NodeSet, compute_sigma, deflate_all
from vandersolve.vandermonde import interpolate


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- frozen outputs -----------------------------------------------------------


def test_interpolate_line(capsys):
    code, out, err = run_cli(capsys, "interpolate", "--nodes", "0,1", "--values", "1,2")
    assert code == 0
    assert out == '{"coefficients":["1","1"],"degree":1}\n'
    assert err == ""


def test_interpolate_constant(capsys):
    code, out, _ = run_cli(capsys, "interpolate", "--nodes", "5", "--values", "7")
    assert code == 0
    assert out == '{"coefficients":["7"],"degree":0}\n'


def test_interpolate_squares(capsys):
    code, out, _ = run_cli(capsys, "interpolate", "--nodes", "1,2,3", "--values", "1,4,9")
    assert code == 0
    assert out == '{"coefficients":["0","0","1"],"degree":2}\n'


def test_solve_underdetermined(capsys):
    code, out, _ = run_cli(capsys, "solve", "--nodes", "1", "--values", "5", "--n", "2")
    assert code == 0
    assert out == '{"particular":["5","0"],"kernel_basis":[["-1","1"]]}\n'


def test_solve_square_case(capsys):
    code, out, _ = run_cli(capsys, "solve", "--nodes", "0,1", "--values", "1,2", "--n", "2")
    assert code == 0
    assert out == '{"particular":["1","1"],"kernel_basis":[]}\n'


def test_solve_inconsistent_overdetermined(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--nodes", "0,1,2", "--values", "1,2,4", "--n", "2")
    assert code == 3
    assert out == '{"inconsistent_at":2,"lhs":"3","rhs":"4"}\n'


def test_solve_consistent_overdetermined(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--nodes", "0,1,2", "--values", "1,2,3", "--n", "2")
    assert code == 0
    assert out == '{"particular":["1","1"],"kernel_basis":[]}\n'


def test_sigma_row(capsys):
    code, out, _ = run_cli(capsys, "sigma", "--nodes", "1,2,3")
    assert code == 0
    assert out == '{"sigma":["1","6","11","6"]}\n'


def test_sigma_single_node(capsys):
    code, out, _ = run_cli(capsys, "sigma", "--nodes", "4")
    assert code == 0
    assert out == '{"sigma":["1","4"]}\n'


def test_sigma_deflated_grid(capsys):
    code, out, _ = run_cli(capsys, "sigma", "--nodes", "1,2,3", "--deflated")
    assert code == 0
    assert out == ('{"sigma":["1","6","11","6"],'
                   '"deflated":[["1","5","6"],["1","4","3"],["1","3","2"]]}\n')


RATIONAL_DEFLATED = ("sigma", "--nodes=1/2,-2/3,5,7/4", "--deflated")  # every row's head is not 1


@pytest.mark.parametrize("flag,want", [
    (None, '{"sigma":["1","79/12","175/24","-89/24","-35/12"],'
           '"deflated":[["1","73/12","17/4","-35/6"],["1","29/4","97/8","35/8"],'
           '["1","19/12","-5/8","-7/12"],["1","29/6","-7/6","-5/3"]]}\n'),
    ("--float", '{"sigma":[1.0,6.583333333333333,7.291666666666667,-3.7083333333333335,'
                '-2.9166666666666665],"deflated":[[1.0,6.083333333333333,4.25,'
                '-5.833333333333333],[1.0,7.25,12.125,4.375],[1.0,1.5833333333333333,'
                '-0.625,-0.5833333333333334],[1.0,4.833333333333333,-1.1666666666666667,'
                '-1.6666666666666667]]}\n'),
    ("--pretty", "sigma     1, 79/12, 175/24, -89/24, -35/12\ndeflated\n"
                 "  1, 73/12, 17/4, -35/6\n  1, 29/4, 97/8, 35/8\n"
                 "  1, 19/12, -5/8, -7/12\n  1, 29/6, -7/6, -5/3\n"),
], ids=["json", "float", "pretty"])
def test_sigma_deflated_rational_nodes(capsys, flag, want):
    argv = RATIONAL_DEFLATED + ((flag,) if flag else ())
    assert run_cli(capsys, *argv) == (0, want, "")


def test_kernel_payload(capsys):
    code, out, _ = run_cli(capsys, "kernel", "--nodes", "1", "--n", "2")
    assert code == 0
    assert out == '{"dimension":1,"kernel_basis":[["-1","1"]]}\n'


# --- exit codes ----------------------------------------------------------------


def test_parse_error_is_exit_one(capsys):
    code, out, err = run_cli(capsys, "interpolate", "--nodes", "0,x", "--values", "1,2")
    assert code == 1
    assert out == ""
    assert "cannot parse" in err


@pytest.mark.parametrize("argv", [
    ("solve", "--nodes", "1,2", "--values", "1,2", "--n", "x"),  # non-integer --n
    ("bench", "--reps", "x"),                                     # non-integer --reps
    ("interpolate", "--nodes", "1,2", "--values", "1,2", "--bogus"),  # unknown flag
])
def test_usage_error_is_exit_one(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("usage: vandersolve")
    assert "error: " in err


@pytest.mark.parametrize("argv", [
    ("interpolate", "--values", "5", "--n", "3"),  # interpolate has no --n: it read as --nodes
    ("interpolate", "--nodes", "1,2", "--values", "3,4", "--n", "7"),
    ("solve", "--values", "1", "--nod", "1"),
    ("bench", "--size", "8,16"),
])
def test_abbreviated_option_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1] == f"error: unrecognized arguments: {' '.join(argv[-2:])}"


@pytest.mark.parametrize("argv,leftover", [
    (("interpolate", "--values", "5", "--n", "3"), "--n 3"),
    (("sigma", "--nodes", "1,2", "--bogus"), "--bogus"),
    (("bench", "--size", "8,16"), "--size 8,16"),
])
def test_unknown_option_comes_under_the_subcommand_usage(capsys, argv, leftover):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"usage: vandersolve {argv[0]} [-h]")
    assert err.splitlines()[-1] == f"error: unrecognized arguments: {leftover}"


def test_parse_error_cuts_a_long_literal(capsys):
    code, out, err = run_cli(capsys, "interpolate", "--nodes", "1,x" + "9" * 5000,
                             "--values", "1,2")
    assert (code, out) == (1, "")
    assert err == f"error: cannot parse scalar 'x{'9' * 39}'\n"
    assert len(err) < 120


def test_usage_error_cuts_a_long_literal(capsys):
    literal = "1" + "0" * 5000
    code, out, err = run_cli(capsys, "kernel", "--nodes", "1", "--n", literal)
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1] == f"error: argument --n: invalid int value: '{literal[:39]}..."


def test_help_is_exit_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: vandersolve solve")


def test_reused_parser_matches_fresh_processes(capsys, monkeypatch):
    """One parser serves every main() call in a process; no call sees an earlier one."""
    monkeypatch.setenv("COLUMNS", "80")  # same usage wrapping in and out of process
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}

    def fresh(argv):
        done = subprocess.run([sys.executable, "-m", "vandersolve", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        return done.returncode, done.stdout, done.stderr

    for argv in (
        ("interpolate", "--nodes", "1,3/2,-2", "--values", "1,2,3", "--verify"),
        ("solve", "--nodes", "1,2", "--values", "1,2", "--n", "x"),
        ("kernel", "--nodes", "0,1/2", "--n", "4", "--verify"),
    ):
        assert run_cli(capsys, *argv) == fresh(argv)
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "--help"])
    assert (exc.value.code, capsys.readouterr().out) == fresh(["kernel", "--help"])[:2]
    assert exc.value.code == 0
    assert cli._build_parser() is cli._build_parser()


def test_duplicate_node_is_exit_two_and_named(capsys):
    code, _, err = run_cli(capsys, "interpolate", "--nodes", "1,1", "--values", "1,2")
    assert code == 2
    assert "duplicate node 1" in err


def test_duplicate_node_past_the_digit_limit_is_named(capsys):
    # 10**-4300 has a 4301-digit denominator, more than str(int) writes
    code, _, err = run_cli(capsys, "interpolate", "--nodes", "1e-4300,1e-4300",
                           "--values", "1,2")
    assert code == 2
    assert err.startswith("error: duplicate node 1/1000")
    assert err.endswith(" at positions 0 and 1\n")


def test_value_count_mismatch_is_exit_two(capsys):
    code, _, err = run_cli(capsys, "interpolate", "--nodes", "1,2,3", "--values", "1,2")
    assert code == 2
    assert "3 nodes but 2 values" in err


def test_missing_values_is_exit_one(capsys):
    code, _, err = run_cli(capsys, "interpolate", "--nodes", "1,2")
    assert code == 1
    assert "values" in err


def test_missing_input_is_exit_one(capsys):
    code, _, err = run_cli(capsys, "sigma")
    assert code == 1
    assert "--nodes" in err


def test_kernel_without_n_is_exit_one(capsys):
    code, _, err = run_cli(capsys, "kernel", "--nodes", "1,2")
    assert code == 1
    assert "--n" in err


def test_kernel_with_p_above_n_is_exit_two(capsys):
    code, _, err = run_cli(capsys, "kernel", "--nodes", "1,2,3", "--n", "2")
    assert code == 2
    assert 'use "vandersolve solve"' in err


@pytest.mark.parametrize("command", ["kernel", "solve"])
def test_nonpositive_n_is_exit_two(capsys, command):
    values = ("--values", "1,2") if command == "solve" else ()  # kernel takes no values
    for n in ("0", "-3"):
        for flags in ((), ("--verify",), ("--pretty",)):
            code, out, err = run_cli(capsys, command, "--nodes", "1,2", *values, "--n", n, *flags)
            assert (code, out, err) == (2, "", "error: need n >= 1\n")


@pytest.mark.parametrize("argv", [
    ["solve", "--nodes", "1,2", "--values", "3,4", "--n", str(10**30)],
    ["kernel", "--nodes", "1,2", "--n", str(10**30)],
    ["kernel", "--json", None],
], ids=["solve-flag", "kernel-flag", "json"])
def test_n_past_the_index_range_is_exit_two(tmp_path, capsys, argv):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"nodes": ["1", "2"], "n": 10**30}), encoding="utf-8")
    argv = [str(path) if arg is None else arg for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: n is too large") and err.count("\n") == 1


# p = 1 asks for n entries in each of n vectors: the smallest n refused is
# the first whose square passes the budget.
SMALLEST_REFUSED = math.isqrt(cli.MAX_ENTRIES) + 1


@pytest.mark.parametrize("argv", [
    ["kernel", "--nodes", "1", "--n", str(10**18)],
    ["solve", "--nodes", "1", "--values", "1", "--n", str(10**18)],
    ["kernel", "--nodes", "1", "--n", str(SMALLEST_REFUSED)],
    ["solve", "--nodes", "1", "--values", "1", "--n", str(SMALLEST_REFUSED)],
    ["kernel", "--json", None],
], ids=["kernel-1e18", "solve-1e18", "kernel-smallest", "solve-smallest", "json-1e18"])
def test_n_past_the_size_budget_is_refused_before_building(tmp_path, capsys, argv):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"nodes": ["1"], "n": 10**18}), encoding="utf-8")
    argv = [str(path) if arg is None else arg for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: n is too large: the result would pass ")
    assert err.count("\n") == 1
    # one below the smallest refused n passes the check (nothing is built here)
    assert cli._dimension(SMALLEST_REFUSED - 1, 1) == SMALLEST_REFUSED - 1


def test_deflated_past_the_size_budget_is_refused_before_building(capsys, monkeypatch):
    monkeypatch.setattr(cli, "compute_sigma", None)  # any build would raise
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "sigma", "--deflated", "--nodes", _grid(1, SMALLEST_REFUSED))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == (f"error: too many nodes for --deflated: {SMALLEST_REFUSED} rows of "
                   f"{SMALLEST_REFUSED} entries would pass {cli.MAX_ENTRIES} entries\n")
    # one node fewer passes the parse stage (nothing is built here)
    args = cli._build_parser().parse_args(
        ["sigma", "--deflated", "--nodes", _grid(1, SMALLEST_REFUSED - 1)])
    assert len(cli._parse_problem(args).nodes) == SMALLEST_REFUSED - 1


def test_nonfinite_float_result_is_exit_two(capsys):
    code, out, err = run_cli(capsys, "interpolate", "--float", "--nodes", "0,1e-308",
                             "--values", "0,1e10")
    assert code == 2
    assert out == ""
    assert "not finite" in err


def test_results_beyond_the_int_string_limit_are_printed_in_full(capsys):
    # 2 * 10**3000 * (x - 10**-3000) * x: str(int) refuses its 6001 digits
    code, out, err = run_cli(capsys, "interpolate", "--nodes", "0,1e-3000,2e-3000",
                             "--values", "0,0,1")
    assert code == 0, err
    assert json.loads(out) == {"coefficients": ["0", "-5" + "0" * 2999, "5" + "0" * 5999],
                               "degree": 2}


def test_huge_decimal_exponent_is_a_fast_parse_error(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "interpolate", "--nodes", "1e30000000", "--values", "1")
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert "exponent" in err


def test_overflowed_float_residual_is_not_consistent(capsys):
    # the particular solution overflows at the extra node 1e300
    code, out, err = run_cli(capsys, "solve", "--float", "--nodes", "0,1,1e300",
                             "--values", "0,1e10,5", "--n", "2")
    assert code == 2
    assert out == ""
    assert "not finite" in err


# --- file inputs and outputs ------------------------------------------------------


def test_csv_with_header(tmp_path, capsys):
    path = tmp_path / "points.csv"
    path.write_text("node,value\n0,1\n1,2\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "interpolate", "--csv", str(path))
    assert code == 0
    assert out == '{"coefficients":["1","1"],"degree":1}\n'


def test_csv_without_header(tmp_path, capsys):
    path = tmp_path / "points.csv"
    path.write_text("0,1\n1,2\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "interpolate", "--csv", str(path))
    assert code == 0
    assert out == '{"coefficients":["1","1"],"degree":1}\n'


def test_csv_with_byte_order_mark_keeps_its_first_row(tmp_path, capsys):
    path = tmp_path / "points.csv"
    path.write_bytes(b"\xef\xbb\xbf1,2\n2,3\n3,5\n")  # Excel's "CSV UTF-8"
    code, out, _ = run_cli(capsys, "interpolate", "--csv", str(path))
    assert code == 0
    assert out == '{"coefficients":["2","-1/2","1/2"],"degree":2}\n'


@pytest.mark.parametrize("command,text,message", [
    ("interpolate", "1..5,2\n2,3\n3,5\n", "cannot parse scalar '1..5'"),
    ("sigma", "1/0\n2\n3\n", "cannot parse scalar '1/0'"),
    ("sigma", "1e99999\n2\n3\n", "exponent of '1e99999' exceeds"),
    ("sigma", "1_000\n2\n3\n", "cannot parse scalar '1_000'"),
    ("sigma", "1 / 2\n2\n3\n", "cannot parse scalar '1 / 2'"),
], ids=["two-columns", "zero-denominator", "exponent-past-the-bound", "digit-groups",
        "inner-spaces"])
def test_csv_malformed_first_row_is_not_a_header(tmp_path, capsys, command, text, message):
    path = tmp_path / "points.csv"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, command, "--csv", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_csv_first_row_not_written_like_a_number_is_a_header(tmp_path, capsys):
    path = tmp_path / "nodes.csv"
    path.write_text("x\n2\n3\n", encoding="utf-8")
    assert run_cli(capsys, "sigma", "--csv", str(path)) == (0, '{"sigma":["1","5","6"]}\n', "")


def test_json_with_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "points.json"
    path.write_bytes(b'\xef\xbb\xbf{"nodes": ["0", "1"], "values": ["1", "2"]}')
    code, out, _ = run_cli(capsys, "interpolate", "--json", str(path))
    assert code == 0
    assert out == '{"coefficients":["1","1"],"degree":1}\n'


@pytest.mark.parametrize("command,text,flags", [
    ("interpolate", '{"nodes": [1, 2], "values": [0.10000000000000000001, 2]}',
     ("--nodes=1,2", "--values=0.10000000000000000001,2")),
    ("sigma", '{"nodes": [0.30000000000000001, 0.3]}', ("--nodes=0.30000000000000001,0.3",)),
    ("interpolate", '{"nodes": [1, 2], "values": [1, 1e400]}',
     ("--nodes=1,2", "--values=1,1e400")),
], ids=["past-a-double", "distinct-past-a-double", "past-the-double-range"])
def test_json_numbers_are_read_as_written(tmp_path, capsys, command, text, flags):
    path = tmp_path / "problem.json"
    path.write_text(text, encoding="utf-8")
    from_file = run_cli(capsys, command, "--json", str(path))
    assert from_file == run_cli(capsys, command, *flags)
    assert from_file[0] == 0


def test_json_n_with_a_fraction_part_is_exit_one(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text('{"nodes": [1, 2], "n": 4.0}', encoding="utf-8")
    code, out, err = run_cli(capsys, "kernel", "--json", str(path))
    assert (code, out) == (1, "")
    assert err == f'error: "n" in {path} must be an integer\n'


def test_csv_invalid_utf8_is_exit_one(tmp_path, capsys):
    path = tmp_path / "points.csv"
    path.write_bytes(b"node,value\n0,1\n1\xe9,2\n")  # a Latin-1 byte in a data row
    code, out, err = run_cli(capsys, "interpolate", "--csv", str(path))
    assert code == 1
    assert out == ""
    assert f"cannot read {path}" in err


def test_csv_cell_past_the_reader_limit_is_exit_one(tmp_path, capsys):
    path = tmp_path / "points.csv"
    path.write_text("0,1\n1," + "9" * 200000 + "\n", encoding="utf-8")  # csv allows 131072
    code, out, err = run_cli(capsys, "interpolate", "--csv", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read {path}: field larger than field limit")


def test_json_invalid_utf8_is_exit_one(tmp_path, capsys):
    path = tmp_path / "points.json"
    path.write_bytes(b'\xff\xfe{"nodes": ["0", "1"], "values": ["1", "2"]}')  # UTF-16 mark
    code, out, err = run_cli(capsys, "interpolate", "--json", str(path))
    assert code == 1
    assert out == ""
    assert f"cannot read {path}" in err


def test_csv_single_column_feeds_sigma(tmp_path, capsys):
    path = tmp_path / "nodes.csv"
    path.write_text("1\n2\n3\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "sigma", "--csv", str(path))
    assert code == 0
    assert out == '{"sigma":["1","6","11","6"]}\n'


@pytest.mark.parametrize("text", ["", "node,value\n"], ids=["empty", "header-only"])
def test_csv_without_data_rows_is_exit_one(tmp_path, capsys, text):
    path = tmp_path / "points.csv"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "interpolate", "--csv", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path} holds no data rows\n"


def test_csv_ragged_rows_rejected(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("0,1\n1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "interpolate", "--csv", str(path))
    assert code == 1
    assert "columns" in err


@pytest.mark.parametrize("text", ["1;2\n", "x;y\n1;2\n", "1\t2\n", "x\ty\n1\t2\n"],
                         ids=["semicolon", "semicolon-header", "tab", "tab-header"])
def test_csv_with_another_separator_is_named(tmp_path, capsys, text):
    path = tmp_path / "points.csv"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "interpolate", "--csv", str(path))
    assert code == 1
    assert out == ""
    name = "';'" if ";" in text else "a tab"
    assert f"separates its cells with {name}" in err
    assert "comma-separated" in err


@pytest.mark.parametrize("argv", [("sigma", "--nodes", "1,2,3"),
                                  ("kernel", "--nodes", "1,2", "--n", "4")])
def test_values_flag_is_refused_without_a_right_hand_side(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--values", "5,6,7")
    assert code == 1
    assert out == ""
    assert f"{argv[0]} takes no values" in err


@pytest.mark.parametrize("argv,want", [
    (("sigma",), '{"sigma":["1","6","11","6"]}\n'),
    (("kernel", "--n", "4"), '{"dimension":1,"kernel_basis":[["-6","11","-6","1"]]}\n'),
])
def test_file_values_are_ignored_without_a_right_hand_side(tmp_path, capsys, argv, want):
    # one file may feed interpolate and sigma alike
    csv_path, json_path = tmp_path / "points.csv", tmp_path / "points.json"
    csv_path.write_text("node,value\n1,5\n2,6\n3,7\n", encoding="utf-8")
    json_path.write_text('{"nodes": [1, 2, 3], "values": [5, 6, 7]}', encoding="utf-8")
    for source in (("--csv", str(csv_path)), ("--json", str(json_path))):
        code, out, _ = run_cli(capsys, argv[0], *source, *argv[1:])
        assert code == 0
        assert out == want


def test_json_input_with_ambient_dimension(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"nodes": ["0", "1"], "values": [1, 2], "n": 4}),
                    encoding="utf-8")
    code, out, _ = run_cli(capsys, "solve", "--json", str(path))
    assert code == 0
    assert json.loads(out) == {
        "particular": ["1", "1", "0", "0"],
        "kernel_basis": [["0", "-1", "1", "0"], ["0", "0", "-1", "1"]],
    }


def test_json_flag_n_overrides_file(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"nodes": ["0", "1"], "values": ["1", "2"], "n": 4}),
                    encoding="utf-8")
    code, out, _ = run_cli(capsys, "solve", "--json", str(path), "--n", "2")
    assert code == 0
    assert json.loads(out)["particular"] == ["1", "1"]


@pytest.mark.parametrize("data", [
    {"nodes": "123", "values": ["1", "2", "3"]},
    {"nodes": ["1", "2"], "values": "12"},
    {"nodes": 5, "values": ["1"]},
    {"nodes": ["1", "2"], "values": ["1", "2"], "n": True},
    {"nodes": None, "values": ["", "1"]},
], ids=["nodes-string", "values-string", "nodes-number", "n-bool", "nodes-null"])
def test_json_wrong_types_are_exit_one(tmp_path, capsys, data):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_cli(capsys, "solve", "--json", str(path))
    assert code == 1
    assert out == ""
    assert "must be" in err


@pytest.mark.parametrize("text", [
    "[" * 100000 + "]" * 100000,
    '{"nodes": ' + "[" * 100000 + "]" * 100000 + "}",
    '{"nodes": ["1"], "values": ["2"], "n": ' + "1" * 5000 + "}",
    '{"nodes": [1,}',
], ids=["deep-array", "deep-nodes", "long-int", "malformed"])
def test_json_the_decoder_refuses_is_exit_one(tmp_path, capsys, text):
    path = tmp_path / "problem.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "interpolate", "--json", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path} is not valid JSON: ")
    assert err.count("\n") == 1


def test_conflicting_sources_rejected(tmp_path, capsys):
    path = tmp_path / "points.csv"
    path.write_text("0,1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "interpolate", "--nodes", "0", "--csv", str(path))
    assert code == 1
    assert "conflicts" in err
    code, out, err = run_cli(capsys, "interpolate", "--csv", str(path), "--json", str(path))
    assert (code, out) == (1, "")
    assert err == "error: --csv conflicts with --json\n"


def test_out_writes_file_instead_of_stdout(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run_cli(capsys, "interpolate", "--nodes", "0,1", "--values", "1,2",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == '{"coefficients":["1","1"],"degree":1}\n'


def test_out_into_missing_directory_is_exit_one(tmp_path, capsys):
    target = tmp_path / "missing" / "result.json"
    code, out, err = run_cli(capsys, "interpolate", "--nodes", "0,1", "--values", "1,2",
                             "--out", str(target))
    assert code == 1
    assert out == ""
    assert "cannot write" in err
    assert not target.exists()


@pytest.mark.parametrize("argv,verb", [
    (("interpolate", "--nodes", "0,1", "--values", "1,2", "--out"), "write"),
    (("sigma", "--csv"), "read"),
])
def test_long_path_is_named_once_and_cut(tmp_path, capsys, argv, verb):
    path = str(tmp_path / ("a" * 5000 + "-tail.json"))  # no file system takes that name
    code, out, err = run_cli(capsys, *argv, path)
    assert (code, out) == (1, "")
    (line,) = err.splitlines()
    assert line.startswith(f"error: cannot {verb} {path[:80]}…")
    assert len(line) < 400
    assert line.count("-tail.json") == 1


# --- float lane, verify, pretty ---------------------------------------------------


def test_float_mode_emits_numbers(capsys):
    code, out, _ = run_cli(capsys, "interpolate", "--nodes", "0,1", "--values", "1,2",
                           "--float")
    assert code == 0
    assert json.loads(out) == {"coefficients": [1.0, 1.0], "degree": 1}


def test_verify_happy_paths(capsys):
    for argv in (
        ("interpolate", "--nodes", "1,2,3", "--values", "2,3,5", "--verify"),
        ("solve", "--nodes", "0,1", "--values", "1,2", "--n", "4", "--verify"),
        ("solve", "--nodes", "0,1,2", "--values", "1,2,3", "--n", "2", "--verify"),
        ("sigma", "--nodes", "1,2,3", "--deflated", "--verify"),
        ("kernel", "--nodes", "2", "--n", "3", "--verify"),
        ("kernel", "--nodes", "1,-2,3/2", "--n", "6", "--verify"),
        # --float renders the basis; --verify checks the exact one
        ("kernel", "--float", "--nodes", "0.1,0.7,33.3,100.9", "--n", "6", "--verify"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert json.loads(out)["verified"] is True


def _grid(first: int, last: int) -> str:
    return ",".join(str(i) for i in range(first, last + 1))


def _rounded(payload):
    """The exact payload with every rational string replaced by its double."""
    if isinstance(payload, str):
        return float(Fraction(payload))
    if isinstance(payload, list):
        return [_rounded(x) for x in payload]
    if isinstance(payload, dict):
        return {key: _rounded(value) for key, value in payload.items()}
    return payload


# On doubles the deflation subtraction cancels on these grids; --float
# solves and verifies exactly and rounds only the output.
@pytest.mark.parametrize("argv", [
    ("solve", "--nodes", _grid(1, 12), "--values", _grid(2, 13)),
    ("interpolate", "--nodes", _grid(1, 25), "--values", _grid(2, 26)),
    ("sigma", "--deflated", "--nodes", _grid(1, 20)),
], ids=["solve-grid-12", "interpolate-grid-25", "sigma-deflated-grid-20"])
def test_float_verify_passes_on_integer_grids(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--float", "--verify")
    assert code == 0, err
    exact_code, exact_out, _ = run_cli(capsys, *argv)
    assert exact_code == 0
    assert json.loads(out) == {**_rounded(json.loads(exact_out)), "verified": True}


@pytest.mark.parametrize("argv,expected", [
    (("--nodes", "1000.5,2000.5,3000.5", "--values", "7,7,7"),
     '{"coefficients":[7.0],"degree":0}\n'),
    (("--nodes", "1e999", "--values", "2"), '{"coefficients":[2.0],"degree":0}\n'),
], ids=["degree-from-exact-result", "node-beyond-double-range"])
def test_float_renders_the_exact_interpolant(capsys, argv, expected):
    code, out, err = run_cli(capsys, "interpolate", "--float", *argv)
    assert code == 0, err
    assert out == expected


def _run_quietly(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)


@st.composite
def cli_problems(draw) -> list:
    """argv for interpolate, solve (square, wide, tall), kernel or sigma --deflated."""
    kind = draw(st.sampled_from(["interpolate", "square", "wide", "tall", "kernel", "sigma"]))
    nodes = draw(st.lists(rationals, min_size=1 + (kind == "tall"), max_size=7, unique=True))
    p = len(nodes)
    argv = ["--nodes=" + ",".join(map(str, nodes))]
    if kind == "sigma":
        return ["sigma", "--deflated", *argv]
    if kind == "kernel":
        return ["kernel", *argv, "--n", str(p + draw(st.integers(0, 3)))]
    n = p
    if kind == "wide":
        n = p + draw(st.integers(1, 3))
    elif kind == "tall":
        n = draw(st.integers(1, p - 1))
    if kind == "tall" and draw(st.booleans()):  # consistent: degree below n
        poly = Polynomial(tuple(draw(st.lists(rationals, min_size=n, max_size=n))))
        values = [poly.evaluate(a) for a in nodes]
    else:
        values = draw(st.lists(rationals, min_size=p, max_size=p))
    argv.append("--values=" + ",".join(map(str, values)))
    if kind == "interpolate":
        return ["interpolate", *argv]
    return ["solve", *argv, "--n", str(n)]


@settings(max_examples=80, deadline=None)
@given(cli_problems())
def test_float_output_is_the_rounded_exact_output(argv):
    exact_code, exact_out, _ = _run_quietly(argv + ["--verify"])
    code, out, err = _run_quietly(argv + ["--float", "--verify"])
    assert code != 4, err
    assert code == exact_code
    assert json.loads(out) == _rounded(json.loads(exact_out))


def _bump_first(coeffs) -> tuple:
    return (coeffs[0] + 1,) + tuple(coeffs[1:])


def _repeat_first(basis: KernelBasis) -> KernelBasis:
    return replace(basis, vectors=(basis.vectors[0],) + basis.vectors[:-1])


def _drop_last(basis: KernelBasis) -> KernelBasis:
    return replace(basis, vectors=basis.vectors[:-1])


def _second_plus_first(basis: KernelBasis) -> KernelBasis:
    """Vector 1 replaced by vector 0 + vector 1: a valid basis, but not the shifts of vector 0."""
    first, second, *rest = basis.vectors
    return replace(basis, vectors=(first, tuple(map(sum, zip(first, second))), *rest))


def _space_with_wrong_coefficient(nodes, q, n):
    space = solve_general(nodes, q, n)
    return replace(space, particular=_bump_first(space.particular))


def _space_with_short_solution(nodes, q, n):
    space = solve_general(nodes, q, n)
    return replace(space, particular=space.particular[:-1])  # a trailing zero dropped


def _space_with_repeated_vector(nodes, q, n):
    space = solve_general(nodes, q, n)
    return replace(space, basis=_repeat_first(space.basis))


def _plus_root_product(nodes, q):
    """The interpolant plus prod(x - a_i): zero residual at every node, but degree p."""
    root_product = (1,)
    for a in nodes:
        root_product = tuple(hi - a * lo for hi, lo in zip((0,) + root_product,
                                                           root_product + (0,)))
    coeffs = interpolate(nodes, q).coeffs
    coeffs += (0,) * (len(root_product) - len(coeffs))
    return Polynomial(tuple(c + r for c, r in zip(coeffs, root_product)))


# The tampering acts on the integer rows; cli prints sigma and the
# deflated rows divided out of them.
def _sigma_with_wrong_entry(pairs):
    coeffs = compute_sigma(pairs)
    return coeffs[:2] + (coeffs[2] + 1,) + coeffs[3:]


def _sigma_with_extra_coefficient(pairs):
    return compute_sigma(pairs) + (1,)


def _deflated_with(change):
    def fake(pairs, coeffs):
        rows = list(deflate_all(pairs, coeffs))
        rows[1] = change(rows[1])
        return tuple(rows)
    return fake


WIDE = ("solve", "--nodes", "0,1", "--values", "1,2", "--n", "4")
SIGMA = ("sigma", "--nodes", "1,-2,3/2,5")
DEFLATED = SIGMA + ("--deflated",)
KERNEL = ("kernel", "--nodes", "1,2", "--n", "5")


@pytest.mark.parametrize("argv,target,fake,detail", [
    (("interpolate", "--nodes", "1,2,3", "--values", "2,3,5"), "interpolate",
     lambda nodes, q: Polynomial(_bump_first(interpolate(nodes, q).coeffs)),
     "interpolant misses its value at node 1"),
    (("interpolate", "--nodes", "1,-2,3/2", "--values", "2,3,5"), "interpolate",
     _plus_root_product, "coefficients disagree with the elimination oracle"),
    (WIDE, "solve_general", _space_with_wrong_coefficient,
     "solution misses its value at node 0"),
    (WIDE, "solve_general", _space_with_short_solution, "solution has 3 entries, not 4"),
    (WIDE, "solve_general", _space_with_repeated_vector,
     "kernel vector 1 breaks the echelon pattern"),
    (KERNEL, "kernel_basis", lambda nodes, n: _repeat_first(kernel_basis(nodes, n)),
     "kernel vector 1 breaks the echelon pattern"),
    (KERNEL, "kernel_basis", lambda nodes, n: _drop_last(kernel_basis(nodes, n)),
     "wrong kernel dimension"),
    (KERNEL, "kernel_basis", lambda nodes, n: _second_plus_first(kernel_basis(nodes, n)),
     "kernel vector 1 breaks the echelon pattern"),
    (("interpolate", "--nodes", "1,2", "--values", "2,3"), "interpolate",
     lambda nodes, q: SimpleNamespace(coeffs=interpolate(nodes, q).coeffs, degree=6),
     "degree is not the index of the last nonzero coefficient"),
    (("kernel", "--nodes", "1", "--n", "3"), "kernel_basis",
     lambda nodes, n: SimpleNamespace(vectors=kernel_basis(nodes, n).vectors, dimension=7),
     "dimension does not count the kernel vectors"),
    (SIGMA, "compute_sigma", _sigma_with_wrong_entry,
     "sigma polynomial misses its value at node 1"),
    (SIGMA, "compute_sigma", _sigma_with_extra_coefficient,
     "sigma is not a monic row of 5 entries"),
    (DEFLATED, "deflate_all",
     _deflated_with(lambda row: row[:2] + (row[2] - 1,) + row[3:]),
     "deflated row 1 times (x - -2) misses sigma(2)"),
    (DEFLATED, "deflate_all", _deflated_with(lambda row: row + (0,)),
     "deflated row 1 has 5 entries, not 4"),
    (DEFLATED, "deflate_all", lambda pairs, coeffs: deflate_all(pairs, coeffs)[:-1],
     "3 deflated rows for 4 nodes"),
    (DEFLATED, "compute_sigma", _sigma_with_wrong_entry,
     "deflated row 0 times (x - 1) misses sigma(4)"),
], ids=["interpolate-coefficient", "interpolate-root-product", "solve-coefficient",
        "solve-short-solution", "solve-repeated-vector", "kernel-repeated-vector",
        "kernel-missing-vector", "kernel-sum-not-shift", "interpolate-degree",
        "kernel-dimension", "sigma-entry", "sigma-extra-entry", "deflated-entry",
        "deflated-row-length", "deflated-missing-row", "deflated-sigma-entry"])
def test_verify_catches_tampered_results(capsys, monkeypatch, argv, target, fake, detail):
    monkeypatch.setattr(cli, target, fake)
    assert run_cli(capsys, *argv)[0] == 0  # the tampered result still renders
    code, out, err = run_cli(capsys, *argv, "--verify")
    assert (code, out) == (4, "")
    assert err == f"error: verification failed: {detail}\n"


def _evaluations(monkeypatch) -> list:
    """The points `Polynomial.evaluate` is called at from here on."""
    calls = []
    evaluate = Polynomial.evaluate
    monkeypatch.setattr(Polynomial, "evaluate",
                        lambda poly, x: calls.append(x) or evaluate(poly, x))
    return calls


def test_kernel_verify_evaluates_only_the_first_vector(capsys, monkeypatch):
    """The certificate runs one Horner pass per node on vector 0; the rest are its shifts."""
    calls = _evaluations(monkeypatch)
    code, out, err = run_cli(capsys, "kernel", "--nodes", "1,-2,3/2,5,1/7", "--n", "40",
                             "--verify")
    assert (code, err) == (0, "")
    assert json.loads(out)["dimension"] == 35
    assert len(calls) <= 5


@pytest.mark.parametrize("argv,evaluations", [(DEFLATED, 0), (SIGMA, 4)],
                         ids=["deflated", "sigma"])
def test_sigma_verify_evaluates_only_without_rows(capsys, monkeypatch, argv, evaluations):
    """The deflated rows prove sigma; only a bare sigma runs its residual, once per node."""
    calls = _evaluations(monkeypatch)
    code, out, err = run_cli(capsys, *argv, "--verify")
    assert (code, err) == (0, "")
    assert json.loads(out)["verified"] is True
    assert len(calls) == evaluations


def test_verify_marks_a_checked_inconsistent_verdict(capsys):
    code, out, err = run_cli(capsys, "solve", "--nodes=0,1,2", "--values=1,2,4", "--n=2",
                             "--verify")
    assert (code, err) == (3, "")
    assert out == '{"inconsistent_at":2,"lhs":"3","rhs":"4","verified":true}\n'


def _verdict(row, lhs, rhs):
    def fake(nodes, q, n):
        raise InconsistentSystemError(row, lhs, rhs)
    return fake


TALL = ("solve", "--nodes=0,1,2,3", "--values=1,2,4,8", "--n=2")  # fit 1 + x misses 4 and 8
VERDICT = "the verdict is not the first equation the fit misses"


@pytest.mark.parametrize("argv,target,fake,detail", [
    (("solve", "--nodes=0,1,2", "--values=1,2,3", "--n", "2"), "solve_general",
     _verdict(2, 4, 3), VERDICT),
    (TALL, "solve_general", _verdict(3, 4, 8), VERDICT),
    (TALL, "solve_general", _verdict(2, 5, 4), VERDICT),
    (TALL, "solve_general", _verdict(2, 3, 5), VERDICT),
    (TALL, "solve_general", _verdict(4, 5, 9), VERDICT),
    (TALL, "interpolate", lambda nodes, q: Polynomial(_bump_first(interpolate(nodes, q).coeffs)),
     "the fit of the first equations misses its value at node 0"),
    (TALL, "interpolate", _plus_root_product,
     "the fit of the first 2 equations has more than 2 coefficients"),
], ids=["consistent-system", "later-row", "wrong-lhs", "wrong-rhs", "row-past-the-end",
        "fit-misses-a-head-value", "fit-of-too-high-degree"])
def test_verify_checks_an_inconsistent_verdict(capsys, monkeypatch, argv, target, fake, detail):
    monkeypatch.setattr(cli, target, fake)
    assert run_cli(capsys, *argv)[0] == 3  # the verdict still renders
    code, out, err = run_cli(capsys, *argv, "--verify")
    assert (code, out) == (4, "")
    assert err == f"error: verification failed: {detail}\n"


def test_sigma_verify_has_no_node_limit(capsys):
    for p in range(21, 61):
        # distinct signed rationals: -1/2, 2/3, -3/4, 4, -5/2, ...
        nodes = ",".join(f"{(-1) ** i * i}/{1 + i % 4}" for i in range(1, p + 1))
        code, out, err = run_cli(capsys, "sigma", f"--nodes={nodes}", "--deflated",
                                 "--verify")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["verified"] is True
        assert len(payload["sigma"]) == p + 1 and len(payload["deflated"]) == p


def test_closed_stdout_is_exit_one_without_traceback():
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    # about 210 kB of JSON, more than a pipe buffer holds
    nodes = ",".join(str(i) for i in range(1, 400))
    proc = subprocess.Popen([sys.executable, "-m", "vandersolve", "sigma", "--nodes", nodes],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert b"Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_stdout_write_is_one_error_line():
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "vandersolve", "interpolate",
                               "--nodes", "1,2", "--values", "3,4"],
                              env=env, stdout=full, stderr=subprocess.PIPE, text=True,
                              timeout=60)
    assert done.returncode == 1
    assert done.stderr == "error: cannot write stdout: No space left on device\n"


def test_pretty_table(capsys):
    code, out, _ = run_cli(capsys, "interpolate", "--nodes", "0,1", "--values", "1,2",
                           "--pretty")
    assert code == 0
    assert "degree" in out and "coefficients" in out and "{" not in out


def test_pretty_kernel_puts_each_vector_on_its_own_row(capsys):
    code, out, _ = run_cli(capsys, "kernel", "--nodes", "1,2", "--n", "4", "--pretty")
    assert code == 0
    assert out == "dimension     2\nkernel_basis\n  2, -3, 1, 0\n  0, 2, -3, 1\n"


# --- bench subcommand ---------------------------------------------------------------


def test_bench_smoke(capsys):
    code, out, _ = run_cli(capsys, "bench", "--sizes", "8,16", "--reps", "1")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"closed_form", "gaussian"}
    for report in payload.values():
        assert report["sizes"] == [8, 16]
        assert len(report["op_counts"]) == 2


def test_bench_pretty_table(capsys):
    code, out, _ = run_cli(capsys, "bench", "--sizes", "8,16", "--reps", "1", "--pretty")
    assert code == 0
    header, rule, *rows, slope = out.splitlines()
    assert header.split() == ["p", "closed", "ops", "closed", "s", "gauss", "ops", "gauss", "s"]
    assert set(rule) == {"-"} and len(rule) == len(header)
    assert [row.split()[0] for row in rows] == ["8", "16"]
    assert all(len(row.split()) == 5 for row in rows)
    assert slope.startswith("log-log op-count slope: closed form ")


def test_bench_needs_two_sizes(capsys):
    code, _, err = run_cli(capsys, "bench", "--sizes", "8")
    assert code == 2
    assert "two sizes" in err


def test_bench_rejects_bad_size_list(capsys):
    code, _, _ = run_cli(capsys, "bench", "--sizes", "8,x")
    assert code == 1


@pytest.mark.parametrize("argv, want", [
    (["bench", "--sizes", "8," + "1" * 5000], 1),
    (["bench", "--sizes", "8,x" + "y" * 5000], 1),
    (["bench", "--sizes", "8,x, " + "y, " * 5000], 1),
    (["bench", "--sizes", "8," + "1" * 4000 + ",9"], 2),
    (["interpolate", "--nodes", "1,," + "2" * 5000, "--values", "1,2"], 1),
], ids=["digits", "letters", "spaced", "huge-size", "empty-entry"])
def test_list_errors_cut_the_quoted_list(capsys, argv, want):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (want, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert len(err) < 120


@pytest.mark.parametrize("sizes", [
    "1,1099511627776", f"8,{SMALLEST_REFUSED}", f"8,{10**20}", f"8,{sys.maxsize + 1}",
])
def test_bench_size_past_the_budget_is_refused_before_numpy(sizes):
    # a fresh interpreter, to see that numpy is never imported
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    script = ("import sys; from vandersolve.cli import main; "
              f"code = main(['bench', '--sizes', '{sizes}', '--reps', '1']); "
              "sys.exit(100 + code if 'numpy' in sys.modules else code)")
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    big = sizes.split(",")[1]
    assert done.stderr == (f"error: size {big} is too large: its matrix would pass "
                           f"{cli.MAX_ENTRIES} entries\n")


@pytest.mark.parametrize("reps", [10**9, cli.MAX_REPS + 1])
def test_bench_reps_past_the_bound_are_refused_before_numpy(reps):
    # a fresh interpreter, to see that numpy is never imported
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    script = ("import sys; from vandersolve.cli import main; "
              f"code = main(['bench', '--sizes', '8,16', '--reps', '{reps}']); "
              "sys.exit(100 + code if 'numpy' in sys.modules else code)")
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (f"error: --reps is too large: at most {cli.MAX_REPS} timing "
                           "repetitions per size\n")


# --- round trip ----------------------------------------------------------------------


@settings(max_examples=40)
@given(st.lists(
    st.tuples(
        st.fractions(min_value=-6, max_value=6, max_denominator=6),
        st.fractions(min_value=-6, max_value=6, max_denominator=6),
    ),
    min_size=1, max_size=6,
    unique_by=lambda pair: pair[0],
))
def test_exact_output_round_trips(points):
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = main(["interpolate", "--nodes=" + ",".join(str(a) for a, _ in points),
                     "--values=" + ",".join(str(q) for _, q in points)])
    assert code == 0
    coeffs = tuple(Fraction(c) for c in json.loads(stdout.getvalue())["coefficients"])
    rebuilt = interpolate(
        NodeSet(tuple(a for a, _ in points)), [q for _, q in points])
    assert coeffs == rebuilt.coeffs
    for a, q in points:
        assert rebuilt.evaluate(a) == q
