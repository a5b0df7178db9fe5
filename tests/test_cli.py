"""CLI contract: frozen JSON payloads, exit codes, file inputs and outputs."""

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from vandersolve import cli
from vandersolve.cli import ProblemInput, cmd_interpolate, main
from vandersolve.kernel import KernelBasis, kernel_basis, solve_general
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
    code, out, err = run_cli(capsys, command, "--nodes", "1,2", "--values", "1,2",
                             "--n", "-3")
    assert code == 2
    assert out == ""
    assert "need n >= 1" in err


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


def test_csv_malformed_first_row_is_not_a_header(tmp_path, capsys):
    path = tmp_path / "points.csv"
    path.write_text("1..5,2\n2,3\n3,5\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "interpolate", "--csv", str(path))
    assert code == 1
    assert out == ""
    assert "'1..5'" in err


def test_json_with_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "points.json"
    path.write_bytes(b'\xef\xbb\xbf{"nodes": ["0", "1"], "values": ["1", "2"]}')
    code, out, _ = run_cli(capsys, "interpolate", "--json", str(path))
    assert code == 0
    assert out == '{"coefficients":["1","1"],"degree":1}\n'


def test_csv_invalid_utf8_is_exit_one(tmp_path, capsys):
    path = tmp_path / "points.csv"
    path.write_bytes(b"node,value\n0,1\n1\xe9,2\n")  # a Latin-1 byte in a data row
    code, out, err = run_cli(capsys, "interpolate", "--csv", str(path))
    assert code == 1
    assert out == ""
    assert f"cannot read {path}" in err


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


def test_csv_ragged_rows_rejected(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("0,1\n1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "interpolate", "--csv", str(path))
    assert code == 1
    assert "columns" in err


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
], ids=["nodes-string", "values-string", "nodes-number", "n-bool"])
def test_json_wrong_types_are_exit_one(tmp_path, capsys, data):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_cli(capsys, "solve", "--json", str(path))
    assert code == 1
    assert out == ""
    assert "must be" in err


def test_conflicting_sources_rejected(tmp_path, capsys):
    path = tmp_path / "points.csv"
    path.write_text("0,1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "interpolate", "--nodes", "0", "--csv", str(path))
    assert code == 1
    assert "conflicts" in err


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


def _space_with_wrong_coefficient(nodes, q, n):
    space = solve_general(nodes, q, n)
    return replace(space, particular=_bump_first(space.particular))


def _space_with_repeated_vector(nodes, q, n):
    space = solve_general(nodes, q, n)
    return replace(space, basis=_repeat_first(space.basis))


# The tampering acts on the stored integer rows; cli reads sigma and the
# deflated rows derived from them.
def _sigma_with_wrong_entry(nodes):
    table = compute_sigma(nodes)
    return replace(table, coeffs=table.coeffs[:2] + (table.coeffs[2] + 1,) + table.coeffs[3:])


def _deflated_with(change):
    def fake(table):
        rows = list(deflate_all(table).rows)
        rows[1] = change(rows[1])
        return replace(table, rows=tuple(rows))
    return fake


WIDE = ("solve", "--nodes", "0,1", "--values", "1,2", "--n", "4")
SIGMA = ("sigma", "--nodes", "1,-2,3/2,5")
DEFLATED = SIGMA + ("--deflated",)


@pytest.mark.parametrize("argv,target,fake", [
    (("interpolate", "--nodes", "1,2,3", "--values", "2,3,5"), "interpolate",
     lambda nodes, q: Polynomial(_bump_first(interpolate(nodes, q).coeffs))),
    (WIDE, "solve_general", _space_with_wrong_coefficient),
    (WIDE, "solve_general", _space_with_repeated_vector),
    (("kernel", "--nodes", "1,2", "--n", "5"), "kernel_basis",
     lambda nodes, n: _repeat_first(kernel_basis(nodes, n))),
    (SIGMA, "compute_sigma", _sigma_with_wrong_entry),
    (DEFLATED, "deflate_all",
     _deflated_with(lambda row: row[:2] + (row[2] - 1,) + row[3:])),
    (DEFLATED, "deflate_all", _deflated_with(lambda row: row + (0,))),
    (DEFLATED, "deflate_all", lambda table: replace(
        table, rows=deflate_all(table).rows[:-1])),
], ids=["interpolate-coefficient", "solve-coefficient", "solve-repeated-vector",
        "kernel-repeated-vector", "sigma-entry", "deflated-entry", "deflated-row-length",
        "deflated-missing-row"])
def test_verify_catches_tampered_results(capsys, monkeypatch, argv, target, fake):
    monkeypatch.setattr(cli, target, fake)
    assert run_cli(capsys, *argv)[0] == 0  # the tampered result still renders
    code, out, err = run_cli(capsys, *argv, "--verify")
    assert code == 4
    assert out == ""
    assert "verification failed" in err


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


def test_pretty_table(capsys):
    code, out, _ = run_cli(capsys, "interpolate", "--nodes", "0,1", "--values", "1,2",
                           "--pretty")
    assert code == 0
    assert "degree" in out and "coefficients" in out and "{" not in out


# --- bench subcommand ---------------------------------------------------------------


def test_bench_smoke(capsys):
    code, out, _ = run_cli(capsys, "bench", "--sizes", "8,16", "--reps", "1")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"closed_form", "gaussian"}
    for report in payload.values():
        assert report["sizes"] == [8, 16]
        assert len(report["op_counts"]) == 2


def test_bench_needs_two_sizes(capsys):
    code, _, err = run_cli(capsys, "bench", "--sizes", "8")
    assert code == 2
    assert "two sizes" in err


def test_bench_rejects_bad_size_list(capsys):
    code, _, _ = run_cli(capsys, "bench", "--sizes", "8,x")
    assert code == 1


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
    problem = ProblemInput(
        nodes=[str(a) for a, _ in points],
        values=[str(q) for _, q in points])
    payload, code = cmd_interpolate(problem)
    assert code == 0
    coeffs = tuple(Fraction(c) for c in payload["coefficients"])
    rebuilt = interpolate(
        NodeSet(tuple(a for a, _ in points)), [q for _, q in points])
    assert coeffs == rebuilt.coeffs
    for a, q in points:
        assert rebuilt.evaluate(a) == q
