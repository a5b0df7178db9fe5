"""The CLI's exit-code contract over hostile inputs.

Whatever the argv and the input file, `cli.main` returns 0-3 and raises
nothing.  On exits 1 and 2 stderr is exactly one "error: " line, after
the usage line if there is one, with no traceback and no module path;
exit 0 prints its result and exit 3 its inconsistency report as JSON on
stdout.  Argv and files come from a small grammar of valid and malformed
literals, exponents at the digit bound and just past it, duplicate
nodes, wrong JSON types, deeply nested JSON, ragged CSV, byte-order
marks, sizes up to 64 and sizes that the size budget refuses, `sigma
--deflated` node counts that it refuses, `bench` size lists and
repetition counts, `--pretty`, and `--out` to a file or into a missing
directory (exit 1, and nothing is created).
"""

import io
import json
import math
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from vandersolve.cli import MAX_ENTRIES, MAX_REPS, main

BOUND = sys.get_int_max_str_digits()
DEEP = 100000  # past any recursion limit of the JSON decoder

valid_literals = st.one_of(
    st.integers(-30, 30).map(str),
    st.builds("{}/{}".format, st.integers(-30, 30), st.integers(1, 12)),
    st.builds("{}.{:03d}".format, st.integers(-9, 9), st.integers(0, 999)),
    st.sampled_from(["+7", "-0", " 3 ", "2.5e-3", "-4E+2", "0.000", "6/4"]),
)
# Exponents at the digit bound parse; one past it is a parse error.
bound_literals = st.sampled_from(
    [f"1e{BOUND}", f"-7e-{BOUND}", f"3.5E+{BOUND}", f"1e{BOUND + 1}", f"2e-{BOUND + 1}"])
malformed_literals = st.sampled_from(
    ["", "abc", "1/0", "1//2", "--1", "1e", "0x10", "nan", "inf", "1.2.3", "1 2", "1/2/3",
     "1" * (BOUND + 1), "\x00", "½", "1_000"])
small_sizes = st.integers(1, 40)
# n past the size budget is refused before anything is built
sizes = st.one_of(small_sizes, small_sizes, small_sizes, st.integers(41, 64),
                  st.sampled_from([10**4, 10**9, 10**18, sys.maxsize, 10**20, 10**30]))
# node counts whose p x p deflated rows pass the size budget: refused before any is built
refused_node_counts = st.sampled_from([math.isqrt(MAX_ENTRIES) + 1, 4000])
bench_sizes = st.one_of(
    st.lists(st.integers(1, 8), min_size=2, max_size=3, unique=True).map(
        lambda xs: ",".join(map(str, sorted(xs)))),
    st.sampled_from(["8", "8,x", "", "2,,4", "4,2", "4,4", "0,4", "-1,4", "2.5,4", " 2, 4"]),
    st.sampled_from([f"2,{10**4}", f"2,{10**20}", f"2,{sys.maxsize}", f"{10**30},2"]),
)
# past MAX_REPS is refused before anything runs
bench_reps = st.sampled_from(["1", "1", "1", "0", "2", "x", str(MAX_REPS + 1), str(10**9)])


@st.composite
def literal_lists(draw, p: int, bound: bool) -> list:
    """p distinct valid literals, sometimes with a hostile entry or a duplicate."""
    items = draw(st.lists(valid_literals, min_size=p, max_size=p, unique_by=Fraction))
    hostile = st.one_of(malformed_literals, bound_literals) if bound else malformed_literals
    if draw(st.integers(0, 3)) == 0:
        items[draw(st.integers(0, p - 1))] = draw(hostile)
    if p > 1 and draw(st.integers(0, 4)) == 0:
        items[draw(st.integers(1, p - 1))] = items[0]
    return items


def _csv_text(draw, nodes: list, values) -> tuple:
    rows = [[a] if values is None else [a, v] for a, v in zip(nodes, values or nodes)]
    if values is not None and draw(st.integers(0, 4)) == 0:  # ragged
        rows[draw(st.integers(0, len(rows) - 1))].pop()
    if draw(st.booleans()):
        rows.insert(0, ["x", "y"][:len(rows[0])])
    sep = draw(st.sampled_from([","] * 8 + [";", "\t"]))
    text = "".join(sep.join(row) + "\n" for row in rows)
    if draw(st.booleans()):
        text = "\ufeff" + text
    pieces = [(text.encode("utf-8"), 1)]
    if draw(st.integers(0, 9)) == 0:
        pieces += [(b"1,", 1), (b"9", 200000), (b"\n", 1)]  # past the csv field limit
    if draw(st.integers(0, 9)) == 0:
        pieces.append((b"\xff", 1))  # not UTF-8
    return tuple(pieces)


def _json_text(draw, nodes: list, values, n) -> tuple:
    deep = ((b"[", DEEP), (b"]", DEEP))
    shape = draw(st.sampled_from(["object"] * 6 + ["wrong-type", "deep", "deep-nodes",
                                                    "nested-node", "list"]))
    if shape == "deep":
        return deep
    if shape == "deep-nodes":
        return ((b'{"nodes": ', 1), *deep, (b"}", 1))
    data = {"nodes": [int(a) if re.fullmatch(r"-?[0-9]{1,9}", a) and draw(st.booleans()) else a
                      for a in nodes]}
    if values is not None:
        data["values"] = values
    if n is not None:
        data["n"] = n
    if shape == "wrong-type":
        key = draw(st.sampled_from(["nodes", "values", "n"]))
        data[key] = draw(st.sampled_from(["12", 5, 2.5, True, None, {"a": 1}, [[1]], 1e400]))
    elif shape == "nested-node":
        data["nodes"][0] = json.loads("[" * 50 + "1" + "]" * 50)
    elif shape == "list":
        data = data["nodes"]
    text = json.dumps(data)
    if draw(st.booleans()):
        text = "\ufeff" + text
    return ((text.encode("utf-8"), 1),)


@st.composite
def invocations(draw) -> tuple:
    """(argv, name of the input file or None, its content as (bytes, repeat) pieces, --out).

    The pieces keep a 200 kB file out of the example's repr.  --out is
    None (stdout), "file" or "missing" (a file in a missing directory).
    """
    command = draw(st.sampled_from(["interpolate", "solve", "kernel", "sigma", "bench"]))
    output = ["--pretty"] if draw(st.integers(0, 3)) == 0 else []
    out = draw(st.sampled_from([None] * 6 + ["file", "missing"]))
    if command == "bench":
        argv = ["bench", "--sizes=" + draw(bench_sizes), "--reps=" + draw(bench_reps), *output]
        return argv, None, (), out
    bound = draw(st.integers(0, 4)) == 0
    p = draw(st.integers(1, 4 if bound else 30))  # exact work on 10**4300 grows fast
    nodes = draw(literal_lists(p, bound))
    values = None
    rhs = command in ("interpolate", "solve")  # kernel and sigma take no values
    if rhs or draw(st.integers(0, 9)) == 0:
        values = draw(literal_lists(p, bound)) if draw(st.integers(0, 9)) else nodes[:-1]
    wants_n = command in ("solve", "kernel")
    if draw(st.integers(0, 9)) == 0:  # kernel without --n, interpolate or sigma with it
        wants_n = not wants_n
    n = draw(sizes) if wants_n else None
    flags = [flag for flag in ("--verify", "--float") if draw(st.booleans())] + output
    if command == "sigma" and draw(st.booleans()):
        flags.append("--deflated")
        if draw(st.integers(0, 3)) == 0:
            nodes, values = [str(a) for a in range(1, draw(refused_node_counts) + 1)], None
    source = draw(st.sampled_from(["flags", "csv", "json"]))
    if source == "flags":
        argv = [command, "--nodes=" + ",".join(nodes), *flags]
        if values is not None:
            argv.append("--values=" + ",".join(values))
        if n is not None:
            argv.append(f"--n={n}")
        return argv, None, (), out
    if source == "csv":
        argv = [command, *flags]
        if n is not None:
            argv.append(f"--n={n}")
        return argv, "problem.csv", _csv_text(draw, nodes, values), out
    return [command, *flags], "problem.json", _json_text(draw, nodes, values, n), out


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(invocations())
def test_every_input_keeps_the_exit_code_contract(tmp_path_factory, case):
    argv, name, pieces, out = case
    if name is not None:
        path = tmp_path_factory.mktemp("contract") / name
        path.write_bytes(b"".join(chunk * repeat for chunk, repeat in pieces))
        argv = [*argv, "--csv" if name.endswith(".csv") else "--json", str(path)]
    target = None
    if out is not None:
        target = tmp_path_factory.mktemp("out") / ("missing/out" if out == "missing" else "out")
        argv = [*argv, "--out", str(target)]
    stdout, err = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), err.getvalue()
    if code in (0, 3):  # a result, or the report of an inconsistent system
        assert out != "missing"
        text = stdout.getvalue() if target is None else target.read_text(encoding="utf-8")
        assert target is None or stdout.getvalue() == ""
        if "--pretty" in argv:
            assert text.endswith("\n") and text.strip() and "Traceback" not in text
        else:
            json.loads(text)
        return
    if out == "missing":
        assert not target.parent.exists()
    lines = err.getvalue().splitlines()
    assert lines[-1].startswith("error: "), lines
    assert not any(line.startswith("error: ") for line in lines[:-1]), lines
    assert len(lines) == 1 or lines[0].startswith("usage: vandersolve"), lines
    assert "Traceback" not in err.getvalue() and ".py" not in err.getvalue(), lines
