"""Command-line front end: interpolate, solve, kernel, sigma, bench.

Scalars arrive as "p/q" or decimal literals (inline flags, CSV or JSON
files); results leave as compact JSON on stdout with stable key order, or
as an aligned table with --pretty.  Every literal is parsed, solved and
verified exactly; --float changes only the output format, rendering each
exact result as its correctly rounded double.

--verify re-evaluates every solution at every node, proves a kernel
basis independent by its echelon of trailing ones, cross-checks
`interpolate` against exact Gaussian elimination, and checks `sigma` and
its deflated rows by a quadratic certificate (the signed sigma row is a
monic polynomial vanishing at every node, and each deflated row times
x - a_i gives it back), with no limit on the node count.

Exit codes: 0 success, 1 usage or parse error, missing input, unwritable
--out or stdout closed early, 2 invalid problem (duplicate nodes,
dimension mismatch, n < 1, a --float result too large for a double), 3
inconsistent overdetermined system, 4 --verify mismatch, which would
mean a bug with or without --float.
"""

import argparse
import csv
import decimal
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

from . import oracle
from .field import ScalarParseError, parse_scalar
from .kernel import (
    OverdeterminedInputError,
    kernel_basis,
    solve_general,
    solve_overdetermined,
)
from .poly import Polynomial, first_miss
from .symfuncs import (
    DuplicateNodeError,
    NodeSet,
    compute_sigma,
    deflate_all,
)
from .vandermonde import DimensionMismatchError, interpolate

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_INCONSISTENT = 3
EXIT_VERIFY = 4


class CliError(Exception):
    """Carries the message and the contract exit code."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 1 (parse error); argparse's own 2 means an invalid problem here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message, EXIT_PARSE)


@dataclass
class ProblemInput:
    """One parsed problem: scalar literals, the ambient dimension, the output format."""

    nodes: list
    values: list | None = None
    n: int | None = None
    float_output: bool = False  # --float: render exact results as doubles


def _node_set(problem: ProblemInput) -> NodeSet:
    return NodeSet(tuple(parse_scalar(t) for t in problem.nodes))


def _value_list(problem: ProblemInput, nodes: NodeSet) -> list:
    if problem.values is None:
        raise CliError("this command needs values (--values, CSV or JSON)", EXIT_PARSE)
    if len(problem.values) != len(nodes):
        raise CliError(
            f"{len(nodes)} nodes but {len(problem.values)} values", EXIT_INVALID)
    return [parse_scalar(t) for t in problem.values]


def _dimension(n: int) -> int:
    """Check the ambient dimension of solve and kernel (--n or the file's "n")."""
    if n < 1:
        raise CliError("need n >= 1", EXIT_INVALID)
    return n


def _render(x, problem: ProblemInput):
    """The exact result as a string, or under --float its correctly rounded double."""
    if not problem.float_output:
        try:
            return str(x)
        except ValueError:  # more digits than sys.get_int_max_str_digits(); Decimal has no limit
            n, d = (str(decimal.Decimal(i)) for i in (x.numerator, x.denominator))
            return n if d == "1" else f"{n}/{d}"
    try:
        return float(x)
    except OverflowError:
        # The exact value may have hundreds of digits: name the problem, not the value.
        raise CliError("a result overflows a double and is not finite as a float; "
                       "rerun without --float", EXIT_INVALID) from None


def _render_vector(v, problem: ProblemInput) -> list:
    return [_render(x, problem) for x in v]


# ---------------------------------------------------------------------------
# input assembly


def _is_scalar(text: str) -> bool:
    try:
        parse_scalar(text)
    except ScalarParseError:
        return False
    return True


def _read_csv(path: str) -> tuple:
    """CSV with a node column and an optional value column; header optional.

    The first row is a header only when none of its cells parses as a
    scalar, so a malformed literal there is a parse error, not a header.
    A UTF-8 byte-order mark (Excel's "CSV UTF-8") is skipped.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = [row for row in csv.reader(fh) if any(cell.strip() for cell in row)]
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_PARSE) from exc
    if not rows:
        raise CliError(f"{path} holds no data rows", EXIT_PARSE)
    if not any(_is_scalar(cell) for cell in rows[0]):
        rows = rows[1:]  # header row
    if not rows:
        raise CliError(f"{path} holds no data rows", EXIT_PARSE)
    widths = {len(row) for row in rows}
    if len(widths) != 1 or widths.pop() not in (1, 2):
        raise CliError(f"{path} must have one or two columns throughout", EXIT_PARSE)
    nodes = [row[0].strip() for row in rows]
    values = [row[1].strip() for row in rows] if len(rows[0]) == 2 else None
    return nodes, values


def _read_json(path: str) -> tuple:
    """JSON object with "nodes", optional "values" and optional "n"."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_PARSE) from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}", EXIT_PARSE) from exc
    if not isinstance(data, dict) or "nodes" not in data:
        raise CliError(f'{path} must be an object with a "nodes" list', EXIT_PARSE)
    for key in ("nodes", "values"):
        if data.get(key) is not None and not isinstance(data[key], list):
            raise CliError(f'"{key}" in {path} must be a list', EXIT_PARSE)
    nodes = [str(x) for x in data["nodes"]]
    values = [str(x) for x in data["values"]] if data.get("values") is not None else None
    n = data.get("n")
    if n is not None and (isinstance(n, bool) or not isinstance(n, int)):
        raise CliError(f'"n" in {path} must be an integer', EXIT_PARSE)
    return nodes, values, n


def _split_flag(text: str) -> list:
    items = [part.strip() for part in text.split(",")]
    if any(not part for part in items):
        raise CliError(f"empty entry in list {text!r}", EXIT_PARSE)
    return items


def _load_problem(args) -> ProblemInput:
    sources = sum(x is not None for x in (args.nodes, args.csv, args.json))
    if sources == 0:
        raise CliError("no input: pass --nodes, --csv or --json", EXIT_PARSE)
    if args.nodes is not None and sources > 1:
        raise CliError("--nodes conflicts with --csv/--json", EXIT_PARSE)
    if args.csv is not None and args.json is not None:
        raise CliError("--csv conflicts with --json", EXIT_PARSE)

    n = getattr(args, "n", None)
    if args.nodes is not None:
        nodes = _split_flag(args.nodes)
        values = _split_flag(args.values) if args.values is not None else None
    elif args.csv is not None:
        nodes, values = _read_csv(args.csv)
        if args.values is not None:
            values = _split_flag(args.values)
    else:
        nodes, values, file_n = _read_json(args.json)
        if args.values is not None:
            values = _split_flag(args.values)
        if n is None:
            n = file_n
    return ProblemInput(nodes=nodes, values=values, n=n, float_output=args.float)


# ---------------------------------------------------------------------------
# verification helpers (--verify); failures here mean a bug in the library


def _verify_fail(detail: str):
    raise CliError(f"verification failed: {detail}", EXIT_VERIFY)


def _verify_residual(poly, nodes, values, what: str):
    """The polynomial must take its value at every node."""
    miss = first_miss(poly, nodes, values)
    if miss is not None:
        _verify_fail(f"{what} misses its value at node {nodes[miss[0]]}")


def _verify_basis(nodes, basis, n: int):
    """n - p annihilated vectors, vector k ending in a 1 at index p + k.

    The trailing ones form an echelon pattern, so the vectors are
    independent and, with distinct nodes, span the whole kernel.
    """
    p = len(nodes)
    if basis.dimension != n - p:
        _verify_fail("wrong kernel dimension")
    zeros = [0] * p
    for k, vec in enumerate(basis.vectors):
        if len(vec) != n or vec[p + k] != 1 or any(x != 0 for x in vec[p + k + 1:]):
            _verify_fail(f"kernel vector {k} breaks the echelon pattern")
        _verify_residual(Polynomial(vec), nodes, zeros, f"kernel vector {k}")


def _verify_interpolation(nodes, values, poly):
    _verify_residual(poly, nodes, values, "interpolant")
    reference = oracle.solve_by_elimination(nodes, values)
    padded = list(poly.coeffs) + [0] * (len(nodes) - len(poly.coeffs))
    if padded != reference:
        _verify_fail("coefficients disagree with the elimination oracle")


def _verify_sigma(nodes, table, deflated):
    """Quadratic certificate for sigma and every deflated row.

    sigma has p + 1 entries, sigma(0) = 1, and
    P(x) = sum_t (-1)^t sigma(t) x^(p-t) vanishes at the p distinct nodes,
    so the monic P is prod(x - a_i).  Row i has p entries and
    (x - a_i) * D_i(x) = P(x) coefficientwise, that is
    sigma(t) = D_i(t) + a_i * D_i(t-1) with D_i(-1) = D_i(p) = 0; division
    by x - a_i is unique, so that proves the row.  The identity runs in
    ints: with sigma = S / L, D_i = R / M and a_i = n / d, it reads
    S(t) M d = L (d R(t) + n R(t-1)), with both sides divided by
    gcd(L, M d).
    """
    p = len(nodes)
    sigma = table.sigma
    if len(sigma) != p + 1 or sigma[0] != 1:
        _verify_fail(f"sigma is not a monic row of {p + 1} entries")
    signed = Polynomial(tuple(sigma[t] if t % 2 == 0 else -sigma[t]
                              for t in range(p, -1, -1)))
    _verify_residual(signed, nodes, [0] * p, "sigma polynomial")
    if deflated is None:
        return
    if len(deflated) != p:
        _verify_fail(f"{len(deflated)} deflated rows for {p} nodes")
    sigma_den, sigma = _over_common_denominator(sigma)
    for i, (a, row) in enumerate(zip(nodes, deflated)):
        if len(row) != p:
            _verify_fail(f"deflated row {i} has {len(row)} entries, not {p}")
        # sigma(t) * scale = lead * D_i(t) + trail * D_i(t-1)
        row_den, row = _over_common_denominator(row)
        g = math.gcd(sigma_den, row_den * a.denominator)
        scale = row_den * a.denominator // g
        lead, trail = (sigma_den // g) * a.denominator, (sigma_den // g) * a.numerator
        padded = (0, *row, 0)
        for t in range(p + 1):
            if sigma[t] * scale != lead * padded[t + 1] + trail * padded[t]:
                _verify_fail(f"deflated row {i} times (x - {a}) misses sigma({t})")


def _over_common_denominator(row) -> tuple:
    """(L, ints) with L the lcm of the exact row's denominators and ints = L * row."""
    den = math.lcm(*(x.denominator for x in row))
    return den, [x.numerator * (den // x.denominator) for x in row]


# ---------------------------------------------------------------------------
# commands: each returns (payload, exit_code)


def cmd_interpolate(problem: ProblemInput, verify: bool = False) -> tuple:
    nodes = _node_set(problem)
    values = _value_list(problem, nodes)
    poly = interpolate(nodes, values)
    payload = {
        "coefficients": _render_vector(poly.coeffs, problem),
        "degree": poly.degree,
    }
    if verify:
        _verify_interpolation(nodes, values, poly)
        payload["verified"] = True
    return payload, EXIT_OK


def cmd_solve(problem: ProblemInput, verify: bool = False) -> tuple:
    nodes = _node_set(problem)
    values = _value_list(problem, nodes)
    n = _dimension(problem.n if problem.n is not None else len(nodes))

    if len(nodes) > n:
        result = solve_overdetermined(nodes, values, n)
        if not result.consistent:
            payload = {
                "inconsistent_at": result.inconsistent_at,
                "lhs": _render(result.lhs, problem),
                "rhs": _render(result.rhs, problem),
            }
            return payload, EXIT_INCONSISTENT
        if verify:
            _verify_residual(Polynomial(result.solution), nodes, values, "solution")
        payload = {
            "particular": _render_vector(result.solution, problem),
            "kernel_basis": [],
        }
        if verify:
            payload["verified"] = True
        return payload, EXIT_OK

    space = solve_general(nodes, values, n)
    payload = {
        "particular": _render_vector(space.particular, problem),
        "kernel_basis": [_render_vector(v, problem) for v in space.basis.vectors],
    }
    if verify:
        _verify_residual(Polynomial(space.particular), nodes, values, "particular solution")
        _verify_basis(nodes, space.basis, n)
        payload["verified"] = True
    return payload, EXIT_OK


def cmd_kernel(problem: ProblemInput, verify: bool = False) -> tuple:
    nodes = _node_set(problem)
    if problem.n is None:
        raise CliError("kernel needs the ambient dimension --n", EXIT_PARSE)
    n = _dimension(problem.n)
    if len(nodes) > n:
        raise CliError(
            f"matrix with {len(nodes)} rows and {n} columns has a trivial kernel; "
            'use "vandersolve solve" instead', EXIT_INVALID)
    basis = kernel_basis(nodes, n)
    payload = {
        "dimension": basis.dimension,
        "kernel_basis": [_render_vector(v, problem) for v in basis.vectors],
    }
    if verify:
        _verify_basis(nodes, basis, n)
        payload["verified"] = True
    return payload, EXIT_OK


def cmd_sigma(problem: ProblemInput, deflated: bool = False, verify: bool = False) -> tuple:
    nodes = _node_set(problem)
    table = compute_sigma(nodes)
    rows = None
    if deflated:
        table = deflate_all(table)
        rows = table.deflated
    payload = {"sigma": _render_vector(table.sigma, problem)}
    if rows is not None:
        payload["deflated"] = [_render_vector(r, problem) for r in rows]
    if verify:
        _verify_sigma(nodes, table, rows)
        payload["verified"] = True
    return payload, EXIT_OK


def cmd_bench(sizes, repetitions: int) -> tuple:
    from . import bench  # numpy stays out of the exact lanes

    try:
        config = bench.BenchConfig(sizes=tuple(sizes), repetitions=repetitions)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_INVALID) from exc
    reports = bench.run_benchmark(config)
    payload = {}
    for name in ("closed_form", "gaussian"):
        report = reports[name]
        payload[name] = {
            "sizes": list(report.sizes),
            "times": list(report.times),
            "op_counts": list(report.op_counts),
            "fit": report.fit,
        }
    return payload, EXIT_OK


# ---------------------------------------------------------------------------
# rendering and dispatch


def _pretty_bench(payload: dict) -> str:
    lines = []
    header = f"{'p':>8}  {'closed ops':>14}  {'closed s':>10}  {'gauss ops':>14}  {'gauss s':>10}"
    lines.append(header)
    lines.append("-" * len(header))
    closed, gauss = payload["closed_form"], payload["gaussian"]
    for i, p in enumerate(closed["sizes"]):
        lines.append(
            f"{p:>8}  {closed['op_counts'][i]:>14}  {closed['times'][i]:>10.4f}"
            f"  {gauss['op_counts'][i]:>14}  {gauss['times'][i]:>10.4f}")
    lines.append(f"log-log op-count slope: closed form {closed['fit']:.3f}, "
                 f"gaussian {gauss['fit']:.3f}")
    return "\n".join(lines)


def _pretty(payload: dict) -> str:
    if "closed_form" in payload and "gaussian" in payload:
        return _pretty_bench(payload)
    lines = []
    width = max(len(k) for k in payload)
    for key, value in payload.items():
        if isinstance(value, list) and value and isinstance(value[0], list):
            lines.append(f"{key:<{width}}")
            for row in value:
                lines.append("  " + ", ".join(str(x) for x in row))
        elif isinstance(value, list):
            lines.append(f"{key:<{width}}  " + ", ".join(str(x) for x in value))
        else:
            lines.append(f"{key:<{width}}  {value}")
    return "\n".join(lines)


def _emit(payload: dict, args) -> None:
    if getattr(args, "pretty", False):
        text = _pretty(payload)
    else:
        text = json.dumps(payload, separators=(",", ":"), ensure_ascii=False)
    out = getattr(args, "out", None)
    if not out:
        print(text)
        sys.stdout.flush()  # a closed pipe raises here, inside main, not at exit
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc}", EXIT_PARSE) from exc


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing never changes it."""
    parser = _ArgumentParser(
        prog="vandersolve",
        description="Closed-form Vandermonde solving: interpolation, "
                    "system solving, kernel bases and symmetric coefficients.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--nodes", help="comma-separated abscissae, e.g. 1,3/2,-2")
    common.add_argument("--values", help="comma-separated right-hand side")
    common.add_argument("--csv", help="CSV file: node[,value] per row, header optional")
    common.add_argument("--json", help='JSON file: {"nodes": [...], "values": [...], "n": ...}')
    common.add_argument("--float", action="store_true",
                        help="render results as correctly rounded doubles")
    common.add_argument("--verify", action="store_true",
                        help="re-check the result: residuals at every node, "
                             "certificates, an elimination cross-check")
    common.add_argument("--pretty", action="store_true", help="table output instead of JSON")
    common.add_argument("--out", help="write the output to a file instead of stdout")

    p_int = sub.add_parser("interpolate", parents=[common],
                           help="Lagrange interpolation polynomial")
    p_int.set_defaults(n=None)

    p_solve = sub.add_parser("solve", parents=[common],
                             help="solve the p x n system (square, wide or tall)")
    p_solve.add_argument("--n", type=int, help="number of unknowns (default: node count)")

    p_ker = sub.add_parser("kernel", parents=[common],
                           help="kernel basis of the p x n matrix")
    p_ker.add_argument("--n", type=int, help="number of columns")

    p_sig = sub.add_parser("sigma", parents=[common],
                           help="monomial coefficients of the node set")
    p_sig.add_argument("--deflated", action="store_true",
                       help="include every single-node-removed row")
    p_sig.set_defaults(n=None)

    p_bench = sub.add_parser("bench", help="closed form vs Gaussian elimination, float lane")
    p_bench.add_argument("--sizes", default="256,512,1024",
                         help="comma-separated problem sizes (default 256,512,1024)")
    p_bench.add_argument("--reps", type=int, default=5,
                         help="timing repetitions per size (default 5)")
    p_bench.add_argument("--pretty", action="store_true")
    p_bench.add_argument("--out")
    return parser


def _dispatch(args) -> tuple:
    if args.command == "bench":
        try:
            sizes = [int(s) for s in _split_flag(args.sizes)]
        except ValueError as exc:
            raise CliError(f"bad size list {args.sizes!r}", EXIT_PARSE) from exc
        return cmd_bench(sizes, args.reps)

    problem = _load_problem(args)
    if args.command == "interpolate":
        return cmd_interpolate(problem, verify=args.verify)
    if args.command == "solve":
        return cmd_solve(problem, verify=args.verify)
    if args.command == "kernel":
        return cmd_kernel(problem, verify=args.verify)
    if args.command == "sigma":
        return cmd_sigma(problem, deflated=args.deflated, verify=args.verify)
    raise CliError(f"unknown command {args.command!r}", EXIT_PARSE)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        payload, code = _dispatch(args)
        _emit(payload, args)
    except BrokenPipeError:
        # The reader closed stdout early (`| head`).  Point stdout at devnull
        # so the interpreter's flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PARSE
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except ScalarParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except DuplicateNodeError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID
    except (DimensionMismatchError, OverdeterminedInputError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID
    return code


if __name__ == "__main__":
    sys.exit(main())
