"""Command-line front end: interpolate, solve, kernel, sigma, bench.

Scalars arrive as "p/q" or decimal literals (inline flags, CSV or JSON
files); results leave as compact JSON on stdout with stable key order, or
as an aligned table with --pretty.  `main` runs four stages, registered
per subcommand in `_build_parser`: parse (every literal, read exactly,
into one exact problem), solve (the exact payload), check (--verify) and
render (JSON, or the subcommand's table under --pretty).  Results are
rendered once, at output: as exact "p" or "p/q" strings, or under
--float as their correctly rounded doubles.

--verify checks the exact payload, the very values that get rendered,
before rendering: it re-evaluates every solution at every node, proves a
kernel basis from its first vector, which must vanish at every node with
p + 1 leading entries ending in a 1 (so it is prod(x - a_i)), and each
later vector k equal to it shifted by k places, counts a reported
dimension or degree again from the vectors or coefficients,
cross-checks `interpolate` against exact Gaussian elimination, and
checks `sigma` by a quadratic certificate with no node-count limit of
its own: the signed sigma row is a monic polynomial that vanishes at
every node.  Under --deflated the rows prove that instead: each row
times x - a_i must give the sigma polynomial back, checked in ints over
one common denominator of sigma and every row, so a_i is a root.  A
`solve` verdict of inconsistency (exit 3) is checked too: the unique
fit of the first n equations must first miss the equation it names, by
the value it names.

One size budget, MAX_ENTRIES, bounds what a run may build: `solve` and
`kernel` refuse an n whose result would hold more entries, `sigma
--deflated` a node count whose p x p rows would, and `bench` a size
whose n x n matrix would; `bench` also refuses a --reps past MAX_REPS.
All exit 2 in the parse stage.  An error message cuts any literal it
quotes to 40 characters.

Exit codes: 0 success, 1 usage or parse error, missing input, unwritable
--out, stdout closed early or a failed stdout write (one "error: cannot
write stdout" line), 2 invalid problem (duplicate nodes, dimension
mismatch, n < 1, an n, a `sigma --deflated` node count or a bench size
past the size budget, a --reps past MAX_REPS, a --float result too
large for a double), 3 inconsistent tall system (p > n and no
solution), 4 --verify mismatch, which would mean a bug with or without
--float.
"""

import argparse
import csv
import functools
import json
import os
import re
import sys
from dataclasses import dataclass

from . import oracle
from .field import LITERAL, ScalarParseError, exact_str, over_common_denominator, parse_scalar
from .kernel import InconsistentSystemError, kernel_basis, solve_general
from .poly import Polynomial, first_miss
from .symfuncs import NodeSet, ascending, compute_sigma, deflate_all, normalized
from .vandermonde import interpolate

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_INCONSISTENT = 3
EXIT_VERIFY = 4

# The most result entries (solve, kernel, sigma --deflated) or matrix entries
# (bench) one run may build; a larger request exits 2 before anything is built.
MAX_ENTRIES = 10**7
# The most timing repetitions per size that `bench` may run.
MAX_REPS = 1000

# Payload keys that hold exact results, rendered by `_emit`.
EXACT_KEYS = frozenset(
    ("coefficients", "particular", "kernel_basis", "sigma", "deflated", "lhs", "rhs"))


class CliError(Exception):
    """Carries the message and the contract exit code."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


_LONG_WORD = re.compile(r"\S{41,}")


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 1 (parse error); argparse's own 2 means an invalid problem here.

    Options must be spelled out: an abbreviation such as `--n` for `--nodes`
    is an unrecognized argument.
    """

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        # Each parser reports its own leftovers, so a subcommand's unknown
        # option comes under the subcommand's usage line.
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras

    def error(self, message):
        self.print_usage(sys.stderr)
        # argparse quotes a rejected literal whole: cut each word to 40
        # characters, as parse_scalar does
        raise CliError(_cut_words(message), EXIT_PARSE)


def _cut_words(message: str) -> str:
    """Each word of the message cut to 40 characters, as parse_scalar cuts its literal."""
    return _LONG_WORD.sub(lambda m: m.group()[:40] + "...", message)


@dataclass
class Problem:
    """One parsed problem: the exact node set, values and ambient dimension."""

    nodes: NodeSet
    values: list | None = None
    n: int | None = None


def _dimension(n: int, p: int) -> int:
    """Check the ambient dimension of solve and kernel (--n or the file's "n") for size.

    The result holds at most n * max(n - p + 1, 1) entries: the
    particular solution and max(n - p, 0) kernel vectors of n entries.
    n < 1 passes here: `kernel_basis` refuses it in the solve stage.
    """
    if n * max(n - p + 1, 1) > MAX_ENTRIES:
        raise CliError(f"n is too large: the result would pass {MAX_ENTRIES} entries "
                       f"(n * max(n - p + 1, 1) with p = {p})", EXIT_INVALID)
    return n


# ---------------------------------------------------------------------------
# parse stage


def _file_error(verb: str, path: str, exc: Exception) -> CliError:
    """"cannot read PATH: reason" (or write), naming the path once.

    An OSError's own text repeats the path, so only its strerror is kept.
    A path longer than 200 characters is cut to its first and last 80.
    """
    if len(path) > 200:
        path = f"{path[:80]}…{path[-80:]}"
    reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
    return CliError(f"cannot {verb} {path}: {reason}", EXIT_PARSE)


def _read_csv(path: str) -> tuple:
    """CSV with a node column and an optional value column; header optional.

    The first row is a header only when none of its cells starts like a
    scalar (`field.LITERAL`), so a malformed number there, such as "1/0"
    or "1_000", is a parse error, not a header.
    A UTF-8 byte-order mark (Excel's "CSV UTF-8") is skipped.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = [row for row in csv.reader(fh) if any(cell.strip() for cell in row)]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:  # csv.Error: a cell past its size limit
        raise _file_error("read", path, exc) from exc
    if not rows:
        raise CliError(f"{path} holds no data rows", EXIT_PARSE)
    for sep, name in ((";", "';'"), ("\t", "a tab")):
        if all(len(row) == 1 and sep in row[0] for row in rows):
            raise CliError(f"{path} separates its cells with {name}; "
                           "vandersolve reads comma-separated CSV", EXIT_PARSE)
    if not any(LITERAL.match(cell.strip()) for cell in rows[0]):
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
            data = json.load(fh, parse_float=str)  # each number as written, not as a double
    except (OSError, UnicodeDecodeError) as exc:
        raise _file_error("read", path, exc) from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}", EXIT_PARSE) from exc
    except ValueError as exc:  # int() refuses a literal past the digit limit
        raise CliError(f"{path} is not valid JSON: an integer has more than "
                       f"{sys.get_int_max_str_digits()} digits", EXIT_PARSE) from exc
    except RecursionError:
        raise CliError(f"{path} is not valid JSON: nested too deeply", EXIT_PARSE) from None
    if not isinstance(data, dict) or "nodes" not in data:
        raise CliError(f'{path} must be an object with a "nodes" list', EXIT_PARSE)
    if not isinstance(data["nodes"], list):
        raise CliError(f'"nodes" in {path} must be a list', EXIT_PARSE)
    if data.get("values") is not None and not isinstance(data["values"], list):
        raise CliError(f'"values" in {path} must be a list', EXIT_PARSE)
    nodes = [str(x) for x in data["nodes"]]
    values = [str(x) for x in data["values"]] if data.get("values") is not None else None
    n = data.get("n")
    if n is not None and (isinstance(n, bool) or not isinstance(n, int)):
        raise CliError(f'"n" in {path} must be an integer', EXIT_PARSE)
    return nodes, values, n


def _split_flag(text: str) -> list:
    items = [part.strip() for part in text.split(",")]
    if any(not part for part in items):
        raise CliError(f"empty entry in list {text[:40]!r}", EXIT_PARSE)
    return items


def _parse_problem(args) -> Problem:
    """The parse stage of interpolate, solve, kernel and sigma, in the order its errors win.

    interpolate and solve take one value per node; solve and kernel take an n.
    """
    rhs = args.command in ("interpolate", "solve")
    if not rhs and args.values is not None:
        raise CliError(f"{args.command} takes no values", EXIT_PARSE)
    sources = sum(x is not None for x in (args.nodes, args.csv, args.json))
    if sources == 0:
        raise CliError("no input: pass --nodes, --csv or --json", EXIT_PARSE)
    if args.nodes is not None and sources > 1:
        raise CliError("--nodes conflicts with --csv/--json", EXIT_PARSE)
    if args.csv is not None and args.json is not None:
        raise CliError("--csv conflicts with --json", EXIT_PARSE)

    values, n = None, None
    if args.nodes is not None:
        nodes = _split_flag(args.nodes)
    elif args.csv is not None:
        nodes, values = _read_csv(args.csv)
    else:
        nodes, values, n = _read_json(args.json)
    # --values overrides any source, --n the file's "n".
    if args.values is not None:
        values = _split_flag(args.values)
    if getattr(args, "n", None) is not None:
        n = args.n
    nodes = NodeSet(tuple(parse_scalar(t) for t in nodes))
    if rhs and values is None:
        raise CliError("this command needs values (--values, CSV or JSON)", EXIT_PARSE)
    if rhs and len(values) != len(nodes):
        raise CliError(f"{len(nodes)} nodes but {len(values)} values", EXIT_INVALID)
    values = [parse_scalar(t) for t in values] if rhs else None
    if getattr(args, "deflated", False) and len(nodes) ** 2 > MAX_ENTRIES:
        raise CliError(f"too many nodes for --deflated: {len(nodes)} rows of {len(nodes)} "
                       f"entries would pass {MAX_ENTRIES} entries", EXIT_INVALID)
    if not hasattr(args, "n"):  # interpolate and sigma have no ambient dimension
        return Problem(nodes, values)
    if n is None and args.command == "kernel":
        raise CliError("kernel needs the ambient dimension --n", EXIT_PARSE)
    return Problem(nodes, values, _dimension(len(nodes) if n is None else n, len(nodes)))


def _parse_sizes(args) -> list:
    """The parse stage of bench: each size's matrix within MAX_ENTRIES, --reps within MAX_REPS."""
    try:
        sizes = [int(s) for s in _split_flag(args.sizes)]
    except ValueError as exc:
        raise CliError(f"bad size list {args.sizes[:40]!r}", EXIT_PARSE) from exc
    if max(sizes) ** 2 > MAX_ENTRIES:
        raise CliError(_cut_words(f"size {max(sizes)} is too large: its matrix would pass "
                                  f"{MAX_ENTRIES} entries"), EXIT_INVALID)
    if args.reps > MAX_REPS:
        raise CliError(f"--reps is too large: at most {MAX_REPS} timing repetitions per size",
                       EXIT_INVALID)
    return sizes


# ---------------------------------------------------------------------------
# check stage (--verify), on the exact payload; a failure here means a bug in the library


def _verify_fail(detail: str):
    raise CliError(f"verification failed: {detail}", EXIT_VERIFY)


def _verify_residual(poly, nodes, values, what: str):
    """The polynomial must take its value at every node."""
    miss = first_miss(poly, nodes, values)
    if miss is not None:
        _verify_fail(f"{what} misses its value at node {exact_str(nodes[miss[0]])}")


def _verify_basis(problem: Problem, payload: dict):
    """kernel: max(n - p, 0) vectors, the first prod(x - a_i) and vector k it shifted by k.

    The first has p + 1 leading entries ending in a 1 and vanishes at the
    p distinct nodes, so it is the monic prod(x - a_i); the shifts' trailing
    ones form an echelon pattern, so they are independent and span the kernel.
    """
    nodes, vectors, n = problem.nodes, payload["kernel_basis"], problem.n
    p = len(nodes)
    if len(vectors) != max(n - p, 0):
        _verify_fail("wrong kernel dimension")
    if payload.get("dimension", len(vectors)) != len(vectors):  # kernel reports it
        _verify_fail("dimension does not count the kernel vectors")
    if not vectors:
        return
    first = tuple(vectors[0])
    if len(first) != n or first[p] != 1 or any(x != 0 for x in first[p + 1:]):
        _verify_fail("kernel vector 0 breaks the echelon pattern")
    _verify_residual(Polynomial(first), nodes, [0] * p, "kernel vector 0")
    for k, vec in enumerate(vectors):
        if tuple(vec) != (0,) * k + first[:n - k]:
            _verify_fail(f"kernel vector {k} breaks the echelon pattern")


def _verify_solution(problem: Problem, payload: dict):
    """solve: the particular solution has n entries and takes every value; its basis passes."""
    if "inconsistent_at" in payload:
        return _verify_verdict(problem, payload)
    particular = payload["particular"]
    if len(particular) != problem.n:
        _verify_fail(f"solution has {len(particular)} entries, not {problem.n}")
    _verify_residual(Polynomial(particular), problem.nodes, problem.values, "solution")
    _verify_basis(problem, payload)


def _verify_verdict(problem: Problem, payload: dict):
    """solve, exit 3: the fit of the first n equations first misses equation `inconsistent_at`.

    The fit has at most n coefficients and takes its value at the first n
    nodes, so it is the unique polynomial of degree below n through them:
    the only candidate solution.  The verdict must name the first
    equation it misses, the value it takes there and the value asked for.
    """
    nodes, values, n = problem.nodes, problem.values, problem.n
    head = NodeSet(nodes[:n])
    fit = interpolate(head, values[:n])
    if len(fit.coeffs) > n:
        _verify_fail(f"the fit of the first {n} equations has more than {n} coefficients")
    _verify_residual(fit, head, values[:n], "the fit of the first equations")
    row = payload["inconsistent_at"]
    if first_miss(fit, nodes, values, start=n) != (row, payload["lhs"]) \
            or payload["rhs"] != values[row]:
        _verify_fail("the verdict is not the first equation the fit misses")


def _verify_interpolation(problem: Problem, payload: dict):
    """interpolate: the degree, every residual, and the coefficients of exact elimination."""
    nodes, values, coeffs = problem.nodes, problem.values, payload["coefficients"]
    poly = Polynomial(coeffs)
    if payload["degree"] != poly.degree:
        _verify_fail("degree is not the index of the last nonzero coefficient")
    _verify_residual(poly, nodes, values, "interpolant")
    padded = list(coeffs) + [0] * (len(nodes) - len(coeffs))
    if padded != oracle.solve_by_elimination(nodes, values):
        _verify_fail("coefficients disagree with the elimination oracle")


def _verify_sigma(problem: Problem, payload: dict):
    """sigma: a quadratic certificate for sigma and every deflated row the payload holds.

    sigma has p + 1 entries and sigma(0) = 1, so
    P(x) = sum_t (-1)^t sigma(t) x^(p-t) is monic of degree p.  Without
    deflated rows, P must vanish at the p distinct nodes, so it is
    prod(x - a_i).  With them, row i has p entries and
    (x - a_i) * D_i(x) = P(x) coefficientwise, that is
    sigma(t) = D_i(t) + a_i * D_i(t-1) with D_i(-1) = D_i(p) = 0.  That
    makes each a_i a root of P, which proves sigma, and division by
    x - a_i is unique, which proves the row.  The identity runs in ints:
    sigma and every row are lifted over one common denominator, to S and
    R_i, and with (n, d) the pair of a_i it reads d (S(t) - R_i(t)) = n R_i(t-1).
    """
    nodes, sigma = problem.nodes, payload["sigma"]
    p = len(nodes)
    if len(sigma) != p + 1 or sigma[0] != 1:
        _verify_fail(f"sigma is not a monic row of {p + 1} entries")
    deflated = payload.get("deflated")
    if deflated is None:
        _verify_residual(Polynomial(ascending(sigma)), nodes, [0] * p, "sigma polynomial")
        return
    if len(deflated) != p:
        _verify_fail(f"{len(deflated)} deflated rows for {p} nodes")
    for i, row in enumerate(deflated):
        if len(row) != p:
            _verify_fail(f"deflated row {i} has {len(row)} entries, not {p}")
    _, ints = over_common_denominator([*sigma, *(x for row in deflated for x in row)])
    for i, (a, (n, d)) in enumerate(zip(nodes, nodes.pairs)):
        padded = (0, *ints[(i + 1) * p + 1:(i + 2) * p + 1], 0)
        for t in range(p + 1):
            if d * (ints[t] - padded[t + 1]) != n * padded[t]:
                _verify_fail(f"deflated row {i} times (x - {exact_str(a)}) misses sigma({t})")


# ---------------------------------------------------------------------------
# solve stage: each command returns (exact payload, exit code)


def cmd_interpolate(problem: Problem, args) -> tuple:
    poly = interpolate(problem.nodes, problem.values)
    return {"coefficients": poly.coeffs, "degree": poly.degree}, EXIT_OK


def cmd_solve(problem: Problem, args) -> tuple:
    try:
        space = solve_general(problem.nodes, problem.values, problem.n)
    except InconsistentSystemError as err:
        return {"inconsistent_at": err.row, "lhs": err.lhs, "rhs": err.rhs}, EXIT_INCONSISTENT
    return {"particular": space.particular, "kernel_basis": space.basis.vectors}, EXIT_OK


def cmd_kernel(problem: Problem, args) -> tuple:
    nodes, n = problem.nodes, problem.n
    basis = kernel_basis(nodes, n)  # refuses n < 1 first
    if len(nodes) > n:
        raise CliError(
            f"matrix with {len(nodes)} rows and {n} columns has a trivial kernel; "
            'use "vandersolve solve" instead', EXIT_INVALID)
    return {"dimension": basis.dimension, "kernel_basis": basis.vectors}, EXIT_OK


def cmd_sigma(problem: Problem, args) -> tuple:
    pairs = problem.nodes.pairs
    coeffs = compute_sigma(pairs)
    payload = {"sigma": normalized(coeffs)}
    if args.deflated:
        payload["deflated"] = tuple(map(normalized, deflate_all(pairs, coeffs)))
    return payload, EXIT_OK


def cmd_bench(sizes, args) -> tuple:
    from . import bench  # numpy stays out of the exact lanes

    return bench.run_benchmark(sizes, args.reps), EXIT_OK


# ---------------------------------------------------------------------------
# render stage, argument parser, main


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


def _render(value, as_float: bool):
    """An exact result, or a vector or matrix of them, as strings or correctly rounded doubles."""
    if isinstance(value, (tuple, list)):
        return [_render(x, as_float) for x in value]
    if not as_float:
        return exact_str(value)
    try:
        return float(value)
    except OverflowError:
        # The exact value may have hundreds of digits: name the problem, not the value.
        raise CliError("a result overflows a double and is not finite as a float; "
                       "rerun without --float", EXIT_INVALID) from None


def _emit(payload: dict, args) -> None:
    """Render the exact results of the payload, then write it as JSON or a table."""
    as_float = getattr(args, "float", False)
    payload = {key: _render(value, as_float) if key in EXACT_KEYS else value
               for key, value in payload.items()}
    if getattr(args, "pretty", False):
        text = args.table(payload)
    else:
        text = json.dumps(payload, separators=(",", ":"), ensure_ascii=False)
    out = getattr(args, "out", None)
    if not out:
        try:
            print(text)
            sys.stdout.flush()  # a failed write raises here, inside main, not at exit
        except OSError as exc:
            # Point stdout at devnull so the interpreter's flush at exit cannot raise again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            if isinstance(exc, BrokenPipeError):  # the reader closed stdout early (`| head`)
                raise
            raise _file_error("write", "stdout", exc) from exc
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    except OSError as exc:
        raise _file_error("write", out, exc) from exc


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing never changes it."""
    parser = _ArgumentParser(
        prog="vandersolve",
        description="Closed-form Vandermonde solving: interpolation, "
                    "system solving, kernel bases and symmetric coefficients.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = _ArgumentParser(add_help=False)
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
    common.set_defaults(parse=_parse_problem, table=_pretty)

    p_int = sub.add_parser("interpolate", parents=[common],
                           help="Lagrange interpolation polynomial")
    p_int.set_defaults(solve=cmd_interpolate, check=_verify_interpolation)

    p_solve = sub.add_parser("solve", parents=[common],
                             help="solve the p x n system (square, wide or tall)")
    p_solve.add_argument("--n", type=int, help="number of unknowns (default: node count)")
    p_solve.set_defaults(solve=cmd_solve, check=_verify_solution)

    p_ker = sub.add_parser("kernel", parents=[common],
                           help="kernel basis of the p x n matrix")
    p_ker.add_argument("--n", type=int, help="number of columns")
    p_ker.set_defaults(solve=cmd_kernel, check=_verify_basis)

    p_sig = sub.add_parser("sigma", parents=[common],
                           help="monomial coefficients of the node set")
    p_sig.add_argument("--deflated", action="store_true",
                       help="include every single-node-removed row")
    p_sig.set_defaults(solve=cmd_sigma, check=_verify_sigma)

    p_bench = sub.add_parser("bench", help="closed form vs Gaussian elimination, float lane")
    p_bench.add_argument("--sizes", default="256,512,1024",
                         help="comma-separated problem sizes (default 256,512,1024)")
    p_bench.add_argument("--reps", type=int, default=5,
                         help="timing repetitions per size (default 5)")
    p_bench.add_argument("--pretty", action="store_true")
    p_bench.add_argument("--out")
    p_bench.set_defaults(parse=_parse_sizes, solve=cmd_bench, table=_pretty_bench)
    return parser


def main(argv=None) -> int:
    """Parse one problem, solve it, check the exact payload under --verify, render it."""
    try:
        args = _build_parser().parse_args(argv)
        problem = args.parse(args)
        payload, code = args.solve(problem, args)
        if getattr(args, "verify", False):  # bench has no --verify
            args.check(problem, payload)
            payload["verified"] = True
        _emit(payload, args)
    except BrokenPipeError:  # stdout is at devnull already
        return EXIT_PARSE
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except ScalarParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as err:  # an invalid problem: duplicate nodes, mismatched sizes, ...
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID
    return code
