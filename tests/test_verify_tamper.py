"""--verify against tampered payloads: a wrong answer never passes the check.

Each example draws one node set and poses on it a problem for
interpolate, solve (wide, tall and consistent, tall and inconsistent),
kernel and sigma [--deflated].  For each it computes the exact payload
with the command's solve stage, checks it against the oracles, then
applies every tamper in turn (an entry changed, appended or dropped, a
row dropped or repeated, a multiple of prod(x - a_i) added to the
interpolant, a reported degree, dimension or field of an inconsistency
verdict shifted) and runs the command's check.  The check must exit 4,
or the tampered payload must still be a correct answer by the oracles: a
kernel vector or a particular solution may move inside the solution
set.  One example in eight carries 10**4300 as a node and as a value, so
its results pass 4300 digits; its untampered payloads are checked and
rendered through `exact_str`'s Decimal path.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings

import reference
from helpers import mat_vec, vandermonde_rows
from vandersolve import cli, oracle
from vandersolve.poly import Polynomial
from vandersolve.symfuncs import NodeSet, poly_from_roots

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)
shifts = st.integers(1, 9) | st.integers(-9, -1)
deltas = st.builds(Fraction, shifts, st.integers(1, 5))
HUGE = Fraction(10**4300)  # 4301 digits, one past `str`'s default limit
NESTED = ("kernel_basis", "deflated")
# Single values a payload reports; the counts and the row index shift by an int.
SCALARS = {"degree": shifts, "dimension": shifts, "inconsistent_at": shifts,
           "lhs": deltas, "rhs": deltas}


def _problems(data):
    """A problem for each command on one drawn node set, as (argv, `cli.Problem`, exit code)."""
    nodes = data.draw(st.lists(rationals, min_size=1, max_size=6, unique=True))
    p, huge = len(nodes), data.draw(st.integers(0, 7)) == 0
    values = data.draw(st.lists(rationals, min_size=p, max_size=p))
    if huge:
        values[-1] = HUGE
    ns = NodeSet(tuple(nodes))
    yield ["interpolate"], cli.Problem(ns, values), cli.EXIT_OK
    yield ["solve"], cli.Problem(ns, values, p + data.draw(st.integers(1, 3))), cli.EXIT_OK
    if p > 1:  # tall and consistent: a polynomial of degree below n
        n = data.draw(st.integers(1, p - 1))
        poly = Polynomial(tuple(data.draw(st.lists(rationals, min_size=n, max_size=n))))
        tall = [HUGE if huge else poly.evaluate(a) for a in nodes]
        yield ["solve"], cli.Problem(ns, tall, n), cli.EXIT_OK
        # tall and inconsistent: value r >= n moved off the polynomial
        r = data.draw(st.integers(n, p - 1))
        tall[r] += data.draw(deltas)
        yield ["solve"], cli.Problem(ns, tall, n), cli.EXIT_INCONSISTENT
    if huge:
        ns = NodeSet((HUGE,) + ns.nodes[1:])
    yield ["kernel"], cli.Problem(ns, None, p + data.draw(st.integers(1, 3))), cli.EXIT_OK
    yield ["sigma"], cli.Problem(ns), cli.EXIT_OK
    yield ["sigma", "--deflated"], cli.Problem(ns), cli.EXIT_OK


def _moves(payload):
    """(key, move) for every tamper that applies to the payload's exact results."""
    for key in ("coefficients", "particular", "sigma"):
        if key in payload:
            yield from ((key, move) for move in ("change", "append", "drop"))
    for key in NESTED:
        if payload.get(key):  # a tall solve has no kernel vectors to tamper with
            yield from ((key, move)
                        for move in ("change", "append", "drop", "drop-row", "repeat-row"))
    if "coefficients" in payload:
        yield "coefficients", "root-product"
    yield from ((key, "shift") for key in SCALARS if key in payload)


def _tamper(data, payload, key, move, nodes) -> dict:
    """The payload with the result under `key` changed by `move`, at drawn places."""
    if move == "shift":
        return {**payload, key: payload[key] + data.draw(SCALARS[key])}
    rows = [list(row) for row in payload[key]] if key in NESTED else [list(payload[key])]
    r = data.draw(st.integers(0, len(rows) - 1))
    if move == "drop-row":
        rows.pop(r)
    elif move == "repeat-row" and len(rows) > 1:
        rows[r - 1] = rows[r]  # the count stays, two rows coincide
    elif move == "repeat-row":
        rows.append(rows[0])
    elif move == "root-product":
        c, root = data.draw(deltas), poly_from_roots(nodes).coeffs
        padded = rows[0] + [0] * (len(root) - len(rows[0]))
        rows[0] = [x + c * y for x, y in zip(padded, root)]
    elif move == "append":  # a zero pads the row without changing what it evaluates to
        rows[r].append(data.draw(st.just(0) | deltas))
    elif rows[r]:
        i = data.draw(st.integers(0, len(rows[r]) - 1))
        if move == "change":
            rows[r][i] += data.draw(deltas)
        else:
            rows[r].pop(i)
    return {**payload, key: rows if key in NESTED else rows[0]}


def _solves(nodes, values, n, vector) -> bool:
    return len(vector) == n and mat_vec(vandermonde_rows(nodes, n), vector) == list(values)


def _is_kernel_basis(nodes, n, vectors) -> bool:
    dimension = max(n - len(nodes), 0)
    return (len(vectors) == dimension
            and all(_solves(nodes, [0] * len(nodes), n, v) for v in vectors)
            and (dimension == 0 or reference.gaussian_rank(vectors) == dimension))


def _first_miss(nodes, values, n):
    """(row, lhs, rhs) of the first equation from n on that the fit of the first n misses."""
    fit = oracle.solve_by_elimination(nodes[:n], values[:n])
    for r in range(n, len(nodes)):
        lhs = sum(c * nodes[r] ** k for k, c in enumerate(fit))
        if lhs != values[r]:
            return r, lhs, values[r]
    return None


def _is_correct(command, problem, payload) -> bool:
    """Whether the payload answers the problem, by the oracles alone."""
    nodes, p = problem.nodes, len(problem.nodes)
    if command == "interpolate":
        coeffs = list(Polynomial(tuple(payload["coefficients"])).coeffs)
        return (len(coeffs) <= p and payload["degree"] == len(coeffs) - 1
                and coeffs + [0] * (p - len(coeffs))
                == oracle.solve_by_elimination(nodes, problem.values))
    if command == "solve" and "inconsistent_at" in payload:
        verdict = (payload["inconsistent_at"], payload["lhs"], payload["rhs"])
        return verdict == _first_miss(nodes, problem.values, problem.n)
    if command == "solve":
        return (_solves(nodes, problem.values, problem.n, payload["particular"])
                and _is_kernel_basis(nodes, problem.n, payload["kernel_basis"]))
    if command == "kernel":
        return (payload["dimension"] == len(payload["kernel_basis"])
                and _is_kernel_basis(nodes, problem.n, payload["kernel_basis"]))
    if list(payload["sigma"]) != [reference.sigma_bruteforce(nodes, t) for t in range(p + 1)]:
        return False
    rows = payload.get("deflated")
    return rows is None or (len(rows) == p and all(
        list(row) == [reference.sigma_bruteforce(nodes[:i] + nodes[i + 1:], t) for t in range(p)]
        for i, row in enumerate(rows)))


def _same(rendered, exact) -> bool:
    if isinstance(rendered, list):
        return len(rendered) == len(exact) and all(map(_same, rendered, exact))
    return Fraction(rendered) == exact


def _rendered_exactly(payload, args) -> bool:
    """Whether the JSON output reads back, with no digit limit, as the exact payload."""
    out = io.StringIO()
    with redirect_stdout(out):
        cli._emit(payload, args)
    rendered = json.loads(out.getvalue())
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return all(_same(rendered[key], payload[key]) for key in payload if key in cli.EXACT_KEYS)
    finally:
        sys.set_int_max_str_digits(limit)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_verify_exits_four_on_every_wrong_answer(data):
    for argv, problem, expected in _problems(data):
        args = cli._build_parser().parse_args(argv)
        payload, code = args.solve(problem, args)
        assert code == expected
        assert _is_correct(argv[0], problem, payload)
        args.check(problem, payload)
        if any(x == HUGE for x in list(problem.nodes) + list(problem.values or ())):
            assert _rendered_exactly(payload, args)
        for key, move in _moves(payload):
            tampered = _tamper(data, payload, key, move, problem.nodes)
            try:
                args.check(problem, tampered)
            except cli.CliError as err:
                assert err.code == cli.EXIT_VERIFY
            else:
                assert _is_correct(argv[0], problem, tampered), (argv, key, move, tampered)
