"""The benchmark's workloads: seeded request blocks, execution and checks.

A workload is an endless sequence of blocks.  Block k is generated from
the seed and k alone, so the same seed always yields the same requests.
Every block holds the same fixed mix of request templates (operation,
size stratum, flags); the seed only jitters each size inside its stratum,
draws the data and shuffles the order.  That keeps the size distribution
identical from seed to seed, which is what makes medians and the 90th
percentile steady across seeds.

Requests run one at a time in a closed loop.  The program only ever sees
the generated inputs; every output is checked with `certify`, outside the
timed region.
"""

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import certify


@dataclass
class Request:
    rid: int
    op: str
    p: int
    call: tuple          # what `execute` passes to the program
    expect: dict         # what `check` needs
    tags: frozenset = frozenset()


def rational(rng: random.Random) -> Fraction:
    """Small rational: numerator in -30..30, denominator in 1..12."""
    return Fraction(rng.randint(-30, 30), rng.randint(1, 12))


def rational_nodes(rng: random.Random, p: int) -> list:
    seen, nodes = set(), []
    while len(nodes) < p:
        a = rational(rng)
        if a not in seen:
            seen.add(a)
            nodes.append(a)
    return nodes


def integer_grid(rng: random.Random, p: int) -> list:
    """Consecutive integers around zero, ascending, like a sampling grid."""
    start = rng.randint(-8, 8) - p // 2
    return [Fraction(start + i) for i in range(p)]


class Workload:
    name = ""
    trace_blocks = 1  # blocks per phase of the traced run

    def __init__(self, lib, seed: int, workdir: str):
        self.lib = lib
        self.seed = seed
        self.workdir = workdir

    def rng(self, *key) -> random.Random:
        return random.Random(":".join(str(k) for k in (self.name, self.seed) + key))

    def block(self, k: int) -> list:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def execute(self, req: Request):
        raise NotImplementedError

    def check(self, req: Request, out) -> None:
        raise NotImplementedError

    def finish(self, req: Request) -> None:
        """Drop what a request left behind."""

    def reference(self, req: Request, tracer) -> None:
        """Extra reference measurement made in the traced run only."""


# ---------------------------------------------------------------------------
# cli-small: the CLI user's path, in process


# (op, lowest p, highest p, --verify).  Each request draws p uniformly
# from its stratum; neighbouring strata touch, so latency has no wide gaps
# and its quantiles move smoothly from seed to seed.
CLI_TEMPLATES = (
    [("interpolate", p, p + 3, i % 2 == 1) for i, p in enumerate(range(4, 52, 4))]
    + [("solve-square", p, p + 5, i % 2 == 1) for i, p in enumerate(range(6, 42, 6))]
    + [("solve-wide", p, p + 7, i % 2 == 0) for i, p in enumerate(range(4, 44, 8))]
    + [("solve-tall", 8, 19, True), ("solve-tall", 20, 31, False), ("solve-tall", 32, 43, False)]
    + [("solve-inconsistent", 6, 17, False), ("solve-inconsistent", 18, 29, True),
       ("solve-inconsistent", 30, 41, False)]
    + [("kernel", p, p + 11, i % 2 == 1) for i, p in enumerate(range(4, 48, 12))]
    # subset enumeration under --verify is exponential: keep p <= 10 there
    + [("sigma", 4, 7, True), ("sigma", 8, 10, True), ("sigma", 11, 15, False),
       ("sigma", 16, 20, False)]
    + [("bad-literal", 4, 23, False), ("bad-literal", 24, 43, True),
       ("duplicate-node", 4, 40, False)]
)
CLI_PRETTY = {0, 19, 34}  # template indices (interpolate, solve-wide, sigma) run with --pretty
CLI_MODES = ("inline", "json", "csv")
EXPECTED_EXIT = {"solve-inconsistent": 3, "bad-literal": 1, "duplicate-node": 2}
BAD_LITERALS = ("3/x", "1/0", "1..5", "two", "--")
NESTED_KEYS = ("kernel_basis", "deflated")
LIST_KEYS = ("coefficients", "particular", "sigma")


def literal(x: Fraction, rng: random.Random) -> str:
    """p/q or integer; sometimes the exact decimal when one exists."""
    if x.denominator in (2, 4, 5, 8, 10) and rng.random() < 0.25:
        digits = str(abs(x.numerator) * (1000 // x.denominator)).rjust(4, "0")
        return ("-" if x < 0 else "") + digits[:-3] + "." + digits[-3:].rstrip("0")
    return str(x)


def parse_pretty(text: str) -> dict:
    """Read the --pretty table back into the JSON payload's shape."""
    payload, key = {}, None
    for line in text.splitlines():
        if line.startswith("  "):
            payload[key].append([c.strip() for c in line.strip().split(",")])
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key in NESTED_KEYS or key in LIST_KEYS:
            payload[key] = [c.strip() for c in rest.split(",")] if rest else []
        else:
            payload[key] = rest
    return payload


def _fractions(texts) -> list:
    return [Fraction(t) for t in texts]


class CliSmall(Workload):
    name = "cli-small"
    trace_blocks = 5

    def __init__(self, lib, seed, workdir):
        super().__init__(lib, seed, workdir)
        import vandersolve.cli  # noqa: F401  (makes lib.cli available)

    def block(self, k: int) -> list:
        rng = self.rng(k)
        order = list(range(len(CLI_TEMPLATES)))
        rng.shuffle(order)
        return [self._request(rng, k * len(CLI_TEMPLATES) + slot, t)
                for slot, t in enumerate(order)]

    def _request(self, rng, rid: int, template: int) -> Request:
        op, low, high, verify = CLI_TEMPLATES[template]
        p = rng.randint(low, high)
        mode = CLI_MODES[template % len(CLI_MODES)]
        nodes = rational_nodes(rng, p)
        values = [rational(rng) for _ in range(p)]
        n = None
        expect = {"nodes": nodes, "values": values, "exit": EXPECTED_EXIT.get(op, 0)}
        node_text = [literal(a, rng) for a in nodes]
        if op in ("solve-wide", "kernel"):
            n = p + rng.randint(1, 6)
        elif op in ("solve-tall", "solve-inconsistent"):
            n = p - rng.randint(2, min(6, p - 2))
            g = [rational(rng) for _ in range(n)]
            values = [certify.poly_value(g, a) for a in nodes]
            if op == "solve-inconsistent":
                row = rng.randrange(n, p)
                values[row] += 1
                expect["row"] = row
        elif op == "bad-literal":
            node_text[rng.randrange(1, p)] = rng.choice(BAD_LITERALS)
        elif op == "duplicate-node":
            node_text[rng.randrange(p // 2, p)] = str(nodes[rng.randrange(0, p // 2)])
        expect.update(values=values, n=n)
        value_text = [literal(q, rng) for q in values]

        command = op if op in ("interpolate", "kernel", "sigma") else "solve"
        needs_values = command in ("interpolate", "solve")
        argv = [command] + self._inputs(rng, rid, mode, node_text,
                                         value_text if needs_values else None, n)
        if command == "sigma":
            argv.append("--deflated")
        if verify:
            argv.append("--verify")
        pretty = template in CLI_PRETTY
        if pretty:
            argv.append("--pretty")
        out = os.path.join(self.workdir, f"out-{rid}.txt")
        argv += ["--out", out]
        tags = {op, mode, command}
        tags.update(t for t, on in (("verify", verify), ("pretty", pretty),
                                    ("error", expect["exit"] != 0),
                                    ("exit-1-2", expect["exit"] in (1, 2))) if on)
        expect["out"] = out
        return Request(rid, op, p, tuple(argv), expect, frozenset(tags))

    def _inputs(self, rng, rid, mode, nodes, values, n) -> list:
        if mode == "inline":
            args = [f"--nodes={','.join(nodes)}"]
            if values is not None:
                args.append(f"--values={','.join(values)}")
            return args + ([f"--n={n}"] if n is not None else [])
        if mode == "json":
            path = os.path.join(self.workdir, f"in-{rid}.json")
            data = {"nodes": nodes}
            if values is not None:
                data["values"] = values
            if n is not None:
                data["n"] = n
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
            return ["--json", path]
        path = os.path.join(self.workdir, f"in-{rid}.csv")
        rows = [[a] if values is None else [a, q] for a, q in zip(nodes, values or nodes)]
        with open(path, "w", encoding="utf-8") as fh:
            if rng.random() < 0.5:
                fh.write("node\n" if values is None else "node,value\n")
            fh.writelines(",".join(r) + "\n" for r in rows)
        return ["--csv", path] + ([f"--n={n}"] if n is not None else [])

    def warm_up(self) -> None:
        out = os.path.join(self.workdir, "warm-up.txt")
        for argv in (["interpolate", "--nodes=1,2,3", "--values=1,4,9", "--verify"],
                     ["solve", "--nodes=1,2", "--values=1,2", "--n=3", "--verify"],
                     ["kernel", "--nodes=1,2", "--n=4", "--verify", "--pretty"],
                     ["sigma", "--nodes=1,2,3", "--deflated", "--verify"]):
            self.lib.cli.main(argv + ["--out", out])
        os.remove(out)

    def execute(self, req: Request):
        with contextlib.redirect_stderr(io.StringIO()):
            return self.lib.cli.main(list(req.call))

    def check(self, req: Request, code) -> None:
        e = req.expect
        if code != e["exit"]:
            raise certify.Mismatch(f"exit code {code}, expected {e['exit']}")
        if e["exit"] in (1, 2):
            if os.path.exists(e["out"]):
                raise certify.Mismatch("an output file was written for a failed request")
            return
        with open(e["out"], encoding="utf-8") as fh:
            text = fh.read()
        payload = parse_pretty(text) if "pretty" in req.tags else json.loads(text)
        verified = payload.get("verified") in (True, "True")
        if "verify" in req.tags and e["exit"] == 0 and not verified:
            raise certify.Mismatch("--verify did not mark the result verified")
        nodes, values, n = e["nodes"], e["values"], e["n"]
        if req.op == "interpolate":
            coeffs = _fractions(payload["coefficients"])
            if int(payload["degree"]) != len(coeffs) - 1:
                raise certify.Mismatch("degree does not match the coefficients")
            certify.check_interpolant(nodes, values, coeffs)
        elif req.op in ("solve-square", "solve-wide"):
            certify.check_space(nodes, values, n or len(nodes), _fractions(payload["particular"]),
                                [_fractions(v) for v in payload["kernel_basis"]])
        elif req.op == "solve-tall":
            solution = _fractions(payload["particular"])
            if len(solution) != n or payload["kernel_basis"]:
                raise certify.Mismatch("tall solution has the wrong shape")
            certify.check_distinct(nodes)
            certify.check_residual(nodes, values, solution)
        elif req.op == "solve-inconsistent":
            if int(payload["inconsistent_at"]) != e["row"]:
                raise certify.Mismatch(f"inconsistent at {payload['inconsistent_at']}, "
                                       f"expected {e['row']}")
            certify.check_inconsistent(nodes, values, n, e["row"],
                                       Fraction(payload["lhs"]), Fraction(payload["rhs"]))
        elif req.op == "kernel":
            if int(payload["dimension"]) != n - len(nodes):
                raise certify.Mismatch("reported dimension is wrong")
            certify.check_kernel(nodes, n, [_fractions(v) for v in payload["kernel_basis"]])
        elif req.op == "sigma":
            certify.check_sigma(nodes, _fractions(payload["sigma"]))
            certify.check_deflated(nodes, [_fractions(r) for r in payload["deflated"]])
        else:
            raise certify.Mismatch(f"no check for {req.op}")

    def finish(self, req: Request) -> None:
        for path in [req.expect["out"]] + [a for a in req.call
                                           if a.startswith(os.path.join(self.workdir, "in-"))]:
            if os.path.exists(path):
                os.remove(path)


# ---------------------------------------------------------------------------
# exact-large: library calls where the combine step and bit growth dominate


# (op, p, node kind, follow-up requests on the same node set); each node
# set draws its size from p-2..p+2.  Most requests sit at p 64-96 so a run
# holds enough of them; costs are spread so that the median and the 90th
# percentile fall among several requests of similar cost.
EXACT_GROUPS = (
    ("inverse", 12, "rational", 0),
    ("inverse", 28, "integer", 0),
    ("interpolate", 64, "rational", 1),
    ("interpolate", 64, "integer", 1),
    ("interpolate", 68, "rational", 0),
    ("interpolate", 68, "integer", 1),
    ("interpolate", 72, "rational", 1),
    ("interpolate", 76, "integer", 0),
    ("interpolate", 80, "rational", 0),
    ("interpolate", 84, "integer", 0),
    ("solve_general", 64, "rational", 0),
    ("solve_general", 72, "integer", 1),
    ("interpolate", 96, "rational", 0),
    ("interpolate", 112, "rational", 0),
    ("interpolate", 128, "integer", 0),
    ("interpolate", 140, "integer", 0),
    ("interpolate", 152, "integer", 0),
)


class ExactLarge(Workload):
    name = "exact-large"
    trace_blocks = 2

    def block(self, k: int) -> list:
        rng = self.rng(k)
        groups = list(EXACT_GROUPS)
        rng.shuffle(groups)
        requests = []
        for op, base, kind, repeats in groups:
            p = base + rng.randint(-2, 2)
            nodes = self.lib.NodeSet(tuple(
                rational_nodes(rng, p) if kind == "rational" else integer_grid(rng, p)))
            for r in range(repeats + 1):
                rid = k * 1000 + len(requests)
                requests.append(self._request(rng, rid, op, nodes, kind, repeat=r > 0))
        return requests

    def _request(self, rng, rid, op, nodes, kind, repeat) -> Request:
        p = len(nodes)
        values = () if op == "inverse" else tuple(rational(rng) for _ in range(p))
        n = p + rng.randint(1, 8) if op == "solve_general" else None
        tags = {op, kind} | ({"repeat"} if repeat else set())
        return Request(rid, op, p, (nodes, values, n), {}, frozenset(tags))

    def warm_up(self) -> None:
        nodes = self.lib.NodeSet((Fraction(1), Fraction(1, 2), Fraction(-3)))
        self.lib.interpolate(nodes, [Fraction(1), Fraction(2), Fraction(3)])
        self.lib.solve_general(nodes, [Fraction(1), Fraction(2), Fraction(3)], 5)
        self.lib.inverse(nodes)

    def execute(self, req: Request):
        nodes, values, n = req.call
        if req.op == "interpolate":
            return self.lib.interpolate(nodes, list(values))
        if req.op == "solve_general":
            return self.lib.solve_general(nodes, list(values), n)
        return self.lib.inverse(nodes)

    def check(self, req: Request, out) -> None:
        nodes, values, n = req.call
        nodes = list(nodes)
        if req.op == "interpolate":
            certify.check_interpolant(nodes, values, out.coeffs)
        elif req.op == "solve_general":
            certify.check_space(nodes, values, n, out.particular, out.basis.vectors)
        else:
            p = len(nodes)
            if (out.rows, out.cols) != (p, p):
                raise certify.Mismatch(f"inverse is {out.rows} x {out.cols}")
            certify.check_inverse(nodes, [out.entries[i * p:(i + 1) * p] for i in range(p)])


# ---------------------------------------------------------------------------
# float-bench: the paper's complexity lane, no Fraction work


# Evenly spaced size strata, so that quantiles of latency move smoothly;
# each seed draws one size per stratum for the whole run.
CLOSED_SIZES = range(1024, 3073, 128)   # + 0..127, except the largest
GAUSS_SIZES = range(256, 769, 32)       # + 0..31


class FloatBench(Workload):
    name = "float-bench"
    trace_blocks = 2

    def __init__(self, lib, seed, workdir):
        super().__init__(lib, seed, workdir)
        import vandersolve.bench as bench  # numpy stays out of the exact workloads

        from vandersolve.field import OpCounter

        self.bench = bench
        self.op_counter = OpCounter
        rng = self.rng("sizes")
        # the largest size stays fixed, so peak memory does not move with the seed
        self.closed_sizes = [p + rng.randrange(128) for p in CLOSED_SIZES[:-1]] + [CLOSED_SIZES[-1]]
        self.gauss_sizes = [p + rng.randrange(32) for p in GAUSS_SIZES]
        self.inputs = {}
        for p in self.closed_sizes:
            self.inputs["closed", p] = (bench.bench_nodes(p), bench.bench_values(p))
        for p in self.gauss_sizes:
            nodes = bench.bench_nodes(p)
            self.inputs["gauss", p] = (bench.build_matrix_floats(nodes, p), bench.bench_values(p))

    def block(self, k: int) -> list:
        rng = self.rng(k)
        templates = ([("closed", p) for p in self.closed_sizes]
                     + [("gauss", p) for p in self.gauss_sizes])
        rng.shuffle(templates)
        return [Request(k * 100 + i, op, p, (), {}, frozenset({op}))
                for i, (op, p) in enumerate(templates)]

    def warm_up(self) -> None:
        nodes, values = self.bench.bench_nodes(64), self.bench.bench_values(64)
        self.bench.solve_square_floats(nodes, values, self.op_counter())
        self.bench.gaussian_solve_floats(self.bench.build_matrix_floats(nodes, 64), values,
                                         self.op_counter())

    def execute(self, req: Request):
        first, values = self.inputs[req.op, req.p]
        ops = self.op_counter()
        kernel = (self.bench.solve_square_floats if req.op == "closed"
                  else self.bench.gaussian_solve_floats)
        return kernel(first, values, ops), ops

    def check(self, req: Request, out) -> None:
        """Float values overflow at these sizes by design: check counts only."""
        solution, ops = out
        want = (certify.closed_form_ops if req.op == "closed" else certify.gaussian_ops)(req.p)
        got = {kind: getattr(ops, kind) for kind in want}
        if got != want:
            raise certify.Mismatch(f"{req.op} p={req.p}: op counts {got}, expected {want}")
        if len(solution) != req.p:
            raise certify.Mismatch(f"{req.op} p={req.p}: solution of length {len(solution)}")

    def reference(self, req: Request, tracer) -> None:
        """numpy.linalg.solve (LAPACK) on the same closed-form system."""
        if req.op != "closed":
            return
        import numpy as np

        nodes, values = self.inputs[req.op, req.p]
        matrix = self.bench.build_matrix_floats(nodes, req.p)
        with np.errstate(all="ignore"), tracer.span("ref.lapack_solve"):
            np.linalg.solve(matrix, values)


WORKLOADS = {w.name: w for w in (CliSmall, ExactLarge, FloatBench)}
