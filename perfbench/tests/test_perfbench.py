"""Self-tests of the benchmark: certificates, tracer, generator, smoke runs.

    python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import certify  # noqa: E402
import spans  # noqa: E402
import vandersolve as lib  # noqa: E402
import vandersolve.bench as bench  # noqa: E402
import vandersolve.cli  # noqa: E402,F401
import worker  # noqa: E402
import workloads  # noqa: E402
from vandersolve.field import OpCounter  # noqa: E402

NODES = [Fraction(k, 3) - 2 for k in range(1, 9)]
VALUES = [Fraction(k * k - 2, 5) for k in range(8)]


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# certificates


def test_certificate_rejects_each_coefficient_off_by_one():
    coeffs = list(lib.interpolate(lib.NodeSet(tuple(NODES)), VALUES).coeffs)
    certify.check_interpolant(NODES, VALUES, coeffs)
    for i in range(len(coeffs)):
        bad = list(coeffs)
        bad[i] += 1
        with pytest.raises(certify.Mismatch):
            certify.check_interpolant(NODES, VALUES, bad)


def test_corrupted_output_counts_as_failure(tmp_path):
    class Corrupting(workloads.ExactLarge):
        def execute(self, req):
            coeffs = list(super().execute(req).coeffs)
            coeffs[-1] += 1
            return lib.Polynomial(tuple(coeffs))

    req = workloads.Request(0, "interpolate", len(NODES),
                            (lib.NodeSet(tuple(NODES)), tuple(VALUES), None), {})
    good, bad = worker.Stats(), worker.Stats()
    for _ in range(2):
        worker.run_request(workloads.ExactLarge(lib, 1, str(tmp_path)), req, good)
        worker.run_request(Corrupting(lib, 1, str(tmp_path)), req, bad)
    assert (good.attempted, good.failed) == (2, 0)
    assert (bad.attempted, bad.failed) == (2, 2)
    assert worker.end_to_end(good)["success_ratio"][0] == 1.0
    assert worker.end_to_end(bad)["success_ratio"][0] == 0.0


def test_kernel_sigma_inverse_and_inconsistent_certificates_reject_corruption():
    space = lib.solve_general(lib.NodeSet(tuple(NODES[:5])), VALUES[:5], 8)
    basis = [list(v) for v in space.basis.vectors]
    certify.check_space(NODES[:5], VALUES[:5], 8, list(space.particular), basis)
    off = [list(v) for v in basis]
    off[1][0] += 1
    for broken in (off, basis[:2], [basis[1], basis[0], basis[2]]):
        with pytest.raises(certify.Mismatch):
            certify.check_kernel(NODES[:5], 8, broken)

    table = lib.deflate_all(lib.compute_sigma(lib.NodeSet(tuple(NODES))))
    certify.check_sigma(NODES, table.sigma)
    certify.check_deflated(NODES, table.deflated)
    with pytest.raises(certify.Mismatch):
        certify.check_sigma(NODES, table.sigma[:-1] + (table.sigma[-1] + 1,))
    with pytest.raises(certify.Mismatch):
        certify.check_deflated(NODES, table.deflated[::-1])

    inv = lib.inverse(lib.NodeSet(tuple(NODES)))
    rows = inv.to_rows()
    certify.check_inverse(NODES, rows)
    rows[2][3] += Fraction(1, 7)
    with pytest.raises(certify.Mismatch):
        certify.check_inverse(NODES, rows)

    values = [certify.poly_value([1, 2], a) for a in NODES]
    values[5] += 1
    lhs = certify.poly_value([1, 2], NODES[5])
    certify.check_inconsistent(NODES, values, 2, 5, lhs, values[5])
    with pytest.raises(certify.Mismatch):
        certify.check_inconsistent(NODES, values, 2, 5, lhs + 1, values[5])
    with pytest.raises(certify.Mismatch):
        certify.check_inconsistent(NODES, values, 2, 6, lhs, values[6])


@pytest.mark.parametrize("p", [1, 2, 7, 16, 33])
def test_op_formulas_match_the_float_kernels(p):
    nodes, values = bench.bench_nodes(p), bench.bench_values(p)
    closed, gauss = OpCounter(), OpCounter()
    bench.solve_square_floats(nodes, values, closed)
    bench.gaussian_solve_floats(bench.build_matrix_floats(nodes, p), values, gauss)
    for ops, want in ((closed, certify.closed_form_ops(p)), (gauss, certify.gaussian_ops(p))):
        assert {kind: getattr(ops, kind) for kind in want} == want


def test_op_formulas_closed_form_total_and_slopes():
    assert sum(certify.closed_form_ops(1024).values()) == 7_338_496
    sizes = (1024, 2048, 3072)
    closed = [(p, sum(certify.closed_form_ops(p).values())) for p in sizes]
    gauss = [(p, sum(certify.gaussian_ops(p).values())) for p in sizes]
    assert abs(spans.loglog_slope(closed) - 2) < 0.01
    assert abs(spans.loglog_slope(gauss) - 3) < 0.01


def test_pretty_output_reads_back_as_the_json_payload(tmp_path):
    out = str(tmp_path / "out.txt")
    for argv in (["kernel", "--nodes=1,2", "--n=4"], ["solve", "--nodes=1,2", "--values=3,4"],
                 ["sigma", "--nodes=1,-2,3/2", "--deflated"]):
        lib.cli.main(argv + ["--out", out])
        with open(out, encoding="utf-8") as fh:
            payload = json.load(fh)
        lib.cli.main(argv + ["--pretty", "--out", out])
        with open(out, encoding="utf-8") as fh:
            pretty = workloads.parse_pretty(fh.read())
        assert pretty == {k: v if isinstance(v, list) else str(v) for k, v in payload.items()}


# ---------------------------------------------------------------------------
# tracer


def _snapshot() -> dict:
    found = {}
    for module in spans._package_modules():
        for key, value in vars(module).items():
            if callable(value):
                found[module.__name__, key] = value
    for cls in (lib.Polynomial, lib.DenseMatrix):
        for key, value in vars(cls).items():
            found[cls.__qualname__, key] = value
    return found


def _results(out):
    nodes = lib.NodeSet(tuple(NODES))
    ops = OpCounter()
    floats = bench.solve_square_floats(bench.bench_nodes(40), bench.bench_values(40), ops)
    code = lib.cli.main(["interpolate", "--nodes=1,2,3", "--values=1,4,9", "--verify",
                         "--out", out])
    return (lib.interpolate(nodes, VALUES).coeffs,
            lib.solve_general(nodes, VALUES, 11),
            lib.inverse(nodes).entries,
            floats.tobytes(), ops, code)


def test_tracer_keeps_results_bit_identical_and_restores_originals(tmp_path):
    out = str(tmp_path / "out.txt")
    before = _snapshot()
    plain = _results(out)
    tracer = spans.Tracer(track_alloc=True)
    tracer.install()
    try:
        assert lib.cli.parse_scalar is not before["vandersolve.cli", "parse_scalar"]
        traced = _results(out)
    finally:
        tracer.restore()
    assert traced == plain
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    metrics = tracer.metrics()
    for name in ("cli.main", "field.parse_scalar", "oracle.gaussian_solve",
                 "poly.Polynomial.evaluate", "vandermonde.solve_square", "kernel.solve_general",
                 "bench.sigma_floats", "bench.solve_square_floats"):
        assert metrics[f"{name}.calls"][0] > 0, name
    assert metrics["bench.solve_square_floats.ops"][0] == sum(certify.closed_form_ops(40).values())
    assert metrics["bench.solve_square_floats.peak_alloc_mb"][0] > 0
    assert metrics["vandermonde.inverse.max_bits"][0] > 0
    assert metrics["cli.main.exit.0"][0] == 1


def test_tracer_self_time_excludes_children():
    tracer = spans.Tracer()
    tracer.install()
    try:
        lib.interpolate(lib.NodeSet(tuple(NODES)), VALUES)
    finally:
        tracer.restore()
    by_name = {span[3]: span for span in tracer.spans}
    outer = by_name["vandermonde.solve_square"]
    children = [s for s in tracer.spans if s[1] == outer[0]]
    assert {s[3] for s in children} == {"symfuncs.compute_sigma", "symfuncs.deflate_all"}
    covered = sum(s[5] - s[4] for s in children)
    assert outer[6] == pytest.approx(outer[5] - outer[4] - covered)


def test_missing_functions_report_zero_call_spans():
    names = ("symfuncs.no_such_function", "no_such_module.f", "poly.Polynomial.no_method")
    tracer = spans.Tracer(names=names)
    tracer.install()
    tracer.restore()
    metrics = tracer.metrics()
    assert all(metrics[f"{name}.calls"][0] == 0 for name in names)


# ---------------------------------------------------------------------------
# generator


def _blocks(name, seed, workdir):
    w = workloads.WORKLOADS[name](lib, seed, workdir)
    out = []
    for k in range(2):
        for r in w.block(k):
            files = [open(a, encoding="utf-8").read() for a in r.call
                     if isinstance(a, str) and a.startswith(os.path.join(workdir, "in-"))]
            out.append((r.rid, r.op, r.p, r.call, r.tags, files))
            w.finish(r)
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_requests(name, tmp_path):
    first = _blocks(name, 7, str(tmp_path))
    assert _blocks(name, 7, str(tmp_path)) == first
    other = _blocks(name, 8, str(tmp_path))
    assert other != first
    # every block holds the same mix of operations whatever the seed
    assert sorted(r[1] for r in other) == sorted(r[1] for r in first)


# ---------------------------------------------------------------------------
# whole runs


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_of_each_workload(name):
    proc = _run("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert result["metrics"]["success_ratio"]["value"] == 1.0
    spec = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec


def test_traced_run_prints_every_per_layer_metric():
    proc = _run("--workload", "cli-small", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    spec = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == spec
    assert metrics["oracle.gaussian_solve.calls"]["value"] > 0
    assert metrics["bench.solve_square_floats.calls"]["value"] == 0


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "cli-small", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
