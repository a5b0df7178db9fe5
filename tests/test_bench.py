"""Float benchmark lane: kernels agree with the exact path and the bulk
operation counters match per-element instrumentation bit for bit."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from vandersolve import bench, oracle
from vandersolve.field import OpCounter, counting
from vandersolve.symfuncs import NodeSet, compute_sigma, deflate_all
from vandersolve.vandermonde import DenseMatrix, solve_square

SIZES = [1, 2, 3, 5, 8]


def exact_nodes(p):
    return NodeSet(tuple(Fraction(x).limit_denominator(10**6) for x in bench.bench_nodes(p)))


def test_bench_nodes_are_distinct_and_bounded():
    nodes = bench.bench_nodes(64)
    assert len(set(nodes.tolist())) == 64
    assert nodes.min() >= 1.0 and nodes.max() < 2.0


@pytest.mark.parametrize("p", SIZES)
def test_sigma_kernel_matches_exact_path(p):
    got = bench.sigma_floats(bench.bench_nodes(p), OpCounter())
    want = [float(x) for x in compute_sigma(exact_nodes(p)).sigma]
    assert np.allclose(got, want, rtol=1e-9)


@pytest.mark.parametrize("p", SIZES)
def test_deflation_kernel_matches_exact_path(p):
    ops = OpCounter()
    nodes = bench.bench_nodes(p)
    sigma = bench.sigma_floats(nodes, ops)
    grid = np.column_stack(list(bench.deflation_columns(nodes, sigma, ops)))
    table = deflate_all(compute_sigma(exact_nodes(p)))
    want = [[float(x) for x in row] for row in table.deflated]
    assert np.allclose(grid, want, rtol=1e-9)


@pytest.mark.parametrize("p", SIZES)
def test_deflation_layer_dots_each_column_with_the_scaled_values(p):
    nodes, scaled = bench.bench_nodes(p), bench.bench_values(p)
    sigma = bench.sigma_floats(nodes, OpCounter())
    grid = np.column_stack(list(bench.deflation_columns(nodes, sigma, OpCounter())))
    ops = OpCounter()
    u = bench.deflate_all_floats(nodes, sigma, scaled, ops)
    np.testing.assert_allclose(u[::-1], grid.T @ scaled, rtol=1e-12)
    assert (ops.muls, ops.subs, ops.adds) == (p * (p - 1) + p * p, p * (p - 1), p * p)
    assert ops.divs == ops.negs == 0


@pytest.mark.parametrize("n", SIZES)
def test_float_solve_matches_exact_solve(n):
    got = bench.solve_square_floats(bench.bench_nodes(n), bench.bench_values(n), OpCounter())
    q = [Fraction(x).limit_denominator(10**6) for x in bench.bench_values(n)]
    want = [float(x) for x in solve_square(exact_nodes(n), q)]
    assert np.allclose(got, want, rtol=1e-8)


@pytest.mark.parametrize("n", SIZES)
def test_float_solve_matches_exact_solve_on_curved_values(n):
    # bench_values is linear in the nodes; 1/(1+a) has no vanishing divided differences
    floats, nodes = bench.bench_nodes(n), exact_nodes(n)
    got = bench.solve_square_floats(floats, 1.0 / (1.0 + floats), OpCounter())
    want = [float(x) for x in solve_square(nodes, [1 / (1 + a) for a in nodes])]
    np.testing.assert_allclose(got, want, rtol=1e-8)


def test_closed_form_runs_in_linear_memory():
    p = 2048  # a p x p float grid alone would take 32 MB
    nodes, values = bench.bench_nodes(p), bench.bench_values(p)
    tracemalloc.start()
    try:
        bench.solve_square_floats(nodes, values, OpCounter())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("n", SIZES)
def test_gaussian_kernel_matches_oracle(n):
    nodes = bench.bench_nodes(n)
    vals = bench.bench_values(n)
    matrix = bench.build_matrix_floats(nodes, n)
    got = bench.gaussian_solve_floats(matrix, vals, OpCounter())
    want = oracle.gaussian_solve(
        DenseMatrix(n, n, tuple(matrix.flatten().tolist())), vals.tolist())
    assert np.allclose(got, want, rtol=1e-8)


def random_system(p):
    rng = np.random.default_rng(p)
    return rng.standard_normal((p, p)), rng.standard_normal(p)


@pytest.mark.parametrize("p", [31, 32, 33, 65, 100])
def test_gaussian_kernel_across_panels(p):
    # random normal rows: beyond one panel, some pivots come from below the current panel
    matrix, vals = random_system(p)
    got = bench.gaussian_solve_floats(matrix, vals, OpCounter())
    np.testing.assert_allclose(got, np.linalg.solve(matrix, vals), rtol=1e-9)


@pytest.mark.parametrize("p", [33, 65])
def test_gaussian_bulk_counts_across_panels(p):
    matrix, vals = random_system(p)
    bulk = OpCounter()
    bench.gaussian_solve_floats(matrix, vals, bulk)

    inst = OpCounter()
    wrapped = DenseMatrix(p, p, tuple(counting(matrix.flatten().tolist(), inst)))
    oracle.gaussian_solve(wrapped, counting(vals.tolist(), inst))
    assert bulk == inst


@pytest.mark.parametrize("n", SIZES)
def test_closed_form_bulk_counts_equal_instrumented_counts(n):
    bulk = OpCounter()
    bench.solve_square_floats(bench.bench_nodes(n), bench.bench_values(n), bulk)

    inst = OpCounter()
    nodes = NodeSet(tuple(counting(bench.bench_nodes(n).tolist(), inst)))
    solve_square(nodes, counting(bench.bench_values(n).tolist(), inst))
    assert bulk == inst


@pytest.mark.parametrize("n", SIZES)
def test_gaussian_bulk_counts_equal_instrumented_counts(n):
    matrix = bench.build_matrix_floats(bench.bench_nodes(n), n)
    vals = bench.bench_values(n)

    bulk = OpCounter()
    bench.gaussian_solve_floats(matrix, vals, bulk)

    inst = OpCounter()
    wrapped = DenseMatrix(n, n, tuple(counting(matrix.flatten().tolist(), inst)))
    oracle.gaussian_solve(wrapped, counting(vals.tolist(), inst))
    assert bulk == inst


def test_loglog_slope_recovers_exact_powers():
    sizes = [4, 8, 16, 32]
    assert math.isclose(bench.loglog_slope(sizes, [s**3 for s in sizes]), 3.0)
    assert math.isclose(bench.loglog_slope(sizes, [5 * s**2 for s in sizes]), 2.0)


@pytest.mark.parametrize("sizes,reps", [
    ((8,), 1),          # too few sizes
    ((8, 8), 1),        # not increasing
    ((16, 8), 1),       # decreasing
    ((8, 16), 0),       # no repetitions
    ((0, 8), 1),        # non-positive size
])
def test_config_validation(sizes, reps):
    with pytest.raises(ValueError):
        bench.BenchConfig(sizes=sizes, repetitions=reps)


def test_sweep_counts_equal_standalone_counts():
    sizes = (4, 9, 16)
    reports = bench.run_benchmark(bench.BenchConfig(sizes=sizes, repetitions=2))
    for i, p in enumerate(sizes):
        nodes, values = bench.bench_nodes(p), bench.bench_values(p)
        closed, gauss = OpCounter(), OpCounter()
        bench.solve_square_floats(nodes, values, closed)
        bench.gaussian_solve_floats(bench.build_matrix_floats(nodes, p), values, gauss)
        assert reports["closed_form"].op_counts[i] == closed.total
        assert reports["gaussian"].op_counts[i] == gauss.total


def test_run_benchmark_smoke():
    reports = bench.run_benchmark(bench.BenchConfig(sizes=(8, 16, 32), repetitions=1))
    for name in ("closed_form", "gaussian"):
        report = reports[name]
        assert report.sizes == (8, 16, 32)
        assert len(report.times) == len(report.op_counts) == 3
        assert all(t >= 0 for t in report.times)
        assert list(report.op_counts) == sorted(report.op_counts)
        assert math.isfinite(report.fit)
    # the cubic lane must outgrow the quadratic one
    assert reports["gaussian"].fit > reports["closed_form"].fit
