"""Float benchmark lane: kernels agree with the exact path and the bulk
operation counters match per-element instrumentation bit for bit."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import reference
from helpers import counting
from vandersolve import bench
from vandersolve.field import OpCounter
from vandersolve.symfuncs import NodeSet, compute_sigma, deflate_all, normalized
from vandersolve.vandermonde import solve_square

SIZES = [1, 2, 3, 5, 8]
# both sides of a PANEL block boundary, and more than two blocks
BLOCKS = [bench.PANEL - 1, bench.PANEL, bench.PANEL + 1, 2 * bench.PANEL + 3]
# Doubles lose every digit of the closed form on bench_nodes by p = PANEL,
# so the comparisons with the exact lane shrink PANEL to put the block
# boundaries at sizes where doubles still agree with it.
SMALL_BLOCKS = [(panel, p) for panel in (2, 3)
                for p in (panel - 1, panel, panel + 1, 2 * panel + 1)]
# elimination: one panel narrower than PANEL, at three widths, then one
# and two whole panels, each with a narrower one after it
PANEL_EDGES = [bench.PANEL // 4 - 1, bench.PANEL // 4 + 1, bench.PANEL // 2 + 1,
               bench.PANEL + 3, 2 * bench.PANEL + 5]


def exact_nodes(p):
    return NodeSet(tuple(Fraction(x).limit_denominator(10**6) for x in bench.bench_nodes(p)))


def deflation_grid(nodes, sigma):
    """The deflated rows, read through the kernel: scaled = e_j gives row j, reversed."""
    return np.array([bench.deflate_all_floats(nodes, sigma, e, OpCounter())[::-1]
                     for e in np.eye(len(nodes))])


def test_bench_nodes_are_distinct_and_bounded():
    nodes = bench.bench_nodes(64)
    assert len(set(nodes.tolist())) == 64
    assert nodes.min() >= 1.0 and nodes.max() < 2.0


@pytest.mark.parametrize("p", SIZES)
def test_sigma_kernel_matches_exact_path(p):
    got = bench.sigma_floats(bench.bench_nodes(p), OpCounter())
    want = [float(x) for x in normalized(compute_sigma(exact_nodes(p).pairs))]
    assert np.allclose(got, want, rtol=1e-9)


@pytest.mark.parametrize("p", SIZES)
def test_deflation_kernel_matches_exact_path(p):
    nodes = bench.bench_nodes(p)
    grid = deflation_grid(nodes, bench.sigma_floats(nodes, OpCounter()))
    pairs = exact_nodes(p).pairs
    want = [[float(x) for x in normalized(row)] for row in deflate_all(pairs, compute_sigma(pairs))]
    assert np.allclose(grid, want, rtol=1e-9)


@pytest.mark.parametrize("panel,p", SMALL_BLOCKS)
def test_deflation_kernel_matches_exact_path_across_blocks(monkeypatch, panel, p):
    monkeypatch.setattr(bench, "PANEL", panel)
    test_deflation_kernel_matches_exact_path(p)


@pytest.mark.parametrize("p", SIZES + BLOCKS)
def test_deflation_layer_dots_each_column_with_the_scaled_values(p):
    nodes, scaled = bench.bench_nodes(p), bench.bench_values(p)
    sigma = bench.sigma_floats(nodes, OpCounter())
    grid = deflation_grid(nodes, sigma)
    ops = OpCounter()
    u = bench.deflate_all_floats(nodes, sigma, scaled, ops)
    np.testing.assert_allclose(u[::-1], grid.T @ scaled, rtol=1e-12)
    assert (ops.muls, ops.subs, ops.adds) == (p * (p - 1) + p * p, p * (p - 1), p * p)
    assert ops.divs == ops.negs == 0


def sequential_denominators(nodes):
    denoms = np.ones(len(nodes))
    for k in range(len(nodes)):
        factor = nodes - nodes[k]
        factor[k] = 1.0
        denoms *= factor
    return denoms


@pytest.mark.parametrize("p", [1, 2] + BLOCKS + [300])
def test_blocked_denominators_are_the_sequential_product(p):
    nodes = bench.bench_nodes(p)
    assert np.array_equal(bench._column_denominators(nodes), sequential_denominators(nodes))


@pytest.mark.parametrize("kernel", ["closed form", "elimination"])
@pytest.mark.parametrize("p", [1, 33, 300])
def test_kernels_restore_the_ufunc_buffer_size(kernel, p):
    # numpy 2.0 scopes setbufsize to the errstate block each kernel cuts it in
    nodes, values = bench.bench_nodes(p), bench.bench_values(p)
    before = np.getbufsize()
    if kernel == "closed form":
        bench.solve_square_floats(nodes, values, OpCounter())
    else:
        bench.gaussian_solve_floats(bench.build_matrix_floats(nodes, p), values, OpCounter())
    assert np.getbufsize() == before


def test_elimination_restores_the_ufunc_buffer_size_when_it_raises():
    # an entry that is no number: filling the working copy fails after the
    # buffer was cut
    matrix = bench.build_matrix_floats(bench.bench_nodes(33), 33).astype(object)
    matrix[5, 7] = "x"
    before = np.getbufsize()
    with pytest.raises(ValueError, match="could not convert"):
        bench.gaussian_solve_floats(matrix, bench.bench_values(33), OpCounter())
    assert np.getbufsize() == before


@pytest.mark.parametrize("shape,count", [((1, 1), 3), ((1, 1), 0), ((3, 2), 3)])
def test_elimination_refuses_a_matrix_that_is_not_n_by_n(shape, count):
    # broadcasting would fill the working copy from a 1 x 1 matrix
    with pytest.raises(ValueError, match=rf"matrix of shape \({shape[0]}, {shape[1]}\) "
                                         rf"for values of shape \({count},\)"):
        bench.gaussian_solve_floats(np.full(shape, 2.0), np.ones(count), OpCounter())


@pytest.mark.parametrize("count", [1, 0])
def test_closed_form_refuses_values_of_another_shape_than_the_nodes(count):
    with pytest.raises(ValueError, match=rf"values of shape \({count},\) "
                                         rf"for nodes of shape \(5,\)"):
        bench.solve_square_floats(bench.bench_nodes(5), np.ones(count), OpCounter())


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


@pytest.mark.parametrize("panel,n", SMALL_BLOCKS)
def test_float_solve_matches_exact_solve_across_blocks(monkeypatch, panel, n):
    monkeypatch.setattr(bench, "PANEL", panel)
    test_float_solve_matches_exact_solve(n)
    test_float_solve_matches_exact_solve_on_curved_values(n)


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


@pytest.mark.parametrize("p,n", [(1, 1), (1, 4), (2, 2), (2, 1), (33, 33), (33, 32),
                                 (300, 300), (300, 305)])
def test_build_matrix_floats_is_the_running_product(p, n):
    nodes = bench.bench_nodes(p)
    want = np.empty((p, n))
    want[:, 0] = 1.0
    for j in range(1, n):
        want[:, j] = want[:, j - 1] * nodes
    assert np.array_equal(bench.build_matrix_floats(nodes, n), want)


@pytest.mark.parametrize("n", SIZES)
def test_gaussian_kernel_matches_oracle(n):
    nodes = bench.bench_nodes(n)
    vals = bench.bench_values(n)
    matrix = bench.build_matrix_floats(nodes, n)
    got = bench.gaussian_solve_floats(matrix, vals, OpCounter())
    want = reference.gaussian_solve(matrix.tolist(), vals.tolist())
    assert np.allclose(got, want, rtol=1e-8)


def random_system(p):
    rng = np.random.default_rng(p)
    return rng.standard_normal((p, p)), rng.standard_normal(p)


@pytest.mark.parametrize("p", [31, 32, 33, 65, 100, 3 * bench.PANEL, 3 * bench.PANEL + 1]
                         + PANEL_EDGES)
def test_gaussian_kernel_across_panels(p):
    # random normal rows: beyond one panel, some pivots come from below the current panel
    matrix, vals = random_system(p)
    got = bench.gaussian_solve_floats(matrix, vals, OpCounter())
    np.testing.assert_allclose(got, np.linalg.solve(matrix, vals), rtol=1e-9)


@pytest.mark.parametrize("p", [300, 500])
def test_gaussian_kernel_holds_one_working_copy(p):
    # the n x n copy plus O(n * PANEL) scratch: no (n - k1) x (n - k1) product
    matrix, vals = random_system(p)
    tracemalloc.start()
    try:
        bench.gaussian_solve_floats(matrix, vals, OpCounter())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (p * p + 6 * p * bench.PANEL)


def test_gaussian_kernel_leaves_its_inputs_unchanged():
    # float-bench and the sweep solve the same arrays over and over
    matrix, vals = random_system(100)
    matrix_before, vals_before = matrix.copy(), vals.copy()
    bench.gaussian_solve_floats(matrix, vals, OpCounter())
    assert np.array_equal(matrix, matrix_before)
    assert np.array_equal(vals, vals_before)


def test_gaussian_kernel_with_pivots_from_below_the_panel():
    # Strictly column-dominant rows, reversed: step k of the first panel
    # pivots on row p - 1 - k, below the panel, and the swaps must reach
    # the columns right of it and b.
    p = 2 * bench.PANEL + 3
    rng = np.random.default_rng(p)
    dominant = rng.uniform(-1.0, 1.0, (p, p)) + p * np.eye(p)
    matrix, vals = dominant[::-1].copy(), rng.standard_normal(p)
    got = bench.gaussian_solve_floats(matrix, vals, OpCounter())
    np.testing.assert_allclose(got, np.linalg.solve(matrix, vals), rtol=1e-9)


def test_gaussian_kernel_with_pivots_from_below_while_factoring_the_right_half():
    # Strictly column-dominant rows keep their pivots through elimination,
    # so the pivot of step k is wherever dominant row k sits.  Rows of the
    # first panel's right half go to the bottom, reversed: the panel's
    # first PANEL // 2 steps pivot without a swap, and every later step
    # pivots on a row below the panel, after rank-1 updates have already
    # changed the columns it swaps.
    p = 2 * bench.PANEL + 3
    half = bench.PANEL // 2
    rng = np.random.default_rng(p)
    dominant = rng.uniform(-1.0, 1.0, (p, p)) + p * np.eye(p)
    perm = np.arange(p)
    right = perm[half:bench.PANEL].copy()
    perm[half:bench.PANEL] = perm[p - len(right):][::-1]
    perm[p - len(right):] = right[::-1]
    matrix, vals = dominant[perm], rng.standard_normal(p)
    got = bench.gaussian_solve_floats(matrix, vals, OpCounter())
    np.testing.assert_allclose(got, np.linalg.solve(matrix, vals), rtol=1e-9)


def instrumented_gaussian_counts(matrix, vals):
    inst = OpCounter()
    wrapped = [counting(r, inst) for r in matrix.tolist()]
    reference.gaussian_solve(wrapped, counting(vals.tolist(), inst))
    return inst


@pytest.mark.parametrize("panel", [2, 3, 5])
@pytest.mark.parametrize("p", [1, 2, 4, 7, 11, 17])
def test_gaussian_kernel_with_small_panels_matches_oracle(monkeypatch, panel, p):
    # panels of two, three and five columns, and a last panel narrower than PANEL
    monkeypatch.setattr(bench, "PANEL", panel)
    matrix, vals = random_system(p)
    ops = OpCounter()
    got = bench.gaussian_solve_floats(matrix, vals, ops)
    want = reference.gaussian_solve(matrix.tolist(), vals.tolist())
    np.testing.assert_allclose(got, want, rtol=1e-9)
    assert ops == instrumented_gaussian_counts(matrix, vals)


@pytest.mark.parametrize("p", [256, 799])
def test_gaussian_kernel_keeps_a_small_residual(p):
    # the ends of float-bench's elimination sizes; pivoted LU is backward stable
    matrix, vals = bench.build_matrix_floats(bench.bench_nodes(p), p), bench.bench_values(p)
    w = bench.gaussian_solve_floats(matrix, vals, OpCounter())
    assert np.max(np.abs(matrix @ w - vals)) <= 1e-10 * np.max(np.abs(vals))


@pytest.mark.parametrize("p", [33, 65] + PANEL_EDGES)
def test_gaussian_bulk_counts_across_panels(p):
    matrix, vals = random_system(p)
    bulk = OpCounter()
    bench.gaussian_solve_floats(matrix, vals, bulk)
    assert bulk == instrumented_gaussian_counts(matrix, vals)


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
    wrapped = [counting(r, inst) for r in matrix.tolist()]
    reference.gaussian_solve(wrapped, counting(vals.tolist(), inst))
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
        bench.run_benchmark(sizes, repetitions=reps)


def test_sweep_counts_equal_standalone_counts():
    sizes = (4, 9, 16)
    reports = bench.run_benchmark(sizes, repetitions=2)
    for i, p in enumerate(sizes):
        nodes, values = bench.bench_nodes(p), bench.bench_values(p)
        closed, gauss = OpCounter(), OpCounter()
        bench.solve_square_floats(nodes, values, closed)
        bench.gaussian_solve_floats(bench.build_matrix_floats(nodes, p), values, gauss)
        assert reports["closed_form"]["op_counts"][i] == closed.total
        assert reports["gaussian"]["op_counts"][i] == gauss.total


def test_run_benchmark_smoke():
    reports = bench.run_benchmark((8, 16, 32), repetitions=1)
    for name in ("closed_form", "gaussian"):
        report = reports[name]
        assert list(report) == ["sizes", "times", "op_counts", "fit"]
        assert report["sizes"] == [8, 16, 32]
        assert len(report["times"]) == len(report["op_counts"]) == 3
        assert all(t >= 0 for t in report["times"])
        assert report["op_counts"] == sorted(report["op_counts"])
        assert math.isfinite(report["fit"])
    # the cubic lane must outgrow the quadratic one
    assert reports["gaussian"]["fit"] > reports["closed_form"]["fit"]
