"""Acceptance suite: one test per criterion, each ending in a PASS line.

All mathematical checks are exact equalities over rationals; the only
bands are the log-log slope windows of the complexity criterion.  Expected
values come from the brute-force oracles or trivial arithmetic, never from
the code paths under test.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from helpers import random_node_set, random_values
from vandersolve import bench, oracle
from vandersolve.field import OpCounter, counting
from vandersolve.kernel import kernel_basis, sample_solution, solve_general
from vandersolve.poly import Polynomial
from vandersolve.symfuncs import NodeSet, compute_sigma, deflate_all
from vandersolve.vandermonde import (
    DenseMatrix,
    build_matrix,
    determinant,
    inverse,
    solve_square,
)

F = Fraction


def _finish(number, label, t0, budget):
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"
    print(f"ACCEPTANCE {number} ({label}): PASS in {elapsed:.1f}s")


def _sigma_node_sets():
    rng = random.Random(101)
    return [random_node_set(rng, rng.randint(1, 12)) for _ in range(200)]


def _square_node_sets():
    rng = random.Random(202)
    return [random_node_set(rng, rng.randint(1, 10)) for _ in range(100)]


def test_criterion_1_sigma_oracle_equivalence():
    t0 = time.monotonic()
    for ns in _sigma_node_sets():
        table = compute_sigma(ns)
        for t in range(len(ns) + 1):
            assert table.sigma[t] == oracle.sigma_bruteforce(ns, t)
    _finish(1, "sigma oracle equivalence, 200 node sets", t0, 10)


def test_criterion_2_deflation_identity_suite():
    t0 = time.monotonic()
    for ns in _sigma_node_sets():
        table = deflate_all(compute_sigma(ns))
        for i, a in enumerate(ns):
            padded = (0, *table.deflated[i], 0)  # deflated rows are zero outside 0..p-1
            for t in range(len(ns) + 1):
                assert table.sigma[t] == padded[t + 1] + a * padded[t]
    _finish(2, "deflation recurrence identity", t0, 30)


def test_criterion_3_inverse_correctness():
    t0 = time.monotonic()
    for ns in _square_node_sets():
        n = len(ns)
        matrix = build_matrix(ns, n)
        inv_matrix = inverse(ns)
        eye = DenseMatrix.identity(n)
        assert inv_matrix.mat_mul(matrix) == eye
        assert matrix.mat_mul(inv_matrix) == eye
        for j in range(n):
            column_poly = Polynomial(inv_matrix.column(j))
            for i, a in enumerate(ns):
                assert column_poly.evaluate(a) == (1 if i == j else 0)
    _finish(3, "inverse and Lagrange delta property, 100 systems", t0, 30)


def test_criterion_4_solve_equivalence():
    t0 = time.monotonic()
    rng = random.Random(212)
    for ns in _square_node_sets():
        n = len(ns)
        q = random_values(rng, n)
        matrix = build_matrix(ns, n)
        assert solve_square(ns, q) == oracle.gaussian_solve(matrix, q)
        if n <= 6:
            assert determinant(ns) == oracle.cofactor_determinant(matrix)
    _finish(4, "solve equals elimination oracle; determinant equals cofactor", t0, 30)


def test_criterion_5_kernel_suite():
    t0 = time.monotonic()
    rng = random.Random(303)
    for _ in range(100):
        n = rng.randint(2, 12)
        p = rng.randint(1, n - 1)
        ns = random_node_set(rng, p)
        basis = kernel_basis(ns, n)
        assert basis.dimension == n - p
        matrix = build_matrix(ns, n)
        for vec in basis.vectors:
            assert matrix.mat_vec(list(vec)) == [0] * p
        stacked = DenseMatrix.from_rows([list(v) for v in basis.vectors])
        assert oracle.gaussian_rank(stacked) == n - p
        assert oracle.gaussian_rank(matrix) == p

    fixture_nodes = NodeSet((F(2), F(3), F(4)))
    expected = tuple(
        oracle.sigma_bruteforce(fixture_nodes, t) if t % 2 == 0
        else -oracle.sigma_bruteforce(fixture_nodes, t)
        for t in (3, 2, 1, 0))
    assert kernel_basis(fixture_nodes, 4).vectors == (expected,)
    _finish(5, "kernel dimension, membership, rank; single-vector fixture", t0, 30)


def test_criterion_6_generalized_solve():
    t0 = time.monotonic()
    rng = random.Random(404)
    for _ in range(30):
        n = rng.randint(1, 12)
        p = rng.randint(1, n)
        ns = random_node_set(rng, p)
        q = random_values(rng, p)
        space = solve_general(ns, q, n)
        matrix = build_matrix(ns, n)
        assert matrix.mat_vec(list(space.particular)) == q
        assert all(x == 0 for x in space.particular[p:])
        for _ in range(20):
            coeffs = random_values(rng, n - p)
            assert matrix.mat_vec(sample_solution(space, coeffs)) == q
    _finish(6, "affine space: particular, padding, 20 samples per case", t0, 30)


def test_criterion_7_complexity():
    t0 = time.monotonic()
    for p in (10, 100, 1000):
        ops = OpCounter()
        ns = NodeSet(tuple(counting(bench.bench_nodes(p).tolist(), ops)))
        compute_sigma(ns)
        assert ops.muls == p * (p + 1) // 2  # one multiply per multiply-add step
        assert ops.adds == p * (p + 1) // 2
        assert ops.subs == ops.divs == ops.negs == 0

    config = bench.BenchConfig(sizes=(256, 512, 1024, 2048), repetitions=1)
    reports = bench.run_benchmark(config)
    closed_fit = reports["closed_form"].fit
    gaussian_fit = reports["gaussian"].fit
    assert 1.9 <= closed_fit <= 2.1, f"closed-form slope {closed_fit}"
    assert 2.8 <= gaussian_fit <= 3.2, f"gaussian slope {gaussian_fit}"
    _finish(7, f"op counts: slopes {closed_fit:.3f} / {gaussian_fit:.3f}", t0, 60)


def _run(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "vandersolve", *argv],
        capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_criterion_8_cli_contract():
    t0 = time.monotonic()

    code, out, _ = _run(["interpolate", "--nodes", "0,1", "--values", "1,2"])
    assert (code, out) == (0, '{"coefficients":["1","1"],"degree":1}\n')

    code, out, _ = _run(["interpolate", "--nodes", "5", "--values", "7"])
    assert (code, out) == (0, '{"coefficients":["7"],"degree":0}\n')

    code, out, _ = _run(["interpolate", "--nodes", "1,2,3", "--values", "1,4,9"])
    assert (code, out) == (0, '{"coefficients":["0","0","1"],"degree":2}\n')

    # exit-code table: 0 success, 1 parse, 2 invalid problem, 3 inconsistent
    code, _, _ = _run(["sigma", "--nodes", "1,2,3"])
    assert code == 0
    code, _, err = _run(["interpolate", "--nodes", "0,x", "--values", "1,2"])
    assert code == 1
    code, _, err = _run(["interpolate", "--nodes", "1,1", "--values", "1,2"])
    assert code == 2 and "duplicate node 1" in err
    code, out, _ = _run(["solve", "--nodes", "0,1,2", "--values", "1,2,4", "--n", "2"])
    assert code == 3
    assert out == '{"inconsistent_at":2,"lhs":"3","rhs":"4"}\n'

    _finish(8, "CLI payloads and exit codes, scripted run", t0, 60)
