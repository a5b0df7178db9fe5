"""Float-lane complexity benchmark.

Times the quadratic closed-form solve against cubic Gaussian elimination
on the same systems and reports exact field-operation counts alongside the
wall-clock medians.  The counters tally the element-wise algorithms' exact
operation multiset (the tests assert bit-equality with per-element
instrumentation of the pure-Python paths); the kernels here run vectorized
so the largest sizes stay affordable.

At benchmark sizes the float values themselves overflow to inf/NaN: the
deflation subtraction cancels catastrophically and sigma values grow
binomially.  That is expected; every mathematical guarantee lives in the
exact lane, this lane measures cost only.  Operation counts depend on the
size alone, never on the data.
"""

import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

from .field import OpCounter


@dataclass(frozen=True)
class BenchConfig:
    """Sweep settings: strictly increasing sizes, timed over repetitions."""

    sizes: tuple
    repetitions: int = 5

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if len(self.sizes) < 2:
            raise ValueError("need at least two sizes")
        if any(s < 1 for s in self.sizes):
            raise ValueError("sizes must be positive")
        if any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise ValueError("sizes must be strictly increasing")
        if self.repetitions < 1:
            raise ValueError("need at least one repetition")


@dataclass(frozen=True)
class BenchReport:
    """Per-size time medians and op counts, plus the counts' log-log slope."""

    sizes: tuple
    times: tuple
    op_counts: tuple
    fit: float


def bench_nodes(p: int) -> np.ndarray:
    """Deterministic distinct abscissae in [1, 2); keeps powers finite longest."""
    return 1.0 + np.arange(p) / p


def bench_values(p: int) -> np.ndarray:
    return 1.0 + np.arange(p) / (2.0 * p)


def sigma_floats(nodes: np.ndarray, ops: OpCounter) -> np.ndarray:
    """Vector form of the triangular sigma pass (same operation multiset)."""
    p = len(nodes)
    s = np.zeros(p + 1)
    s[0] = 1.0
    with np.errstate(all="ignore"):
        for i in range(1, p + 1):
            s[1:i + 1] += nodes[i - 1] * s[0:i]
            ops.muls += i
            ops.adds += i
    return s


def deflate_all_floats(nodes: np.ndarray, sigma: np.ndarray, ops: OpCounter) -> np.ndarray:
    """All p deflation rows at once, filled column by column."""
    p = len(nodes)
    grid = np.zeros((p, p))
    grid[:, 0] = 1.0
    with np.errstate(all="ignore"):
        for t in range(1, p):
            grid[:, t] = sigma[t] - nodes * grid[:, t - 1]
            ops.muls += p
            ops.subs += p
    return grid


def solve_square_floats(nodes: np.ndarray, values: np.ndarray, ops: OpCounter) -> np.ndarray:
    """Closed-form quadratic solve, float lane."""
    n = len(nodes)
    sigma = sigma_floats(nodes, ops)
    grid = deflate_all_floats(nodes, sigma, ops)
    with np.errstate(all="ignore"):
        diffs = nodes[:, None] - nodes[None, :]
        ops.subs += n * (n - 1)  # the j = k diagonal is not a field operation
        np.fill_diagonal(diffs, 1.0)
        denoms = diffs.prod(axis=1)
        ops.muls += n * (n - 1)
        scaled = values / denoms
        ops.divs += n
        # w_i before signs is sum_j grid[j][n-1-i] * scaled_j
        w = grid[:, ::-1].T @ scaled
        ops.muls += n * n
        ops.adds += n * n
        w[n % 2::2] = -w[n % 2::2]  # positions where n-1-i is odd
        ops.negs += n // 2
    return w


def build_matrix_floats(nodes: np.ndarray, n: int) -> np.ndarray:
    """Float matrix with rows (1, a, ..., a^(n-1)); setup only, not counted."""
    with np.errstate(all="ignore"):
        v = np.empty((len(nodes), n))
        v[:, 0] = 1.0
        for j in range(1, n):
            v[:, j] = v[:, j - 1] * nodes
    return v


def gaussian_solve_floats(matrix: np.ndarray, values: np.ndarray, ops: OpCounter) -> np.ndarray:
    """Cubic elimination with magnitude pivoting.

    Counts follow the element-wise formulation; pivot search and row swaps
    are free, vectorized evaluation reassociates sums without changing the
    multiply/divide work.
    """
    a = np.array(matrix, dtype=float, copy=True)
    b = np.array(values, dtype=float, copy=True)
    n = a.shape[0]
    x = np.zeros(n)
    with np.errstate(all="ignore"):
        for k in range(n):
            pivot = k + int(np.argmax(np.abs(a[k:, k])))
            if pivot != k:
                a[[k, pivot]] = a[[pivot, k]]
                b[[k, pivot]] = b[[pivot, k]]
            f = a[k + 1:, k] / a[k, k]
            ops.divs += n - 1 - k
            a[k + 1:, k + 1:] -= f[:, None] * a[k, k + 1:]
            ops.muls += (n - 1 - k) * (n - 1 - k)
            ops.subs += (n - 1 - k) * (n - 1 - k)
            b[k + 1:] -= f * b[k]
            ops.muls += n - 1 - k
            ops.subs += n - 1 - k
            a[k + 1:, k] = 0.0
        for i in range(n - 1, -1, -1):
            s = b[i] - a[i, i + 1:] @ x[i + 1:]
            ops.muls += n - 1 - i
            ops.subs += n - 1 - i
            x[i] = s / a[i, i]
            ops.divs += 1
    return x


def loglog_slope(sizes, counts) -> float:
    """Least-squares slope of log(count) against log(size)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(c) for c in counts]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    den = sum((x - mean_x) ** 2 for x in xs)
    return num / den


def _sweep(config: BenchConfig, kernel, inputs) -> BenchReport:
    """Median time of `kernel(*inputs(p), ops)` per size.

    Op counts depend on the size alone, so each size's count is read from
    the counter of its first timed repetition.
    """
    times, counts = [], []
    for p in config.sizes:
        args = inputs(p)
        samples = []
        for rep in range(config.repetitions):
            ops = OpCounter()
            start = time.perf_counter()
            kernel(*args, ops)
            samples.append(time.perf_counter() - start)
            if rep == 0:
                counts.append(ops.total)
        times.append(statistics.median(samples))
    return BenchReport(tuple(config.sizes), tuple(times), tuple(counts),
                       loglog_slope(config.sizes, counts))


def run_benchmark(config: BenchConfig) -> dict:
    """Both lanes on identical systems: {"closed_form": ..., "gaussian": ...}."""
    return {
        "closed_form": _sweep(config, solve_square_floats,
                              lambda p: (bench_nodes(p), bench_values(p))),
        "gaussian": _sweep(config, gaussian_solve_floats,
                           lambda p: (build_matrix_floats(bench_nodes(p), p), bench_values(p))),
    }
