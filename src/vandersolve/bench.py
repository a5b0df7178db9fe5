"""Float-lane complexity benchmark.

Times the quadratic closed-form solve against cubic Gaussian elimination
on the same systems and reports exact field-operation counts alongside the
wall-clock medians.  The counters tally the element-wise algorithms' exact
operation multiset (the tests assert bit-equality with per-element
instrumentation of the pure-Python paths); the kernels here run vectorized
so the largest sizes stay affordable.

The closed form streams: it keeps one deflation column at a time and a
running product for the column denominators, so it needs O(p) memory
(Bjorck & Pereyra, Math. Comp. 24, 1970, do O(p^2) work in O(p) memory
too).  Elimination runs in panels of PANEL columns and applies each
panel to the trailing block with one matrix product; it forms the same
products as unblocked elimination, so its counts are unchanged.

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

PANEL = 32  # columns per elimination panel


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


def deflation_columns(nodes: np.ndarray, sigma: np.ndarray, ops: OpCounter):
    """Yield the deflation columns t = 0..p-1 in order, each a fresh array.

    Column t holds codegree t of every deflated row: col_0 = 1 and
    col_t = sigma_t - a * col_(t-1), so only one column is live at a time.
    Overflow warnings follow the caller's numpy error state.
    """
    p = len(nodes)
    col = np.ones(p)
    yield col
    for t in range(1, p):
        col = nodes * col
        np.subtract(sigma[t], col, out=col)
        ops.muls += p
        ops.subs += p
        yield col


def deflate_all_floats(nodes: np.ndarray, sigma: np.ndarray, scaled: np.ndarray,
                       ops: OpCounter) -> np.ndarray:
    """The deflation layer with its combine: u[n-1-t] = column t @ scaled.

    The columns stream from `deflation_columns`, so memory stays O(p).  u is
    the solution before the sign flips of the odd codegrees.
    """
    n = len(nodes)
    u = np.empty(n)
    with np.errstate(all="ignore"):
        for t, col in enumerate(deflation_columns(nodes, sigma, ops)):
            u[n - 1 - t] = col @ scaled
    ops.muls += n * n
    ops.adds += n * n
    return u


def solve_square_floats(nodes: np.ndarray, values: np.ndarray, ops: OpCounter) -> np.ndarray:
    """Closed-form quadratic solve, float lane, in O(p) memory.

    The column denominators prod_(k != j) (a_j - a_k) are built as a running
    product over k, then `deflate_all_floats` dots each deflation column
    with the scaled right-hand side as it is produced.
    """
    n = len(nodes)
    sigma = sigma_floats(nodes, ops)
    with np.errstate(all="ignore"):
        denoms = np.ones(n)
        for k in range(n):
            factor = nodes - nodes[k]
            factor[k] = 1.0
            denoms *= factor
        ops.subs += n * (n - 1)  # the j = k factor is not a field operation
        ops.muls += n * (n - 1)
        scaled = values / denoms
        ops.divs += n
        w = deflate_all_floats(nodes, sigma, scaled, ops)
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
    """Cubic elimination with magnitude pivoting, blocked in panels of PANEL columns.

    Right-looking LU with partial pivoting (Golub & Van Loan, section
    3.2.11).  Inside a panel each step searches column k for the pivot,
    swaps whole rows, updates b and the panel's own columns, and stores its
    multipliers f below the diagonal.  After the panel a unit-lower solve
    brings the panel's rows to the right of it up to date, and one matrix
    product applies the panel to the trailing block.  Every product
    l_ik * u_kj is still formed exactly once, so the per-step counts are
    those of unblocked elimination.

    Counts follow the element-wise formulation; pivot search and row swaps
    are free, vectorized evaluation reassociates sums without changing the
    multiply/divide work.
    """
    a = np.array(matrix, dtype=float, copy=True)
    b = np.array(values, dtype=float, copy=True)
    n = a.shape[0]
    x = np.zeros(n)
    with np.errstate(all="ignore"):
        for k0 in range(0, n, PANEL):
            k1 = min(k0 + PANEL, n)
            for k in range(k0, k1):
                pivot = k + int(np.argmax(np.abs(a[k:, k])))
                if pivot != k:
                    a[[k, pivot]] = a[[pivot, k]]
                    b[[k, pivot]] = b[[pivot, k]]
                f = a[k + 1:, k] / a[k, k]
                ops.divs += n - 1 - k
                a[k + 1:, k + 1:k1] -= f[:, None] * a[k, k + 1:k1]
                ops.muls += (n - 1 - k) * (n - 1 - k)
                ops.subs += (n - 1 - k) * (n - 1 - k)
                b[k + 1:] -= f * b[k]
                ops.muls += n - 1 - k
                ops.subs += n - 1 - k
                a[k + 1:, k] = f
            # The columns right of the panel were left alone until every
            # swap of the panel was known; their share of the counts is above.
            for k in range(k0, k1 - 1):
                a[k + 1:k1, k1:] -= a[k + 1:k1, k, None] * a[k, k1:]
            a[k1:, k1:] -= a[k1:, k0:k1] @ a[k0:k1, k1:]
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
