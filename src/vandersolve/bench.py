"""Float-lane complexity benchmark.

Times the quadratic closed-form solve against cubic Gaussian elimination
on the same systems and reports exact field-operation counts alongside the
wall-clock medians.  The kernels run vectorized so the largest sizes stay
affordable, and each adds its counts once, as one formula in the size:
the element-wise algorithm's exact operation multiset, which the tests
check against per-element instrumentation of the pure-Python paths.
`run_benchmark` returns the JSON payload of `vandersolve bench` itself.

The closed form streams in blocks of PANEL columns: the column
denominators multiply PANEL factors into their running product per
numpy call, and PANEL deflation columns are written into one block that
a single matrix-vector product dots with the scaled right-hand side.  So
it needs O(PANEL * p) memory, never a p x p grid (Bjorck & Pereyra,
Math. Comp. 24, 1970, do O(p^2) work in O(p) memory too).
Elimination runs in panels of PANEL columns, as LAPACK's dgetrf does:
each panel is factored column by column on a contiguous copy, its rows
are permuted once, a unit-lower solve of one vector-matrix product per
row brings its rows of the columns to its right up to date, and matrix
products apply it to the trailing block, one block of PANEL rows at a
time.  b rides along as column n of one n x (n + 1) working copy, so it
needs no updates of its own, and the kernel holds O(n * PANEL) scratch
besides.  Both kernels run under one numpy buffer rule
(`_one_row_buffer`).  Elimination forms the same products as unblocked
elimination, so it counts what that counts.

At benchmark sizes the float values themselves overflow to inf/NaN: the
deflation subtraction cancels catastrophically and sigma values grow
binomially.  That is expected; every mathematical guarantee lives in the
exact lane, this lane measures cost only.  Operation counts depend on the
size alone, never on the data.
"""

import math
import statistics
import time

import numpy as np

from .field import OpCounter

PANEL = 32  # columns per elimination panel or closed-form block; rows per trailing-update block


def bench_nodes(p: int) -> np.ndarray:
    """Deterministic distinct abscissae in [1, 2); keeps powers finite longest."""
    return 1.0 + np.arange(p) / p


def bench_values(p: int) -> np.ndarray:
    return 1.0 + np.arange(p) / (2.0 * p)


def sigma_floats(nodes: np.ndarray, ops: OpCounter) -> np.ndarray:
    """Vector form of the triangular sigma pass (same operation multiset).

    Step i multiplies and adds i entries, so the pass counts p(p+1)/2 of each.
    """
    p = len(nodes)
    s = np.zeros(p + 1)
    s[0] = 1.0
    with np.errstate(all="ignore"):
        for i in range(1, p + 1):
            s[1:i + 1] += nodes[i - 1] * s[0:i]
    ops.muls += p * (p + 1) // 2
    ops.adds += p * (p + 1) // 2
    return s


def deflate_all_floats(nodes: np.ndarray, sigma: np.ndarray, scaled: np.ndarray,
                       ops: OpCounter) -> np.ndarray:
    """The deflation layer with its combine: u[n-1-t] = column t @ scaled.

    Column t holds codegree t of every deflated row: col_0 = 1 and
    col_t = sigma_t - a * col_(t-1).  The columns are written, PANEL at a
    time, into the rows of one PANEL x p block, and one matrix-vector
    product dots the whole block with the scaled right-hand side, so
    memory stays O(PANEL * p).  u is the solution before the sign flips of
    the odd codegrees.
    """
    n = len(nodes)
    sig = sigma.tolist()
    u = np.empty(n)
    block = np.empty((min(PANEL, n), n))
    rows = list(block)  # views of the block's rows, made once
    prev = None  # the last column written, read by the next one
    with np.errstate(all="ignore"):
        for t0 in range(0, n, PANEL):
            t1 = min(t0 + PANEL, n)
            for col, s in zip(rows, sig[t0:t1]):
                if prev is None:
                    col.fill(1.0)  # col_0
                else:
                    np.multiply(nodes, prev, out=col)
                    np.subtract(s, col, out=col)
                prev = col
            u[n - t1:n - t0] = (block[:t1 - t0] @ scaled)[::-1]
    ops.muls += n * (n - 1)  # columns 1..p-1, p muls and p subs each
    ops.subs += n * (n - 1)
    ops.muls += n * n  # the dots
    ops.adds += n * n
    return u


def _one_row_buffer(width: int) -> None:
    """Cut numpy's ufunc buffer to one row of `width` elements, the lane's one buffer rule.

    Each kernel calls it first in its `np.errstate` block, which restores
    the size on exit (numpy >= 2.0); numpy requires a multiple of 16
    elements.  With room for several rows (the default holds 8192
    elements), numpy 2.4 runs the lane's 2-D strided and broadcast ufuncs
    through the buffer, copying their operands: the column denominators'
    broadcast subtraction measured about twice as slow for p below about
    2700, and the elimination about 1.7 times as slow.
    """
    np.setbufsize(16 * -(-width // 16))


def _column_denominators(nodes: np.ndarray) -> np.ndarray:
    """prod_(k != j) (a_j - a_k) for every j, as a running product over k.

    The factors for PANEL values of k fill the rows below the running
    product in one (PANEL + 1) x p scratch array, and one reduce over axis
    0 multiplies them in row by row: bit-identical to `denoms *= factor`
    one k at a time.  `solve_square_floats` runs it under the one-row
    buffer (`_one_row_buffer`).
    """
    n = len(nodes)
    denoms = np.ones(n)
    rows = np.empty((min(PANEL, n) + 1, n))
    for k0 in range(0, n, PANEL):
        k1 = min(k0 + PANEL, n)
        block = rows[:k1 - k0 + 1]
        block[0] = denoms
        np.subtract(nodes, nodes[k0:k1, None], out=block[1:])
        block[np.arange(1, k1 - k0 + 1), np.arange(k0, k1)] = 1.0  # the k-th factor
        np.multiply.reduce(block, axis=0, out=denoms)
    return denoms


def solve_square_floats(nodes: np.ndarray, values: np.ndarray, ops: OpCounter) -> np.ndarray:
    """Closed-form quadratic solve, float lane, in O(PANEL * p) memory.

    The column denominators prod_(k != j) (a_j - a_k) are built as a running
    product, PANEL factors per step, then `deflate_all_floats` dots each
    block of PANEL deflation columns with the scaled right-hand side as
    soon as the block is written.  Values whose shape is not the nodes'
    1-D shape raise ValueError.
    """
    if np.ndim(nodes) != 1 or np.shape(values) != np.shape(nodes):
        raise ValueError(f"values of shape {np.shape(values)} "
                         f"for nodes of shape {np.shape(nodes)}")
    n = len(nodes)
    sigma = sigma_floats(nodes, ops)
    with np.errstate(all="ignore"):
        _one_row_buffer(n)
        denoms = _column_denominators(nodes)
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
        return np.vander(nodes, n, increasing=True)


def _forward(l: np.ndarray, b: np.ndarray) -> None:
    """b <- L^-1 b in place: L is the square l's strict lower triangle plus the identity.

    One row at a time, each by one vector-matrix product with the rows above it.
    """
    for i in range(1, len(l)):
        b[i] -= l[i, :i] @ b[:i]


def _factor_panel(panel: np.ndarray, order: np.ndarray) -> None:
    """LU with partial pivoting of a transposed panel, one column at a time.

    Row j of `panel` is the panel's column j of the working copy from the
    panel's first row down, so a row swap of the copy is a swap of two
    buffer columns; each swap moves the whole buffer, so the panel's other
    columns are always in the current row order, and `order` records it.
    Step j searches column j for its pivot, swaps, divides the multipliers
    in place below the diagonal and subtracts one rank-1 update from all
    the panel's columns to its right.  It counts nothing:
    `gaussian_solve_floats` adds the counts of the whole elimination at
    once.
    """
    for j in range(len(panel)):
        col = panel[j]
        r = j + int(np.abs(col[j:]).argmax())
        if r != j:
            panel[:, j], panel[:, r] = panel[:, r], panel[:, j].copy()
            order[j], order[r] = order[r], order[j]
        f = col[j + 1:]  # the multipliers, stored in place below the diagonal
        f /= col[j]
        panel[j + 1:, j + 1:] -= panel[j + 1:, j, None] * f


def gaussian_solve_floats(matrix: np.ndarray, values: np.ndarray, ops: OpCounter) -> np.ndarray:
    """Cubic elimination with magnitude pivoting, blocked in panels of PANEL columns.

    Right-looking LU with partial pivoting (Golub & Van Loan, section
    3.2.11), blocked as in LAPACK's dgetrf, on one n x (n + 1) working
    copy whose column n is b, under the one-row buffer
    (`_one_row_buffer`).  Each panel is copied, transposed, into a
    contiguous buffer of at most n x PANEL doubles and factored there one
    column at a time (`_factor_panel`).  After the panel the buffer is
    written back and the rows it moved are gathered once in the columns
    to its right, b included (dlaswp); the columns to its left keep their
    old row order, since their multipliers are never read again.  A
    unit-lower solve (`_forward`: one vector-matrix product per row) then
    brings the panel's rows of the right-hand columns up to date, and the
    panel is applied to the trailing block one block of PANEL rows at a
    time, each block's matrix product subtracted in place (dgetrf's dgemm
    accumulates into the matrix the same way).  So besides its working
    copy the kernel holds only O(n * PANEL) scratch: the panel buffer,
    one block's product and the gathered rows.  Back substitution runs
    one row at a time on column n.  Every product l_ik * u_kj is still
    formed exactly once, so the counts, added once from n, are those of
    element-wise unblocked elimination: n(n - 1)/2 + n divisions, and
    (n - 1)n(n + 1)/3 + n(n - 1)/2 multiplies and as many subtractions, b
    and back substitution included.  Pivot search and row swaps are free,
    and vectorized evaluation reassociates sums without changing the
    multiply/divide work.  A matrix that is not n x n for the n values
    raises ValueError.
    """
    n = np.size(values)
    if np.shape(values) != (n,) or np.shape(matrix) != (n, n):
        raise ValueError(f"matrix of shape {np.shape(matrix)} "
                         f"for values of shape {np.shape(values)}")
    a = np.empty((n, n + 1))
    x = np.zeros(n)
    with np.errstate(all="ignore"):
        _one_row_buffer(n + 1)
        a[:, :n] = matrix
        a[:, n] = values
        for k0 in range(0, n, PANEL):
            k1 = min(k0 + PANEL, n)
            # order[r] is the row of a that buffer column r came from
            panel = np.ascontiguousarray(a[k0:, k0:k1].T)
            order = np.arange(k0, n)
            _factor_panel(panel, order)
            a[k0:, k0:k1] = panel.T
            # The columns right of the panel were left alone until every
            # swap of the panel was known.
            moved = np.flatnonzero(order != np.arange(k0, n))
            a[k0 + moved, k1:] = a[order[moved], k1:]
            _forward(a[k0:k1, k0:k1], a[k0:k1, k1:])
            for r0 in range(k1, n, PANEL):
                r1 = min(r0 + PANEL, n)
                a[r0:r1, k1:] -= a[r0:r1, k0:k1] @ a[k0:k1, k1:]
        for i in range(n - 1, -1, -1):
            x[i] = (a[i, n] - a[i, i + 1:n] @ x[i + 1:]) / a[i, i]
    ops.divs += n * (n - 1) // 2 + n
    ops.muls += (n - 1) * n * (n + 1) // 3 + n * (n - 1) // 2
    ops.subs += (n - 1) * n * (n + 1) // 3 + n * (n - 1) // 2
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


def _sweep(sizes, repetitions: int, kernel, inputs) -> dict:
    """Median time of `kernel(*inputs(p), ops)` per size, with the op counts and their slope.

    Op counts depend on the size alone, so each size's count is read from
    the counter of its first timed repetition.
    """
    times, counts = [], []
    for p in sizes:
        args = inputs(p)
        samples = []
        for rep in range(repetitions):
            ops = OpCounter()
            start = time.perf_counter()
            kernel(*args, ops)
            samples.append(time.perf_counter() - start)
            if rep == 0:
                counts.append(ops.total)
        times.append(statistics.median(samples))
    return {"sizes": list(sizes), "times": times, "op_counts": counts,
            "fit": loglog_slope(sizes, counts)}


def run_benchmark(sizes, repetitions: int = 5) -> dict:
    """Both lanes on identical systems, as the JSON payload of `vandersolve bench`.

    Sizes must be at least two, positive and strictly increasing, each
    timed over at least one repetition.  The payload maps "closed_form"
    and "gaussian" to {"sizes", "times", "op_counts", "fit"}: the sizes,
    the median seconds and the op count per size, and the counts'
    log-log slope.
    """
    sizes = [int(s) for s in sizes]
    if len(sizes) < 2:
        raise ValueError("need at least two sizes")
    if any(s < 1 for s in sizes):
        raise ValueError("sizes must be positive")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly increasing")
    if repetitions < 1:
        raise ValueError("need at least one repetition")
    return {
        "closed_form": _sweep(sizes, repetitions, solve_square_floats,
                              lambda p: (bench_nodes(p), bench_values(p))),
        "gaussian": _sweep(sizes, repetitions, gaussian_solve_floats,
                           lambda p: (build_matrix_floats(bench_nodes(p), p), bench_values(p))),
    }
