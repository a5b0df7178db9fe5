"""Square systems: closed-form determinant, inverse, solve, interpolation."""

import random
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given

from helpers import (
    counting,
    exact_scalars,
    identity,
    mat_mul,
    mat_vec,
    node_sets,
    random_node_set,
    random_values,
    small_fractions,
    vandermonde_rows,
)
from reference import cofactor_determinant, combine_exact_table, sigma_bruteforce
from vandersolve import vandermonde
from vandersolve.field import CountingNumber, OpCounter
from vandersolve.kernel import kernel_basis, solve_general
from vandersolve.oracle import gaussian_solve, solve_by_elimination
from vandersolve.poly import Polynomial
from vandersolve.symfuncs import NodeSet, compute_sigma, deflate_all, normalized, poly_from_roots
from vandersolve.vandermonde import (
    DenseMatrix,
    DimensionMismatchError,
    determinant,
    interpolate,
    inverse,
    solve_square,
)

F = Fraction


def make_nodes(*xs) -> NodeSet:
    return NodeSet(tuple(F(x) for x in xs))


def values(*xs) -> list:
    return [F(x) for x in xs]


# --- DenseMatrix ---------------------------------------------------------------


def test_matrix_shape_is_validated():
    with pytest.raises(ValueError):
        DenseMatrix(2, 2, (1, 2, 3))


def test_matrix_accessors():
    assert DenseMatrix(2, 2, (1, 2, 3, 4)).to_rows() == [[1, 2], [3, 4]]
    assert DenseMatrix(2, 3, (1, 2, 3, 4, 5, 6)).to_rows() == [[1, 2, 3], [4, 5, 6]]


# --- determinant -----------------------------------------------------------------


def test_determinant_examples():
    assert determinant(make_nodes(5)) == 1  # empty product
    assert determinant(make_nodes(1, 2)) == 1
    assert determinant(make_nodes(0, 1, 2)) == 2


@given(node_sets(max_size=5, elements=exact_scalars))
def test_determinant_matches_cofactor_expansion(ns):
    matrix = vandermonde_rows(ns, len(ns))
    assert determinant(ns) == cofactor_determinant(matrix)


@given(node_sets(max_size=6))
def test_determinant_never_vanishes(ns):
    assert determinant(ns) != 0


# --- inverse ---------------------------------------------------------------------


def test_inverse_two_nodes():
    assert inverse(make_nodes(0, 1)) == DenseMatrix(2, 2, (1, 0, -1, 1))


def test_inverse_single_node():
    assert inverse(make_nodes(7)) == DenseMatrix(1, 1, (1,))


def test_inverse_three_nodes_left_and_right():
    ns = make_nodes(1, 2, 3)
    m = inverse(ns).to_rows()
    v = vandermonde_rows(ns, 3)
    assert mat_mul(m, v) == identity(3)
    assert mat_mul(v, m) == identity(3)


@given(node_sets(max_size=6))
def test_inverse_is_two_sided(ns):
    m = inverse(ns).to_rows()
    v = vandermonde_rows(ns, len(ns))
    eye = identity(len(ns))
    assert mat_mul(m, v) == eye
    assert mat_mul(v, m) == eye


@given(node_sets(max_size=6))
def test_inverse_columns_are_lagrange_basis(ns):
    # column j, read as coefficients, is 1 at node j and 0 elsewhere
    m = inverse(ns).to_rows()
    for j in range(len(ns)):
        basis_poly = Polynomial(tuple(r[j] for r in m))
        for i, a in enumerate(ns):
            assert basis_poly.evaluate(a) == (1 if i == j else 0)


@given(node_sets(max_size=6))
def test_denominator_product_equals_signed_power_sum(ns):
    # the direct product route and the deflated-coefficient route agree
    n = len(ns)
    rows = deflate_all(ns.pairs, compute_sigma(ns.pairs))
    for j, a_j in enumerate(ns):
        row = normalized(rows[j])
        numerator = Polynomial(tuple(
            row[n - 1 - i] if (n - 1 - i) % 2 == 0 else -row[n - 1 - i]
            for i in range(n)))
        product = F(1)
        for k, a_k in enumerate(ns):
            if k != j:
                product *= a_j - a_k
        assert numerator.evaluate(a_j) == product


# --- solve_square ------------------------------------------------------------------


def test_solve_line_through_two_points():
    assert solve_square(make_nodes(0, 1), values(1, 2)) == [1, 1]


def test_solve_interpolating_squares():
    assert solve_square(make_nodes(1, 2, 3), values(1, 4, 9)) == [0, 0, 1]


def test_solve_frozen_fraction_case():
    # oracle-checked solution of V(1,2,3) w = (2,3,5)
    w = solve_square(make_nodes(1, 2, 3), values(2, 3, 5))
    assert w == [F(2), F(-1, 2), F(1, 2)]


def test_solve_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        solve_square(make_nodes(1, 2), values(1))


@given(node_sets(max_size=8), st.data())
def test_solve_satisfies_the_system(ns, data):
    q = data.draw(st.lists(small_fractions, min_size=len(ns), max_size=len(ns)))
    w = solve_square(ns, q)
    assert mat_vec(vandermonde_rows(ns, len(ns)), w) == q


@given(node_sets(max_size=6, elements=exact_scalars), st.data())
def test_solve_matches_elimination_oracle(ns, data):
    q = data.draw(st.lists(exact_scalars, min_size=len(ns), max_size=len(ns)))
    w = solve_square(ns, q)
    assert w == gaussian_solve(vandermonde_rows(ns, len(ns)), q)
    assert all(isinstance(x, Fraction) for x in w)


# --- interpolate -----------------------------------------------------------------


def test_interpolate_line():
    assert interpolate(make_nodes(0, 1), values(1, 2)).coeffs == (1, 1)


def test_interpolate_constant():
    p = interpolate(make_nodes(5), values(7))
    assert p.coeffs == (7,)
    assert p.degree == 0


def test_interpolate_quadratic():
    assert interpolate(make_nodes(1, 2, 3), values(6, 11, 18)).coeffs == (3, 2, 1)


@given(node_sets(max_size=7), st.data())
def test_interpolant_passes_through_the_points(ns, data):
    q = data.draw(st.lists(small_fractions, min_size=len(ns), max_size=len(ns)))
    p = interpolate(ns, q)
    assert p.degree <= len(ns) - 1
    for a, qv in zip(ns, q):
        assert p.evaluate(a) == qv


# --- integer core -------------------------------------------------------------------


def _exact_cases():
    rng = random.Random(505)
    rational = random_node_set(rng, 12)
    return {
        "p1-int": ((7,), (-3,)),
        "p1-fraction": ((F(-2, 3),), (F(5, 4),)),
        "rational": (rational.nodes, tuple(random_values(rng, 12))),
        "integer-grid": (tuple(F(k) for k in range(-4, 8)), tuple(random_values(rng, 12))),
        "plain-ints": ((0, -1, 4, 2, -7, 9), (3, 0, -2, 5, 1, -4)),
        "mixed": ((0, F(1, 2), -3, F(-7, 5), 4, F(2, 9)), (F(1, 3), 2, 0, -1, F(-5, 2), 6)),
    }


def _generic(fn, *args):
    """fn on the same values as CountingNumber-wrapped Fractions: the generic path."""
    ops = OpCounter()
    out = fn(*(counting([F(x) for x in a], ops) for a in args))
    return [getattr(x, "value", x) for x in out]


@pytest.mark.parametrize("case", sorted(_exact_cases()))
def test_integer_core_matches_oracles_and_generic_path(case):
    nodes, q = _exact_cases()[case]
    ns, p = NodeSet(nodes), len(nodes)
    matrix = vandermonde_rows(ns, p)

    w = solve_square(ns, list(q))
    assert w == gaussian_solve(matrix, list(q))
    assert w == _generic(lambda a, b: solve_square(NodeSet(a), b), nodes, q)
    assert interpolate(ns, list(q)) == Polynomial(tuple(w))

    inv = inverse(ns)
    for j in range(p):
        unit = [F(int(i == j)) for i in range(p)]
        assert [r[j] for r in inv.to_rows()] == gaussian_solve(matrix, unit)
    assert list(inv.entries) == _generic(lambda a: inverse(NodeSet(a)).entries, nodes)

    if p <= 6:
        assert determinant(ns) == cofactor_determinant(matrix)

    roots = poly_from_roots(ns).coeffs
    assert roots == tuple((-1) ** (p - i) * sigma_bruteforce(nodes, p - i) for i in range(p + 1))

    for x in w + list(inv.entries) + list(roots):
        assert isinstance(x, Fraction)


# Mixed exact node sets for the per-node denominators: ints (zero included),
# negative numerators, denominators up to 10^6, and pairwise coprime ones.
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 999983)
_wide_fractions = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6)
_mixed_nodes = st.one_of(
    st.lists(st.one_of(st.integers(min_value=-9, max_value=9), _wide_fractions,
                       small_fractions), min_size=1, max_size=7, unique=True),
    st.lists(st.sampled_from(_PRIMES), min_size=1, max_size=7, unique=True).flatmap(
        lambda dens: st.tuples(*(st.integers(min_value=-40, max_value=40).map(
            lambda num, d=d: F(num * d + 1, d)) for d in dens)).map(list)),
)
_mixed_systems = _mixed_nodes.flatmap(lambda xs: st.tuples(
    st.just(xs), st.lists(exact_scalars, min_size=len(xs), max_size=len(xs))))


def _generic_table(nodes):
    """Sigma and deflated rows from the generic path on CountingNumber-wrapped Fractions."""
    ns = NodeSet(tuple(counting([F(a) for a in nodes], OpCounter())))
    coeffs = compute_sigma(ns.pairs)
    return (tuple(getattr(x, "value", x) for x in normalized(coeffs)),
            tuple(tuple(getattr(x, "value", x) for x in normalized(row))
                  for row in deflate_all(ns.pairs, coeffs)))


@given(_mixed_systems)
@example(([0], [F(3, 4)]))
@example(([F(-5, 999983)], [2]))
@example(([0, 1, F(1, 2), F(-1, 3), F(2, 5)], [1, 0, F(-1, 7), 2, 0]))
def test_per_node_denominators_match_oracles_bit_for_bit(system):
    nodes, q = system
    ns, p = NodeSet(tuple(nodes)), len(nodes)
    w = solve_square(ns, q)
    assert w == solve_by_elimination(ns, q)
    assert all(type(x) is Fraction for x in w)

    matrix = vandermonde_rows(ns, p)
    inv = inverse(ns)
    for j in range(p):
        assert [r[j] for r in inv.to_rows()] == gaussian_solve(
            matrix, [F(int(i == j)) for i in range(p)])
    assert all(type(x) is Fraction for x in inv.entries)

    want = tuple((-1) ** (p - i) * sigma_bruteforce(nodes, p - i) for i in range(p + 1))
    assert poly_from_roots(ns).coeffs == want
    assert kernel_basis(ns, p + 2).vectors == (want + (0,), (0,) + want)

    coeffs = compute_sigma(ns.pairs)
    sigma, deflated = normalized(coeffs), tuple(map(normalized, deflate_all(ns.pairs, coeffs)))
    assert (sigma, deflated) == _generic_table(nodes)
    if all(F(a).denominator == 1 for a in nodes):
        assert all(type(x) is int for x in sigma + sum(deflated, ()))


@given(_mixed_nodes)
def test_stored_integer_rows_stay_below_the_homogeneous_bound(nodes):
    # every coefficient of a product of factors d x + n is at most prod(|n| + d)
    ns = NodeSet(tuple(nodes))
    coeffs = compute_sigma(ns.pairs)
    bound = 1
    for a in nodes:
        bound *= abs(F(a).numerator) + F(a).denominator
    stored = coeffs + sum(deflate_all(ns.pairs, coeffs), ())
    assert all(type(x) is int and abs(x) <= bound for x in stored)


def test_exact_nodes_with_float_values_raise_type_error():
    with pytest.raises(TypeError, match="Fraction"):
        solve_square(make_nodes(1, 2), [0.5, 1.5])


@pytest.mark.parametrize("nodes", [(1.0, 2.0), (np.float64(1),), (F(1), Decimal("0.5"))])
def test_inexact_nodes_raise_type_error(nodes):
    with pytest.raises(TypeError, match="Fraction"):
        NodeSet(nodes)


@pytest.mark.parametrize("top", [21, 30])
def test_numpy_integer_nodes_solve_exactly(top):
    # int64 arithmetic on these nodes overflows from p = 21 on
    grid = np.arange(1, top + 1)
    q = [F(k * k + 1) for k in range(top)]
    ns = NodeSet(tuple(grid))
    assert all(type(a) is int for a in ns)
    poly = interpolate(ns, q)
    assert poly == interpolate(NodeSet(tuple(F(int(a)) for a in grid)), q)
    assert poly.coeffs == (2, -2, 1)


def test_numpy_integer_values_take_the_exact_path():
    ns = random_node_set(random.Random(7), 24)
    q = np.arange(10**17, 10**17 + 24, dtype=np.int64)
    w = solve_square(ns, q)
    assert w == solve_by_elimination(ns, [F(int(x)) for x in q])
    assert all(type(x) is Fraction for x in w)


def _counted(xs) -> list:
    return counting(xs, OpCounter())


# Every mix of exact and counted scalars that a solve refuses.  The two
# node sets with counted floats have column divisors past the double range.
_MIXED_SOLVES = {
    "int-nodes-counted-ints": ((0, 1, 2), _counted([1, 2, 3])),
    "rational-nodes-counted-fractions": ((F(1, 2), F(-2, 3), 5), _counted([F(1, 3), 2, F(-7, 4)])),
    "wide-divisors-counted-floats": (tuple(k + F(1, 10**6 + k) for k in range(45)),
                                     _counted([1.0 + k for k in range(45)])),
    "near-one-ratios-counted-floats": (tuple(F(10**12 + 2 * k + 1, 10**12 + 2 * k)
                                             for k in range(30)),
                                       _counted([1.0 + k for k in range(30)])),
    "partly-counted-values": ((0, F(1, 2), 4), [CountingNumber(1, OpCounter()), 2, F(1, 3)]),
    "counted-nodes-plain-fractions": (tuple(_counted([F(1), F(2), F(-3)])),
                                      [F(1), F(1, 2), F(-4)]),
}


@pytest.mark.parametrize("solve", [
    solve_square, interpolate, lambda ns, q: solve_general(ns, q, len(q) + 1),
], ids=["solve_square", "interpolate", "solve_general"])
@pytest.mark.parametrize("case", sorted(_MIXED_SOLVES))
def test_a_solve_is_all_exact_or_all_counted(case, solve):
    nodes, q = _MIXED_SOLVES[case]
    with pytest.raises(TypeError, match="all exact or all counted"):
        solve(NodeSet(nodes), list(q))


def test_inverse_of_one_counted_node_is_rational():
    entries = inverse(NodeSet((CountingNumber(F(7), OpCounter()),))).entries
    assert entries == (1,) and type(entries[0]) is Fraction


# --- blocked exact combine ----------------------------------------------------------


def _table_solve(ns, q) -> list:
    """The exact solve over the full p x p table of deflated rows."""
    rows = deflate_all(ns.pairs, compute_sigma(ns.pairs))
    return combine_exact_table(rows, ns.pairs, vandermonde._column_denominators(ns.pairs), q)


def _block_cases(p: int) -> dict:
    rng = random.Random(9000 + p)
    grid = NodeSet(tuple(range(-(p // 2), p - p // 2)))
    return {"rational": (random_node_set(rng, p), random_values(rng, p)),
            "integer-grid": (grid, random_values(rng, p))}


# one block, both sides of a block boundary, three blocks, and many
@pytest.mark.parametrize("p", [1, 15, 16, 17, 31, 32, 33, 47, 100])
@pytest.mark.parametrize("kind", ["rational", "integer-grid"])
def test_blocked_combine_equals_the_full_table(kind, p):
    ns, q = _block_cases(p)[kind]
    assert solve_square(ns, q) == _table_solve(ns, q)


@pytest.mark.parametrize("block", [1, 2, 3, 5])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 6, 11, 17])
@pytest.mark.parametrize("kind", ["rational", "integer-grid"])
def test_blocked_combine_equals_the_full_table_at_any_block_size(kind, p, block, monkeypatch):
    ns, q = _block_cases(p)[kind]
    want = _table_solve(ns, q)
    monkeypatch.setattr(vandermonde, "BLOCK", block)
    assert solve_square(ns, q) == want


def test_interpolate_holds_no_square_table():
    # the full table of rows at p = 152 alone peaks near 2.5 MiB
    rng = random.Random(152)
    ns, q = random_node_set(rng, 152), random_values(rng, 152)
    tracemalloc.start()
    try:
        interpolate(ns, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024


# --- cost -------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 3, 6, 10])
def test_solve_cost_stays_quadratic(n):
    ops = OpCounter()
    nodes = NodeSet(tuple(counting([1.0 + i / n for i in range(n)], ops)))
    q = counting([float(i + 1) for i in range(n)], ops)
    solve_square(nodes, q)
    assert ops.total <= 7 * n * n
