"""p x n systems of every shape: kernel bases, affine solution spaces, tall solve-and-check."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from helpers import (
    affine_member,
    counting,
    mat_vec,
    node_sets,
    small_fractions,
    vandermonde_rows,
)
from reference import gaussian_rank, sigma_bruteforce
from vandersolve import kernel
from vandersolve.field import OpCounter
from vandersolve.kernel import InconsistentSystemError, kernel_basis, solve_general
from vandersolve.symfuncs import NodeSet
from vandersolve.vandermonde import DimensionMismatchError

F = Fraction


def make_nodes(*xs) -> NodeSet:
    return NodeSet(tuple(F(x) for x in xs))


def values(*xs) -> list:
    return [F(x) for x in xs]


wide_cases = st.tuples(
    node_sets(max_size=7), st.integers(min_value=1, max_value=5),
).map(lambda t: (t[0], len(t[0]) + t[1]))  # p < n <= 12


# --- kernel_basis ------------------------------------------------------------------


def test_single_node_ambient_three():
    basis = kernel_basis(make_nodes(2), 3)
    assert basis.vectors == ((-2, 1, 0), (0, -2, 1))


def test_square_case_has_empty_basis():
    assert kernel_basis(make_nodes(1, 2, 3), 3).vectors == ()


def test_single_vector_fixture():
    # nodes (2,3,4) into 4 unknowns; entries checked against the subset oracle
    nodes = make_nodes(2, 3, 4)
    basis = kernel_basis(nodes, 4)
    expected = (
        -sigma_bruteforce(nodes, 3),
        sigma_bruteforce(nodes, 2),
        -sigma_bruteforce(nodes, 1),
        sigma_bruteforce(nodes, 0),
    )
    assert basis.vectors == (expected,)
    assert expected == (-24, 26, -9, 1)


@given(wide_cases)
def test_counted_nodes_give_the_exact_root_product(case):
    # the generic branch of poly_from_roots, on CountingNumber nodes
    ns, n = case
    counted = kernel_basis(NodeSet(tuple(counting(ns.nodes, OpCounter()))), n)
    exact = kernel_basis(ns, n)
    assert [[getattr(x, "value", x) for x in v] for v in counted.vectors] == \
        [list(v) for v in exact.vectors]


def test_p_at_least_n_gives_the_empty_basis():
    for n in (1, 2, 3):
        basis = kernel_basis(make_nodes(1, 2, 3), n)
        assert (basis.vectors, basis.dimension) == ((), 0)


@pytest.mark.parametrize("n", [0, -1, -2, -10**30])
def test_nonpositive_n_is_refused(n):
    nodes = make_nodes(1, 2, 3)
    with pytest.raises(ValueError, match="need n >= 1"):
        kernel_basis(nodes, n)
    with pytest.raises(ValueError, match="need n >= 1"):
        solve_general(nodes, values(1, 4, 9), n)


@given(wide_cases)
def test_every_basis_vector_is_annihilated(case):
    ns, n = case
    matrix = vandermonde_rows(ns, n)
    basis = kernel_basis(ns, n)
    assert basis.dimension == n - len(ns)
    for vec in basis.vectors:
        assert mat_vec(matrix, vec) == [0] * len(ns)


@given(wide_cases)
def test_basis_is_independent_and_matrix_has_full_rank(case):
    ns, n = case
    basis = kernel_basis(ns, n)
    assert gaussian_rank(basis.vectors) == n - len(ns)
    assert gaussian_rank(vandermonde_rows(ns, n)) == len(ns)


@given(node_sets(max_size=7))
def test_one_column_short_case_endpoints(ns):
    # n = p + 1: a single vector starting at the signed node product,
    # ending in (-node sum, 1)
    p = len(ns)
    (vec,) = kernel_basis(ns, p + 1).vectors
    product = F(1)
    for a in ns:
        product *= a
    assert vec[0] == (product if p % 2 == 0 else -product)
    assert vec[p - 1] == -sum(ns.nodes)
    assert vec[p] == 1


@given(wide_cases)
def test_vectors_are_cyclic_shifts(case):
    ns, n = case
    vectors = kernel_basis(ns, n).vectors
    for prev, nxt in zip(vectors, vectors[1:]):
        assert nxt[0] == 0
        assert nxt[1:] == prev[:-1]
    for k, vec in enumerate(vectors):
        assert vec[k + len(ns)] == 1  # trailing echelon ones


# --- solve_general -----------------------------------------------------------------


def test_one_equation_two_unknowns():
    space = solve_general(make_nodes(1), values(5), 2)
    assert space.particular == (5, 0)
    assert space.basis.vectors == ((-1, 1),)


def test_square_case_reduces_to_unique_solution():
    space = solve_general(make_nodes(0, 1), values(1, 2), 2)
    assert space.particular == (1, 1)
    assert space.basis.vectors == ()


def test_two_equations_four_unknowns():
    space = solve_general(make_nodes(0, 1), values(1, 2), 4)
    assert space.particular == (1, 1, 0, 0)
    assert space.basis.vectors == ((0, -1, 1, 0), (0, 0, -1, 1))
    matrix = vandermonde_rows(make_nodes(0, 1), 4)
    assert mat_vec(matrix, space.particular) == values(1, 2)
    for vec in space.basis.vectors:
        assert mat_vec(matrix, vec) == [0, 0]


def test_square_and_tall_solves_build_no_root_product(monkeypatch):
    def fail(nodes):
        raise AssertionError("the kernel is trivial: no root product is needed")
    monkeypatch.setattr(kernel, "poly_from_roots", fail)
    assert solve_general(make_nodes(0, 1), values(1, 2), 2).particular == (1, 1)
    assert solve_general(make_nodes(0, 1, 2), values(1, 2, 3), 2).particular == (1, 1)


def test_solve_general_rejects_bad_shapes():
    with pytest.raises(DimensionMismatchError):
        solve_general(make_nodes(1, 2), values(1), 3)


@given(wide_cases, st.data())
def test_particular_solves_and_is_padded(case, data):
    ns, n = case
    q = data.draw(st.lists(small_fractions, min_size=len(ns), max_size=len(ns)))
    space = solve_general(ns, q, n)
    assert mat_vec(vandermonde_rows(ns, n), space.particular) == q
    assert all(x == 0 for x in space.particular[len(ns):])


# --- members of the affine space: particular + sum of t_k * v_k ----------------------


def test_zero_coefficients_give_the_particular():
    space = solve_general(make_nodes(1), values(5), 2)
    assert affine_member(space, [F(0)]) == [5, 0]


def test_unit_coefficient_adds_one_basis_vector():
    space = solve_general(make_nodes(1), values(5), 2)
    assert affine_member(space, [F(1)]) == [4, 1]


def test_sample_solution_direct_substitution():
    space = solve_general(make_nodes(1), values(5), 2)
    member = affine_member(space, [F(3)])
    assert member == [2, 3]
    assert member[0] + member[1] * 1 == 5


@given(wide_cases, st.data())
def test_every_sample_solves_the_system(case, data):
    ns, n = case
    q = data.draw(st.lists(small_fractions, min_size=len(ns), max_size=len(ns)))
    space = solve_general(ns, q, n)
    coeffs = data.draw(st.lists(
        small_fractions, min_size=n - len(ns), max_size=n - len(ns)))
    member = affine_member(space, coeffs)
    assert mat_vec(vandermonde_rows(ns, n), member) == q


def test_small_scale_completeness():
    # every grid vector solving the 1x2 system lies in the affine space
    a, q = F(2), F(5)
    space = solve_general(NodeSet((a,)), [q], 2)
    v = space.basis.vectors[0]
    grid = [F(num, den) for den in (1, 2, 3) for num in range(-12, 13)]
    hits = 0
    for w1 in grid:
        for w2 in grid:
            if w1 + a * w2 == q:
                t = w2 - space.particular[1]  # echelon: trailing coordinate
                assert [space.particular[0] + t * v[0],
                        space.particular[1] + t * v[1]] == [w1, w2]
                hits += 1
    assert hits > 10


# --- tall systems (p > n): solve on the first n nodes, check the rest ----------------


def test_collinear_points_are_consistent():
    space = solve_general(make_nodes(0, 1, 2), values(1, 2, 3), 2)
    assert space.particular == (1, 1)
    assert space.basis.vectors == ()


def test_non_collinear_points_report_the_equation():
    with pytest.raises(InconsistentSystemError, match="equation 2") as info:
        solve_general(make_nodes(0, 1, 2), values(1, 2, 4), 2)
    assert info.value.row == 2
    assert info.value.lhs == 3 and info.value.rhs == 4


def test_square_values_through_four_nodes():
    nodes = make_nodes(1, 2, 3, 4)
    q = [a * a for a in nodes]
    space = solve_general(nodes, q, 3)
    assert space.particular == (0, 0, 1)
    assert space.basis.vectors == ()


def test_float_value_in_the_checked_tail_raises_type_error():
    with pytest.raises(TypeError, match="Fraction"):
        solve_general(make_nodes(0, 1, 2), [F(1), F(2), 3.0], 2)


def test_overdetermined_checks_value_count():
    with pytest.raises(DimensionMismatchError):
        solve_general(make_nodes(1, 2, 3), values(1, 2), 2)


tall_cases = node_sets(min_size=2, max_size=8).flatmap(
    lambda ns: st.tuples(st.just(ns), st.integers(min_value=1, max_value=len(ns) - 1)))


@given(tall_cases, st.data())
def test_tall_system_returns_its_polynomial_or_the_first_missed_row(case, data):
    ns, n = case
    coeffs = data.draw(st.lists(small_fractions, min_size=n, max_size=n))
    q = [sum(c * a**k for k, c in enumerate(coeffs)) for a in ns]
    space = solve_general(ns, q, n)
    assert space.particular == tuple(coeffs)
    assert space.basis.vectors == ()
    r = data.draw(st.integers(min_value=n, max_value=len(ns) - 1))
    q[r] += data.draw(small_fractions.filter(bool))
    with pytest.raises(InconsistentSystemError) as info:
        solve_general(ns, q, n)
    assert (info.value.row, info.value.rhs) == (r, q[r])
    assert info.value.lhs == sum(c * ns[r] ** k for k, c in enumerate(coeffs))
