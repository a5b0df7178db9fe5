"""The references themselves: the package's elimination oracle and the test-only
references of `reference`, by self-consistency and examples."""

import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import reference
from helpers import (
    counting,
    exact_scalars,
    identity,
    mat_vec,
    random_fraction,
    random_node_set,
    small_fractions,
    vandermonde_rows,
)
from reference import cofactor_determinant, gaussian_rank, sigma_bruteforce
from vandersolve.field import CountingNumber, OpCounter
from vandersolve.oracle import SingularMatrixError, gaussian_solve, solve_by_elimination
from vandersolve.symfuncs import NodeSet

F = Fraction


def test_solve_identity_returns_rhs():
    q = [F(3), F(-1), F(7)]
    assert gaussian_solve(identity(3), q) == q


def test_solve_lower_triangular_pair():
    assert gaussian_solve([[F(1), F(0)], [F(1), F(1)]], [F(1), F(2)]) == [1, 1]


def test_solve_random_systems_have_zero_residual():
    rng = random.Random(7)
    solved = 0
    while solved < 10:
        rows = [[random_fraction(rng) for _ in range(5)] for _ in range(5)]
        q = [random_fraction(rng) for _ in range(5)]
        try:
            x = gaussian_solve(rows, q)
        except SingularMatrixError:
            continue
        assert mat_vec(rows, x) == q
        solved += 1


def test_solve_reports_singular_matrix():
    with pytest.raises(SingularMatrixError):
        gaussian_solve([[F(1), F(1)], [F(1), F(1)]], [F(1), F(2)])


@pytest.mark.parametrize("rows", [[[1, 2]], [[1, 2], [3]], [[1], [2]]],
                         ids=["wide", "ragged", "tall"])
def test_non_square_rows_are_refused(rows):
    with pytest.raises(ValueError, match="matrix must be square"):
        gaussian_solve(rows, [1] * len(rows))
    with pytest.raises(ValueError, match="matrix must be square"):
        cofactor_determinant(rows)


def test_rank_of_zero_matrix():
    assert gaussian_rank([[0, 0, 0], [0, 0, 0]]) == 0


def test_rank_of_identity():
    assert gaussian_rank(identity(4)) == 4


def test_rank_of_wide_vandermonde_is_node_count():
    nodes = NodeSet((F(1), F(2), F(3)))
    assert gaussian_rank(vandermonde_rows(nodes, 5)) == 3


def test_sigma_bruteforce_examples():
    nodes = NodeSet((F(1), F(2), F(3)))
    assert sigma_bruteforce(nodes, 2) == 11
    assert sigma_bruteforce(nodes, 0) == 1
    assert sigma_bruteforce(NodeSet((F(1), F(2))), 5) == 0


def test_cofactor_examples():
    assert cofactor_determinant([[F(9)]]) == 9
    assert cofactor_determinant(identity(4)) == 1
    nodes = NodeSet((F(0), F(1), F(2)))
    assert cofactor_determinant(vandermonde_rows(nodes, 3)) == 2


@pytest.mark.parametrize("rows,q", [
    ([[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0]),
    ([[1, 2], [3, 4]], [1, 0.5]),
    ([[CountingNumber(1, OpCounter()), 2], [3, 4]], [1, 2]),
    ([[1, 2], [3, 4]], [1, CountingNumber(F(1, 2), OpCounter())]),
], ids=["float rows", "float value", "counted rows", "counted value"])
def test_oracle_takes_ints_and_fractions_only(rows, q):
    with pytest.raises(TypeError, match="is not an int or a Fraction"):
        gaussian_solve(rows, q)


# --- the oracle's fraction-free elimination against the reference elimination -----


def _elimination_cases():
    rng = random.Random(11)
    yield "p = 1", [[F(-3, 4)]], [F(5)]
    yield "p = 1 int", [[-7]], [3]
    # column 0 is zero above row 2 and column 1 above row 3: two row swaps
    yield "row swaps", [[0, 0, 3, 1], [0, 0, 0, 2], [4, 1, 0, 0], [0, 5, 1, 1]], [1, 2, 3, 4]
    yield "negative pivots", [[-3, 2, 1], [6, -5, 2], [-9, 4, -7]], [F(1, 2), -1, F(-7, 3)]
    yield "all ints", [[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)], \
        [rng.randint(-9, 9) for _ in range(6)]
    yield "mixed int and Fraction", \
        [[random_fraction(rng) if (i + j) % 2 else rng.randint(-9, 9) for j in range(5)]
         for i in range(5)], [rng.randint(-9, 9) if i % 2 else random_fraction(rng)
                              for i in range(5)]
    # zero multipliers (the oracle skips them, the reference does not) and negative pivots
    yield "sparse rationals", \
        [[0 if rng.random() < 0.4 else random_fraction(rng) for _ in range(7)]
         for _ in range(7)], [random_fraction(rng) for _ in range(7)]
    nodes = random_node_set(rng, 12)
    yield "vandermonde", vandermonde_rows(nodes, 12), [random_fraction(rng)
                                                       for _ in range(12)]
    # smallest-magnitude pivoting: the first nonzero candidate is not the smallest
    nodes = random_node_set(rng, 20)
    yield "vandermonde p = 20", vandermonde_rows(nodes, 20), [random_fraction(rng)
                                                             for _ in range(20)]
    yield "large first entry", [[10**12, 3, -1, 2], [7, F(1, 3), 2, 0], [-2, 5, 1, 9],
                                [1, 1, F(-4, 5), 6]], [1, F(2, 7), -3, 10**6]
    # pair gcds too short to take out the Sylvester factor: rows made primitive after updates
    yield "dense ints p = 24", [[rng.randint(-99, 99) for _ in range(24)] for _ in range(24)], \
        [rng.randint(-99, 99) for _ in range(24)]


@pytest.mark.parametrize("rows,q", [pytest.param(rows, q, id=name)
                                    for name, rows, q in _elimination_cases()])
def test_integer_elimination_matches_generic_path(rows, q):
    x = gaussian_solve(rows, q)
    assert x == reference.gaussian_solve(rows, q)
    assert all(type(v) is F for v in x)
    assert mat_vec(rows, x) == list(q)


@pytest.mark.parametrize("rows", [
    [[1, 2, 3], [2, 4, 6], [1, 0, 1]],                   # no pivot in column 2
    [[F(1, 2), F(1, 3)], [F(3, 2), 1]],                  # no pivot in column 1
    [[0, 1], [0, F(-5, 7)]],                             # no pivot in column 0
])
def test_integer_elimination_reports_singular_matrix_like_generic(rows):
    q = [1] * len(rows)
    with pytest.raises(SingularMatrixError) as generic:
        reference.gaussian_solve(rows, q)
    with pytest.raises(SingularMatrixError, match=str(generic.value)):
        gaussian_solve(rows, q)


def test_generic_path_keeps_wrapped_ints_rational():
    counter = OpCounter()
    x = reference.gaussian_solve([counting([2, 1], counter), counting([1, 3], counter)],
                                 counting([1, 2], counter))
    assert [v.value for v in x] == [F(1, 5), F(3, 5)]
    assert all(type(v.value) is F for v in x)


# --- solve_by_elimination's integer Vandermonde rows ------------------------------

decimals = st.builds(lambda n, k: F(n, 10 ** k), st.integers(-999, 999), st.integers(1, 3))
exact_nodes = st.one_of(small_fractions, st.integers(min_value=-8, max_value=8), decimals)
vandermonde_systems = st.lists(exact_nodes, min_size=1, max_size=8, unique=True).flatmap(
    lambda ns: st.tuples(st.just(ns), st.lists(exact_scalars, min_size=len(ns),
                                               max_size=len(ns))))


@settings(max_examples=60, deadline=None)
@given(vandermonde_systems)
@example(([F(-3, 4)], [F(5)]))
@example(([7], [-2]))
@example(([0, F(-1, 2), F(-7, 3), 3], [1, F(2, 3), -4, F(-5, 6)]))
@example(([1, 2, 3, 4, 5, 6], [2, 3, 5, 7, 11, 13]))
@example(([F(1, 10), F(-25, 100), F(7, 1000), F(-333, 1000), 2], [F(1, 10), 0, 3, F(-9, 7), 1]))
def test_integer_vandermonde_rows_match_fraction_rows(system):
    nodes, q = system
    x = solve_by_elimination(NodeSet(tuple(nodes)), q)
    want = reference.gaussian_solve(vandermonde_rows([F(a) for a in nodes], len(nodes)),
                                    [F(y) for y in q])
    assert x == want
    assert all(type(v) is F for v in x)


def test_solve_by_elimination_rejects_a_value_count_mismatch():
    with pytest.raises(ValueError, match="3 equations but 4 values"):
        solve_by_elimination(NodeSet((F(1, 2), 2, F(-3, 5))), [1, 2, 3, 4])
    # the elimination itself refuses the mismatch too
    with pytest.raises(ValueError, match="2 equations but 3 values"):
        gaussian_solve([[1, 2], [3, 4]], [1, 2, 3])
