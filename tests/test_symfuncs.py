"""Sigma tables: triangular pass, deflation, root expansion, step counts."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from helpers import node_sets, small_fractions
from vandersolve.field import OpCounter, counting
from vandersolve.oracle import sigma_bruteforce
from vandersolve.symfuncs import (
    DuplicateNodeError,
    NodeSet,
    check_root_identity,
    compute_sigma,
    deflate,
    deflate_all,
    poly_from_roots,
)

F = Fraction


def make_nodes(*xs) -> NodeSet:
    return NodeSet(tuple(F(x) for x in xs))


# --- NodeSet -----------------------------------------------------------------


def test_duplicate_nodes_are_named():
    with pytest.raises(DuplicateNodeError) as err:
        NodeSet((F(1), F(2), F(1)))
    assert "duplicate node 1" in str(err.value)
    assert (err.value.first, err.value.second) == (0, 2)


def test_empty_node_set_rejected():
    with pytest.raises(ValueError):
        NodeSet(())


def test_order_is_preserved():
    assert make_nodes(3, 1, 2).nodes == (3, 1, 2)


def test_without_removes_one_node():
    assert make_nodes(1, 2, 3).without(1).nodes == (1, 3)


# --- compute_sigma -----------------------------------------------------------


def test_sigma_of_one_two_three():
    assert compute_sigma(make_nodes(1, 2, 3)).sigma == (1, 6, 11, 6)


@given(small_fractions)
def test_sigma_of_single_node(a):
    assert compute_sigma(NodeSet((a,))).sigma == (1, a)


@given(node_sets(min_size=3, max_size=3))
def test_sigma_three_node_formulas(ns):
    a, b, c = ns.nodes
    assert compute_sigma(ns).sigma == (1, a + b + c, a * b + a * c + b * c, a * b * c)


def test_sigma_at_is_total():
    table = compute_sigma(make_nodes(1, 2))
    assert table.sigma_at(0) == 1
    assert table.sigma_at(2) == 2
    assert table.sigma_at(3) == 0
    assert table.sigma_at(99) == 0
    assert table.sigma_at(-1) == 0


@given(node_sets(max_size=8))
def test_sigma_matches_subset_enumeration(ns):
    table = compute_sigma(ns)
    for t in range(len(ns) + 1):
        assert table.sigma[t] == sigma_bruteforce(ns, t)


@given(node_sets(max_size=7), st.data())
def test_sigma_is_permutation_invariant(ns, data):
    shuffled = data.draw(st.permutations(list(ns.nodes)))
    assert compute_sigma(NodeSet(tuple(shuffled))).sigma == compute_sigma(ns).sigma


# --- deflate -----------------------------------------------------------------


def test_deflate_first_node():
    table = compute_sigma(make_nodes(1, 2, 3))
    assert deflate(table, 0) == (1, 5, 6)


def test_deflate_single_node_row():
    table = compute_sigma(make_nodes(7))
    assert deflate(table, 0) == (1,)


@given(node_sets(min_size=3, max_size=3))
def test_deflate_three_node_formulas(ns):
    a, b, c = ns.nodes
    table = compute_sigma(ns)
    assert deflate(table, 0) == (1, b + c, b * c)


@pytest.mark.parametrize("index", [-1, 3, 10])
def test_deflate_rejects_bad_index(index):
    table = compute_sigma(make_nodes(1, 2, 3))
    with pytest.raises(IndexError):
        deflate(table, index)


@given(node_sets(min_size=2, max_size=8), st.data())
def test_deflation_equals_recomputation_without_node(ns, data):
    i = data.draw(st.integers(min_value=0, max_value=len(ns) - 1))
    table = compute_sigma(ns)
    assert deflate(table, i) == compute_sigma(ns.without(i)).sigma


@given(node_sets(max_size=8))
def test_deflation_recurrence_identity(ns):
    table = deflate_all(compute_sigma(ns))
    for i, a in enumerate(ns):
        for t in range(len(ns) + 1):
            lhs = table.sigma_at(t)
            assert lhs == table.deflated_at(i, t) + a * table.deflated_at(i, t - 1)


def test_deflate_all_two_nodes():
    table = deflate_all(compute_sigma(make_nodes(1, 2)))
    assert table.deflated == ((1, 2), (1, 1))


def test_deflate_all_single_node():
    assert deflate_all(compute_sigma(make_nodes(4))).deflated == ((1,),)


@given(node_sets(min_size=3, max_size=3))
def test_deflate_all_three_node_grid(ns):
    a, b, c = ns.nodes
    table = deflate_all(compute_sigma(ns))
    assert table.deflated == ((1, b + c, b * c), (1, a + c, a * c), (1, a + b, a * b))


@given(node_sets(max_size=8))
def test_leading_entries_are_one(ns):
    table = deflate_all(compute_sigma(ns))
    assert table.sigma[0] == 1
    assert all(row[0] == 1 for row in table.deflated)


# --- poly_from_roots / root identity -----------------------------------------


@pytest.mark.parametrize("nodes,coeffs", [
    ((1, 2), (2, -3, 1)),
    ((0,), (0, 1)),
    ((1, 2, 3), (-6, 11, -6, 1)),
])
def test_poly_from_roots_examples(nodes, coeffs):
    assert poly_from_roots(make_nodes(*nodes)).coeffs == coeffs


@given(node_sets(max_size=8))
def test_roots_really_are_roots(ns):
    p = poly_from_roots(ns)
    for a in ns:
        assert p.evaluate(a) == 0


@given(node_sets(max_size=8), st.data())
def test_root_identity_vanishes_exactly_on_nodes(ns, data):
    table = compute_sigma(ns)
    a = data.draw(st.sampled_from(list(ns.nodes)))
    assert check_root_identity(table, a) == 0


def test_root_identity_off_node_value():
    table = compute_sigma(make_nodes(1, 2, 3))
    assert check_root_identity(table, F(4)) == 6  # (4-1)(4-2)(4-3)


def test_root_identity_single_node():
    table = compute_sigma(make_nodes(5))
    assert check_root_identity(table, F(5)) == 0


# --- step counts ---------------------------------------------------------------


@pytest.mark.parametrize("p", [1, 2, 5, 9])
def test_triangular_pass_multiply_add_count(p):
    ops = OpCounter()
    ns = NodeSet(tuple(counting([1.0 + i for i in range(p)], ops)))
    compute_sigma(ns)
    assert ops.muls == ops.adds == p * (p + 1) // 2
    assert ops.subs == ops.divs == ops.negs == 0


@pytest.mark.parametrize("p", [1, 2, 5, 9])
def test_deflation_work_is_quadratic_total(p):
    ops = OpCounter()
    ns = NodeSet(tuple(counting([1.0 + i for i in range(p)], ops)))
    table = compute_sigma(ns)
    muls0, subs0 = ops.muls, ops.subs
    deflate_all(table)
    assert ops.muls - muls0 == p * (p - 1)
    assert ops.subs - subs0 == p * (p - 1)
