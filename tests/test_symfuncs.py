"""Sigma rows: triangular pass, deflation, root expansion, step counts."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from helpers import counting, exact_scalars, node_sets, small_fractions
from reference import sigma_bruteforce
from vandersolve.field import CountingNumber, OpCounter, exact_str, parse_scalar
from vandersolve.symfuncs import (
    DuplicateNodeError,
    NodeSet,
    compute_sigma,
    deflate_all,
    normalized,
    poly_from_roots,
)

F = Fraction


def make_nodes(*xs) -> NodeSet:
    return NodeSet(tuple(F(x) for x in xs))


def sigma(ns: NodeSet) -> tuple:
    return normalized(compute_sigma(ns.pairs))


def deflated(ns: NodeSet) -> tuple:
    return tuple(map(normalized, deflate_all(ns.pairs, compute_sigma(ns.pairs))))


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


def _spellings(value: Fraction):
    """One exact value as a caller may write it: a Fraction, an int, or a literal."""
    n, d = value.numerator, value.denominator
    texts = [f"{n * k}/{d * k}" for k in (1, 2)] + (["-0", "0/5"] if n == 0 else [])
    return st.sampled_from([value, *map(parse_scalar, texts)] + ([n, n] if d == 1 else []))


# five values, each under several spellings, so many lists hold a repeat
spelled_nodes = st.lists(st.fractions(-1, 1, max_denominator=2).flatmap(_spellings),
                         min_size=1, max_size=6)


def _first_repeat(nodes):
    """(j, i) with j < i and nodes[j] == nodes[i], i the least such and j the least for it."""
    for i in range(len(nodes)):
        for j in range(i):
            if nodes[j] == nodes[i]:
                return j, i
    return None


@given(spelled_nodes, st.sampled_from(("exact", "counted", "mixed")))
def test_repeats_under_any_spelling_are_found_and_pairs_in_lowest_terms(xs, kind):
    if kind != "exact":  # "mixed" counts every other node, which puts every pair at (a, 1)
        wrapped = counting(xs, OpCounter())
        if kind == "mixed":
            wrapped = [w if i % 2 else a for i, (a, w) in enumerate(zip(xs, wrapped))]
        xs = wrapped
    counted = any(isinstance(a, CountingNumber) for a in xs)
    repeat = _first_repeat(xs)
    if repeat is None:
        got = NodeSet(tuple(xs)).pairs
        want = [(a, 1) for a in xs] if counted else [F(a).as_integer_ratio() for a in xs]
        # typed, since a CountingNumber equals the value it wraps
        assert [(type(n), n, d) for n, d in got] == [(type(n), n, d) for n, d in want]
        return
    with pytest.raises(DuplicateNodeError) as err:
        NodeSet(tuple(xs))
    j, i = repeat
    assert err.value.value is xs[i]
    assert (err.value.first, err.value.second) == (j, i)
    assert str(err.value) == f"duplicate node {exact_str(xs[i])} at positions {j} and {i}"


# --- compute_sigma -----------------------------------------------------------


def test_sigma_of_one_two_three():
    assert sigma(make_nodes(1, 2, 3)) == (1, 6, 11, 6)


@given(small_fractions)
def test_sigma_of_single_node(a):
    assert sigma(NodeSet((a,))) == (1, a)


@given(node_sets(min_size=3, max_size=3))
def test_sigma_three_node_formulas(ns):
    a, b, c = ns.nodes
    assert sigma(ns) == (1, a + b + c, a * b + a * c + b * c, a * b * c)


@given(node_sets(max_size=8))
def test_sigma_matches_subset_enumeration(ns):
    row = sigma(ns)
    for t in range(len(ns) + 1):
        assert row[t] == sigma_bruteforce(ns, t)


@given(node_sets(max_size=7), st.data())
def test_sigma_is_permutation_invariant(ns, data):
    shuffled = data.draw(st.permutations(list(ns.nodes)))
    assert sigma(NodeSet(tuple(shuffled))) == sigma(ns)


def _product(a, b) -> tuple:
    """The coefficient rows a and b multiplied as polynomials, term by term."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return tuple(out)


@given(node_sets(max_size=8, elements=exact_scalars), st.booleans(), st.data())
def test_sigma_of_the_pairs_is_the_product_over_any_split(ns, counted, data):
    # the invariant the blocked combine folds by: the row of prod(d_k x + n_k)
    # over all pairs is the product of the rows over pairs[:k] and pairs[k:]
    if counted:
        ns = NodeSet(tuple(counting(ns.nodes, OpCounter())))
    pairs = ns.pairs
    k = data.draw(st.integers(0, len(pairs)))
    assert compute_sigma(pairs) == _product(compute_sigma(pairs[:k]), compute_sigma(pairs[k:]))


# --- deflate_all -------------------------------------------------------------


def test_deflate_first_node():
    assert deflated(make_nodes(1, 2, 3))[0] == (1, 5, 6)


def test_deflate_single_node_row():
    assert deflated(make_nodes(7))[0] == (1,)


@given(node_sets(min_size=3, max_size=3))
def test_deflate_three_node_formulas(ns):
    a, b, c = ns.nodes
    assert deflated(ns)[0] == (1, b + c, b * c)


@given(node_sets(min_size=2, max_size=8), st.data())
def test_deflation_equals_recomputation_without_node(ns, data):
    i = data.draw(st.integers(min_value=0, max_value=len(ns) - 1))
    rest = NodeSet(ns.nodes[:i] + ns.nodes[i + 1:])
    assert deflated(ns)[i] == sigma(rest)


@given(node_sets(max_size=8))
def test_deflation_recurrence_identity(ns):
    # sigma(t) = deflated(i, t) + a_i * deflated(i, t - 1), deflated zero outside 0..p-1
    full, rows = sigma(ns), deflated(ns)
    for i, a in enumerate(ns):
        padded = (0, *rows[i], 0)
        for t in range(len(ns) + 1):
            assert full[t] == padded[t + 1] + a * padded[t]


def test_deflate_all_two_nodes():
    assert deflated(make_nodes(1, 2)) == ((1, 2), (1, 1))


def test_deflate_all_single_node():
    assert deflated(make_nodes(4)) == ((1,),)


@given(node_sets(min_size=3, max_size=3))
def test_deflate_all_three_node_grid(ns):
    a, b, c = ns.nodes
    assert deflated(ns) == ((1, b + c, b * c), (1, a + c, a * c), (1, a + b, a * b))


@given(node_sets(max_size=8))
def test_leading_entries_are_one(ns):
    assert sigma(ns)[0] == 1
    assert all(row[0] == 1 for row in deflated(ns))


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


@given(node_sets(max_size=8), small_fractions)
def test_root_identity_vanishes_exactly_on_nodes(ns, a):
    assert (poly_from_roots(ns).evaluate(a) == 0) == (a in ns.nodes)


def test_root_identity_off_node_value():
    assert poly_from_roots(make_nodes(1, 2, 3)).evaluate(F(4)) == 6  # (4-1)(4-2)(4-3)


def test_root_identity_single_node():
    assert poly_from_roots(make_nodes(5)).evaluate(F(5)) == 0


# --- step counts ---------------------------------------------------------------


@pytest.mark.parametrize("p", [1, 2, 5, 9])
def test_triangular_pass_multiply_add_count(p):
    ops = OpCounter()
    ns = NodeSet(tuple(counting([1.0 + i for i in range(p)], ops)))
    compute_sigma(ns.pairs)
    assert ops.muls == ops.adds == p * (p + 1) // 2
    assert ops.subs == ops.divs == ops.negs == 0


@pytest.mark.parametrize("p", [1, 2, 5, 9])
def test_deflation_work_is_quadratic_total(p):
    ops = OpCounter()
    ns = NodeSet(tuple(counting([1.0 + i for i in range(p)], ops)))
    coeffs = compute_sigma(ns.pairs)
    muls0, subs0 = ops.muls, ops.subs
    deflate_all(ns.pairs, coeffs)
    assert ops.muls - muls0 == p * (p - 1)
    assert ops.subs - subs0 == p * (p - 1)
