"""Shared strategies and deterministic generators for the test suite."""

import random
from fractions import Fraction

import hypothesis.strategies as st

from vandersolve.field import CountingNumber, OpCounter
from vandersolve.symfuncs import NodeSet

small_fractions = st.fractions(min_value=-8, max_value=8, max_denominator=8)
# Exact scalars as callers pass them: Fractions, plain ints, or both in one list.
exact_scalars = st.one_of(small_fractions, st.integers(min_value=-8, max_value=8))


def counting(values, counter: OpCounter) -> list:
    """Wrap a sequence of scalars for op counting."""
    return [CountingNumber(v, counter) for v in values]


def node_sets(min_size: int = 1, max_size: int = 8, elements=small_fractions):
    """Strategy for NodeSets of small, pairwise-distinct rationals."""
    return st.lists(
        elements, min_size=min_size, max_size=max_size, unique=True,
    ).map(lambda xs: NodeSet(tuple(xs)))


def random_fraction(rng: random.Random, span: int = 30, max_den: int = 12) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def random_node_set(rng: random.Random, p: int) -> NodeSet:
    """p distinct random rationals, order deterministic for a given rng state."""
    nodes, seen = [], set()
    while len(nodes) < p:
        f = random_fraction(rng)
        if f not in seen:
            seen.add(f)
            nodes.append(f)
    return NodeSet(tuple(nodes))


def random_values(rng: random.Random, count: int) -> list:
    return [random_fraction(rng) for _ in range(count)]


def affine_member(space, coefficients) -> list:
    """particular + sum of t_k * v_k: one member of an affine solution space."""
    assert len(coefficients) == space.basis.dimension
    return [x + sum(t * v[i] for t, v in zip(coefficients, space.basis.vectors))
            for i, x in enumerate(space.particular)]


# --- exact matrix algebra on plain rows: the reference side of the tests ------------


def vandermonde_rows(nodes, n: int) -> list:
    """The p x n rows (1, a, a^2, ..., a^(n-1)), each by repeated multiplication."""
    rows = []
    for a in nodes:
        row = [1]
        for _ in range(n - 1):
            row.append(row[-1] * a)
        rows.append(row)
    return rows


def mat_vec(rows, v) -> list:
    """rows @ v; a vector of the wrong length raises ValueError."""
    return [sum(x * y for x, y in zip(row, v, strict=True)) for row in rows]


def mat_mul(a, b) -> list:
    """a @ b as rows: row i is b's columns dotted with row i of a."""
    columns = list(zip(*b, strict=True))
    return [mat_vec(columns, row) for row in a]


def identity(n: int) -> list:
    return [[int(i == j) for j in range(n)] for i in range(n)]
