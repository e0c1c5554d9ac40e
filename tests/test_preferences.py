from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from seqvote.network import ConfirmationNetwork
from seqvote.preferences import (
    LEVEL_CONFIRMED,
    LEVEL_SELF,
    LEVEL_UNCONFIRMED,
    assess,
    key_from_parts,
    outcome_level,
    utility_from_parts,
)


@pytest.fixture
def g():
    return ConfirmationNetwork.build(4, [(0, 1), (0, 3), (2, 0)])


def test_outcome_levels(g):
    assert outcome_level(g, 0, 0) == LEVEL_SELF
    assert outcome_level(g, 0, 1) == LEVEL_CONFIRMED
    assert outcome_level(g, 0, 2) == LEVEL_UNCONFIRMED
    assert outcome_level(g, 1, 0) == LEVEL_UNCONFIRMED


def test_levels_are_ordered():
    assert LEVEL_SELF > LEVEL_CONFIRMED > LEVEL_UNCONFIRMED


def test_assess_counts_confirmed_and_not(g):
    f, penalty = assess(g, 0, frozenset({1, 2, 3}))
    assert (f, penalty) == (2, 1)
    assert assess(g, 2, frozenset()) == (0, 0)


def test_key_prefers_level_over_any_bonus():
    # a confirmed outcome with the worst ballot beats an unconfirmed outcome
    # with the best ballot
    assert key_from_parts(1, 0, 5) > key_from_parts(0, 5, 0)


def test_key_prefers_fewer_unconfirmed_votes_over_more_confirmed():
    assert key_from_parts(1, 0, 0) > key_from_parts(1, 5, 1)


def test_key_matches_exact_utility_exhaustively():
    """The lexicographic key induces the same order as the perturbed utility
    for every admissible perturbation: the theorem the whole solver rests on."""
    n = 5
    parts = [
        (level, f, g)
        for level, f, g in product((0, 1, 2), range(n), range(n))
        if f + g <= n - 1
    ]
    epsilons = [Fraction(j, 11 * 2 * n) for j in range(1, 11)]
    for a in parts:
        for b in parts:
            ka, kb = key_from_parts(a[0], a[1], a[2]), key_from_parts(b[0], b[1], b[2])
            for eps in epsilons:
                ua = utility_from_parts(a[0], a[1], a[2], eps)
                ub = utility_from_parts(b[0], b[1], b[2], eps)
                assert (ka > kb) == (ua > ub) and (ka == kb) == (ua == ub), (a, b, eps)


@given(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=1, max_value=50),
)
def test_key_matches_utility_random(l1, f1, g1, l2, f2, g2, j):
    n = 8
    eps = Fraction(j, 51 * 2 * n)
    ka, kb = key_from_parts(l1, f1, g1), key_from_parts(l2, f2, g2)
    ua = utility_from_parts(l1, f1, g1, eps)
    ub = utility_from_parts(l2, f2, g2, eps)
    assert (ka > kb) == (ua > ub)
