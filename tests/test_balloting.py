from math import comb

import pytest
from hypothesis import given, strategies as st

from seqvote import balloting
from seqvote.balloting import (
    APPROVAL,
    PLURALITY,
    Rule,
    RuleError,
    apply_ballot,
    is_truthful_class,
    k_approval,
    legal_ballots,
    rule_from_strings,
    winner,
)
from seqvote.network import ConfirmationNetwork


def test_rule_validation():
    with pytest.raises(RuleError):
        Rule("borda")
    with pytest.raises(RuleError):
        Rule("k_approval")  # missing cap
    with pytest.raises(RuleError):
        Rule("k_approval", True)  # a bool is an int, but not a cap
    with pytest.raises(RuleError):
        Rule("plurality", cap=1)
    assert k_approval(3).cap == 3


def test_ballot_caps():
    assert PLURALITY.ballot_cap(7) == 1
    assert APPROVAL.ballot_cap(7) == 6
    assert k_approval(2).ballot_cap(7) == 2
    # cap larger than the field is fine, legality clamps to the others
    assert k_approval(10).ballot_cap(4) == 10


def test_rule_labels():
    assert PLURALITY.label() == "plurality"
    assert k_approval(2).label() == "k_approval(2)"


def test_rule_from_strings():
    assert rule_from_strings("plurality") == PLURALITY
    assert rule_from_strings("k-approval", 2) == k_approval(2)
    with pytest.raises(RuleError):
        rule_from_strings("k-approval")
    with pytest.raises(RuleError):
        rule_from_strings("approval", 2)


def test_legal_ballots_plurality():
    ballots = legal_ballots(PLURALITY, 0, 4)
    assert ballots == [frozenset(), frozenset({1}), frozenset({2}), frozenset({3})]


def test_legal_ballots_counts():
    # approval over 4 others: all subsets
    assert len(legal_ballots(APPROVAL, 2, 5)) == 2**4
    # 2-approval over 5 others: sizes 0..2
    assert len(legal_ballots(k_approval(2), 0, 6)) == 1 + 5 + comb(5, 2)


def test_legal_ballots_never_include_self():
    for rule in (PLURALITY, APPROVAL, k_approval(2)):
        for b in legal_ballots(rule, 3, 5):
            assert 3 not in b


def test_legal_ballots_canonical_order():
    ballots = legal_ballots(k_approval(2), 1, 4)
    sizes = [len(b) for b in ballots]
    assert sizes == sorted(sizes)
    assert ballots[0] == frozenset()
    pairs = [tuple(sorted(b)) for b in ballots if len(b) == 2]
    assert pairs == sorted(pairs)


def test_apply_ballot():
    assert apply_ballot((0, 1, 0), frozenset({0, 2})) == (1, 1, 1)
    assert apply_ballot((2, 2), frozenset()) == (2, 2)


def test_winner_tiebreak():
    assert winner((1, 2, 2), (0, 1, 2)) == 1
    assert winner((1, 2, 2), (2, 1, 0)) == 2
    # everyone at zero: the first agent in the tie-breaking order wins
    assert winner((0, 0, 0), (2, 0, 1)) == 2


def test_truthful_class_membership():
    g = ConfirmationNetwork.build(5, [(0, 1), (0, 2), (0, 4), (3, 2)])
    assert is_truthful_class(g, APPROVAL, 0, frozenset({1, 2, 4}))
    assert not is_truthful_class(g, APPROVAL, 0, frozenset({1, 2}))
    # plurality: any single confirmed agent counts, abstention does not
    for a in (1, 2, 4):
        assert is_truthful_class(g, PLURALITY, 0, frozenset({a}))
    assert not is_truthful_class(g, PLURALITY, 0, frozenset())
    assert not is_truthful_class(g, PLURALITY, 0, frozenset({3}))
    # 2-approval: any confirmed pair
    assert is_truthful_class(g, k_approval(2), 0, frozenset({2, 4}))
    assert not is_truthful_class(g, k_approval(2), 0, frozenset({1}))
    # out-degree below the cap: the whole confirmation set is required
    assert is_truthful_class(g, k_approval(2), 3, frozenset({2}))
    assert not is_truthful_class(g, k_approval(2), 3, frozenset())


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=5),
    st.sampled_from(["plurality", "approval", "k2"]),
)
def test_legal_ballots_respect_cap(n, voter, rule_name):
    if voter >= n:
        voter = voter % n
    rule = {"plurality": PLURALITY, "approval": APPROVAL, "k2": k_approval(2)}[rule_name]
    ballots = legal_ballots(rule, voter, n)
    cap = rule.ballot_cap(n)
    assert len(set(ballots)) == len(ballots)
    for b in ballots:
        assert len(b) <= cap
        assert voter not in b


def test_rule_normalization_on_caps():
    # plurality behaves as 1-approval, approval as (n-1)-approval
    n = 5
    assert legal_ballots(PLURALITY, 0, n) == legal_ballots(k_approval(1), 0, n)
    assert legal_ballots(APPROVAL, 0, n) == legal_ballots(k_approval(n - 1), 0, n)
