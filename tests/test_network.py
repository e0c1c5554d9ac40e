import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from seqvote import network as net
from seqvote.experiments import instance_metrics
from seqvote.network import ConfirmationNetwork, NetworkError


def small_graph():
    return ConfirmationNetwork.build(4, [(0, 1), (1, 2), (3, 2)])


def test_build_defaults_to_identity_orders():
    g = small_graph()
    assert g.voting_order == (0, 1, 2, 3)
    assert g.tiebreak_order == (0, 1, 2, 3)


def test_build_rejects_self_loops():
    with pytest.raises(NetworkError, match="self"):
        ConfirmationNetwork.build(3, [(1, 1)])


def test_build_rejects_out_of_range_agents():
    with pytest.raises(NetworkError):
        ConfirmationNetwork.build(3, [(0, 5)])


def test_build_rejects_duplicate_edges():
    with pytest.raises(NetworkError, match="duplicate"):
        ConfirmationNetwork.build(3, [(0, 1), (0, 1)])


def test_build_rejects_bad_orders():
    with pytest.raises(NetworkError):
        ConfirmationNetwork.build(3, [], voting_order=[0, 1])
    with pytest.raises(NetworkError):
        ConfirmationNetwork.build(3, [], tiebreak_order=[0, 0, 1])


def test_neighbor_tables():
    g = small_graph()
    assert g.out_neighbors[1] == frozenset({2})
    assert g.in_neighbors[2] == frozenset({1, 3})
    assert g.in_neighbors[0] == frozenset()


def test_degree_profile_and_popularity():
    g = small_graph()
    profile = net.degree_profile(g)
    assert profile.max_in == 2
    assert profile.max_out == 1
    assert net.popularity(g, 2) == 2
    assert net.popularity(g, 3) == 0


def test_remove_out_edges_strips_only_the_given_agent():
    g = small_graph()
    stripped = net.remove_out_edges(g, 1)
    assert (1, 2) not in stripped.edges
    assert (0, 1) in stripped.edges and (3, 2) in stripped.edges
    # original is untouched (frozen dataclass)
    assert (1, 2) in g.edges


def test_additive_gap():
    g = small_graph()
    # without 1's out-edges the top in-degree is 1 (agents 1 and 2), d(1)=1
    assert net.additive_gap(g, 1) == 0
    # without 3's edge into 2, agents 1 and 2 are tied at in-degree 1
    assert net.additive_gap(g, 3) == 1


def test_ratio_conventions():
    g = small_graph()
    assert net.ratio(g, 1) == Fraction(1, 1)
    # d(3)=0 and someone else still has positive in-degree -> infinite ratio
    assert net.ratio(g, 3) == math.inf
    lonely = ConfirmationNetwork.build(2, [])
    # 0/0: nobody is confirmed at all, ratio defined as 1
    assert net.ratio(lonely, 0) == Fraction(1, 1)


def test_ratio_is_exact():
    g = ConfirmationNetwork.build(5, [(0, 4), (1, 4), (2, 4), (0, 3), (3, 4), (4, 3)])
    assert net.ratio(g, 3) == Fraction(3, 2)


def test_json_round_trip_preserves_everything():
    g = ConfirmationNetwork.build(
        3,
        [(0, 2), (1, 0)],
        voting_order=[2, 0, 1],
        tiebreak_order=[1, 2, 0],
        names=["x", "y", "z"],
    )
    again = net.parse(net.serialize(g))
    assert again == g


def test_serialize_is_stable_bytes():
    g = small_graph()
    assert net.serialize(g) == net.serialize(g)


def test_parse_rejects_malformed_documents():
    with pytest.raises(NetworkError):
        net.parse("not json")
    with pytest.raises(NetworkError):
        net.parse(json.dumps({"edges": []}))  # missing agent count
    with pytest.raises(NetworkError):
        net.parse(json.dumps({"n": 3, "edges": [[0]]}))
    doc = net.to_json_dict(small_graph())
    doc["edges"].append(doc["edges"][0])
    with pytest.raises(NetworkError):
        net.from_json_dict(doc)


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return ConfirmationNetwork.build(n, edges)


@given(graphs())
def test_round_trip_any_graph(g):
    assert net.parse(net.serialize(g)) == g


@given(graphs())
def test_gap_never_negative(g):
    for a in range(g.n):
        assert net.additive_gap(g, a) >= 0


@given(graphs())
@example(ConfirmationNetwork.build(2, []))  # 0/0 reads 1
@example(ConfirmationNetwork.build(3, [(1, 0), (2, 0)]))  # x/0 reads inf
def test_instance_metrics_match_a_count_over_the_edges(g):
    """Every agent's popularity, top popularity without its own out-edges,
    gap and ratio, against a count from scratch over ``g.edges``."""
    metrics = instance_metrics(g, range(g.n))
    assert [m.agent for m in metrics.per_winner] == list(range(g.n))
    for m in metrics.per_winner:
        w = m.agent
        popularity = sum(1 for _, dst in g.edges if dst == w)
        top = max(sum(1 for src, dst in g.edges if dst == a and src != w) for a in range(g.n))
        assert m.popularity == popularity
        assert m.top_popularity_without_own_edges == top
        assert m.gap == top - popularity
        if popularity:
            assert m.ratio == Fraction(top, popularity)
        elif top:
            assert m.ratio == math.inf
        else:
            assert m.ratio == 1

