import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from seqvote import engine
from seqvote.balloting import APPROVAL, PLURALITY, k_approval, legal_ballots
from seqvote.engine import (
    Budget,
    BudgetExceededError,
    NaiveSizeError,
    Policy,
    Solver,
    SubgameState,
    achievable_winners,
    initial_state,
    naive_achievable_winners,
    policy_spe,
    potential,
    verify_low_outdegree_subgame,
)
from seqvote.families import InstanceSpec, RandomSpec, gen_paper_instance, gen_random
from seqvote.network import ConfirmationNetwork


def example1():
    return gen_paper_instance(InstanceSpec("example1"))


def example2():
    return gen_paper_instance(InstanceSpec("example2"))


# -- golden outcomes ------------------------------------------------------------


def test_example1_winners():
    g = example1()
    assert {g.names[w] for w in achievable_winners(g, PLURALITY).winners} == {"1"}
    assert {g.names[w] for w in achievable_winners(g, APPROVAL).winners} == {"5"}


def test_example2_winners():
    g = example2()
    assert {g.names[w] for w in achievable_winners(g, PLURALITY).winners} == {"3"}
    assert {g.names[w] for w in achievable_winners(g, APPROVAL).winners} == {"4"}


def test_single_agent_game():
    g = ConfirmationNetwork.build(1, [])
    assert achievable_winners(g, PLURALITY).winners == frozenset({0})


def test_empty_graph_earliest_tiebreak_wins():
    g = ConfirmationNetwork.build(3, [], tiebreak_order=[2, 0, 1])
    # nobody confirms anyone: abstention everywhere, zero-vote winner by order
    assert achievable_winners(g, PLURALITY).winners == frozenset({2})


# -- oracle agreement -----------------------------------------------------------


def random_instances(count, n_max, seed0):
    rng = random.Random(seed0)
    for j in range(count):
        n = rng.randint(2, n_max)
        p = rng.choice([0.2, 0.4, 0.6])
        yield gen_random(RandomSpec(n=n, p=p, max_out=None, seed=seed0 + j))


@pytest.mark.parametrize(
    "rule,n_max",
    [(PLURALITY, 5), (APPROVAL, 4), (k_approval(2), 4)],
    ids=["plurality", "approval", "2-approval"],
)
def test_solver_matches_naive_oracle(rule, n_max):
    for g in random_instances(30, n_max, seed0=900):
        expected = naive_achievable_winners(g, rule).winners
        got = achievable_winners(g, rule).winners
        assert got == expected, (g.n, sorted(g.edges))


def test_memo_and_pruning_do_not_change_results():
    for g in random_instances(20, 4, seed0=1700):
        results = set()
        for memo in (True, False):
            for pruning in (True, False):
                solver = Solver(g, APPROVAL, use_memo=memo, use_pruning=pruning)
                spe = solver.policy_spe(Policy.bias_toward(g.n - 1))
                winners = solver.achievable_winners().winners
                results.add((winners, spe.winners, spe.winner, tuple(spe.path)))
        assert len(results) == 1


def test_naive_oracle_refuses_oversized_games():
    g = gen_random(RandomSpec(n=9, p=0.3, max_out=None, seed=1))
    with pytest.raises(NaiveSizeError):
        naive_achievable_winners(g, APPROVAL)


# -- subgames and the reused memo -------------------------------------------------


def test_subgame_state_validation():
    with pytest.raises(ValueError):
        SubgameState(5, (0, 0)).validate(2)
    with pytest.raises(ValueError):
        SubgameState(0, (0,)).validate(2)
    # i voters have cast at most i votes each... total votes bounded by ballots
    SubgameState(1, (1, 0)).validate(2)


def test_solving_from_a_mid_game_state():
    g = example2()
    # agent "1" (index 0) has already voted for "4" (index 3)
    scores = [0] * g.n
    scores[3] = 1
    sub = Solver(g, APPROVAL).achievable_winners(SubgameState(1, tuple(scores)))
    assert sub.winners  # non-empty by SPE existence


def test_reuse_cache_gives_same_answer():
    g = example2()
    s = Solver(g, APPROVAL)
    fresh = s.achievable_winners().winners
    again = s.achievable_winners(reuse_cache=True).winners
    assert fresh == again


def test_reuse_cache_call_has_its_own_node_budget():
    g = example2()
    probe = Solver(g, APPROVAL)
    probe.achievable_winners()
    s = Solver(g, APPROVAL, budget=Budget(max_nodes=probe.last_stats.nodes))
    first = s.achievable_winners().winners
    # the memo answers the root at once; the first call's nodes are not counted
    assert s.achievable_winners(reuse_cache=True).winners == first
    assert s.last_stats.nodes == 1
    assert s.last_stats.cache_hits == 1


def test_reuse_cache_call_has_its_own_deadline_and_clock(monkeypatch):
    clock = [100.0]
    monkeypatch.setattr(engine, "time", SimpleNamespace(monotonic=lambda: clock[0]))
    g = example2()
    s = Solver(g, APPROVAL, budget=Budget(max_seconds=10))
    first = s.achievable_winners().winners
    clock[0] += 60  # the first call's deadline has long passed
    assert s.achievable_winners(reuse_cache=True).winners == first
    assert s.last_stats.wall_seconds == 0.0


def test_policy_memo_serves_a_later_policy_free_call():
    g = example2()
    s = Solver(g, APPROVAL)
    spe = s.policy_spe(Policy.canonical())
    assert s.achievable_winners(reuse_cache=True).winners == spe.winners
    assert s.last_stats.nodes == s.last_stats.cache_hits == 1


# -- policy extraction ----------------------------------------------------------


def test_canonical_policy_path_is_consistent():
    for rule in (PLURALITY, APPROVAL):
        g = example1()
        spe = policy_spe(g, rule, Policy.canonical())
        assert len(spe.path) == g.n
        assert spe.winners == achievable_winners(g, rule).winners
        assert spe.winner in spe.winners
        # replaying the path produces the reported winner
        scores = [0] * g.n
        for ballot in spe.path:
            for a in ballot:
                scores[a] += 1
        from seqvote.balloting import winner as elect

        assert elect(tuple(scores), g.tiebreak_order) == spe.winner


def test_policy_ballots_are_legal():
    g = example2()
    spe = policy_spe(g, PLURALITY, Policy.canonical())
    for i, ballot in enumerate(spe.path):
        voter = g.voting_order[i]
        assert ballot in set(legal_ballots(PLURALITY, voter, g.n))


def test_bias_policy_reaches_biased_winner_when_achievable():
    for g in random_instances(20, 5, seed0=3300):
        winners = achievable_winners(g, PLURALITY).winners
        target = min(winners)
        spe = policy_spe(g, PLURALITY, Policy.bias_toward(target))
        assert spe.winner in winners


def test_bias_policy_rejects_bad_target():
    g = example1()
    with pytest.raises(ValueError):
        Solver(g, PLURALITY).policy_spe(Policy.bias_toward(99))


# -- budget ----------------------------------------------------------------------


def test_node_budget_exceeded():
    g = gen_random(RandomSpec(n=7, p=0.5, max_out=None, seed=44))
    with pytest.raises(BudgetExceededError) as exc_info:
        Solver(g, APPROVAL, budget=Budget(max_nodes=50)).achievable_winners()
    assert exc_info.value.stats.nodes >= 50


def test_time_budget_exceeded():
    g = gen_random(RandomSpec(n=8, p=0.5, max_out=None, seed=45))
    with pytest.raises(BudgetExceededError):
        Solver(g, APPROVAL, budget=Budget(max_seconds=0.05)).achievable_winners()


# -- potential and the low-out-degree guarantee ---------------------------------


def test_potential_counts_remaining_confirmers():
    g = example2()  # edges 1->4, 2->3, 3->4 in display names
    state = initial_state(g.n)
    assert potential(g, state, 3) == 2  # confirmed by agents 0 and 2
    scores = [0] * g.n
    scores[3] = 1
    assert potential(g, SubgameState(1, tuple(scores)), 3) == 2  # 1 banked + 1 to come


def test_low_outdegree_guarantee_on_example2():
    g = example2()
    for rule in (PLURALITY, APPROVAL):
        w, report = verify_low_outdegree_subgame(g, rule)
        assert report.passed, report.describe()
        assert report.unique


def test_low_outdegree_rejects_branchy_graphs():
    g = example1()  # agent "2" confirms two agents
    with pytest.raises(ValueError):
        verify_low_outdegree_subgame(g, PLURALITY)


# -- SPE existence, property-based ----------------------------------------------


@st.composite
def tiny_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return ConfirmationNetwork.build(n, edges)


@settings(max_examples=60, deadline=None)
@given(tiny_graphs())
def test_achievable_set_never_empty(g):
    assert achievable_winners(g, PLURALITY).winners


@settings(max_examples=40, deadline=None)
@given(tiny_graphs())
def test_plurality_equals_1_approval(g):
    assert (
        achievable_winners(g, PLURALITY).winners
        == achievable_winners(g, k_approval(1)).winners
    )


@settings(max_examples=25, deadline=None)
@given(tiny_graphs())
def test_approval_equals_nminus1_approval(g):
    if g.n < 2:
        return
    assert (
        achievable_winners(g, APPROVAL).winners
        == achievable_winners(g, k_approval(g.n - 1)).winners
    )
