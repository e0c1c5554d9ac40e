import dataclasses
import importlib
import random
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from seqvote import engine
from seqvote.balloting import APPROVAL, PLURALITY, apply_ballot, k_approval, legal_ballots
from seqvote.balloting import winner as elect
from seqvote.engine import (
    Budget,
    BudgetExceededError,
    NaiveSizeError,
    Policy,
    Solver,
    SubgameState,
    naive_achievable_winners,
)
from seqvote.families import InstanceSpec, RandomSpec, gen_paper_instance, gen_random
from seqvote.network import ConfirmationNetwork, to_json_dict
from seqvote.preferences import assess, outcome_level
from seqvote.verify import low_outdegree_verdict, oracle_specs

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def example1():
    return gen_paper_instance(InstanceSpec("example1"))


def example2():
    return gen_paper_instance(InstanceSpec("example2"))


def winners_of(g, rule):
    return Solver(g, rule).achievable_winners()


# -- golden outcomes ------------------------------------------------------------


def test_example1_winners():
    g = example1()
    assert {g.names[w] for w in winners_of(g, PLURALITY)} == {"1"}
    assert {g.names[w] for w in winners_of(g, APPROVAL)} == {"5"}


def test_example2_winners():
    g = example2()
    assert {g.names[w] for w in winners_of(g, PLURALITY)} == {"3"}
    assert {g.names[w] for w in winners_of(g, APPROVAL)} == {"4"}


def test_single_agent_game():
    g = ConfirmationNetwork.build(1, [])
    assert winners_of(g, PLURALITY) == frozenset({0})


def test_empty_graph_earliest_tiebreak_wins():
    g = ConfirmationNetwork.build(3, [], tiebreak_order=[2, 0, 1])
    # nobody confirms anyone: abstention everywhere, zero-vote winner by order
    assert winners_of(g, PLURALITY) == frozenset({2})


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
        expected = naive_achievable_winners(g, rule)
        got = winners_of(g, rule)
        assert got == expected, (g.n, sorted(g.edges))


def test_pruning_does_not_change_results():
    for g in random_instances(20, 4, seed0=1700):
        results = set()
        for pruning in (True, False):
            solver = Solver(g, APPROVAL, use_pruning=pruning)
            spe = solver.policy_spe(Policy.bias_toward(g.n - 1))
            winners = solver.achievable_winners()
            results.add((winners, spe.winners, spe.winner, tuple(spe.path)))
        assert len(results) == 1
    # the pruning counters: both rules fire on plurality_chain(3), neither
    # without pruning
    g = gen_paper_instance(InstanceSpec("plurality_chain", 3))
    pruned, plain = Solver(g, PLURALITY), Solver(g, PLURALITY, use_pruning=False)
    assert pruned.achievable_winners() == plain.achievable_winners()
    stats = pruned.last_stats.as_dict()
    assert stats["quiescent"] > 0 and stats["bound_skips"] > 0
    stats = plain.last_stats.as_dict()
    assert stats["quiescent"] == 0 and stats["bound_skips"] == 0


# (name, k, rule, policy, use_pruning) and the search's counters: nodes,
# cache_hits, cache_size, quiescent, bound_skips, memo_aliases.
PINNED = [
    ("plurality_chain", 4, PLURALITY, None, True, (990, 144, 251, 595, 1772, 251)),
    ("h_k", 2, APPROVAL, Policy.canonical(), True, (359, 192, 107, 60, 5930, 111)),
    ("kapproval_chain", 2, k_approval(2), None, True, (2190, 244, 365, 1581, 14601, 365)),
    ("kapproval_chain", 1, k_approval(2), Policy.bias_toward(5), True, (374, 54, 98, 222, 1783, 98)),
    ("plurality_chain", 3, PLURALITY, Policy.canonical(), False, (39873, 28461, 11412, 0, 0, 0)),
    ("example1", None, APPROVAL, Policy.canonical(), False, (8913, 7076, 1837, 0, 0, 0)),
]
PINNED_IDS = [
    "plurality_chain(4)",
    "h_k(2)-approval-canonical",
    "kapproval_chain(2)-2-approval",
    "kapproval_chain(1)-2-approval-bias",
    "plurality_chain(3)-canonical-no-pruning",
    "example1-approval-canonical-no-pruning",
]
COUNTERS = ("nodes", "cache_hits", "cache_size", "quiescent", "bound_skips", "memo_aliases")


def counters_of(stats):
    return tuple(stats.as_dict()[key] for key in COUNTERS)


@pytest.mark.parametrize("name,k,rule,policy,pruning,expected", PINNED, ids=PINNED_IDS)
def test_searched_tree_is_pinned(name, k, rule, policy, pruning, expected):
    """The search's counters on six catalog games, two with pruning off.  A
    change to the search core that speeds it up without changing the tree it
    searches keeps them; one that changes the tree must say so here.  The
    order a completed search visits ballots in moves none of them."""
    solver = Solver(gen_paper_instance(InstanceSpec(name, k)), rule, use_pruning=pruning)
    solver.solve(policy=policy)
    assert counters_of(solver.last_stats) == expected


# break_skips of the PINNED searches, row for row: the part of bound_skips
# that the node-level break leaves unvisited.
PINNED_BREAK_SKIPS = [1533, 3468, 13866, 1666, 0, 0]


@pytest.mark.parametrize(
    "name,k,rule,policy,pruning,expected,breaks",
    [(*row, breaks) for row, breaks in zip(PINNED, PINNED_BREAK_SKIPS)],
    ids=PINNED_IDS,
)
def test_break_skips_are_pinned(name, k, rule, policy, pruning, expected, breaks):
    """The node-level break's share of bound_skips; the rest are ballots the
    per-ballot bound skipped one at a time.  Both are 0 with pruning off."""
    solver = Solver(gen_paper_instance(InstanceSpec(name, k)), rule, use_pruning=pruning)
    solver.solve(policy=policy)
    stats = solver.last_stats
    assert (stats.bound_skips, stats.break_skips) == (expected[COUNTERS.index("bound_skips")], breaks)


@pytest.mark.parametrize(
    "n,expected",
    [
        (62, (20001, 2594, 8722, 8626, 430802, 11202)),
        (63, (20001, 12750, 6207, 983, 210093, 18912)),
    ],
    ids=["n62-8-bit-digits", "n63-16-bit-digits"],
)
def test_budget_stop_on_62_and_63_agents(n, expected):
    """The counters of a node-budget stop on seeded 62- and 63-agent
    plurality games, on either side of the switch from 8- to 16-bit digits.
    Like the PINNED rows, they move only with the tree the search visits."""
    g = gen_random(RandomSpec(n=n, p=0.05, max_out=None, seed=6200 + n))
    solver = Solver(g, PLURALITY, budget=Budget(max_nodes=20_000))
    with pytest.raises(BudgetExceededError, match="node budget of 20000 exceeded") as exc_info:
        solver.achievable_winners()
    assert counters_of(exc_info.value.stats) == expected


@pytest.mark.parametrize("name,k,rule,policy,pruning,expected", PINNED, ids=PINNED_IDS)
def test_node_budget_and_clock_on_the_pinned_games(
    monkeypatch, name, k, rule, policy, pruning, expected
):
    """A node budget of exactly a search's nodes lets it finish with the same
    answer and counters; one node less stops it at that node.  A time budget
    reads the clock on node 1 and every 1024th node after it."""
    g = gen_paper_instance(InstanceSpec(name, k))
    nodes = expected[0]
    answer = Solver(g, rule, use_pruning=pruning).solve(policy=policy)
    exact = Solver(g, rule, use_pruning=pruning, budget=Budget(max_nodes=nodes))
    assert exact.solve(policy=policy) == answer
    assert counters_of(exact.last_stats) == expected
    short = Solver(g, rule, use_pruning=pruning, budget=Budget(max_nodes=nodes - 1))
    with pytest.raises(BudgetExceededError, match=f"node budget of {nodes - 1} exceeded") as exc_info:
        short.solve(policy=policy)
    assert exc_info.value.stats.nodes == nodes
    timed = Solver(g, rule, use_pruning=pruning, budget=Budget(max_seconds=float("inf")))
    reads = []  # the node count at each clock read
    monkeypatch.setattr(
        engine, "time", SimpleNamespace(monotonic=lambda: reads.append(timed._nodes) or 0.0)
    )
    assert timed.solve(policy=policy) == answer
    # _start reads the clock before node 1, and _stats after the last node
    assert reads == [0, *range(1, nodes + 1, 1024), nodes]


def digit_width(n):
    """The packed state's digit width: two bits to spare over n + 1."""
    return 8 if n <= 62 else 16


def digit_set(agents, n):
    """The agents as a digit set: the top bit of each one's digit."""
    w = digit_width(n)
    return sum(1 << w * a + w - 1 for a in set(agents))


def precedences(g):
    """Each agent's tie-break precedence, n - 1 for the first in order."""
    return [g.n - 1 - g.tiebreak_order.index(a) for a in range(g.n)]


def votes_to_come(g, j, z, confirmers_only):
    """The votes z can still receive from the voters of voting_order[j:]:
    from every one but itself, or only from those that confirm it."""
    later = g.voting_order[j:]
    if confirmers_only:
        return sum(z in g.out_neighbors[y] for y in later)
    return len(later) - (z in later)


def reference_known(solver, i, p):
    """Solver._known(i, p) from a loop over the agents: the digit set of
    the agents that trail the lead key with every vote still to come, the
    lead key (votes * n + precedence) and the canonical memo key."""
    g, n = solver.g, solver.n
    w = digit_width(n)
    prec = precedences(g)
    keys = [(p >> w * a & (1 << w) - 1) * n + prec[a] for a in range(n)]
    lead = max(keys)
    dead = [z for z in range(n) if keys[z] + votes_to_come(g, i, z, False) * n < lead]
    fill = sum((1 << w) - 1 << w * a for a in dead)
    live = sum(1 << w * a for a in range(n) if a not in dead)
    return digit_set(dead, n), lead, p + (n - i - lead // n) * live | fill


@pytest.mark.parametrize("n", [*range(1, 9), 12, 62, 63])
def test_digit_sets_match_a_loop_over_the_agents(n):
    """Seeded random states: each packed table plus the bias of a key K,
    added to the packed state, sets the top bits of the agents a loop over
    the agents finds with keys v = votes * n + precedence: alive (not v +
    reach < K), hopeful (v + cr >= K) and contender (v + n > lead), with
    reach and cr the votes still to come from every voter and from
    confirmers, at this depth and the next.  K runs over every lead key a
    child can have.  _known agrees with the same loop.  A seeded ballot's delta added too gives its child's hopeful and
    live agents, by the same loop over the child's scores at every key from
    the child's lead on.  Digits switch from 8 to 16 bits between n = 62 and
    63; the ballots are approval's up to n = 8, plurality's above."""
    rng = random.Random(9400 + n)
    pick = random.Random(9500 + n)  # the ballots, apart so the states stay those of rng
    w = digit_width(n)
    tops = digit_set(range(n), n)
    ones = sum(1 << w * a for a in range(n))
    for trial in range(12):
        spec = RandomSpec(n=n, p=rng.choice((0.1, 0.3, 0.6)), max_out=None, seed=rng.randrange(10**6))
        g = gen_random(spec)
        solver = Solver(g, APPROVAL if n <= 8 else PLURALITY)
        i = rng.randint(0, n)
        # the first two states have every score at i and at 0
        scores = tuple(i if trial == 0 else 0 if trial == 1 else rng.randint(0, i) for _ in range(n))
        p = solver._pack(SubgameState(i, scores))
        assert p == sum(s << w * a for a, s in enumerate(scores)) + (i << w * n)
        prec = precedences(g)
        v = [scores[z] * n + prec[z] for z in range(n)]
        lead = max(v)

        def found(table, key, extra=0):
            return p + table + solver._reaching(key) + extra & tops

        for j in sorted({i, min(i + 1, n)}):
            reach = [votes_to_come(g, j, z, False) * n for z in range(n)]
            cr = [votes_to_come(g, j, z, True) * n for z in range(n)]
            for key in range(lead, lead + n + 1):
                alive = found(solver._reach[j], key)
                assert alive == tops ^ digit_set((z for z in range(n) if v[z] + reach[z] < key), n)
                assert found(solver._conf_votes[j], key) == digit_set(
                    (z for z in range(n) if v[z] + cr[z] >= key), n
                )
        assert found(0, lead + 1, ones) == digit_set((z for z in range(n) if v[z] + n > lead), n)
        assert solver._known(i, p) == reference_known(solver, i, p), (n, i, scores)
        if i < n:
            members, _, _, delta = pick.choice(solver._visit_order[g.voting_order[i]])
            child = apply_ballot(scores, members)
            cv = [child[z] * n + prec[z] for z in range(n)]
            reach = [votes_to_come(g, i + 1, z, False) * n for z in range(n)]
            cr = [votes_to_come(g, i + 1, z, True) * n for z in range(n)]
            for key in range(max(cv), max(cv) + n + 1):
                assert found(solver._conf_votes[i + 1], key, delta) == digit_set(
                    (z for z in range(n) if cv[z] + cr[z] >= key), n
                ), (n, i, scores, members, key)
                assert found(solver._reach[i + 1], key, delta) == digit_set(
                    (z for z in range(n) if cv[z] + reach[z] >= key), n
                ), (n, i, scores, members, key)


class KnownCheckingSolver(Solver):
    """Checks that what a parent derives for a child, its dead digit set,
    lead key and canonical memo key, is what the child finds from scratch,
    and what a loop over the agents finds; and that no child handed to
    _search is sole-hopeful, since its parent settles every such child."""

    checked = 0

    def _search(self, i, p, known=None):
        if known is not None:
            assert known == self._known(i, p) == reference_known(self, i, p), (i, p)
            if self._nodes:  # a child: the root is searched at node 0
                lead = known[1]
                hopeful = p + self._conf_votes[i] + self._reaching(lead) & self._tops
                assert hopeful != self._dbits[self._leader_of[lead % self.n]], (i, p)
            self.checked += 1
        return super()._search(i, p, known)


def test_a_parent_derives_what_its_child_would_find():
    """On the oracle games, on n = 6 approval, n = 7 plurality, approval and
    2-approval games, and on n = 8 plurality games."""
    games = [(gen_random(spec), rule) for spec, rule in oracle_specs()] + [
        (gen_random(RandomSpec(n=n, p=p, max_out=None, seed=seed0 + j)), rule)
        for n, rule, seed0 in (
            (6, APPROVAL, 8100), (7, PLURALITY, 8200), (6, APPROVAL, 8300), (6, APPROVAL, 8400),
            (7, APPROVAL, 8800), (7, k_approval(2), 8900), (8, PLURALITY, 9000),
        )
        for j, p in enumerate((0.15, 0.3, 0.5, 0.75))
    ]
    checked = 0
    for g, rule in games:
        solver = KnownCheckingSolver(g, rule)
        solver.policy_spe(Policy.canonical())
        checked += solver.checked
    assert checked >= 39_348


def live_agents(g, i, scores):
    """The agents that can still win from ``(i, scores)``: given a vote from
    every voter still to move but itself, an agent passes the leader's
    score, or ties it and comes first in tie-break order."""
    rank = {a: r for r, a in enumerate(g.tiebreak_order)}
    leader = elect(scores, g.tiebreak_order)
    later = g.voting_order[i:]
    return {
        z
        for z in range(g.n)
        if (scores[z] + len(later) - (z in later), -rank[z]) >= (scores[leader], -rank[leader])
    }


def test_winners_reach_the_leader_with_their_confirmers_votes_alone():
    """An SPE never elects an agent through the vote of a voter that does
    not confirm it: dropping that vote pays the voter a better bonus and
    leaves every outcome it could reach within reach.  So an achievable
    winner of ``(i, scores)`` ties or passes the leader's (votes, tie-break
    precedence) with only the votes of the voters still to move that
    confirm it, the lemma behind the solver's threat bound.  Checked with
    the pruning off, from seeded mid-game states of the oracle games."""
    checked = 0
    for spec, rule in oracle_specs():
        g = gen_random(spec)
        rank = {a: r for r, a in enumerate(g.tiebreak_order)}
        rng = random.Random(spec.seed)
        for _ in range(6):
            i = rng.randrange(g.n)
            scores = (0,) * g.n
            for voter in g.voting_order[:i]:
                scores = apply_ballot(scores, rng.choice(legal_ballots(rule, voter, g.n)))
            leader = elect(scores, g.tiebreak_order)
            later = g.voting_order[i:]
            solver = Solver(g, rule, use_pruning=False)
            for w in solver.achievable_winners(SubgameState(i, scores)):
                votes = scores[w] + sum(w in g.out_neighbors[y] for y in later)
                assert (votes, -rank[w]) >= (scores[leader], -rank[leader]), (
                    spec, rule.label(), i, scores, w,
                )
                checked += 1
    assert checked >= 2_000


def test_translated_live_scores_give_the_same_equilibria():
    """A subgame depends only on which agents are live and on the
    differences between their scores.  Mid-game states are built as
    scripts/compare_search.py builds them, on the oracle games and on n = 6
    approval and n = 7 plurality games.  Each state's twin moves every live
    agent's score by +1 or -1, where that leaves a valid state with the same
    live agents.  The two share a canonical memo key, and solved by fresh
    solvers, pruning on and off, under every kind of policy, all four give
    the same answer.  With pruning off the memo keys are the raw states, so
    this checks the canonical keys and aliases against exact keys."""
    specs = oracle_specs() + [
        (RandomSpec(n=n, p=p, max_out=None, seed=seed0 + j), rule)
        for n, rule, seed0 in ((6, APPROVAL, 8500), (7, PLURALITY, 8600))
        for j, p in enumerate((0.15, 0.3, 0.5, 0.75))
    ]
    twins = 0
    for spec, rule in specs:
        g = gen_random(spec)
        rng = random.Random(spec.seed)
        scores = (0,) * g.n
        i = g.n // 2 + 1
        for voter in g.voting_order[:i]:
            scores = apply_ballot(scores, rng.choice(legal_ballots(rule, voter, g.n)))
        live = live_agents(g, i, scores)
        for step in (1, -1):
            twin = tuple(s + step if z in live else s for z, s in enumerate(scores))
            try:
                SubgameState(i, twin).validate(g.n)
            except ValueError:
                continue
            if live_agents(g, i, twin) != live:
                continue
            twins += 1
            solver = Solver(g, rule)
            keys = {solver._known(i, solver._pack(SubgameState(i, s)))[2] for s in (scores, twin)}
            assert len(keys) == 1, (g.n, rule.label(), i, scores, twin)
            for policy in (None, Policy.canonical(), Policy.bias_toward(g.n - 1)):
                answers = set()
                for s in (scores, twin):
                    for pruning in (True, False):
                        winners, winner, path = Solver(g, rule, use_pruning=pruning).solve(
                            SubgameState(i, s), policy
                        )
                        answers.add((winners, winner, None if path is None else tuple(path)))
                assert len(answers) == 1, (g.n, rule.label(), i, scores, twin, policy, answers)
    assert twins >= 300


def test_naive_oracle_pins_the_papers_examples():
    """The oracle gives the sets that test_example1_winners and
    test_example2_winners pin for the solver."""
    for g, rule, expected in (
        (example1(), PLURALITY, {"1"}),
        (example2(), PLURALITY, {"3"}),
        (example2(), APPROVAL, {"4"}),
    ):
        assert {g.names[w] for w in naive_achievable_winners(g, rule)} == expected


def load_checker(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("checker")


def brute_force(checker, g, rule):
    """perfbench's brute-force winner set of ``g`` under ``rule``; None past
    its leaf limit."""
    return checker.brute_force_winners(checker.Graph(to_json_dict(g)), rule.ballot_cap(g.n))


def with_shuffled_orders(g, seed):
    """``g`` with its voting and tie-break orders shuffled by ``seed``."""
    rng = random.Random(seed)
    voting, tiebreak = list(range(g.n)), list(range(g.n))
    rng.shuffle(voting)
    rng.shuffle(tiebreak)
    return dataclasses.replace(g, voting_order=tuple(voting), tiebreak_order=tuple(tiebreak))


def test_naive_oracle_matches_an_independent_brute_force(monkeypatch):
    """The oracle and the solver share the canonical ballot enumeration, and
    the solver's tables are checked against assess and outcome_level, so
    comparing one with the other cannot catch a fault in those.
    perfbench's checker imports nothing from seqvote and builds its ballots
    and utilities on its own.  Each game is checked with identity orders and
    with its voting and tie-break orders shuffled by its own seed."""
    checker = load_checker(monkeypatch)
    mismatches = []
    for spec, rule in oracle_specs():
        g = gen_random(spec)
        for game in (g, with_shuffled_orders(g, spec.seed)):
            brute = brute_force(checker, game, rule)
            oracle = naive_achievable_winners(game, rule)
            if brute != set(oracle):
                mismatches.append(
                    (spec.seed, rule.label(), game.voting_order, brute, sorted(oracle))
                )
    assert not mismatches, mismatches[:5]


def test_solver_matches_the_independent_brute_force_past_the_oracle(monkeypatch):
    """Past oracle_specs() sizes, Solver is checked against perfbench's
    brute force, which memoizes on exact (i, scores) states and shares no
    code with it: 8 seeded games each of plurality n = 6 and 7, 2-approval
    n = 5 and approval n = 5, with shuffled orders, and the catalog's g_k(2)
    and plurality_chain(3) (n = 8) under plurality."""
    checker = load_checker(monkeypatch)
    mismatches = []
    for n, rule, seed0 in (
        (6, PLURALITY, 9200), (7, PLURALITY, 9300), (5, k_approval(2), 9400), (5, APPROVAL, 9500),
    ):
        for j in range(8):
            spec = RandomSpec(n=n, p=(0.15, 0.3, 0.5, 0.75)[j % 4], max_out=None, seed=seed0 + j)
            g = with_shuffled_orders(gen_random(spec), spec.seed)
            brute, got = brute_force(checker, g, rule), winners_of(g, rule)
            if brute != got:
                mismatches.append((spec, rule.label(), brute, sorted(got)))
    assert not mismatches, mismatches[:5]
    monkeypatch.setattr(checker, "LEAF_LIMIT", 8**8)  # 8^8 leaves each, past the limit
    for name, k in (("g_k", 2), ("plurality_chain", 3)):
        g = gen_paper_instance(InstanceSpec(name, k))
        assert brute_force(checker, g, PLURALITY) == winners_of(g, PLURALITY), name


def test_naive_oracle_refuses_oversized_games():
    g = gen_random(RandomSpec(n=9, p=0.3, max_out=None, seed=1))
    with pytest.raises(NaiveSizeError):
        naive_achievable_winners(g, APPROVAL)


@pytest.mark.parametrize(
    "rule", [PLURALITY, APPROVAL, k_approval(2)], ids=["plurality", "approval", "2-approval"]
)
def test_solver_tables_follow_the_preference_definitions(rule):
    """The solver builds its ballot and level tables from bitmasks.  Each
    voter's visit order is legal_ballots stably sorted by the base that
    assess gives, (n - g) * (n + 1) + f, best first, with each ballot's
    member digit set (the top bit of each member's 8-bit digit) and the key
    delta _pack gives a first vote; its levels are outcome_level times the
    key unit, and its threshold rows the digit sets of the agents at each
    outcome_level or more."""
    for n in range(1, 7):
        for j, p in enumerate((0.0, 0.3, 0.6, 1.0)):
            g = gen_random(RandomSpec(n=n, p=p, max_out=None, seed=9100 + 10 * n + j))
            solver = Solver(g, rule)
            empty = (0,) * n
            for x in range(n):

                def base(b):
                    f, gcnt = assess(g, x, b)
                    return (n - gcnt) * (n + 1) + f

                expected = [
                    (b, sum(1 << 8 * a + 7 for a in b), base(b), solver._pack(SubgameState(1, apply_ballot(empty, b))))
                    for b in sorted(legal_ballots(rule, x, n), key=base, reverse=True)
                ]  # (ballot, digit set, base, key delta of a first vote)
                got = [(frozenset(m), dmask, b, delta) for m, dmask, b, delta in solver._visit_order[x]]
                assert got == expected, (n, p, x)
                assert all(list(m) == sorted(m) for m, *_ in solver._visit_order[x])
                assert solver._level[x] == [outcome_level(g, x, w) * solver._unit for w in range(n)]
                assert solver._at_least_digits[x] == tuple(
                    digit_set((w for w in range(n) if outcome_level(g, x, w) >= k), n)
                    for k in range(4)
                ), (n, p, x)


# -- subgames and repeated calls --------------------------------------------------


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
    assert sub  # non-empty by SPE existence


@pytest.mark.parametrize(
    "name,k,rule,i,scores,quiescent",
    [
        ("kapproval_chain", 1, k_approval(2), 3, (0, 0, 0, 1, 2, 2, 1), 1),
        ("h_k", 2, APPROVAL, 5, (2, 0, 0, 2, 0, 0, 1), 1),
        ("example1", None, APPROVAL, 4, (1, 0, 1, 0, 3), 1),
        ("g_k", 2, PLURALITY, 7, (0, 0, 0, 0, 1, 0, 0, 0), 0),
        ("g_k", 2, APPROVAL, 7, (0, 0, 0, 0, 1, 0, 0, 0), 0),
        ("example2", None, PLURALITY, 4, (0, 0, 1, 1), 0),
        # Sole-hopeful and not quiescent: a later voter confirms a live agent
        # other than the leader, but that agent's confirmers' votes cannot
        # carry it to the lead.  Under plurality and 2-approval the mover has
        # several best-bonus ballots, so the bias policies pick different ones.
        ("plurality_chain", 3, PLURALITY, 2, (0, 0, 1, 0, 0, 0, 0, 1), 1),
        ("example1", None, APPROVAL, 3, (2, 1, 1, 0, 2), 1),
        ("kapproval_chain", 1, k_approval(2), 2, (0, 0, 0, 0, 0, 2, 0), 1),
    ],
    ids=[
        "mid-game",
        "depth-n-2",
        "last-voter",
        "last-voter-live-plurality",
        "last-voter-live-approval",
        "terminal",
        "sole-hopeful-plurality",
        "sole-hopeful-approval",
        "sole-hopeful-2-approval",
    ],
)
def test_solving_from_a_quiescent_or_last_voter_state(name, k, rule, i, scores, quiescent):
    """A call's own root is never settled at a parent.  From a quiescent or
    sole-hopeful root, settled as one node, from a root whose children are
    terminal and from a terminal root, the pruned search gives what the
    plain recursion gives, under every policy.  A terminal root is not a
    node."""
    g = gen_paper_instance(InstanceSpec(name, k))
    state = SubgameState(i, scores)
    policies = [None, Policy.canonical()] + [Policy.bias_toward(t) for t in range(g.n)]
    for policy in policies:
        pruned, plain = Solver(g, rule), Solver(g, rule, use_pruning=False)
        if policy is None:
            assert pruned.solve(state) == plain.solve(state)
        else:
            assert pruned.policy_spe(policy, state) == plain.policy_spe(policy, state), policy
        stats = pruned.last_stats
        assert (stats.nodes, stats.quiescent) == (int(i < g.n), quiescent)


def test_each_call_has_its_own_node_budget():
    g = example2()
    probe = Solver(g, APPROVAL)
    probe.achievable_winners()
    s = Solver(g, APPROVAL, budget=Budget(max_nodes=probe.last_stats.nodes))
    first = s.achievable_winners()
    # the second call searches afresh; the first call's nodes are not counted
    assert s.achievable_winners() == first
    assert s.last_stats.nodes == probe.last_stats.nodes


def test_each_call_has_its_own_deadline_and_clock(monkeypatch):
    clock = [100.0]
    monkeypatch.setattr(engine, "time", SimpleNamespace(monotonic=lambda: clock[0]))
    g = example2()
    s = Solver(g, APPROVAL, budget=Budget(max_seconds=10))
    first = s.achievable_winners()
    clock[0] += 60  # the first call's deadline has long passed
    assert s.achievable_winners() == first
    assert s.last_stats.wall_seconds == 0.0


# -- policy extraction ----------------------------------------------------------


def test_canonical_policy_path_is_consistent():
    for rule in (PLURALITY, APPROVAL):
        g = example1()
        spe = Solver(g, rule).policy_spe(Policy.canonical())
        assert len(spe.path) == g.n
        assert spe.winners == winners_of(g, rule)
        assert spe.winner in spe.winners
        # replaying the path produces the reported winner
        scores = [0] * g.n
        for ballot in spe.path:
            for a in ballot:
                scores[a] += 1
        assert elect(tuple(scores), g.tiebreak_order) == spe.winner


def test_policy_ballots_are_legal():
    g = example2()
    spe = Solver(g, PLURALITY).policy_spe(Policy.canonical())
    for i, ballot in enumerate(spe.path):
        voter = g.voting_order[i]
        assert ballot in set(legal_ballots(PLURALITY, voter, g.n))


def test_bias_policy_reaches_biased_winner_when_achievable():
    for g in random_instances(20, 5, seed0=3300):
        winners = winners_of(g, PLURALITY)
        target = min(winners)
        spe = Solver(g, PLURALITY).policy_spe(Policy.bias_toward(target))
        assert spe.winner in winners


def test_bias_policy_rejects_bad_target():
    g = example1()
    with pytest.raises(ValueError):
        Solver(g, PLURALITY).policy_spe(Policy.bias_toward(99))
    with pytest.raises(ValueError):
        Policy.bias_toward(None)


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


@pytest.mark.parametrize(
    "kwargs,field",
    [
        ({"max_nodes": -1}, "max_nodes"),
        ({"max_seconds": -1.0}, "max_seconds"),
        ({"max_seconds": float("nan")}, "max_seconds"),
    ],
    ids=["negative-nodes", "negative-seconds", "nan-seconds"],
)
def test_budget_rejects_negative_and_nan_limits(kwargs, field):
    with pytest.raises(ValueError, match=field):
        Budget(**kwargs)


def test_zero_nodes_and_infinite_seconds_keep_their_meaning():
    g = example2()
    with pytest.raises(BudgetExceededError):
        Solver(g, PLURALITY, budget=Budget(max_nodes=0)).achievable_winners()
    solver = Solver(g, PLURALITY, budget=Budget(max_seconds=float("inf")))
    assert solver.achievable_winners() == winners_of(g, PLURALITY)


def test_zero_seconds_stops_at_the_first_node():
    """Like max_nodes=0, a zero time budget stops a search at its first
    node, however small the search."""
    g = example2()
    for solver in (
        Solver(g, PLURALITY, budget=Budget(max_seconds=0)),
        Solver(g, PLURALITY, budget=Budget(max_nodes=0)),
    ):
        with pytest.raises(BudgetExceededError) as exc_info:
            solver.achievable_winners()
        assert exc_info.value.stats.nodes == 1


def test_policy_path_comes_from_the_budgeted_search_alone():
    """policy_spe reads its path off the search's own entries: with pruning
    on or off it expands no node after the search, and a budget of exactly
    the search's nodes gives the same path and winner."""
    g = example1()
    expected = Solver(g, PLURALITY).policy_spe(Policy.canonical())
    for use_pruning in (True, False):
        probe = Solver(g, PLURALITY, use_pruning=use_pruning)
        assert probe.policy_spe(Policy.canonical()) == expected
        assert probe._nodes == probe.last_stats.nodes
        nodes = probe.last_stats.nodes
        s = Solver(g, PLURALITY, use_pruning=use_pruning, budget=Budget(max_nodes=nodes))
        spe = s.policy_spe(Policy.canonical())
        assert (spe.winner, spe.path) == (expected.winner, expected.path)
        assert s._nodes == s.last_stats.nodes == nodes


# -- the low-out-degree guarantee ------------------------------------------------


def test_low_outdegree_guarantee_on_example2():
    g = example2()
    for rule in (PLURALITY, APPROVAL):
        winners = winners_of(g, rule)
        passed, report = low_outdegree_verdict(g, winners)
        assert passed, report
        assert len(winners) == 1


def test_low_outdegree_rejects_branchy_graphs():
    g = example1()  # agent "2" confirms two agents
    with pytest.raises(ValueError):
        low_outdegree_verdict(g, winners_of(g, PLURALITY))


# -- relabeling and rule aliases ---------------------------------------------------


RELABEL_CATALOG = [
    ("example1", None, APPROVAL),
    ("example2", None, PLURALITY),
    ("plurality_chain_fig5", None, PLURALITY),
    ("g_k", 2, PLURALITY),
    ("plurality_chain", 3, PLURALITY),
    ("kapproval_chain", 1, k_approval(2)),
]


def relabeled(g, perm):
    """The game with agent a renamed perm[a]: edges and both orders."""
    return ConfirmationNetwork.build(
        g.n,
        [(perm[a], perm[b]) for a, b in g.edges],
        [perm[a] for a in g.voting_order],
        [perm[a] for a in g.tiebreak_order],
    )


def test_relabeled_games_and_rule_aliases_have_the_same_winners():
    """Renaming the agents renames the winners, W' = perm(W), and plurality
    is 1-approval and approval is (n - 1)-approval.  On 24 seeded random
    n = 6-7 games under the three rules and six catalog games, each with
    seeded random voting and tie-break orders.  The packed state's digits
    follow agent ids, so renaming moves every agent to another digit, on
    games larger than the oracle solves."""
    rng = random.Random(9500)
    rules = (PLURALITY, APPROVAL, k_approval(2))
    specs = [
        RandomSpec(n=6 + j % 2, p=(0.2, 0.35, 0.5)[j // 3 % 3], max_out=None, seed=9300 + j)
        for j in range(24)
    ]
    games = [(gen_random(spec), rules[j % 3]) for j, spec in enumerate(specs)]
    games += [(gen_paper_instance(InstanceSpec(name, k)), rule) for name, k, rule in RELABEL_CATALOG]
    for g, rule in games:
        n = g.n
        g = ConfirmationNetwork.build(n, g.edges, rng.sample(range(n), n), rng.sample(range(n), n))
        perm = rng.sample(range(n), n)
        winners = winners_of(g, rule)
        assert winners_of(relabeled(g, perm), rule) == {perm[w] for w in winners}, (g, perm)
        alias = {"plurality": k_approval(1), "approval": k_approval(n - 1)}.get(rule.kind)
        if alias is not None:
            assert winners_of(g, alias) == winners, (g, rule.label())


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
    assert winners_of(g, PLURALITY)


@settings(max_examples=40, deadline=None)
@given(tiny_graphs())
def test_plurality_equals_1_approval(g):
    assert (
        winners_of(g, PLURALITY)
        == winners_of(g, k_approval(1))
    )


@settings(max_examples=25, deadline=None)
@given(tiny_graphs())
def test_approval_equals_nminus1_approval(g):
    if g.n < 2:
        return
    assert (
        winners_of(g, APPROVAL)
        == winners_of(g, k_approval(g.n - 1))
    )
