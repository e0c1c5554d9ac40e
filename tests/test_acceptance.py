"""Acceptance gate: one test per published criterion, pass/fail per line.

The randomized suites (criteria 3-5) are solved once in a module-scoped
fixture; criterion 6 audits the equilibrium paths they produced.

Criterion 1's k-approval check pins ``W = {c1, c2}`` for ``kapproval_chain(2)``
under 2-approval.  The ratio-3 equilibrium electing c3 that the family was
reconstructed around is not subgame-perfect: after ``d1 = {b1a, b1b}``, d2
can burn a vote on the filler ``b1a`` and cast ``{b1a, c1}``, which lifts the
winning bar to 2 (c3 is confirmed only by d3, so it cannot reach 2) and leaves
only c1, which d2 confirms, achievable.  The full solve is cross-checked
against a solver-free brute-force recursion over the three d-voters.
"""

from itertools import combinations

import pytest

from seqvote import verify
from seqvote.balloting import k_approval
from seqvote.engine import Budget, Solver
from seqvote.families import InstanceSpec, agent_index, catalog_names, gen_paper_instance


@pytest.fixture(scope="module")
def randomized_suites():
    """Criteria 3-5 share their solves; criterion 6 reuses the sampled paths."""
    samples = []
    results = {
        3: verify.check_low_outdegree_suite(samples),
        4: verify.check_approval_bound_suite(samples),
        5: verify.check_plurality_bound_suite(samples),
    }
    return results, samples


def test_criterion_1_golden_instances():
    """Golden catalog expectations, among them the full approval solve of the
    gap-2 family (``W = {c3}``) and the two walkthrough subgames that show
    how c3 wins."""
    r = verify.check_golden_instances()
    assert r.passed, r.detail


def test_golden_instances_report_a_budget_stop(monkeypatch):
    """A budget stop in any golden solve fails criterion 1 with a detail and
    does not escape, so ``run_all`` still produces the complete table."""
    monkeypatch.setattr(verify, "Budget", lambda **kwargs: Budget(max_nodes=0))
    r = verify.check_golden_instances()
    assert r.name == "golden_instances"
    assert not r.passed
    assert r.detail.startswith("budget exceeded"), r.detail


def test_golden_claims_cover_the_catalog():
    """Criterion 1 makes at least one claim about every catalog game."""
    covered = {spec.name for spec, _rule, _seconds, _claims in verify.GOLDEN_CLAIMS}
    assert set(catalog_names()) <= covered, set(catalog_names()) - covered


def test_ensembles_are_pinned():
    """Each randomized ensemble's size and exact ``(n, p, max_out, seed)``
    sequence, so no change resizes or re-seeds one."""
    cycle = (0.15, 0.3, 0.5, 0.75)
    low_sizes = (3, 4, 5, 6, 7, 3, 4, 5, 6, 5)

    def rows(specs):
        return [(s.n, s.p, s.max_out, s.seed) for s in specs]

    oracle = verify.oracle_specs()
    assert len(oracle) == 300
    assert [rule.label() for _, rule in oracle] == (
        ["plurality"] * 100 + ["approval"] * 100 + ["k_approval(2)"] * 100
    )
    assert rows(spec for spec, _ in oracle) == (
        [(2 + j % 4, cycle[j % 4], None, 1000 + j) for j in range(100)]
        + [(2 + j % 3, cycle[j % 4], None, 2000 + j) for j in range(100)]
        + [(2 + j % 3, cycle[j % 4], None, 3000 + j) for j in range(100)]
    )
    low = verify.low_outdegree_specs()
    assert len(low) == 200
    assert rows(low) == [(low_sizes[j % 10], cycle[j % 4], 1, 4000 + j) for j in range(200)]
    approval = verify.approval_bound_specs()
    assert len(approval) == 200
    assert rows(approval) == [(3 + j % 4, cycle[j % 4], None, 5000 + j) for j in range(200)]
    plurality = verify.plurality_bound_specs()
    assert len(plurality) == 300
    assert rows(plurality) == [(3 + j % 5, cycle[j % 4], None, 6000 + j) for j in range(300)]


def _brute_force_winners(g, rule_cap, voters, scores):
    """Achievable winners of the game in which only ``voters`` move, in order,
    from ``scores``; every later voter abstains.

    Deliberately naive and independent of :class:`Solver`: no memo, no
    pruning, and the SPE condition in its existential form -- outcome ``w``
    is sustained through ballot ``b`` when every other ballot ``b'`` has some
    achievable continuation the mover likes no better than ``(b, w)``.
    """
    if not voters:
        top = max(scores)
        return frozenset((next(a for a in g.tiebreak_order if scores[a] == top),))
    x, rest = voters[0], voters[1:]
    conf = g.out_neighbors[x]
    others = [a for a in range(g.n) if a != x]
    ballots = [
        frozenset(c) for size in range(rule_cap + 1) for c in combinations(others, size)
    ]

    def key(ballot, w):
        level = 2 if w == x else 1 if w in conf else 0
        f = len(ballot & conf)
        return (level, -(len(ballot) - f), f)

    children = []
    for b in ballots:
        child = list(scores)
        for a in b:
            child[a] += 1
        children.append((b, _brute_force_winners(g, rule_cap, rest, child)))
    winners = set()
    for b, cset in children:
        for w in cset:
            if w not in winners and all(
                any(key(b2, w2) <= key(b, w) for w2 in c2)
                for b2, c2 in children
                if b2 != b
            ):
                winners.add(w)
    return frozenset(winners)


def test_criterion_1_kapproval_chain_c3_achievable():
    """Criterion 1 for the k-approval chain family under 2-approval: W = {c1, c2}.

    The narrated ratio-3 equilibrium electing c3 is not subgame-perfect, so
    c3 is not achievable.  Three independent checks:

    1. The full memoized, pruned solve (budget 30 min) gives exactly
       ``{c1, c2}``.
    2. A brute-force recursion that shares no code with the solver gives the
       same set.  Every voter after d1, d2, d3 confirms nobody, so (by
       backward induction from the last voter) each abstains in every SPE:
       abstaining never lowers its chance to win itself, every other outcome
       is level 0 for it, and abstaining avoids the unconfirmed-vote penalty.
       The game thus reduces to the three d-voters (46 ballots each).
    3. The deviation that rules c3 out: after ``d1 = {b1a, b1b}``, d2 casts
       ``{b1a, c1}``.  b1a reaches 2, a score c3 (confirmed only by d3)
       cannot reach, and every achievable winner is then confirmed by d2
       (d3 adds c1, which precedes b1a in the tie-break).  A confirmed winner
       beats every continuation electing c3, which is level 0 for d2, so no
       SPE through ``d1 = {b1a, b1b}`` elects c3.
    """
    g = gen_paper_instance(InstanceSpec("kapproval_chain", 2))
    idx = {name: agent_index(g, name) for name in g.names}

    def names(winners):
        return {g.names[w] for w in winners}

    rule = k_approval(2)
    s = Solver(g, rule, budget=Budget(max_seconds=1800))
    assert names(s.achievable_winners()) == {"c1", "c2"}

    d_voters = tuple(idx[d] for d in ("d1", "d2", "d3"))
    assert g.voting_order[:3] == d_voters
    for x in g.voting_order[3:]:
        assert not g.out_neighbors[x], f"{g.names[x]} confirms someone"
    cap = rule.ballot_cap(g.n)
    zero = (0,) * g.n
    assert names(_brute_force_winners(g, cap, d_voters, zero)) == {"c1", "c2"}

    after_d1 = list(zero)
    for a in ("b1a", "b1b"):
        after_d1[idx[a]] += 1
    assert "c3" not in names(_brute_force_winners(g, cap, d_voters[1:], after_d1))
    after_d2 = list(after_d1)
    for a in ("b1a", "c1"):
        after_d2[idx[a]] += 1
    deviation = _brute_force_winners(g, cap, d_voters[2:], after_d2)
    assert names(deviation) == {"c1"}
    assert deviation <= g.out_neighbors[idx["d2"]]


def test_criterion_2_oracle_equivalence():
    """On 300 seeded instances, three searches equal the naive oracle: the
    set-only search with pruning on, the same with pruning off, and the
    canonical-policy search that ``seqvote solve`` runs."""
    r = verify.check_oracle_equivalence()
    assert r.passed, r.detail
    assert r.seconds < 600, f"exceeded 10-minute budget: {r.seconds:.0f}s"


def test_criterion_3_low_outdegree_suite(randomized_suites):
    """200 out-degree<=1 graphs x both rules: unique winner, zero gap,
    potential bound."""
    results, _ = randomized_suites
    r = results[3]
    assert r.passed, r.detail
    assert r.seconds < 600, f"exceeded 10-minute budget: {r.seconds:.0f}s"


def test_criterion_4_approval_popularity_bound(randomized_suites):
    """Approval: every achievable winner within twice its popularity."""
    results, _ = randomized_suites
    r = results[4]
    assert r.passed, r.detail
    assert r.seconds < 1800, f"exceeded 30-minute budget: {r.seconds:.0f}s"


def test_criterion_5_plurality_popularity_bound(randomized_suites):
    """Plurality: some achievable winner within twice its popularity; the
    popularity-biased selection is audited softly (findings logged, no hard
    fail)."""
    results, _ = randomized_suites
    r = results[5]
    assert r.passed, r.detail
    assert r.seconds < 1800, f"exceeded 30-minute budget: {r.seconds:.0f}s"


def test_criterion_6_truthful_on_equilibrium_paths(randomized_suites):
    """Voters other than the winner who do not confirm the winner cast
    truthful-class ballots on every sampled equilibrium path."""
    _, samples = randomized_suites
    assert samples, "no equilibrium paths were collected"
    r = verify.check_truthful_on_path(samples)
    assert r.passed, r.detail


def test_criterion_7_comparator_equivalence():
    """Lexicographic key order equals exact perturbed-utility order for all
    feasible outcome parts up to n=8 and 25 rational perturbations per size."""
    r = verify.check_comparator_equivalence()
    assert r.passed, r.detail
    assert r.seconds < 60, f"exceeded 1-minute budget: {r.seconds:.0f}s"


def test_criterion_8_determinism():
    """Byte-identical run records with pruning on and off, timing-class
    fields excluded."""
    r = verify.check_determinism()
    assert r.passed, r.detail
