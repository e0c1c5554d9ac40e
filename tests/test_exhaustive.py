"""Exhaustive certificate for the solver's exact cuts on tiny games.

On every digraph with a few agents (identity voting and tie-breaking
orders), the pruned solver -- dead agents, the quiescent-suffix shortcut and
the threat bound -- and the plain recursion both give the naive oracle's
winner set, and they select the same canonical equilibrium.  The oracle's
set also obeys the paper's factor-2 popularity bounds: under approval every
winner is within factor 2, under plurality some winner is (2-approval has
no such bound).  The n = 4 approval and 2-approval rows take minutes and
carry the ``slow`` marker.
"""

import pytest

from seqvote.balloting import APPROVAL, PLURALITY, k_approval
from seqvote.engine import Policy, Solver, naive_achievable_winners
from seqvote.experiments import instance_metrics
from seqvote.network import ConfirmationNetwork


def every_digraph(n):
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    for mask in range(1 << len(pairs)):
        yield ConfirmationNetwork.build(
            n, [pair for j, pair in enumerate(pairs) if mask >> j & 1]
        )


@pytest.mark.parametrize(
    "sizes,rule",
    [
        pytest.param((1, 2, 3), PLURALITY, id="n<=3-plurality"),
        pytest.param((1, 2, 3), k_approval(2), id="n<=3-2-approval"),
        pytest.param((1, 2, 3), APPROVAL, id="n<=3-approval"),
        pytest.param((4,), PLURALITY, id="n4-plurality"),
        pytest.param((4,), k_approval(2), id="n4-2-approval", marks=pytest.mark.slow),
        pytest.param((4,), APPROVAL, id="n4-approval", marks=pytest.mark.slow),
    ],
)
def test_every_digraph_agrees_with_the_oracle(sizes, rule):
    failures = []
    for n in sizes:
        for g in every_digraph(n):
            expected = naive_achievable_winners(g, rule)
            if rule.kind in ("approval", "plurality"):
                within = [m.within_factor_2 for m in instance_metrics(g, expected).per_winner]
                if not (all(within) if rule.kind == "approval" else any(within)):
                    failures.append((sorted(g.edges), "factor-2 bound fails"))
            selected = set()
            for pruning in (True, False):
                solver = Solver(g, rule, use_pruning=pruning)
                spe = solver.policy_spe(Policy.canonical())
                if solver.achievable_winners() != expected or spe.winners != expected:
                    failures.append((sorted(g.edges), f"pruning={pruning}"))
                selected.add((spe.winner, tuple(spe.path)))
            if len(selected) != 1:
                failures.append((sorted(g.edges), "canonical equilibria differ"))
    assert not failures, failures[:5]
