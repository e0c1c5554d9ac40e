"""Exact subgame-perfect-equilibrium analysis of the sequential voting game.

The solver computes the full set of achievable winners (agents elected in at
least one SPE) by a set-valued backward recursion over subgame states.  A
state is ``(i, scores)``: the number of ballots already cast and the
accumulated score vector.  Histories reaching equal states have identical
subgame solutions, which makes the state the memoization key; soundness of
that and of every pruning rule is asserted against a naive reference solver
rather than assumed.

Recursion at a non-terminal state with mover ``x``: every legal ballot ``b``
leads to a child whose achievable set ``C_b`` is known by induction.  The
sibling subgames are independent, so an outcome ``w`` in ``C_b`` can be
sustained through ``b`` exactly when, for every alternative ballot ``b'``,
``x`` weakly prefers ``(b, w)`` to the worst element of ``C_{b'}`` under the
lexicographic preference key (outcome level, -g, f).  The state's achievable
set is the union of sustainable outcomes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

from .balloting import Rule, apply_ballot, legal_ballots
from .balloting import winner as score_winner
from .network import ConfirmationNetwork
from .preferences import assess, outcome_level

_DEAD_SENTINEL = -1
_TIME_CHECK_MASK = 0x3FF  # check the wall clock every 1024 nodes


@dataclass(frozen=True)
class SubgameState:
    """Number of ballots already cast, and the score vector they produced."""

    i: int
    scores: tuple[int, ...]

    def validate(self, n: int) -> None:
        if not (0 <= self.i <= n):
            raise ValueError(f"state index {self.i} out of range for n={n}")
        if len(self.scores) != n:
            raise ValueError(f"score vector has {len(self.scores)} entries, expected {n}")
        if any(s < 0 or s > self.i for s in self.scores):
            raise ValueError(f"scores {self.scores} inconsistent with {self.i} cast ballots")


def initial_state(n: int) -> SubgameState:
    return SubgameState(0, (0,) * n)


@dataclass(frozen=True)
class Budget:
    max_nodes: int | None = None
    max_seconds: float | None = None


@dataclass
class SolveStats:
    nodes: int = 0
    cache_hits: int = 0
    cache_size: int = 0
    wall_seconds: float = 0.0

    def as_dict(self) -> dict:
        return {
            "nodes": self.nodes,
            "cache_hits": self.cache_hits,
            "cache_size": self.cache_size,
            "wall_seconds": self.wall_seconds,
        }


class BudgetExceededError(RuntimeError):
    """A node or time budget was hit; partial results are never returned."""

    def __init__(self, message: str, stats: SolveStats):
        super().__init__(message)
        self.stats = stats


@dataclass
class AchievableSet:
    """Winners elected in at least one SPE."""

    winners: frozenset[int]


@dataclass(frozen=True)
class Policy:
    """Selects one ballot among preference-optimal ballots at every node.

    canonical: the first optimal ballot in canonical enumeration order.
    bias_toward(t): among optimal ballots prefer those approving ``t``, then
    canonical order.
    """

    kind: str  # "canonical" | "bias_toward"
    target: int | None = None

    @staticmethod
    def canonical() -> "Policy":
        return Policy("canonical")

    @staticmethod
    def bias_toward(target: int) -> "Policy":
        return Policy("bias_toward", target)


@dataclass
class PolicyResult:
    """One policy-selected SPE, and the achievable set of the same search."""

    path: list[frozenset[int]]
    winner: int
    winners: frozenset[int]


class Solver:
    """Memoized, pruned SPE solver for one network/rule pair.

    One recursion, :meth:`solve`, answers both questions asked of a state:
    its achievable set and, when a selection policy is given, the policy's
    winner and on-path ballot.  ``use_memo`` and ``use_pruning`` exist so the
    soundness suites can compare every configuration; both default on, and
    neither changes any result.
    """

    def __init__(
        self,
        g: ConfirmationNetwork,
        rule: Rule,
        *,
        use_memo: bool = True,
        use_pruning: bool = True,
        budget: Budget | None = None,
    ):
        self.g = g
        self.rule = rule
        self.use_memo = use_memo
        self.use_pruning = use_pruning
        self.budget = budget or Budget()

        n = g.n
        self.n = n
        self._order = g.voting_order
        self._tb = g.tiebreak_order
        self._tb_rank = [0] * n
        for rank, a in enumerate(g.tiebreak_order):
            self._tb_rank[a] = rank
        self._pos = [0] * n
        for pos, a in enumerate(g.voting_order):
            self._pos[a] = pos
        self._conf = [g.out_neighbors[a] for a in range(n)]
        self._level = [
            [outcome_level(g, x, w) for w in range(n)] for x in range(n)
        ]
        self._cap = rule.ballot_cap(n)
        # Full canonical ballot lists per voter: (members, f, g) triples.
        self._full_ballots: list[list[tuple[tuple[int, ...], int, int]]] = []
        for x in range(n):
            entries = []
            for b in legal_ballots(rule, x, n):
                members = tuple(sorted(b))
                f, gcnt = assess(g, x, b)
                entries.append((members, f, gcnt))
            self._full_ballots.append(entries)
        self._ballot_cache: dict[tuple[int, tuple[int, ...]], list] = {}
        # Memo entries of terminal states, one per winner.
        self._terminal = [(frozenset((w,)), w, None) for w in range(n)]
        self._memo: dict = {}
        self._policy: Policy | None = None
        self.last_stats = SolveStats()

    # -- per-call bookkeeping -------------------------------------------------

    def _start(self, policy: Policy | None, reuse_cache: bool) -> None:
        """Fresh counters and deadline for one call.

        The memo survives only under ``reuse_cache``, and only when its
        entries carry what the call asks for: a memo built under a policy
        also serves policy-free calls, and keeps that policy.
        """
        if not (reuse_cache and policy in (None, self._policy)):
            self._memo = {}
            self._policy = policy
        self._nodes = 0
        self._hits = 0
        self._t0 = time.monotonic()
        max_s = self.budget.max_seconds
        self._deadline = self._t0 + max_s if max_s is not None else None

    def _stats(self) -> SolveStats:
        return SolveStats(
            nodes=self._nodes,
            cache_hits=self._hits,
            cache_size=len(self._memo),
            wall_seconds=time.monotonic() - self._t0,
        )

    def _tick(self) -> None:
        self._nodes += 1
        max_n = self.budget.max_nodes
        if max_n is not None and self._nodes > max_n:
            raise BudgetExceededError(
                f"node budget of {max_n} exceeded", self._stats()
            )
        if self._deadline is not None and (self._nodes & _TIME_CHECK_MASK) == 0:
            if time.monotonic() > self._deadline:
                raise BudgetExceededError(
                    f"time budget of {self.budget.max_seconds}s exceeded", self._stats()
                )

    # -- dead agents and memo keys --------------------------------------------

    def _dead(self, i: int, scores: tuple[int, ...]) -> tuple[bool, ...] | None:
        """Agents that can no longer win under any continuation.

        ``z`` is dead when some other agent's current score already exceeds
        the most votes ``z`` can still reach, or equals it while preceding
        ``z`` in the tie-breaking order.  Deadness is monotone along play and
        depends only on live agents' scores.
        """
        n = self.n
        max_s = max(scores)
        slots = n - i
        tb_rank = self._tb_rank
        best_rank = n
        second_rank = n
        best_agent = -1
        for a in range(n):
            if scores[a] == max_s:
                r = tb_rank[a]
                if r < best_rank:
                    second_rank = best_rank
                    best_rank = r
                    best_agent = a
                elif r < second_rank:
                    second_rank = r
        pos = self._pos
        dead = [False] * n
        any_dead = False
        for z in range(n):
            reach = scores[z] + slots - (1 if pos[z] >= i else 0)
            if reach < max_s:
                dead[z] = True
                any_dead = True
            elif reach == max_s:
                rival = second_rank if z == best_agent else best_rank
                if rival < tb_rank[z]:
                    dead[z] = True
                    any_dead = True
        if not any_dead:
            return None
        return tuple(dead)

    def _canon(
        self, scores: tuple[int, ...], dead: tuple[bool, ...] | None
    ) -> tuple[int, ...]:
        if dead is None:
            return scores
        return tuple(
            _DEAD_SENTINEL if dead[z] else scores[z] for z in range(self.n)
        )

    def _ballots_at(
        self, x: int, dead: tuple[bool, ...] | None
    ) -> list[tuple[tuple[int, ...], int, int]]:
        """Legal ballots for mover ``x``, with dominated ballots pruned.

        A ballot approving a dead agent the mover does not confirm is
        dominated by the same ballot without that agent: the child states are
        winner-bisimilar and the larger ballot pays a strictly worse bonus.
        """
        if dead is None:
            return self._full_ballots[x]
        conf = self._conf[x]
        allowed = tuple(
            a for a in range(self.n) if a != x and (not dead[a] or a in conf)
        )
        if len(allowed) == self.n - 1:
            return self._full_ballots[x]
        cache_key = (x, allowed)
        cached = self._ballot_cache.get(cache_key)
        if cached is not None:
            return cached
        entries = []
        for size in range(0, min(self._cap, len(allowed)) + 1):
            for members in combinations(allowed, size):
                f = sum(1 for a in members if a in conf)
                entries.append((members, f, len(members) - f))
        self._ballot_cache[cache_key] = entries
        return entries

    def _winner(self, scores: tuple[int, ...]) -> int:
        top = max(scores)
        for a in self._tb:
            if scores[a] == top:
                return a
        raise AssertionError("unreachable")

    # -- the search ------------------------------------------------------------

    def solve(
        self,
        state: SubgameState | None = None,
        policy: Policy | None = None,
        *,
        reuse_cache: bool = False,
    ) -> tuple[frozenset[int], int | None, tuple[int, ...] | None]:
        """The memo entry of ``state`` (default: the initial state).

        The entry is ``(achievable set, policy winner, policy ballot)``; the
        last two are None without a policy, and the ballot is None at a
        terminal state.  Each call has its own budget and ``last_stats``;
        ``reuse_cache`` keeps only the transposition table from earlier calls
        on this solver, which is sound because entries depend only on
        (mover, scores).
        """
        if policy is not None:
            if policy.kind not in ("canonical", "bias_toward"):
                raise ValueError(f"unknown policy kind {policy.kind!r}")
            if policy.kind == "bias_toward" and (
                policy.target is None or not (0 <= policy.target < self.n)
            ):
                raise ValueError(f"bias_toward needs a valid target, got {policy.target}")
        if state is None:
            state = initial_state(self.n)
        state.validate(self.n)
        self._start(policy, reuse_cache)
        try:
            return self._search(state.i, state.scores)
        finally:
            self.last_stats = self._stats()

    def achievable_winners(
        self, state: SubgameState | None = None, reuse_cache: bool = False
    ) -> AchievableSet:
        """Exactly the agents elected in at least one SPE of the (sub)game."""
        return AchievableSet(self.solve(state, reuse_cache=reuse_cache)[0])

    def policy_spe(
        self, policy: Policy, state: SubgameState | None = None
    ) -> PolicyResult:
        """One SPE selected by ``policy`` at every node: its on-path ballots and
        winner, with the achievable set the same search found."""
        if state is None:
            state = initial_state(self.n)
        winners, winner, _ = self.solve(state, policy)
        path = []
        i, scores = state.i, state.scores
        while i < self.n:
            members = self._visited(i, scores)[2]
            path.append(frozenset(members))
            s = list(scores)
            for a in members:
                s[a] += 1
            scores = tuple(s)
            i += 1
        return PolicyResult(path=path, winner=winner, winners=winners)

    def _visited(self, i: int, scores: tuple[int, ...]):
        """Memo entry of a state the last search reached; without a memo, the
        state is searched again."""
        if not self.use_memo:
            return self._search(i, scores)
        dead = self._dead(i, scores) if self.use_pruning else None
        return self._memo[(i, self._canon(scores, dead))]

    def _search(self, i: int, scores: tuple[int, ...]):
        if i == self.n:
            return self._terminal[self._winner(scores)]
        self._tick()
        dead = self._dead(i, scores) if self.use_pruning else None
        if self.use_memo:
            key = (i, self._canon(scores, dead))
            hit = self._memo.get(key)
            if hit is not None:
                self._hits += 1
                return hit
        x = self._order[i]
        levels = self._level[x]
        search = self._search
        entries = []  # (worst key, child entry, members) per ballot
        for members, f, gcnt in self._ballots_at(x, dead):
            s = list(scores)
            for a in members:
                s[a] += 1
            child = search(i + 1, tuple(s))
            worst = (min(levels[w] for w in child[0]), -gcnt, f)
            entries.append((worst, child, members))
        winners = self._combine(levels, entries)
        if self._policy is None:
            entry = (winners, None, None)
        else:
            entry = (winners, *self._choose(levels, entries))
        if self.use_memo:
            self._memo[key] = entry
        return entry

    def _combine(self, levels: list[int], entries) -> frozenset[int]:
        """Union of sustainable outcomes at a node.

        Outcome ``w`` of ballot ``b`` is sustainable when the mover weakly
        prefers it to the worst outcome of every other ballot.  The largest
        worst key ``m1`` can serve as the threshold for every ballot, its own
        included: every ``w`` in ``C_b`` has key at least ``b``'s worst key.
        """
        m1 = max(e[0] for e in entries)
        winners: set[int] = set()
        for (_level, ng, f), child, _members in entries:
            for w in child[0]:
                if (levels[w], ng, f) >= m1:
                    winners.add(w)
        return frozenset(winners)

    def _choose(self, levels: list[int], entries) -> tuple[int, tuple[int, ...]]:
        """The policy's winner and ballot at a node: the first ballot, in
        canonical order, maximizing the mover's key at the child's policy
        winner; ``bias_toward(t)`` prefers a ballot approving ``t`` among
        the tied ones."""
        target = self._policy.target
        best = None
        for (_level, ng, f), child, members in entries:
            rank = (levels[child[1]], ng, f, target in members)
            if best is None or rank > best[0]:
                best = (rank, child[1], members)
        return best[1], best[2]


# -- convenience wrappers -------------------------------------------------------


def achievable_winners(
    g: ConfirmationNetwork, rule: Rule, *, budget: Budget | None = None
) -> AchievableSet:
    return Solver(g, rule, budget=budget).achievable_winners()


def policy_spe(
    g: ConfirmationNetwork,
    rule: Rule,
    policy: Policy,
    *,
    budget: Budget | None = None,
) -> PolicyResult:
    return Solver(g, rule, budget=budget).policy_spe(policy)


class NaiveSizeError(ValueError):
    """The instance is too large for the unmemoized reference solver."""


def naive_achievable_winners(
    g: ConfirmationNetwork, rule: Rule, *, max_leaves: int = 4_000_000
) -> AchievableSet:
    """Reference oracle: direct extensive-form recursion, no memo, no pruning.

    Enforces a hard size limit on the full game tree (roughly n <= 6 for
    plurality, n <= 4 for approval) so it can never silently take forever.
    """
    n = g.n
    tb = g.tiebreak_order
    order = g.voting_order
    leaves = 1
    for v in order:
        leaves *= len(legal_ballots(rule, v, n))
        if leaves > max_leaves:
            raise NaiveSizeError(
                f"game tree exceeds the naive-solver limit of {max_leaves} leaves"
            )

    def recurse(i: int, scores: tuple[int, ...]) -> set[int]:
        if i == n:
            return {score_winner(scores, tb)}
        x = order[i]
        options = []
        for b in legal_ballots(rule, x, n):
            child = recurse(i + 1, apply_ballot(scores, b))
            f, gcnt = assess(g, x, b)
            worst = min((outcome_level(g, x, w), -gcnt, f) for w in child)
            options.append((child, f, gcnt, worst))
        winners: set[int] = set()
        for idx, (child, f, gcnt, _worst) in enumerate(options):
            threats = [o[3] for j, o in enumerate(options) if j != idx]
            threshold = max(threats) if threats else None
            for w in child:
                k = (outcome_level(g, x, w), -gcnt, f)
                if threshold is None or k >= threshold:
                    winners.add(w)
        return winners

    result = recurse(0, (0,) * n)
    if not result:
        raise AssertionError("achievable set must be non-empty")
    return AchievableSet(winners=frozenset(result))


# -- potentials and the low-out-degree fast check -------------------------------


def potential(
    g: ConfirmationNetwork, state: SubgameState, a: int
) -> int:
    """Current score plus in-degree from voters yet to vote: the most votes
    ``a`` can still reach under confirmation-respecting play."""
    g._check_agent(a)
    state.validate(g.n)
    remaining = set(g.voting_order[state.i :])
    return state.scores[a] + sum(1 for b in g.in_neighbors[a] if b in remaining)


@dataclass
class LowOutdegreeReport:
    winner: int
    unique: bool
    max_potential: int
    winner_potential: int
    gap_bound_holds: bool
    passed: bool

    def describe(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        return (
            f"{verdict}: winner={self.winner} unique={self.unique} "
            f"max_potential={self.max_potential} winner_potential={self.winner_potential}"
        )


def verify_low_outdegree_subgame(
    g: ConfirmationNetwork,
    rule: Rule,
    state: SubgameState | None = None,
    *,
    budget: Budget | None = None,
    solver: "Solver | None" = None,
) -> tuple[int, LowOutdegreeReport]:
    """Solve a subgame whose remaining voters each confirm at most one agent,
    and check the unique-outcome and potential-gap guarantees.

    Requires every remaining voter to have out-degree <= 1.  The winner must
    be unique, and the shortfall of the winner's potential versus the best
    potential can be at most 1, with equality only when the winner (if still
    to vote) confirms some max-potential agent.
    """
    if state is None:
        state = initial_state(g.n)
    state.validate(g.n)
    remaining = g.voting_order[state.i :]
    for v in remaining:
        if len(g.out_neighbors[v]) > 1:
            raise ValueError(
                f"remaining voter {v} has out-degree {len(g.out_neighbors[v])} > 1"
            )
    if solver is None:
        solver = Solver(g, rule, budget=budget)
    elif solver.g is not g or solver.rule != rule:
        raise ValueError("supplied solver was built for a different network or rule")
    result = solver.achievable_winners(state, reuse_cache=True)
    unique = len(result.winners) == 1
    w = min(result.winners)
    pots = [potential(g, state, a) for a in range(g.n)]
    max_pot = max(pots)
    gap = max_pot - pots[w]
    remaining_set = set(remaining)
    if gap <= 0:
        bound = True
    elif gap == 1:
        bound = w in remaining_set and any(
            m in g.out_neighbors[w] and pots[m] == max_pot for m in range(g.n)
        )
    else:
        bound = False
    report = LowOutdegreeReport(
        winner=w,
        unique=unique,
        max_potential=max_pot,
        winner_potential=pots[w],
        gap_bound_holds=bound,
        passed=unique and bound,
    )
    return w, report
