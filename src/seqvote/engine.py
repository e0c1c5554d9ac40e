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

Exact cuts (``use_pruning``), none of which changes a result:

- Dead agents.  An agent that can no longer win under any continuation is
  dead.  Dead agents' scores are masked out of memo keys, and a ballot
  approving a dead agent the mover does not confirm is dominated by the same
  ballot without it.
- Quiescent suffix.  When no voter still to move confirms a live agent, the
  current leader wins every SPE of the subgame: by backward induction, a
  vote for a live agent costs its voter -g and can only elect someone that
  voter values at level 0, and a vote for a dead agent changes no winner.
  The search stops there; the policy path's suffix ballots are rebuilt on
  demand.
- Threat bound, the set-valued form of alpha-beta pruning (Knuth & Moore,
  1975).  Only live agents can win, so no outcome of ballot ``b`` has a key
  above ``(L, -g_b, f_b)``, where ``L`` is the mover's best level over live
  agents.  Ballots are visited in ``(g ascending, f descending)`` order and
  ``m1`` is the largest worst key seen so far; once a ballot's bound falls
  below ``m1`` so do all later ones, and none of them can add a winner, be
  the threshold, or be a policy's choice.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import itemgetter

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
    quiescent: int = 0  # quiescent-suffix shortcuts taken
    bound_skips: int = 0  # ballots the threat bound skipped

    def as_dict(self) -> dict:
        return {
            "nodes": self.nodes,
            "cache_hits": self.cache_hits,
            "cache_size": self.cache_size,
            "wall_seconds": self.wall_seconds,
            "quiescent": self.quiescent,
            "bound_skips": self.bound_skips,
        }


class BudgetExceededError(RuntimeError):
    """A node or time budget was hit; partial results are never returned."""

    def __init__(self, message: str, stats: SolveStats):
        super().__init__(message)
        self.stats = stats


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
    winner and on-path ballot.  :meth:`achievable_winners` returns the set
    as a frozenset; :meth:`policy_spe` returns the selected equilibrium
    together with the set from the same search.  Every call starts a fresh
    memo under its own budget, so callers that need several facts about one
    game solve it once and read them all from that result.

    ``use_memo`` and ``use_pruning`` exist so the soundness suites can
    compare every configuration; both default on, and neither changes any
    result.  ``use_pruning`` covers every exact cut: dead agents in memo keys
    and ballot lists, the quiescent-suffix shortcut and the threat bound.
    With it off the search is the plain recursion over every legal ballot in
    canonical order.
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
        # Preference keys (level, -g, f) packed into ints that compare the
        # same way: level * unit + base, with base = (n - g) * (n + 1) + f.
        radix = n + 1
        unit = radix * radix
        self._level = [
            [outcome_level(g, x, w) * unit for w in range(n)] for x in range(n)
        ]
        self._unit = unit
        self._no_bound = 3 * unit  # above every key: the bound never fires
        # Full canonical ballot lists per voter: (members, base, canonical
        # index).
        self._full_ballots: list[list[tuple[tuple[int, ...], int, int]]] = []
        for x in range(n):
            entries = []
            for idx, b in enumerate(legal_ballots(rule, x, n)):
                f, gcnt = assess(g, x, b)
                entries.append((tuple(sorted(b)), (n - gcnt) * radix + f, idx))
            self._full_ballots.append(entries)
        # Pruned searches visit ballots best bonus first (g ascending, f
        # descending), canonical order among equals; the threat bound needs it.
        self._visit_order = [
            sorted(entries, key=itemgetter(1), reverse=True)
            for entries in self._full_ballots
        ]
        self._ballot_cache: dict[tuple[int, int], list] = {}
        self._bits = [1 << a for a in range(n)]
        self._all = (1 << n) - 1
        self._conf_mask = [sum(1 << a for a in g.out_neighbors[x]) for x in range(n)]
        # Dead agents a voter does not confirm: approving one is dominated.
        self._droppable = [
            self._all & ~self._conf_mask[x] & ~(1 << x) for x in range(n)
        ]
        # later_conf[i]: agents confirmed by some voter of order[i:].
        self._later_conf = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            self._later_conf[i] = self._later_conf[i + 1] | self._conf_mask[self._order[i]]
        # Deadness compares (votes, tie-break precedence) packed as
        # votes * n + (n - 1 - tie-break rank); reach_key[i][z] adds the votes
        # z can still receive once i ballots are cast.
        tb_rank = [0] * n
        for rank, a in enumerate(g.tiebreak_order):
            tb_rank[a] = rank
        pos = [0] * n
        for p, a in enumerate(g.voting_order):
            pos[a] = p
        self._tb_key = [n - 1 - tb_rank[a] for a in range(n)]
        self._leader_of = [g.tiebreak_order[n - 1 - t] for t in range(n)]
        self._reach_key = [
            [((n - i) - (1 if pos[z] >= i else 0)) * n + self._tb_key[z] for z in range(n)]
            for i in range(n + 1)
        ]
        # Memo entries of terminal states, one per winner.
        self._terminal = [(frozenset((w,)), w, None) for w in range(n)]
        self._memo: dict = {}
        self._policy: Policy | None = None
        self.last_stats = SolveStats()

    # -- per-call bookkeeping -------------------------------------------------

    def _start(self, policy: Policy | None) -> None:
        """Fresh memo, counters and budget for one call."""
        self._memo = {}
        self._policy = policy
        self._nodes = 0
        self._hits = 0
        self._quiescent = 0
        self._bound_skips = 0
        self._max_nodes = self.budget.max_nodes
        self._t0 = time.monotonic()
        max_s = self.budget.max_seconds
        self._deadline = self._t0 + max_s if max_s is not None else None

    def _stats(self) -> SolveStats:
        return SolveStats(
            nodes=self._nodes,
            cache_hits=self._hits,
            cache_size=len(self._memo),
            wall_seconds=time.monotonic() - self._t0,
            quiescent=self._quiescent,
            bound_skips=self._bound_skips,
        )

    def _tick(self) -> None:
        self._nodes += 1
        max_n = self._max_nodes
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

    def _dead(self, i: int, scores: tuple[int, ...]) -> tuple[int, int]:
        """The bitmask of agents that can no longer win, and the leader.

        The leader is ``winner(scores)``.  ``z`` is dead when, given every
        vote it can still receive, it still trails the leader: fewer votes,
        or as many and later in the tie-breaking order.  Deadness is
        monotone along play and depends only on live agents' scores.
        """
        n = self.n
        lead = max([s * n + t for s, t in zip(scores, self._tb_key)])
        dead = 0
        for s, reach, bit in zip(scores, self._reach_key[i], self._bits):
            if s * n + reach < lead:
                dead |= bit
        return dead, self._leader_of[lead % n]

    def _canon(self, scores: tuple[int, ...], dead: int) -> tuple[int, ...]:
        if not dead:
            return scores
        return tuple(
            [_DEAD_SENTINEL if dead & bit else s for s, bit in zip(scores, self._bits)]
        )

    def _ballots_at(self, x: int, dead: int) -> list[tuple[tuple[int, ...], int, int]]:
        """Legal ballots for mover ``x`` in visit order, dominated ones pruned.

        A ballot approving a dead agent the mover does not confirm is
        dominated by the same ballot without that agent: the child states are
        winner-bisimilar and the larger ballot pays a strictly worse bonus.
        Filtering the visit-ordered list keeps its order.
        """
        banned = dead & self._droppable[x]
        if not banned:
            return self._visit_order[x]
        cache_key = (x, banned)
        cached = self._ballot_cache.get(cache_key)
        if cached is None:
            ban = {a for a in range(self.n) if banned >> a & 1}
            cached = [e for e in self._visit_order[x] if ban.isdisjoint(e[0])]
            self._ballot_cache[cache_key] = cached
        return cached

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
    ) -> tuple[frozenset[int], int | None, tuple[int, ...] | None]:
        """The memo entry of ``state`` (default: the initial state).

        The entry is ``(achievable set, policy winner, policy ballot)``; the
        last two are None without a policy, and the ballot is None at a
        terminal state.  Each call starts a fresh memo and has its own budget
        and ``last_stats``.
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
        self._start(policy)
        try:
            entry = self._search(state.i, state.scores)
        finally:
            self.last_stats = self._stats()
        return entry if policy is not None else (entry[0], None, None)

    def achievable_winners(self, state: SubgameState | None = None) -> frozenset[int]:
        """Exactly the agents elected in at least one SPE of the (sub)game."""
        return self.solve(state)[0]

    def policy_spe(
        self, policy: Policy, state: SubgameState | None = None
    ) -> PolicyResult:
        """One SPE selected by ``policy`` at every node: its on-path ballots and
        winner, with the achievable set the same search found."""
        if state is None:
            state = initial_state(self.n)
        winners, winner, _ = self.solve(state, policy)
        # The search is over and last_stats holds its counts.  The walk reads
        # the path back from it; a subgame it must search again (no memo) is
        # outside that search's budget.
        self._max_nodes = self._deadline = None
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
        """Entry of a state on the selected path: from the memo, or rebuilt
        where the search left none (a quiescent shortcut, or no memo)."""
        dead = 0
        if self.use_pruning:
            dead, leader = self._dead(i, scores)
            if not (self._all ^ dead) & self._later_conf[i]:
                return self._settled(self._order[i], dead, leader)
        if self.use_memo:
            return self._memo[(i, self._canon(scores, dead))]
        return self._search(i, scores)

    def _search(self, i: int, scores: tuple[int, ...]):
        if i == self.n:
            return self._terminal[self._winner(scores)]
        self._tick()
        x = self._order[i]
        dead = 0
        if self.use_pruning:
            dead, leader = self._dead(i, scores)
            live = self._all ^ dead
            if not live & self._later_conf[i]:
                self._quiescent += 1
                return self._settled(x, dead, leader)
        if self.use_memo:
            key = (i, self._canon(scores, dead))
            hit = self._memo.get(key)
            if hit is not None:
                self._hits += 1
                return hit
        levels = self._level[x]
        if self.use_pruning:
            ballots = self._ballots_at(x, dead)
            # The mover's best level over live agents: no ballot reaches more.
            if live >> x & 1:
                bound = levels[x]
            elif live & self._conf_mask[x]:
                bound = self._unit
            else:
                bound = 0
        else:
            ballots = self._full_ballots[x]
            bound = self._no_bound
        search = self._search
        entries = []  # (base, child entry, members, canonical index) per ballot
        m1 = -1  # the largest worst key so far
        for k, (members, base, idx) in enumerate(ballots):
            if bound + base < m1:
                # Threat bound: bases only fall from here on, so no outcome
                # of this or any later ballot can reach m1.
                self._bound_skips += len(ballots) - k
                break
            s = list(scores)
            for a in members:
                s[a] += 1
            child = search(i + 1, tuple(s))
            worst = min([levels[w] for w in child[0]]) + base
            if worst > m1:
                m1 = worst
            entries.append((base, child, members, idx))
        winners = self._combine(levels, entries, m1)
        if self._policy is None:
            entry = (winners, None, None)
        else:
            entry = (winners, *self._choose(levels, entries))
        if self.use_memo:
            self._memo[key] = entry
        return entry

    def _settled(self, x: int, dead: int, leader: int):
        """Entry of a quiescent state, where no voter still to move confirms
        a live agent: the leader wins every SPE.

        By backward induction, a vote for a live agent costs the voter -g
        and can only elect someone it values at level 0, and a vote for a
        dead agent changes no winner.  Under a policy the mover casts what
        :meth:`_choose` would pick: the first ballot, in canonical order,
        maximizing ``(-g, f)``, and ``bias_toward(t)`` prefers one
        approving ``t`` among those.  The visit order lists those ballots
        first, in canonical order.
        """
        if self._policy is None:
            return self._terminal[leader]
        ballots = self._ballots_at(x, dead)
        pick = ballots[0]
        target = self._policy.target
        if target is not None:
            for e in ballots:
                if e[1] != pick[1]:
                    break
                if target in e[0]:
                    pick = e
                    break
        return (self._terminal[leader][0], leader, pick[0])

    def _combine(self, levels: list[int], entries, m1: int) -> frozenset[int]:
        """Union of sustainable outcomes at a node.

        Outcome ``w`` of ballot ``b`` is sustainable when the mover weakly
        prefers it to the worst outcome of every other ballot.  The largest
        worst key ``m1`` can serve as the threshold for every ballot, its own
        included: every ``w`` in ``C_b`` has key at least ``b``'s worst key.
        """
        winners: set[int] = set()
        for base, child, _members, _idx in entries:
            floor = m1 - base
            for w in child[0]:
                if levels[w] >= floor:
                    winners.add(w)
        return frozenset(winners)

    def _choose(self, levels: list[int], entries) -> tuple[int, tuple[int, ...]]:
        """The policy's winner and ballot at a node: the first ballot, in
        canonical order, maximizing the mover's key at the child's policy
        winner; ``bias_toward(t)`` prefers a ballot approving ``t`` among
        the tied ones."""
        target = self._policy.target
        best = None
        for base, child, members, idx in entries:
            rank = (levels[child[1]] + base, target in members, -idx)
            if best is None or rank > best[0]:
                best = (rank, child[1], members)
        return best[1], best[2]


class NaiveSizeError(ValueError):
    """The instance is too large for the unmemoized reference solver."""


def naive_achievable_winners(
    g: ConfirmationNetwork, rule: Rule, *, max_leaves: int = 4_000_000
) -> frozenset[int]:
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
    return frozenset(result)

